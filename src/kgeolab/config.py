"""Experiment configuration: one JSON document drives every subcommand.

Potentials (background psi, the two endpoints, the truncation weight chi)
are finite Fourier coefficient lists [(k, a_k, b_k)] evaluated as
sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x).  This keeps every input
periodic and smooth by construction and makes admissibility a closed-form
check at load time, which is where all input validation lives: anything a
config file can get wrong raises ConfigError here, before any solver runs.

The JSON layout is fixed by schemas/config.schema.json; structural errors
are reported through the schema validator, value-level rules (positivity,
monotone ladders, admissible endpoints) are rechecked explicitly because a
schema cannot express them.
"""

from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import ConfigError, NonAdmissiblePsi, SchemaViolation
from .model import Background, SpatialGrid, fourier_field, is_admissible, make_background
from .model import _decreasing_ladder

#: tolerance overrides accepted under "tolerances"; values are the defaults
#: of the corresponding solver entry points.
DEFAULT_TOLERANCES = {"geodesic": 1e-10, "fiber": 1e-11}

#: verify's entropy checks oscillate at the frequencies 1..OSCILLATION_COUNT
OSCILLATION_COUNT = 12


def verify_grid_needs(n_points: int, suite: str) -> str | None:
    """What verify's suite (or all) needs of grid.n_points that n_points lacks, or None: one rule for
    cli, which checks it before it imports verify, and for verify's own checks."""
    if suite in ("all", "entropy") and OSCILLATION_COUNT >= n_points // 2:
        return f"grid.n_points >= {2 * OSCILLATION_COUNT + 2} for the entropy checks' frequencies to stay below Nyquist"
    if suite in ("all", "curvature") and (n_points % 8 != 0 or n_points < 32):  # grids of every 2nd and 4th node
        return "grid.n_points a multiple of 8 and >= 32 for the quarter grid of the curvature refinement study"
    return None


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    """Load a shipped JSON schema by stem, e.g. load_schema("config")."""
    path = resources.files("kgeolab").joinpath(f"schemas/{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# schema validation
#
# The shipped schemas use a handful of draft 2020-12 keywords, so they are
# walked here instead of through jsonschema, which costs every process about
# 0.09 s and 4 MB to import.  Type rules, messages, paths and the choice among
# several violations follow jsonschema 4.26 (_keywords.py, _types.py and
# exceptions.best_match); tests/test_schema_validator.py checks them against it.

#: keywords that carry no assertion
_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description", "$defs"})

_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}


def _type_names(types) -> list:
    return [types] if isinstance(types, str) else types


def _is_type(instance, types) -> bool:
    return any(_TYPES[t](instance) for t in _type_names(types))


def _violations(keyword: str, value, instance, schema: dict) -> list:
    """The messages of one assertion keyword, as jsonschema's _keywords.py words them."""
    if keyword == "type":
        if _is_type(instance, value):
            return []
        return [f"{instance!r} is not of type {', '.join(map(repr, _type_names(value)))}"]
    if keyword == "enum":  # string members only (_check_schema), so == is JSON equality
        return [] if instance in value else [f"{instance!r} is not one of {value!r}"]
    if isinstance(instance, dict):
        if keyword == "required":
            return [f"{name!r} is a required property" for name in value if name not in instance]
        if keyword == "additionalProperties":  # false, the one form _check_schema lets through
            extras = sorted({k for k in instance if k not in schema.get("properties", {})}, key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                return [f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"]
    elif isinstance(instance, list):
        prefix = len(schema.get("prefixItems", ()))
        if keyword == "items" and len(instance) > prefix:  # items: false; a schema is descended into
            extra = len(instance) - prefix
            rest = instance[prefix:] if extra != 1 else instance[prefix]
            return [f"Expected at most {prefix} {'items' if prefix != 1 else 'item'} but found {extra} extra: {rest!r}"]
        if keyword == "minItems" and len(instance) < value:
            return [f"{instance!r} {'should be non-empty' if value == 1 else 'is too short'}"]
        if keyword == "maxItems" and len(instance) > value:
            return [f"{instance!r} {'is expected to be empty' if value == 0 else 'is too long'}"]
    elif isinstance(instance, str):
        if keyword == "minLength" and len(instance) < value:
            return [f"{instance!r} {'should be non-empty' if value == 1 else 'is too short'}"]
    elif _TYPES["number"](instance):
        if keyword == "minimum" and instance < value:
            return [f"{instance!r} is less than the minimum of {value!r}"]
        if keyword == "exclusiveMinimum" and instance <= value:
            return [f"{instance!r} is less than or equal to the minimum of {value!r}"]
        if keyword == "multipleOf":
            if isinstance(value, float):
                quotient = instance / value
                try:
                    failed = int(quotient) != quotient
                except OverflowError:  # an infinite quotient: decide exactly
                    from fractions import Fraction

                    failed = (Fraction(instance) / Fraction(value)).denominator != 1
            else:
                failed = instance % value
            if failed:
                return [f"{instance!r} is not a multiple of {value}"]
    return []


_ASSERTIONS = frozenset({
    "type", "enum", "required", "additionalProperties", "minItems", "maxItems",
    "minLength", "minimum", "exclusiveMinimum", "multipleOf",
})
_APPLICATORS = frozenset({"properties", "items", "prefixItems", "$ref"})


def _resolve(root: dict, ref: str) -> dict:
    prefix = "#/$defs/"
    name = ref[len(prefix):]
    if not ref.startswith(prefix) or name not in root.get("$defs", {}):
        raise ValueError(f"schema $ref {ref!r} is not a local reference into $defs")
    return root["$defs"][name]


def _check_schema(schema, root: dict) -> None:
    """Raise ValueError on any keyword or form the validator does not implement."""
    if not isinstance(schema, dict):
        raise ValueError(f"schema {schema!r} is not an object")
    for keyword, value in schema.items():
        if keyword not in _ASSERTIONS and keyword not in _APPLICATORS and keyword not in _ANNOTATIONS:
            raise ValueError(f"schema keyword {keyword!r} is not supported")
        if keyword == "type":
            supported = all(t in _TYPES for t in _type_names(value))
        elif keyword == "additionalProperties":
            supported = value is False
        elif keyword == "enum":
            supported = all(isinstance(v, str) for v in value)
        else:
            supported = True
        if not supported:
            raise ValueError(f"schema keyword {keyword!r} with value {value!r} is not supported")
    subschemas = [
        *schema.get("properties", {}).values(),
        *schema.get("prefixItems", ()),
        *schema.get("$defs", {}).values(),
    ]
    if "$ref" in schema:
        subschemas.append(_resolve(root, schema["$ref"]))
    if schema.get("items", False) is not False:
        subschemas.append(schema["items"])
    for sub in subschemas:
        _check_schema(sub, root)


def _collect_errors(instance, schema: dict, root: dict, path: tuple, out: list) -> None:
    """Append (path, message, schema, instance) per violation, in jsonschema's order."""
    for keyword, value in schema.items():
        if keyword == "properties":
            if isinstance(instance, dict):
                for name, sub in value.items():
                    if name in instance:
                        _collect_errors(instance[name], sub, root, path + (name,), out)
        elif keyword == "prefixItems":
            if isinstance(instance, list):
                for index, (item, sub) in enumerate(zip(instance, value)):
                    _collect_errors(item, sub, root, path + (index,), out)
        elif keyword == "items" and value is not False:
            if isinstance(instance, list):
                for index in range(len(schema.get("prefixItems", ())), len(instance)):
                    _collect_errors(instance[index], value, root, path + (index,), out)
        elif keyword == "$ref":
            _collect_errors(instance, _resolve(root, value), root, path, out)
        elif keyword not in _ANNOTATIONS:
            out.extend((path, message, schema, instance) for message in _violations(keyword, value, instance, schema))


def _relevance(error) -> tuple:
    """jsonschema.exceptions.relevance for keywords that are neither weak nor strong."""
    path, _, schema, instance = error
    return (-len(path), path, not ("type" in schema and _is_type(instance, schema["type"])))


_JSON_PATH_NAME = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _json_path(path: tuple) -> str:
    parts = ["$"]
    for elem in path:
        if isinstance(elem, int):
            parts.append(f"[{elem}]")
        elif _JSON_PATH_NAME.match(elem):
            parts.append(f".{elem}")
        else:
            parts.append("['" + elem.replace("\\", "\\\\").replace("'", "\\'") + "']")
    return "".join(parts)


@lru_cache(maxsize=None)
def _checked_schema(name: str) -> dict:
    schema = load_schema(name)
    _check_schema(schema, schema)
    return schema


def validate_against_schema(doc, name: str) -> None:
    """Validate a document against the shipped schema ``name``.

    Raises SchemaViolation with the message and JSON path of the error that
    jsonschema.exceptions.best_match would pick.
    """
    schema = _checked_schema(name)
    errors = []
    _collect_errors(doc, schema, schema, (), errors)
    if errors:
        path, message, _, _ = max(errors, key=_relevance)
        raise SchemaViolation(name, message, _json_path(path))


@dataclass(eq=False)
class ExperimentConfig:
    """Parsed and semantically validated experiment description.

    ``raw`` keeps the original JSON document verbatim; reports echo it so
    every artifact records the exact inputs that produced it.  Optional
    sections parse to None and each subcommand demands what it needs via
    require().
    """

    raw: dict
    bg: Background
    endpoint_0: np.ndarray
    endpoint_1: np.ndarray
    n_time: int
    epsilons: tuple | None
    deltas: tuple | None
    a_values: tuple | None
    chi: np.ndarray | None
    k_list: tuple | None
    tolerances: dict
    seed: int
    out_dir: str

    def __post_init__(self):
        self.endpoint_0.setflags(write=False)
        self.endpoint_1.setflags(write=False)

    def require(self, *names: str) -> None:
        """Raise ConfigError unless every named optional section is present."""
        hints = {
            "epsilons": 'top-level "epsilons" list',
            "deltas": 'top-level "deltas" list',
            "a_values": '"truncation": {"a_values": [...]}',
            "k_list": 'top-level "k_list" list',
        }
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(f"this run needs {hints[name]} in the config")


def _admissible_endpoint(bg: Background, terms, label: str) -> np.ndarray:
    values = fourier_field(bg.grid, terms)
    if not is_admissible(bg, values):
        low = float(np.min(bg.w + bg.d2(values)))
        raise ConfigError(
            f"{label} is not admissible: min(w + D2 phi) = {low:.6g} <= 0"
        )
    return values


def parse_config(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from an already-decoded JSON document."""
    try:
        validate_against_schema(doc, "config")
    except SchemaViolation as exc:
        raise ConfigError(f"config does not match schema: {exc.message} (at {exc.json_path})") from exc

    grid_doc = doc["grid"]
    try:
        grid = SpatialGrid(int(grid_doc["n_points"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    psi_terms = doc.get("background", {}).get("psi", [])
    try:
        bg = make_background(grid, psi=fourier_field(grid, psi_terms))
    except (NonAdmissiblePsi, ValueError) as exc:
        raise ConfigError(f"background: {exc}") from exc

    endpoints = doc["endpoints"]
    endpoint_0 = _admissible_endpoint(bg, endpoints["endpoint_0"], "endpoint_0")
    endpoint_1 = _admissible_endpoint(bg, endpoints["endpoint_1"], "endpoint_1")

    n_time = int(doc["time"]["n_time"])

    epsilons = doc.get("epsilons")
    if epsilons is not None:
        epsilons = _decreasing_ladder(epsilons, "epsilons", ConfigError)
    deltas = doc.get("deltas")
    if deltas is not None:
        deltas = _decreasing_ladder(deltas, "deltas", ConfigError)

    trunc = doc.get("truncation", {})
    a_values = trunc.get("a_values")
    if a_values is not None:
        a_values = tuple(float(a) for a in a_values)
        if any(a < 1.0 for a in a_values):
            raise ConfigError(f"truncation a_values must be >= 1, got {list(a_values)}")
    chi = trunc.get("chi")
    if chi is not None:
        chi = fourier_field(grid, chi)

    k_list = doc.get("k_list")
    if k_list is not None:
        k_list = tuple(int(k) for k in k_list)

    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update({k: float(v) for k, v in doc.get("tolerances", {}).items()})

    return ExperimentConfig(
        raw=doc,
        bg=bg,
        endpoint_0=endpoint_0,
        endpoint_1=endpoint_1,
        n_time=n_time,
        epsilons=epsilons,
        deltas=deltas,
        a_values=a_values,
        chi=chi,
        k_list=k_list,
        tolerances=tolerances,
        seed=int(doc.get("seed", 0)),
        out_dir=str(doc.get("out_dir", "out")),
    )


def load_config(path) -> ExperimentConfig:
    """Read, schema-check, and semantically validate one config file."""
    if path is None:
        raise ConfigError("--config PATH is required")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return parse_config(doc)
