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
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import jsonschema
import numpy as np

from .errors import ConfigError, NonAdmissiblePsi
from .model import Background, SpatialGrid, fourier_field, is_admissible, make_background
from .model import _decreasing_ladder

#: tolerance overrides accepted under "tolerances"; values are the defaults
#: of the corresponding solver entry points.
DEFAULT_TOLERANCES = {"geodesic": 1e-10, "fiber": 1e-11}


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    """Load a shipped JSON schema by stem, e.g. load_schema("config")."""
    path = resources.files("kgeolab").joinpath(f"schemas/{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def validate_against_schema(doc, name: str) -> None:
    """Validate a document against the shipped schema ``name``."""
    jsonschema.validate(doc, load_schema(name))


@dataclass(eq=False)
class ExperimentConfig:
    """Parsed and semantically validated experiment description.

    ``raw`` keeps the original JSON document verbatim; reports echo it so
    every artifact records the exact inputs that produced it.  Optional
    sections parse to None and each subcommand demands what it needs via
    require().
    """

    raw: dict
    grid: SpatialGrid
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
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config does not match schema: {exc.message} (at {exc.json_path})") from exc

    grid_doc = doc["grid"]
    scheme = grid_doc.get("scheme", "central2")
    try:
        grid = SpatialGrid(int(grid_doc["n_points"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    psi_terms = doc.get("background", {}).get("psi", [])
    try:
        bg = make_background(grid, psi=fourier_field(grid, psi_terms), scheme=scheme)
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
        grid=grid,
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
