"""The package's schema validator against jsonschema, on all seven shipped schemas.

``validate_against_schema`` walks the schemas itself, so every process is
spared importing jsonschema.  It must accept and reject what jsonschema
does and report the error that ``jsonschema.exceptions.best_match`` picks,
with the same ``message`` and ``json_path``.  The documents are the reports
of a real ``study`` run, a full config, and a deterministic corpus of
mutations, each of which breaks one keyword at one place of a valid document.
"""

import itertools
import json
from functools import lru_cache
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from kgeolab import SchemaViolation, config, load_schema, validate_against_schema
from kgeolab.cli import main

AMP = 0.05 / (2.0 * np.pi) ** 2
SCHEMAS_DIR = Path(__file__).resolve().parent.parent / "src" / "kgeolab" / "schemas"
NAMES = sorted(p.name.split(".")[0] for p in SCHEMAS_DIR.glob("*.schema.json"))

#: every keyword of the shipped schemas that can reject a document
ASSERTIONS = {
    "type", "required", "additionalProperties", "items", "minItems", "maxItems",
    "minLength", "minimum", "exclusiveMinimum", "multipleOf", "enum",
}

STUDY_CONFIG = {
    "grid": {"n_points": 64},
    "time": {"n_time": 8},
    "endpoints": {"endpoint_0": [], "endpoint_1": [[1, AMP, 0.0]]},
    "epsilons": [0.1, 0.01, 0.001],
    "deltas": [0.1, 0.05, 0.025],
    "k_list": [1, 2],
    "truncation": {"a_values": [2, 5]},
}
FULL_CONFIG = {
    **STUDY_CONFIG,
    "grid": {"n_points": 64, "scheme": "central2"},
    "background": {"psi": [[2, 0.001, 0.0005]]},
    "truncation": {"a_values": [2, 5], "chi": [[0, 1.0, 0.0]]},
    "tolerances": {"geodesic": 1e-10, "fiber": 1e-11},
    "seed": 3,
    "out_dir": "results",
}
DIAGNOSTIC = {"timestamp": "2026-01-01T00:00:00+00:00", "stage": "geodesic",
              "error_type": "NoConvergence", "message": "eps-geodesic solve failed"}
REPORT_SCHEMAS = {
    "geodesic_report.json": "geodesic_report",
    "fiberwise_report.json": "fiberwise_report",
    "mabuchi_exact_report.json": "mabuchi_report",
    "mabuchi_k_report.json": "mabuchi_report",
    "mabuchi_epsa_report.json": "mabuchi_report",
    "verify_report.json": "verify_report",
    "study_report.json": "study_report",
}


@lru_cache(maxsize=None)
def _reference(name):
    schema = load_schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


def _jsonschema_error(doc, name):
    error = jsonschema.exceptions.best_match(_reference(name).iter_errors(doc))
    return None if error is None else (error.message, error.json_path)


def _package_error(doc, name):
    try:
        validate_against_schema(doc, name)
    except SchemaViolation as exc:
        assert str(exc) == f"{name} document does not match its schema: {exc.message} (at {exc.json_path})"
        return exc.message, exc.json_path
    return None


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A valid document per shipped schema: the reports of a study run, a full config, a diagnostic."""
    tmp = tmp_path_factory.mktemp("study")
    (tmp / "config.json").write_text(json.dumps(STUDY_CONFIG))
    assert main(["study", "--config", str(tmp / "config.json"), "--out", str(tmp / "out")]) == 0
    docs = [(name, json.loads((tmp / "out" / report).read_text())) for report, name in REPORT_SCHEMAS.items()]
    return docs + [("config", STUDY_CONFIG), ("config", FULL_CONFIG), ("diagnostic", DIAGNOSTIC)]


def test_study_reports_validate_under_both(documents):
    assert sorted({name for name, _ in documents}) == NAMES
    for name, doc in documents:
        assert _jsonschema_error(doc, name) is None
        assert _package_error(doc, name) is None


# ---------------------------------------------------------------------------
# one-violation corpus


def _resolve(schema, root):
    if "$ref" in schema:
        return root["$defs"][schema["$ref"].rsplit("/", 1)[-1]]
    return schema


def _locations(doc, schema, root, path=()):
    """(path, subschema, value) for every place of doc the schema describes; the first item of each array."""
    schema = _resolve(schema, root)
    yield path, schema, doc
    if isinstance(doc, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                yield from _locations(doc[key], sub, root, path + (key,))
    elif isinstance(doc, list):
        prefix = schema.get("prefixItems", [])
        for index, sub in enumerate(prefix[: len(doc)]):
            yield from _locations(doc[index], sub, root, path + (index,))
        if schema.get("items", False) is not False and len(doc) > len(prefix):
            yield from _locations(doc[len(prefix)], schema["items"], root, path + (len(prefix),))


WRONG_TYPE = {"object": [], "array": {}, "number": "1", "integer": 1.5, "string": 0, "boolean": "true"}


def _mutations(schema, value):
    """(keyword, value) pairs, each breaking one keyword of schema at this place."""
    if "type" in schema:
        yield "type", WRONG_TYPE[schema["type"]]
        if schema["type"] in ("integer", "number"):
            yield "type", True  # bool is not a number
    for key in schema.get("required", ()):
        yield "required", {k: v for k, v in value.items() if k != key}
    if schema.get("additionalProperties") is False:
        yield "additionalProperties", {**value, "unexpected": 1}
    if schema.get("items") is False:
        yield "items", value + [0.0]
    if "minItems" in schema:
        yield "minItems", value[: schema["minItems"] - 1]
    if "maxItems" in schema:
        yield "maxItems", value + value[:1]
    if "minLength" in schema:
        yield "minLength", ""
    if "minimum" in schema:
        yield "minimum", schema["minimum"] - 2
    if "exclusiveMinimum" in schema:
        yield "exclusiveMinimum", schema["exclusiveMinimum"]
        yield "exclusiveMinimum", -1.0
    if "multipleOf" in schema:
        yield "multipleOf", value + 1
        yield "multipleOf", float(value + 1)
    if "enum" in schema:
        yield "enum", "bogus"
        yield "enum", 0


def _replace(doc, path, value):
    """A copy of doc with the value at path replaced; containers off the path are shared."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replace(doc[path[0]], path[1:], value)
    return copy


def _mutated_places(name, doc):
    """(keyword, path, value) for every place of doc and every keyword there that a value can break."""
    root = load_schema(name)
    for path, schema, value in _locations(doc, root, root):
        for keyword, mutated in _mutations(schema, value):
            yield keyword, path, mutated


def _corpus(documents):
    """(schema name, keyword, path, document) with one mutated place, for every document."""
    for name, doc in documents:
        for keyword, path, value in _mutated_places(name, doc):
            yield name, keyword, path, _replace(doc, path, value)


def _schema_keywords(schema):
    """Every key of every subschema of a shipped schema."""
    if isinstance(schema, dict):
        for key, value in schema.items():
            if key != "items" or value is False:  # an items schema asserts nothing itself
                yield key
            if key in ("properties", "$defs"):
                for sub in value.values():
                    yield from _schema_keywords(sub)
            elif key in ("items", "prefixItems"):
                for sub in (value if isinstance(value, list) else [value]):
                    yield from _schema_keywords(sub)


def test_corpus_covers_every_keyword_of_every_schema(documents):
    covered = {(name, keyword) for name, keyword, _, _ in _corpus(documents)}
    for name in NAMES:
        used = ASSERTIONS & set(_schema_keywords(load_schema(name)))
        assert {(name, k) for k in used} <= covered, name


def test_one_violation_corpus_matches_jsonschema(documents):
    count = 0
    for name, keyword, path, doc in _corpus(documents):
        expected = _jsonschema_error(doc, name)
        assert expected is not None, (name, keyword, path)
        assert _package_error(doc, name) == expected, (name, keyword, path)
        count += 1
    assert count > 500


@pytest.mark.parametrize("n_points, error", [
    (64.0, None),
    (9.0, ("9.0 is not a multiple of 2", "$.grid.n_points")),
    (9, ("9 is not a multiple of 2", "$.grid.n_points")),
    (True, ("True is not of type 'integer'", "$.grid.n_points")),
    (6, ("6 is less than the minimum of 8", "$.grid.n_points")),
])
def test_grid_size_type_rules(n_points, error):
    doc = {**STUDY_CONFIG, "grid": {"n_points": n_points}}
    assert _jsonschema_error(doc, "config") == error
    assert _package_error(doc, "config") == error


# ---------------------------------------------------------------------------
# several violations: the error best_match picks


MULTI_VIOLATION = [
    ("config", {"unexpected": 1, "time": {"n_time": 1}}),
    ("config", {"zeta": 1, "grid": {}, "alpha": 2, "Beta": 3}),
    ("config", {**STUDY_CONFIG, "zeta": 1, "alpha": 2, "Beta": 3}),
    ("config", {"grid": {"n_points": 9.5, "scheme": "upwind"}, "time": {}, "endpoints": [], "seed": -1}),
    ("config", {**STUDY_CONFIG, "endpoints": {"endpoint_0": [[1, 2]], "endpoint_1": [[1.5, 0.0, 0.0, 1.0]]}}),
    ("config", {**STUDY_CONFIG, "epsilons": [0.1, 0, -1], "deltas": [], "k_list": [0, True]}),
    ("config", {**STUDY_CONFIG, "tolerances": {"geodesic": 0, "fiber": "x", "other": 1}, "out_dir": ""}),
    ("diagnostic", {"timestamp": 0, "stage": 1, "extra": None}),
    ("study_report", {"timestamp": "t", "config": [], "stages": {"geodesic": {}, "bogus": 1}, "passed": 1}),
    ("verify_report", {"timestamp": "t", "config": {}, "suite": "none", "results": [],
                       "counts": {"total": -1, "passed": 0.5}, "passed": True}),
]


@pytest.mark.parametrize("name, doc", MULTI_VIOLATION)
def test_several_violations_select_the_best_match(name, doc):
    expected = _jsonschema_error(doc, name)
    assert expected is not None
    assert _package_error(doc, name) == expected


def test_pairs_of_config_violations_select_the_best_match():
    """Every fifth pair of one-violation mutations of a full config, at unrelated places, applied together."""
    singles = [(path, value) for _, path, value in _mutated_places("config", FULL_CONFIG)]
    pairs = 0
    for (path_a, value_a), (path_b, value_b) in itertools.islice(itertools.combinations(singles, 2), 0, None, 5):
        if path_a[: len(path_b)] == path_b or path_b[: len(path_a)] == path_a:
            continue  # one place inside the other
        doc = _replace(_replace(FULL_CONFIG, path_a, value_a), path_b, value_b)
        assert _package_error(doc, "config") == _jsonschema_error(doc, "config"), (path_a, path_b)
        pairs += 1
    assert pairs > 800


# ---------------------------------------------------------------------------
# schemas outside the shipped ones


def _load_only(schema, monkeypatch):
    """Make validate_against_schema read this schema under any name, with a cache of its own."""
    monkeypatch.setattr(config, "load_schema", lambda name: schema)
    monkeypatch.setattr(config, "_checked_schema", lru_cache(config._checked_schema.__wrapped__))


@pytest.mark.parametrize("schema, doc", [
    ({"type": "object", "properties": {"a b": {"type": "array", "items": {
        "type": "object", "properties": {"x'y\\": {"type": "integer"}, "_z": {"type": "string"}}}}}},
     {"a b": [{"x'y\\": "s", "_z": 0}]}),
    ({"$defs": {"x": {"enum": ["x"]}}, "type": "integer", "minimum": 5, "$ref": "#/$defs/x"}, 3),
    ({"multipleOf": 0.1}, 0.3),
    ({"multipleOf": 0.1}, 0.5),
    ({"multipleOf": 0.1}, 0.7),
    ({"multipleOf": 0.5}, 7.25),
    ({"multipleOf": 0.1}, 1e308),
    ({"type": ["integer", "string"], "minimum": 2}, 1),
    ({"type": ["integer", "string"], "minimum": 2}, 1.5),
    ({"minItems": 2}, [1]),
    ({"maxItems": 0}, [1]),
    ({"minLength": 3}, "ab"),
    ({"prefixItems": [{"type": "string"}], "items": False}, ["a", 1]),
    ({"prefixItems": [{"type": "string"}, {"type": "string"}], "items": False}, ["a", "b", 1, 2]),
])
def test_other_schemas_match_jsonschema(schema, doc, monkeypatch):
    _load_only(schema, monkeypatch)
    expected = jsonschema.exceptions.best_match(jsonschema.Draft202012Validator(schema).iter_errors(doc))
    expected = None if expected is None else (expected.message, expected.json_path)
    assert _package_error(doc, "other") == expected


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"type": "object", "properties": {"x": {"maximum": 3}}},
    {"$defs": {"unused": {"uniqueItems": True}}},
    {"type": "object", "additionalProperties": {"type": "string"}},
    {"type": "array", "items": True},
    {"type": "decimal"},
    {"enum": [1, 2]},
    {"$ref": "#/definitions/x"},
    {"anyOf": [{"type": "string"}, {"type": "integer"}]},
])
def test_unsupported_schema_keywords_raise(schema, monkeypatch):
    _load_only(schema, monkeypatch)
    with pytest.raises(ValueError, match="not supported|not an object|not a local reference"):
        validate_against_schema({}, "unsupported")
