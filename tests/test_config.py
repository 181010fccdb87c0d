"""Config loading: schema enforcement, value rules, defaults, error paths."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from kgeolab import ConfigError, ExperimentConfig, load_config, load_schema, parse_config

AMP = 0.05 / (2.0 * np.pi) ** 2

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
SCHEMAS_DIR = Path(__file__).resolve().parent.parent / "src" / "kgeolab" / "schemas"


def _doc(**overrides) -> dict:
    doc = {
        "grid": {"n_points": 64},
        "time": {"n_time": 8},
        "endpoints": {"endpoint_0": [], "endpoint_1": [[1, AMP, 0.0]]},
    }
    doc.update(overrides)
    return doc


def test_minimal_doc_defaults():
    doc = _doc()
    cfg = parse_config(doc)
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.raw is doc
    assert cfg.bg.grid.n_points == 64
    assert cfg.n_time == 8
    assert cfg.bg.scheme == "central2"
    for name in ("epsilons", "deltas", "a_values", "chi", "k_list"):
        assert getattr(cfg, name) is None
    assert cfg.tolerances == {"geodesic": 1e-10, "fiber": 1e-11}
    assert cfg.seed == 0
    assert cfg.out_dir == "out"
    assert np.all(cfg.endpoint_0 == 0.0)
    x = cfg.bg.grid.nodes
    assert np.allclose(cfg.endpoint_1, AMP * np.cos(2.0 * np.pi * x), atol=1e-15)


def test_endpoints_are_read_only():
    cfg = parse_config(_doc())
    with pytest.raises(ValueError):
        cfg.endpoint_0[0] = 1.0


# one structural error each, caught by the schema
SCHEMA_REJECTED = [
    {"grid": {"n_points": 9}},
    {"grid": {"n_points": 6}},
    {"grid": {"n_points": 64, "scheme": "upwind"}},
    {"unexpected": {}},
    {"endpoints": {"endpoint_0": [], "endpoint_1": [[1, AMP]]}},
    {"epsilons": [0.1, -0.1]},
    {"epsilons": []},
    {"truncation": {"a_values": [0.5]}},
    {"tolerances": {"geodesic": 0.0}},
    {"out_dir": ""},
]


@pytest.mark.parametrize("overrides", SCHEMA_REJECTED)
def test_schema_rejections(overrides):
    with pytest.raises(ConfigError, match="does not match schema"):
        parse_config(_doc(**overrides))


@pytest.mark.parametrize("overrides", SCHEMA_REJECTED)
def test_schema_error_text_equals_jsonschema_validate(overrides):
    doc = _doc(**overrides)
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(doc, load_schema("config"))
    with pytest.raises(ConfigError) as got:
        parse_config(doc)
    assert str(got.value) == f"config does not match schema: {ref.value.message} (at {ref.value.json_path})"


@pytest.mark.parametrize("name", sorted(p.name.split(".")[0] for p in SCHEMAS_DIR.glob("*.schema.json")))
def test_shipped_schemas_are_valid(name):
    # validate_against_schema no longer checks the schema on every call
    schema = load_schema(name)
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_ladder_order_rules():
    with pytest.raises(ConfigError, match="epsilons must be strictly decreasing"):
        parse_config(_doc(epsilons=[1e-3, 1e-2]))
    with pytest.raises(ConfigError, match="deltas must be strictly decreasing"):
        parse_config(_doc(deltas=[0.1, 0.1]))
    cfg = parse_config(_doc(epsilons=[0.1, 0.01], deltas=[0.1, 0.05]))
    assert cfg.epsilons == (0.1, 0.01)
    assert cfg.deltas == (0.1, 0.05)


def test_inadmissible_background_rejected():
    with pytest.raises(ConfigError, match="background"):
        parse_config(_doc(background={"psi": [[1, 0.5, 0.0]]}))


def test_inadmissible_endpoint_rejected():
    bad = {"endpoint_0": [], "endpoint_1": [[1, 1.0, 0.0]]}
    with pytest.raises(ConfigError, match="endpoint_1 is not admissible"):
        parse_config(_doc(endpoints=bad))


def test_spectral_scheme_rejected():
    """The solvers need the central2 stencil, so the config accepts no other."""
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(_doc(grid={"n_points": 64, "scheme": "spectral"}))


def test_truncation_section():
    cfg = parse_config(_doc(truncation={"a_values": [2, 5], "chi": [[0, 1.0, 0.0]]}))
    assert cfg.a_values == (2.0, 5.0)
    assert np.allclose(cfg.chi, 1.0, atol=1e-15)


def test_k_list_and_seed():
    cfg = parse_config(_doc(k_list=[1, 2], seed=7, out_dir="results"))
    assert cfg.k_list == (1, 2)
    assert cfg.seed == 7
    assert cfg.out_dir == "results"


def test_tolerances_merge_with_defaults():
    cfg = parse_config(_doc(tolerances={"geodesic": 1e-9}))
    assert cfg.tolerances == {"geodesic": 1e-9, "fiber": 1e-11}


def test_require_hints():
    cfg = parse_config(_doc())
    with pytest.raises(ConfigError, match='top-level "epsilons" list'):
        cfg.require("epsilons")
    with pytest.raises(ConfigError, match="a_values"):
        cfg.require("a_values")
    parse_config(_doc(epsilons=[0.1])).require("epsilons")


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="--config PATH is required"):
        load_config(None)
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{,")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(broken)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_config(listy)


def test_load_config_roundtrip(tmp_path):
    doc = _doc(epsilons=[0.1, 0.01])
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.raw == doc
    assert cfg.epsilons == (0.1, 0.01)


def test_load_schema_is_cached():
    a = load_schema("config")
    assert a is load_schema("config")
    assert a["$id"] == "kgeolab/config.schema.json"


@pytest.mark.parametrize("name", ["canonical.json", "equal.json"])
def test_shipped_configs_parse(name):
    cfg = load_config(CONFIGS_DIR / name)
    assert cfg.bg.grid.n_points == 256
    assert cfg.epsilons is not None
