"""End-to-end CLI runs: exit codes, artifacts, determinism, env overrides."""

import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kgeolab import (
    FunctionalTrace,
    PathField,
    SpatialGrid,
    cli,
    geodesic,
    ma_fiber,
    parse_config,
    second_differences,
    verify,
)
from kgeolab.cli import main
from kgeolab.errors import ConfigError, NoConvergence, PositivityLoss, SchemaViolation, SingularSystem

AMP = 0.05 / (2.0 * np.pi) ** 2


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("KGEOLAB_OUT_DIR", raising=False)


def _write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "grid": {"n_points": 64},
        "time": {"n_time": 8},
        "endpoints": {"endpoint_0": [], "endpoint_1": [[1, AMP, 0.0]]},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _no_tmp_leftovers(out_dir):
    return not list(out_dir.glob(".*.tmp"))


def test_cli_import_leaves_slow_scipy_modules_unloaded():
    """Importing the CLI loads neither scipy.ndimage nor scipy.special, which the package never imports."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, kgeolab.cli; "
        "print(sorted(m for m in sys.modules if m in ('scipy.ndimage', 'scipy.special')))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_config_loading_and_config_errors_leave_scipy_unloaded(tmp_path):
    """Import, load_config and an exit-1 config error load no scipy module."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    bad = _write_config(tmp_path, grid={"n_points": 9})
    code = (
        "import sys\n"
        "import kgeolab.cli as cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        f"cli.load_config({str(root / 'configs' / 'canonical.json')!r})\n"
        "print(scipy_modules())\n"
        f"print(cli.main(['geodesic', '--config', {bad!r}]), scipy_modules())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[]", "1 []"]
    assert "does not match schema" in done.stderr


def test_set_up_and_config_errors_leave_the_solver_modules_unloaded(tmp_path):
    """Importing the CLI, loading a config, --help and an exit-1 config error import no solver
    module: the pipelines import what they run once the config has validated."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    bad = _write_config(tmp_path, grid={"n_points": 9})
    code = (
        "import contextlib, io, sys\n"
        "import kgeolab.cli as cli\n"
        "def solvers():\n"
        "    names = ('geodesic', 'ma_fiber', 'functionals', 'regularize', 'verify', '_newton')\n"
        "    return [m for m in names if f'kgeolab.{m}' in sys.modules]\n"
        f"cli.load_config({str(root / 'configs' / 'canonical.json')!r})\n"
        "print(solvers())\n"
        f"print(cli.main(['geodesic', '--config', {bad!r}]), solvers())\n"
        "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['study', '--help'])\n"
        "print(solvers())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[]", "1 []", "[]"]
    assert "does not match schema" in done.stderr


def test_study_and_verify_leave_scipy_special_unloaded(tmp_path):
    """study and verify on the canonical config pass with scipy blocked and load no scipy module:
    the entropies compute x log y with numpy, the geodesic factors its Jacobian by nested
    dissection and the fiber step solves by cyclic reduction.  Nor do they load numpy.ma, which
    np.unique and np.union1d import on first use, or numpy.random, secrets and hashlib: verify
    draws its test data from random.Random."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    cfg = str(root / "configs" / "canonical.json")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of it raises ImportError\n"
        "from kgeolab.cli import main\n"
        f"rcs = [main([cmd, '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) for cmd in ('study', 'verify')]\n"
        "print(rcs, sorted(m for m in sys.modules if m.startswith(('scipy.', 'numpy.ma.', 'numpy.random.'))\n"
        "                  or m in ('numpy.ma', 'numpy.random', 'secrets', 'hashlib')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0] []"


# ---------------------------------------------------------------------------
# exit code 1: configuration errors


def test_no_subcommand(capsys):
    assert main([]) == 1
    assert "a subcommand is required" in capsys.readouterr().err


def test_unknown_subcommand():
    # argparse rejects unknown subcommands itself
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_missing_config_flag(capsys):
    assert main(["geodesic"]) == 1
    assert "--config PATH is required" in capsys.readouterr().err


def test_missing_epsilons(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["geodesic", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert 'top-level "epsilons" list' in capsys.readouterr().err


def test_schema_violation_exits_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, grid={"n_points": 9})
    assert main(["geodesic", "--config", cfg]) == 1
    assert "does not match schema" in capsys.readouterr().err


def test_unknown_variant(tmp_path, capsys):
    cfg = _write_config(tmp_path, epsilons=[0.1])
    rc = main(["mabuchi", "--config", cfg, "--out", str(tmp_path / "out"), "--variant", "bogus"])
    assert rc == 1
    assert "unknown variant" in capsys.readouterr().err


def test_unknown_suite(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "out"), "--suite", "bogus"])
    assert rc == 1
    assert "unknown suite" in capsys.readouterr().err


def test_bad_thread_counts(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["verify", "--config", cfg, "--threads", "0"]) == 1
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_geodesic_needs_wide_time_grid(tmp_path, capsys):
    cfg = _write_config(tmp_path, time={"n_time": 4}, epsilons=[0.1])
    assert main(["geodesic", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "n_time >= 8" in capsys.readouterr().err


@pytest.mark.parametrize("argv, overrides, message", [
    pytest.param(["verify"], {"time": {"n_time": 4}}, "verify --suite all needs time.n_time >= 8",
                 id="verify-n_time4"),
    pytest.param(["verify", "--suite", "convexity"], {"time": {"n_time": 4}}, "needs time.n_time >= 8",
                 id="verify-convexity-n_time4"),
    pytest.param(["verify", "--suite", "bounds"], {"time": {"n_time": 4}}, "needs time.n_time >= 8",
                 id="verify-bounds-n_time4"),
    pytest.param(["verify", "--suite", "curvature"], {"grid": {"n_points": 130}}, "a multiple of 8 and >= 32",
                 id="verify-curvature-n_points130"),
    pytest.param(["verify", "--suite", "curvature"], {"grid": {"n_points": 36}}, "a multiple of 8 and >= 32",
                 id="verify-curvature-n_points36"),
    pytest.param(["verify", "--suite", "curvature"], {"grid": {"n_points": 24}}, "a multiple of 8 and >= 32",
                 id="verify-curvature-n_points24"),
    pytest.param(["verify", "--suite", "entropy"], {"grid": {"n_points": 16}}, "grid.n_points >= 26",
                 id="verify-entropy-n_points16"),
    pytest.param(["verify"], {"grid": {"n_points": 130}}, "a multiple of 8 and >= 32", id="verify-n_points130"),
    pytest.param(["study"], {"grid": {"n_points": 130}}, "a multiple of 8 and >= 32", id="study-n_points130"),
    pytest.param(["study"], {"time": {"n_time": 4}}, "n_time >= 8", id="study-n_time4"),
])
def test_config_requirements_exit_1_before_any_solve(tmp_path, monkeypatch, capsys, argv, overrides, message):
    """A config the subcommand cannot run exits 1 with no geodesic solve and no diagnostic.json,
    study included: it meets the requirements of every stage it chains."""
    solves = _log_calls(monkeypatch, geodesic, "solve_eps_geodesic")
    out = tmp_path / "out"
    cfg = _study_config(tmp_path, [0.1, 0.01, 0.001], **overrides)
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert solves == []
    assert not (out / "diagnostic.json").exists()


@pytest.mark.parametrize("suite", ["entropy", "curvature"])
def test_verify_grid_rule_of_the_exit_1_check_is_verifys_own(monkeypatch, suite):
    """cli refuses a grid for a verify suite (exit 1, before any solve) exactly where verify's own
    check, reached after the chain's solves, would refuse it (exit 2): oscillation_sequence for the
    entropy checks, curvature_levels with its quarter and half grids for the curvature study."""
    monkeypatch.setattr(verify, "solve_eps_geodesic", lambda problem, path0: None)

    def refuses(check, error):
        try:
            check()
        except error:
            return True
        return False

    cli_refuses, own_refuses = [], []
    for n in range(8, 132, 2):
        doc = {"grid": {"n_points": n}, "time": {"n_time": 16}, "endpoints": {"endpoint_0": [], "endpoint_1": []}}
        config = parse_config(doc)
        args = argparse.Namespace(command="verify", suite=suite)
        cli_refuses.append(refuses(lambda: cli._check_requirements(config, args), ConfigError))
        if suite == "entropy":
            own = lambda: verify.oscillation_sequence(config.bg, np.ones(n))
        else:
            geo = SimpleNamespace(path=PathField(config.bg.grid, np.zeros((33, n))), epsilon=verify.CURVATURE_EPSILON)
            own = lambda: verify.curvature_levels(config.bg, geo)
        own_refuses.append(refuses(own, ValueError))
    assert cli_refuses == own_refuses
    assert 8 + 2 * cli_refuses.index(False) == (26 if suite == "entropy" else 32)  # the first grid accepted


# ---------------------------------------------------------------------------
# geodesic pipeline


def test_geodesic_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, epsilons=[0.1, 0.05])
    assert main(["geodesic", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "geodesic_path_eps00.csv").is_file()
    assert (out / "geodesic_path_eps01.csv").is_file()
    report = json.loads((out / "geodesic_report.json").read_text())
    assert report["epsilons"] == [0.1, 0.05]
    assert len(report["increments"]) == 1
    assert all(r <= 1e-10 for r in report["residual_sups"])
    assert [f["path_csv"] for f in report["files"]] == [
        "geodesic_path_eps00.csv",
        "geodesic_path_eps01.csv",
    ]
    assert _no_tmp_leftovers(out)


def test_geodesic_equal_endpoints_oracle_distance(tmp_path):
    # equal endpoints: the solution is c + (eps/2) s(s-1), the oracle the
    # constant path, so the sup distance is exactly eps/8 on an even grid
    out = tmp_path / "out"
    endpoints = {"endpoint_0": [[0, 0.3, 0.0]], "endpoint_1": [[0, 0.3, 0.0]]}
    cfg = _write_config(tmp_path, endpoints=endpoints, epsilons=[0.1])
    assert main(["geodesic", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "geodesic_report.json").read_text())
    assert report["oracle_distance"][0] == pytest.approx(0.1 / 8.0, abs=1e-9)


def test_geodesic_degenerate_endpoint_approaches_the_oracle(tmp_path):
    """On the canonical config with a = 0.9 (node density 0.1007) geodesic exits 0, and the
    oracle distance falls strictly along eps."""
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "canonical.json").read_text())
    doc["endpoints"]["endpoint_1"] = [[1, 0.9 / (2.0 * np.pi) ** 2, 0.0]]
    cfg = tmp_path / "degenerate.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["geodesic", "--config", str(cfg), "--out", str(out)]) == 0
    distances = json.loads((out / "geodesic_report.json").read_text())["oracle_distance"]
    assert len(distances) == 5
    assert all(b < a for a, b in zip(distances, distances[1:]))


# ---------------------------------------------------------------------------
# exit code 2: solver failure with diagnostic artifact


def test_unreachable_tolerance_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, epsilons=[0.1], tolerances={"geodesic": 1e-18})
    assert main(["geodesic", "--config", cfg, "--out", str(out)]) == 2
    assert "error in geodesic" in capsys.readouterr().err
    diag = json.loads((out / "diagnostic.json").read_text())
    assert diag["stage"] == "geodesic"
    assert diag["error_type"] == "NoConvergence"
    assert set(diag) == {"timestamp", "stage", "error_type", "message"}


def test_geodesic_factorization_failure_exits_2(tmp_path, monkeypatch, capsys):
    """A failed space-time LU raises SingularSystem, named by its solve, and geodesic exits 2."""
    def singular(matrix, **options):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(geodesic, "splu", singular)
    cfg = _write_config(tmp_path, epsilons=[0.1])
    config = cli.load_config(cfg)
    problem = geodesic.EpsGeodesicProblem(config.bg, config.endpoint_0, config.endpoint_1, 0.1, config.n_time)
    with pytest.raises(SingularSystem, match=(
        r"^eps-geodesic solve failed at \(eps=0\.1, n_time=8, n_points=64\): "
        r"space-time Jacobian factorization failed: Factor is exactly singular$"
    )):
        geodesic.solve_eps_geodesic(problem)
    out = tmp_path / "out"
    assert main(["geodesic", "--config", cfg, "--out", str(out)]) == 2
    assert "error in geodesic: SingularSystem" in capsys.readouterr().err
    diag = json.loads((out / "diagnostic.json").read_text())
    assert (diag["stage"], diag["error_type"]) == ("geodesic", "SingularSystem")
    assert diag["message"].startswith("eps-geodesic solve failed at (eps=0.1, n_time=8, n_points=64): ")


def test_malformed_report_raises_schema_violation_and_writes_nothing(tmp_path, monkeypatch, capsys):
    """A report that fails its schema raises SchemaViolation before any byte is written; the run exits 2."""
    report = {"timestamp": "t", "config": {}, "stages": {}, "passed": "yes"}
    with pytest.raises(SchemaViolation) as exc:
        cli._write_json(tmp_path, "study_report.json", report, "study_report")
    assert (exc.value.schema, exc.value.json_path) == ("study_report", "$.stages")
    assert exc.value.message == "'geodesic' is a required property"
    assert list(tmp_path.iterdir()) == []

    monkeypatch.setattr(geodesic, "rung_increments", lambda rungs: ["not a number"] * len(rungs))
    out = tmp_path / "out"
    assert main(["geodesic", "--config", _write_config(tmp_path, epsilons=[0.1]), "--out", str(out)]) == 2
    assert "error in geodesic: SchemaViolation" in capsys.readouterr().err
    assert not (out / "geodesic_report.json").exists() and _no_tmp_leftovers(out)
    diag = json.loads((out / "diagnostic.json").read_text())
    assert (diag["stage"], diag["error_type"]) == ("geodesic", "SchemaViolation")
    assert diag["message"] == (
        "geodesic_report document does not match its schema: "
        "'not a number' is not of type 'number' (at $.increments[0])"
    )


def test_study_exits_2_before_its_stages_when_a_verify_object_fails(tmp_path, monkeypatch):
    """study solves verify's eps-ladder chain and certifies its weak limits first: a failure there
    leaves only diagnostic.json."""
    def losing_the_cone(*args, **kwargs):
        raise PositivityLoss("cone condition lost")

    monkeypatch.setattr(verify, "weak_limit", losing_the_cone)
    out = tmp_path / "out"
    cfg = _study_config(tmp_path, [0.1, 0.01, 0.001])
    assert main(["study", "--config", cfg, "--out", str(out)]) == 2
    assert [p.name for p in out.iterdir()] == ["diagnostic.json"]
    diag = json.loads((out / "diagnostic.json").read_text())
    assert (diag["stage"], diag["error_type"]) == ("study:verify", "PositivityLoss")


def test_study_diagnostic_names_the_failing_stage(tmp_path, monkeypatch):
    """A failing study stage is named study:<stage>, with the stage names of study_report.json."""
    def stalling(*args, **kwargs):
        raise NoConvergence("fiber solve stalled", residual_sup=2e-11, iterations=3)

    monkeypatch.setattr(verify, "solve_family", stalling)
    out = tmp_path / "out"
    assert main(["study", "--config", _study_config(tmp_path, [0.1, 0.01, 0.001]), "--out", str(out)]) == 2
    assert (out / "geodesic_report.json").is_file()
    diag = json.loads((out / "diagnostic.json").read_text())
    assert (diag["stage"], diag["error_type"]) == ("study:fiberwise", "NoConvergence")


# ---------------------------------------------------------------------------
# CSV bytes: every float cell is _format_float, the shortest round-trip repr


def test_path_field_csv_roundtrip(tmp_path, small_grid):
    rng = np.random.default_rng(5)
    path = PathField(small_grid, rng.standard_normal((9, 64)))
    cli._write_csv_via(tmp_path, "path.csv", cli._path_header(64), [path.times, path.values])
    p = tmp_path / "path.csv"
    back = np.loadtxt(p, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], path.times)
    assert np.array_equal(back[:, 1:], path.values)  # bit-exact round trip
    header = p.read_text().splitlines()[0]
    assert header.startswith("s,x0,x1,") and header.endswith(f",x{64 - 1}")
    assert _no_tmp_leftovers(tmp_path)


def test_path_field_csv_bytes_match_format_float(tmp_path):
    cells = [-0.0, 5e-324, 1e16, 0.1 + 0.2]
    path = PathField(SpatialGrid(8), [cells * 2, cells[::-1] * 2])
    cli._write_csv_via(tmp_path, "path.csv", cli._path_header(8), [path.times, path.values])
    rows = [[0.0, *cells * 2], [1.0, *cells[::-1] * 2]]
    body = "".join(",".join(cli._format_float(v) for v in row) + "\n" for row in rows)
    expected = "s," + ",".join(f"x{j}" for j in range(8)) + "\n" + body
    assert (tmp_path / "path.csv").read_bytes() == expected.encode()


def test_trace_csv_roundtrip(tmp_path):
    times = np.linspace(0.0, 1.0, 9)
    values = times**2 - 0.3 * times
    trace = FunctionalTrace(times, values, second_differences(values, 0.125), meta={"name": "q"})
    columns = [trace.times, trace.values, trace.second_differences]
    cli._write_csv_via(tmp_path, "trace.csv", "t,value,second_difference", columns)
    out = tmp_path / "trace.csv"
    assert out.read_text().splitlines()[0] == "t,value,second_difference"
    back = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], trace.times)
    assert np.array_equal(back[:, 1], trace.values)
    assert np.array_equal(back[:, 2], trace.second_differences, equal_nan=True)


def test_trace_csv_bytes_match_format_float(tmp_path):
    cells = [-0.0, 5e-324, 1e16, 0.1 + 0.2, float("nan")]
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    trace = FunctionalTrace(times, cells, cells[::-1], meta={})
    columns = [trace.times, trace.values, trace.second_differences]
    cli._write_csv_via(tmp_path, "trace.csv", "t,value,second_difference", columns)
    rows = zip(times, cells, cells[::-1])
    body = "".join(",".join(cli._format_float(v) for v in row) + "\n" for row in rows)
    assert (tmp_path / "trace.csv").read_bytes() == ("t,value,second_difference\n" + body).encode()


def test_bound_samples_csv_bytes_match_format_float(tmp_path):
    """One row per (eps, delta) pair, epsilon-major: the pair, then its three bound stats."""
    config = cli.load_config(_write_config(tmp_path, epsilons=[0.1, 0.01, 0.001], deltas=[0.1, 0.05, 0.025]))
    data = verify.SuiteData(config)
    assert cli.run_fiberwise(config, data, tmp_path) == 0
    family = data.ladder_family
    rows = [
        (eps, delta, *family.bound_samples[i, k])
        for i, eps in enumerate(family.epsilons)
        for k, delta in enumerate(family.deltas)
    ]
    body = "".join(",".join(cli._format_float(v) for v in row) + "\n" for row in rows)
    expected = "epsilon,delta,sup_phi,neg_eps_inf_phi,eps_d2_phi\n" + body
    assert (tmp_path / "fiber_bound_samples.csv").read_bytes() == expected.encode()


# ---------------------------------------------------------------------------
# fiberwise pipeline (exit 0 and honest exit 3)


def test_fiberwise_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, epsilons=[0.1, 0.01, 0.001], deltas=[0.1, 0.05, 0.025])
    assert main(["fiberwise", "--config", cfg, "--out", str(out)]) == 0
    samples = (out / "fiber_bound_samples.csv").read_text().splitlines()
    assert samples[0] == "epsilon,delta,sup_phi,neg_eps_inf_phi,eps_d2_phi"
    assert len(samples) == 1 + 3 * 3
    for i in range(3):
        assert (out / f"fiber_phi_eps{i:02d}.csv").is_file()
    report = json.loads((out / "fiberwise_report.json").read_text())
    assert report["passed"] is True
    assert report["family"]["bounds"]["passed"] is True
    assert report["convergence"]["passed"] is True
    assert report["vanishing"]["passed"] is True
    assert _no_tmp_leftovers(out)


def test_fiberwise_narrow_ladder_exits_3(tmp_path):
    # a narrow epsilon ladder cannot halve eps*phi: the trend check must
    # fail and the run must say so with exit code 3
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, epsilons=[0.2, 0.15, 0.12], deltas=[0.1, 0.05, 0.025])
    assert main(["fiberwise", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "fiberwise_report.json").read_text())
    assert report["passed"] is False
    assert report["vanishing"]["passed"] is False


def test_fiberwise_needs_three_epsilons(tmp_path, capsys):
    cfg = _write_config(tmp_path, epsilons=[0.1, 0.01], deltas=[0.1, 0.05])
    assert main(["fiberwise", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "at least 3 epsilons" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mabuchi pipeline


def test_mabuchi_exact(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, epsilons=[0.1, 0.01, 0.001])
    assert main(["mabuchi", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "mabuchi_trace.csv").read_text().splitlines()[0] == "t,value,second_difference"
    report = json.loads((out / "mabuchi_exact_report.json").read_text())
    assert report["variant"] == "exact"
    assert report["traces"][0]["meta"]["name"] == "mabuchi"


def test_mabuchi_k_requires_sections(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _write_config(tmp_path, epsilons=[0.1, 0.01, 0.001])
    assert main(["mabuchi", "--config", cfg, "--out", out, "--variant", "k"]) == 1
    assert "deltas" in capsys.readouterr().err
    cfg = _write_config(
        tmp_path, epsilons=[0.1, 0.01, 0.001], deltas=[0.1, 0.05], k_list=[5]
    )
    assert main(["mabuchi", "--config", cfg, "--out", out, "--variant", "k"]) == 1
    assert "cannot exceed" in capsys.readouterr().err


def test_mabuchi_k_traces(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path, epsilons=[0.1, 0.01, 0.001], deltas=[0.1, 0.05, 0.025], k_list=[1, 2]
    )
    assert main(["mabuchi", "--config", cfg, "--out", str(out), "--variant", "k"]) == 0
    assert (out / "mabuchi_k1_trace.csv").is_file()
    assert (out / "mabuchi_k2_trace.csv").is_file()
    report = json.loads((out / "mabuchi_k_report.json").read_text())
    assert [t["meta"]["k"] for t in report["traces"]] == [1, 2]
    assert "family" in report


def test_mabuchi_epsa_file_matrix(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path, epsilons=[0.1, 0.05], truncation={"a_values": [2, 5]}
    )
    assert main(["mabuchi", "--config", cfg, "--out", str(out), "--variant", "epsA"]) == 0
    names = sorted(p.name for p in out.glob("mabuchi_epsA_*.csv"))
    assert names == [
        "mabuchi_epsA_e00_a00.csv",
        "mabuchi_epsA_e00_a01.csv",
        "mabuchi_epsA_e01_a00.csv",
        "mabuchi_epsA_e01_a01.csv",
    ]
    report = json.loads((out / "mabuchi_epsa_report.json").read_text())
    metas = [t["meta"] for t in report["traces"]]
    assert [(m["epsilon"], m["A"]) for m in metas] == [
        (0.1, 2.0),
        (0.1, 5.0),
        (0.05, 2.0),
        (0.05, 5.0),
    ]


# ---------------------------------------------------------------------------
# verify pipeline


def test_verify_entropy_is_deterministic(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["verify", "--config", cfg, "--out", str(out), "--suite", "entropy"]) == 0
        outs.append(out)
    csv_a = (outs[0] / "verify_results.csv").read_text()
    csv_b = (outs[1] / "verify_results.csv").read_text()
    assert csv_a == csv_b
    rows = csv_a.splitlines()
    assert rows[0] == "name,pass,margin"
    assert len(rows) == 1 + 24
    assert all(",true," in r for r in rows[1:])

    def _stable(path):
        return [ln for ln in path.read_text().splitlines() if '"timestamp"' not in ln]

    assert _stable(outs[0] / "verify_report.json") == _stable(outs[1] / "verify_report.json")
    assert "[PASS] entropy_semicontinuity[seed=0]" in capsys.readouterr().out


def test_verify_all_counts_and_measured(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path)
    assert main(["verify", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    one = tmp_path / "one"
    assert main(["verify", "--config", cfg, "--out", str(one), "--threads", "1"]) == 0
    assert (out / "verify_results.csv").read_bytes() == (one / "verify_results.csv").read_bytes()
    report = json.loads((out / "verify_report.json").read_text())
    assert report["suite"] == "all"
    assert report["counts"] == {"total": 49, "passed": 49, "failed": 0, "controls": 12}
    assert report["passed"] is True
    assert set(report["measured"]) == {"omega_mask", "density_limit"}
    rows = (out / "verify_results.csv").read_text().splitlines()
    assert len(rows) == 1 + 49
    assert _no_tmp_leftovers(out)


# ---------------------------------------------------------------------------
# study pipeline


def _log_calls(monkeypatch, owner, name, with_kwargs=False):
    """Wrap owner.name wherever the package binds it; return the list of call arguments.

    Each entry is the positional arguments, or (args, kwargs) with with_kwargs.
    """
    calls = []
    real = getattr(owner, name)

    def logging(*args, **kwargs):
        calls.append((args, kwargs) if with_kwargs else args)
        return real(*args, **kwargs)

    for module in (cli, geodesic, ma_fiber, verify):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, logging)
    return calls


def _study_config(tmp_path, epsilons, **overrides):
    return _write_config(
        tmp_path,
        epsilons=epsilons,
        deltas=[0.1, 0.05, 0.025],
        k_list=[1, 2],
        truncation={"a_values": [2, 5]},
        **overrides,
    )


def test_study_solves_each_config_object_once(tmp_path, monkeypatch):
    """study solves each rung of the config's ladder once and its family once.

    Solves are counted by problem (grid, background, n_time, epsilon), so the
    verify objects that study now solves before its first stage do not count.
    check_bounds runs once per family_report (fiberwise and mabuchi k) and
    twice in verify (the family and its scaled control): 4 in all.
    """
    solves = _log_calls(monkeypatch, geodesic, "solve_eps_geodesic")
    families = _log_calls(monkeypatch, ma_fiber, "solve_family")
    bound_checks = _log_calls(monkeypatch, ma_fiber, "check_bounds")
    epsilons = [0.1, 0.01, 0.001]
    cfg = _study_config(tmp_path, epsilons)
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def key(problem):
        return (problem.bg.grid.n_points, problem.bg.psi.tobytes(), problem.n_time, problem.epsilon)

    flat = np.zeros(64).tobytes()
    solved = [key(problem) for (problem,) in solves]
    assert [solved.count((64, flat, 8, eps)) for eps in epsilons] == [1, 1, 1]
    ladders = [(tuple(args[2]), tuple(args[3])) for args in families]
    assert ladders.count((tuple(epsilons), (0.1, 0.05, 0.025))) == 1
    assert len(bound_checks) == 4


@pytest.mark.parametrize(
    "tolerances, verify_fiber, ladder_fiber, ladder_geodesic",
    [(None, 1e-12, 1e-11, 1e-10), ({"fiber": 1e-10, "geodesic": 1e-11}, 1e-10, 1e-10, 1e-11)],
)
def test_study_solves_each_object_at_its_tolerance(
    tmp_path, monkeypatch, tolerances, verify_fiber, ladder_fiber, ladder_geodesic
):
    """The config's ladder and family solve at its tolerances (defaults 1e-10 and 1e-11); verify's
    family solves at 1e-12 unless tolerances.fiber is given, and verify's eps-ladder chain at
    WEAK_TOL whatever the config says.

    The tolerance of each geodesic solve is counted on the run's own 64-point flat grid, so the
    curved background's solves and the curvature check's coarser levels do not count.
    """
    solves = _log_calls(monkeypatch, geodesic, "solve_eps_geodesic", with_kwargs=True)
    families = _log_calls(monkeypatch, ma_fiber, "solve_family", with_kwargs=True)
    epsilons = [0.1, 0.01, 0.001]
    overrides = {} if tolerances is None else {"tolerances": tolerances}
    cfg = _study_config(tmp_path, epsilons, **overrides)
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    family_tols = [(tuple(args[2]), kwargs["tol"]) for args, kwargs in families]
    assert sorted(family_tols) == sorted([(verify.FAMILY_EPSILONS, verify_fiber), (tuple(epsilons), ladder_fiber)])
    solved = {}
    for (problem,), kwargs in solves:
        if problem.bg.grid.n_points == 64 and not problem.bg.psi.any():
            solved.setdefault(kwargs["tol"], set()).add((problem.n_time, problem.epsilon))
    ladder = {(8, eps) for eps in epsilons}
    chain = {(nt, eps) for nt in (8, *verify.CHAIN_N_TIMES) for eps in verify.WEAK_EPSILONS}
    if ladder_geodesic == verify.WEAK_TOL:
        assert solved == {verify.WEAK_TOL: chain | ladder}
    else:
        assert solved == {verify.WEAK_TOL: chain, ladder_geodesic: ladder}


@pytest.mark.parametrize("argv", [["study"], ["verify", "--suite", "all"]])
def test_verify_chain_is_solved_first_coarse_to_fine(tmp_path, monkeypatch, argv):
    """verify's WEAK_EPSILONS chain comes before every other solve, coarse to fine.

    First n_time 16 along eps (the first rung cold), then n_time 32 and 64,
    every rung started from a prolonged coarser rung.  With the run's
    n_time at 16, weak_path and the config's ladder (a prefix of
    WEAK_EPSILONS) are the chain's n_time-16 rungs, and the curvature
    geodesic is its (1e-2, 64) rung, so 17 solves remain: the chain's 12,
    the curved background's 3 and the curvature check's two coarser-grid
    levels, lazy and last.
    """
    solves = _log_calls(monkeypatch, geodesic, "solve_eps_geodesic", with_kwargs=True)
    cfg = _study_config(tmp_path, [0.1, 0.01, 0.001], time={"n_time": 16})
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(solves) == 17
    chain = [(problem.n_time, problem.epsilon, kwargs.get("path0") is not None) for (problem,), kwargs in solves[:12]]
    assert chain == [(nt, eps, (nt, eps) != (16, 0.1)) for nt in (16, 32, 64) for eps in verify.WEAK_EPSILONS]
    rest = [(problem.bg.grid.n_points, problem.bg.psi.any(), problem.n_time) for (problem,), _ in solves[12:]]
    assert rest == [(64, True, 16)] * 3 + [(16, False, 16), (32, False, 32)]


@pytest.mark.parametrize("n_time, suite, count", [
    (16, "all", 17), (16, "convexity", 15), (16, "curvature", 8), (16, "bounds", 8),
    (32, "all", 17), (32, "convexity", 15), (32, "curvature", 8), (32, "bounds", 10),
])
def test_verify_solves_each_problem_once(tmp_path, monkeypatch, n_time, suite, count):
    """No verify run solves a problem twice, also after solve_chain_first releases the chain's
    levels finer than the run's n_time: each suite makes as many solves as before the release.

    A problem is its grid, background, n_time, epsilon and whether it started from a coarser
    rung.  At n_time 32 weak_path is the chain's n_time-32 level, which the release keeps, so
    the bounds suite also solves that level's last two rungs (10 solves against 8)."""
    solves = _log_calls(monkeypatch, geodesic, "solve_eps_geodesic", with_kwargs=True)
    cfg = _study_config(tmp_path, [0.1, 0.01, 0.001], time={"n_time": n_time})
    assert main(["verify", "--suite", suite, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    problems = [
        (p.bg.grid.n_points, p.bg.psi.tobytes(), p.n_time, p.epsilon, kwargs.get("path0") is not None)
        for (p,), kwargs in solves
    ]
    assert len(problems) == len(set(problems)) == count


def test_fine_boundary_ladder_factors_once_per_rung(tmp_path, monkeypatch):
    """verify's n_time-32 and n_time-64 ladders, started from the rungs of the level below, make
    one LU per rung, of the Jacobian on the n_time-16 rows that the W-cycle's coarsest level reads.

    Along eps alone the 4 rungs took 5 LUs at n_time 32 (3, 3, 3 and 2 at
    n_time 64 before the chord steps).  The factorizations come in one size
    block for the whole chain: its n_time-16 ladder along eps (5), its
    n_time-32 level (4) and its n_time-64 level (4), all on the n_time-16
    grid, then only smaller systems.  Before the W-cycle the n_time-64
    level factored the n_time-32 grid (blocks of 9 and 4); before the
    two-grid cycle each level factored its own grid (blocks of 5, 4 and 4).
    """
    lus = _log_calls(monkeypatch, geodesic, "splu")
    cfg = _write_config(tmp_path)
    assert main(["verify", "--suite", "convexity", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    size = 15 * 64
    blocks = [(size, len(list(run))) for size, run in itertools.groupby(coefs[0].size for (coefs,) in lus)]
    assert blocks[0] == (size, 13)
    assert all(other < size for other, _ in blocks[1:])


def test_verify_factors_no_stack_of_63_time_rows(tmp_path, monkeypatch):
    """verify --suite all refines the chain's n_time-32 and n_time-64 rungs by cycles whose
    coarsest level is the n_time-16 grid, so the chain factors no 63-row stack and no 31-row stack
    of the 64-point grid either: no refined step fell back to its fine factor.  (The 31-row stack
    of the 32-point grid is a coarse level of the curvature check.)"""
    lus = _log_calls(monkeypatch, geodesic, "splu")
    cfg = _write_config(tmp_path)
    assert main(["verify", "--suite", "all", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    stacks = [coefs.shape[1:] for (coefs,) in lus]
    assert all(rows != 63 for rows, _ in stacks) and (31, 64) not in stacks
    assert stacks.count((15, 64)) == 13


@pytest.mark.parametrize("argv, extra, lus", [
    (["geodesic"], {"epsilons": [0.1, 10.0**-1.5, 0.01, 10.0**-2.5, 0.001]}, 6),
    (["verify", "--suite", "convexity"], {}, 22),
])
def test_geodesic_lu_counts(tmp_path, monkeypatch, argv, extra, lus):
    """The LUs of a run, read from the solves' Newton records, which count every splu call: one
    per Newton step, plus one per step whose float32 factor or two-grid cycle fell back.

    Each LU serves chord steps at later iterates, and rungs from the third
    on start from the secant in eps.  A fresh LU per Newton step from the
    rung before made 14 and 37.  The verify run made 19 with a cold
    curvature geodesic (one LU of 4,032 unknowns); its geodesic now comes
    from the chain, whose n_time-16 ladder (5 LUs of 960 unknowns) this
    config's n_time of 8 does not share with weak_path.  The chain's 8
    refined rungs take one two-grid step each, whose LU is of the n_time-16
    grid: still 22 LUs, but 8 of 960 unknowns in place of 4 of 1,984 and 4
    of 4,032 (test_fine_boundary_ladder_factors_once_per_rung).
    """
    factored = []
    real = geodesic.solve_eps_geodesic

    def recording(*args, **kwargs):
        sol = real(*args, **kwargs)
        rec = sol.record
        factored.append(rec.factorizations + rec.fallbacks + rec.two_grid_fallbacks)
        return sol

    for module in (cli, geodesic, verify):
        if getattr(module, "solve_eps_geodesic", None) is real:
            monkeypatch.setattr(module, "solve_eps_geodesic", recording)
    splu_calls = _log_calls(monkeypatch, geodesic, "splu")
    cfg = _write_config(tmp_path, **extra)
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert sum(factored) == len(splu_calls) == lus


def _solved_problems(solves) -> list:
    """(n_points, psi, n_time, epsilon) of each logged solve_eps_geodesic call."""
    return [(p.bg.grid.n_points, p.bg.psi.tobytes(), p.n_time, p.epsilon) for (p,), _ in solves]


def test_verify_all_solves_no_problem_twice(tmp_path, monkeypatch):
    """The curvature geodesic is the chain's (1e-2, 64) rung, not a second solve of it.

    21 problems: the chain's 12, weak_path's 4 at this config's n_time of 8,
    the curved background's 3 and the curvature check's 2 coarser grids.
    """
    solves = _log_calls(monkeypatch, geodesic, "solve_eps_geodesic", with_kwargs=True)
    cfg = _write_config(tmp_path)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    problems = _solved_problems(solves)
    assert len(problems) == len(set(problems)) == 21


def test_curvature_suite_reads_the_chain_prefix_of_suite_all(tmp_path, monkeypatch):
    """--suite curvature solves the chain only up to CURVATURE_EPSILON, and its rows are those
    of --suite all byte for byte: the same geodesic, the same margins."""
    solves = _log_calls(monkeypatch, geodesic, "solve_eps_geodesic", with_kwargs=True)
    cfg = _write_config(tmp_path)
    rows = {}
    for suite in ("curvature", "all"):
        out = tmp_path / suite
        assert main(["verify", "--suite", suite, "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        rows[suite] = [r for r in report["results"] if r["name"].endswith("eps_curvature_identity")]
        if suite == "curvature":
            on_grid = [(nt, eps) for n, _, nt, eps in _solved_problems(solves) if n == 64]
            assert on_grid == [(nt, eps) for nt in verify.CHAIN_N_TIMES for eps in (0.1, 0.01)]
    assert len(rows["all"]) == 2
    assert json.dumps(rows["curvature"]) == json.dumps(rows["all"])


def test_bounds_suite_rows_equal_those_of_suite_all_at_a_chain_n_time(tmp_path):
    """At n_time 32, a level of verify's chain, --suite bounds reads weak_path off the chain as
    --suite all does, so its rows are those of --suite all byte for byte."""
    cfg = _study_config(tmp_path, [0.1, 0.01, 0.001], time={"n_time": 32})
    rows = {}
    for suite in ("bounds", "all"):
        out = tmp_path / suite
        assert main(["verify", "--suite", suite, "--config", cfg, "--out", str(out)]) == 0
        rows[suite] = json.loads((out / "verify_report.json").read_text())["results"]
    names = {r["name"] for r in rows["bounds"]}
    assert json.dumps(rows["bounds"]) == json.dumps([r for r in rows["all"] if r["name"] in names])


def test_study_writes_the_geodesic_artifacts_of_geodesic_at_a_chain_n_time(tmp_path):
    """At n_time 32 study solves the config's ladder along eps, as geodesic does, and not from the
    prolonged rungs of verify's chain at the same eps: the same bytes and Newton counts."""
    cfg = _study_config(tmp_path, [0.1, 0.01, 0.001], time={"n_time": 32})
    for command in ("geodesic", "study"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    names = [f"geodesic_path_eps{i:02d}.csv" for i in range(3)]
    for name in names:
        assert (tmp_path / "geodesic" / name).read_bytes() == (tmp_path / "study" / name).read_bytes()
    reports = [json.loads((tmp_path / c / "geodesic_report.json").read_text()) for c in ("geodesic", "study")]
    for report in reports:
        del report["timestamp"]
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# output directory resolution


def test_out_dir_resolution(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, epsilons=[0.1], out_dir=str(tmp_path / "from_config"))
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"

    monkeypatch.chdir(tmp_path)
    assert main(["geodesic", "--config", cfg]) == 0
    assert (tmp_path / "from_config" / "geodesic_report.json").is_file()

    monkeypatch.setenv("KGEOLAB_OUT_DIR", str(env_dir))
    assert main(["geodesic", "--config", cfg]) == 0
    assert (env_dir / "geodesic_report.json").is_file()

    (env_dir / "geodesic_report.json").unlink()
    assert main(["geodesic", "--config", cfg, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "geodesic_report.json").is_file()
    assert not (env_dir / "geodesic_report.json").exists()
