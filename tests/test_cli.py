"""End-to-end CLI runs: exit codes, artifacts, determinism, env overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgeolab import cli, geodesic, ma_fiber, verify
from kgeolab.cli import main
from kgeolab.errors import PositivityLoss, SingularSystem

AMP = 0.05 / (2.0 * np.pi) ** 2


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("KGEOLAB_OUT_DIR", raising=False)
    monkeypatch.delenv("KGEOLAB_THREADS", raising=False)


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
    """Importing the CLI loads neither scipy.ndimage (never imported) nor scipy.special (at first use)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, kgeolab.cli; "
        "print(sorted(m for m in sys.modules if m in ('scipy.ndimage', 'scipy.special')))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_config_loading_and_config_errors_leave_scipy_unloaded(tmp_path):
    """scipy is imported at the first solve: import, load_config and an exit-1 config error load none of it."""
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


def test_bad_thread_counts(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)
    assert main(["verify", "--config", cfg, "--threads", "0"]) == 1
    assert "--threads must be >= 1" in capsys.readouterr().err
    monkeypatch.setenv("KGEOLAB_THREADS", "two")
    assert main(["verify", "--config", cfg]) == 1
    assert "must be an integer" in capsys.readouterr().err
    monkeypatch.setenv("KGEOLAB_THREADS", "0")
    assert main(["verify", "--config", cfg]) == 1
    assert "KGEOLAB_THREADS must be >= 1" in capsys.readouterr().err


def test_geodesic_needs_wide_time_grid(tmp_path, capsys):
    cfg = _write_config(tmp_path, time={"n_time": 4}, epsilons=[0.1])
    assert main(["geodesic", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "n_time >= 8" in capsys.readouterr().err


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


def test_study_exits_2_before_its_stages_when_a_verify_object_fails(tmp_path, monkeypatch):
    """study solves verify's largest objects first: their failure leaves only diagnostic.json."""
    def losing_the_cone(*args, **kwargs):
        raise PositivityLoss("cone condition lost")

    monkeypatch.setattr(verify, "weak_geodesic", losing_the_cone)
    out = tmp_path / "out"
    cfg = _study_config(tmp_path, [0.1, 0.01, 0.001])
    assert main(["study", "--config", cfg, "--out", str(out)]) == 2
    assert [p.name for p in out.iterdir()] == ["diagnostic.json"]
    diag = json.loads((out / "diagnostic.json").read_text())
    assert (diag["stage"], diag["error_type"]) == ("study", "PositivityLoss")


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


def _log_calls(monkeypatch, owner, name):
    """Wrap owner.name wherever the package binds it; return the list of call arguments."""
    calls = []
    real = getattr(owner, name)

    def logging(*args, **kwargs):
        calls.append(args)
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


@pytest.mark.parametrize("argv", [["study"], ["verify", "--suite", "all"]])
def test_largest_space_time_systems_are_solved_first(tmp_path, monkeypatch, argv):
    """On the run's grid the n_time-64 and n_time-32 solves all precede the first n_time-16 one.

    First the n_time-64 boundary ladder (4 rungs) and the curvature geodesic,
    then the n_time-32 ladder; the 18 calls are those of the lazy order.  The
    curvature check's coarser-grid levels stay lazy, last in the run.
    """
    solves = _log_calls(monkeypatch, geodesic, "solve_eps_geodesic")
    cfg = _study_config(tmp_path, [0.1, 0.01, 0.001], time={"n_time": 16})
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(solves) == 18
    n_times = [problem.n_time for (problem,) in solves if problem.bg.grid.n_points == 64]
    assert n_times[: n_times.index(16)] == [64] * 5 + [32] * 4
    assert set(n_times[n_times.index(16):]) == {16}


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
