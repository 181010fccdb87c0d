"""Batch driver turning one JSON config into CSV/JSON artifacts.

Subcommands cover the pipelines end to end: ``geodesic`` sweeps the
epsilon ladder and writes one path CSV per epsilon plus a convergence
report; ``fiberwise`` solves the Monge-Ampere family along the weak
geodesic and writes the uniform-bound evidence; ``mabuchi`` writes
functional traces (variants ``exact``, ``k``, ``epsA``); ``verify`` runs
the theorem-check suites; ``study`` chains all of the above into one
summary.

Exit codes: 0 success, 1 configuration or usage error, 2 solver or pipeline
failure (a diagnostic JSON naming the stage, for study study:<stage>, is
written when the output directory is already known), 3 verification or
bound-check failure.  The argument parser alone checks the command line,
before the config is read.  A config that lacks what a subcommand reads,
for study what any of its stages reads, exits 1 before the first solve.

Reports are deterministic for a fixed config: keys are sorted, floats
use shortest round-trip formatting, and embedded file references are
bare names so the bytes do not depend on the output location.  The one
non-reproducible field is the top-level "timestamp" key, which _write_json
alone adds to every JSON document.  Every float CSV
(path, fiber and trace files) comes from one writer, _write_csv_via: a
header, then one row per index of its float columns.  All files are
written atomically (temp file in the target directory, then rename), and a
failed write removes its temp file.

Every stage reads its solved objects from one SuiteData per invocation,
built from the config alone, so a ``study`` solves the config's epsilon
ladder and its fiber family once each, with the config's ``tolerances``;
the verify suites keep their calibrated ladders and honour only the fiber
override.  ``verify`` and ``study`` solve verify's eps-ladder chain first,
everything else lazily.

Importing this module loads only ``config``, ``model`` and ``errors``
besides it.  ``--help``, a config load and the exit-1 errors, an n_time
below the schema's 8 among them, import no solver module (``geodesic``,
``ma_fiber``, ``functionals``, ``regularize``, ``verify``, ``_newton``).
A command that gets past those checks imports all of them: main builds its
``verify.SuiteData``, and ``verify`` imports the others.

A run reads no environment variable: its outputs are a function of its
command line and config alone.  The output directory is --out, else the
config's out_dir.  --threads is validated (an integer >= 1) but every run
is sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import VERIFY_SUITES, ExperimentConfig, load_config, validate_against_schema, verify_grid_needs
from .errors import ConfigError
from .model import _jsonable

if TYPE_CHECKING:
    from .verify import SuiteData

SUBCOMMANDS = ("geodesic", "fiberwise", "mabuchi", "verify", "study")
VARIANTS = ("exact", "k", "epsA")
# the (subcommand, variant or suite) stages that study chains, in order
STUDY_STAGES = (
    ("geodesic", None), ("fiberwise", None), *(("mabuchi", v) for v in VARIANTS), ("verify", "all")
)
# the optional config sections each stage reads besides epsilons
STAGE_SECTIONS = {"fiberwise": ("deltas",), "k": ("deltas", "k_list"), "epsA": ("a_values",)}


# ---------------------------------------------------------------------------
# config requirements, checked before any solve


def _check_requirements(config: ExperimentConfig, stages) -> None:
    """Raise ConfigError unless config has what every stage reads.

    A stage is a (subcommand, option) pair, the option a mabuchi variant, a
    verify suite or None, each one the parser accepts; study runs the
    STUDY_STAGES.  The grid must meet the suite's config.verify_grid_needs;
    n_time >= 8 is the schema's rule.
    """
    for command, option in stages:
        if command == "verify":
            if need := verify_grid_needs(config.bg.grid.n_points, option):
                raise ConfigError(f"verify --suite {option} needs {need}, got {config.bg.grid.n_points}")
            continue
        config.require("epsilons", *STAGE_SECTIONS.get(option or command, ()))
        if command == "fiberwise" and len(config.epsilons) < 3:
            raise ConfigError("fiberwise needs at least 3 epsilons (continuation and trend checks)")
        if option in ("exact", "k") and len(config.epsilons) < 3:
            raise ConfigError(f"variant={option} needs >= 3 epsilons for the weak-geodesic continuation")
        if option == "k" and max(config.k_list) > len(config.epsilons):
            raise ConfigError(f"k_list entries cannot exceed the number of epsilons ({len(config.epsilons)})")


# ---------------------------------------------------------------------------
# artifact writing


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _format_float(v: float) -> str:
    # repr is the shortest decimal that round-trips the double exactly
    return repr(float(v))


def _replace_via_temp(target: Path, text: str) -> None:
    """Write text to a temp file beside target, then rename it onto target; the temp goes on any exception."""
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    """path's new text, written atomically; perfbench/layers.py counts these files apart from _write_csv_via's."""
    _replace_via_temp(path, text)


def _write_json(out_dir: Path, name: str, doc: dict, schema: str) -> None:
    """out_dir/name: doc with the top-level "timestamp", the one read of the clock, checked against schema."""
    doc = _jsonable({**doc, "timestamp": _timestamp()})
    validate_against_schema(doc, schema)
    text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
    _atomic_write_text(out_dir / name, text + "\n")


def _write_csv_via(out_dir: Path, name: str, header: str, columns) -> None:
    """out_dir/name: the header, then one line per row i of the float columns (1-D, or 2-D for several).

    Each cell is _format_float of its float, so the file round-trips every double.
    """
    # repr of a Python float is _format_float, without a call per cell
    rows = (",".join(map(repr, row)) for row in np.column_stack(columns).tolist())
    _replace_via_temp(out_dir / name, "\n".join([header, *rows]) + "\n")


def _path_header(n_points: int) -> str:
    return "s," + ",".join(f"x{j}" for j in range(n_points))


# ---------------------------------------------------------------------------
# subcommand pipelines


def run_geodesic(config: ExperimentConfig, data: SuiteData, out_dir: Path) -> int:
    """Epsilon sweep with warm starts; one path CSV per epsilon."""
    from .geodesic import legendre_oracle, rung_increments

    oracle = legendre_oracle(config.bg, config.endpoint_0, config.endpoint_1, config.n_time)
    rungs = data.ladder_rungs
    header = _path_header(config.bg.grid.n_points)
    files = []
    for i, sol in enumerate(rungs):
        name = f"geodesic_path_eps{i:02d}.csv"
        _write_csv_via(out_dir, name, header, [sol.path.times, sol.path.values])
        files.append({"epsilon": sol.epsilon, "path_csv": name})
    report = {
        "config": config.raw,
        "n_time": config.n_time,
        "epsilons": list(config.epsilons),
        "increments": rung_increments(rungs),
        "residual_sups": [sol.residual_sup for sol in rungs],
        "newton_iters": [sol.newton_iters for sol in rungs],
        "oracle_distance": [float(np.max(np.abs(sol.path.values - oracle.values))) for sol in rungs],
        "files": files,
    }
    _write_json(out_dir, "geodesic_report.json", report, "geodesic_report")
    print(f"geodesic: wrote {len(files)} path CSVs and geodesic_report.json to {out_dir}")
    return 0


def run_fiberwise(config: ExperimentConfig, data: SuiteData, out_dir: Path) -> int:
    """Family solve along the weak geodesic plus the three family checks."""
    from .ma_fiber import density_convergence, eps_phi_vanishing, family_report
    from .verify import density_limit_report

    path = data.ladder_path
    family = data.ladder_family
    fam_report = family_report(family)
    bounds_passed = fam_report["bounds"]["passed"]
    convergence = density_convergence(family, path)
    vanishing = eps_phi_vanishing(family)

    # one row per (eps, delta), epsilon-major: the pair, then its three stats
    pairs = [np.repeat(family.epsilons, len(family.deltas)), np.tile(family.deltas, len(family.epsilons))]
    _write_csv_via(
        out_dir,
        "fiber_bound_samples.csv",
        "epsilon,delta,sup_phi,neg_eps_inf_phi,eps_d2_phi",
        [*pairs, family.bound_samples.reshape(-1, 3)],
    )
    header = _path_header(config.bg.grid.n_points)
    phi_files = []
    for i, eps in enumerate(family.epsilons):
        name = f"fiber_phi_eps{i:02d}.csv"
        _write_csv_via(out_dir, name, header, [path.times, family.phi[i]])
        phi_files.append({"epsilon": eps, "path_csv": name})

    passed = bool(bounds_passed and convergence.passed and vanishing.passed)
    report = {
        "config": config.raw,
        "n_time": config.n_time,
        "family": fam_report,
        "convergence": convergence.details,
        "vanishing": vanishing.details,
        "density_limit": density_limit_report(family, path),
        "files": {"bound_samples_csv": "fiber_bound_samples.csv", "phi_csvs": phi_files},
        "passed": passed,
    }
    _write_json(out_dir, "fiberwise_report.json", report, "fiberwise_report")
    print(f"fiberwise: bounds={bounds_passed} convergence={convergence.passed} "
          f"vanishing={vanishing.passed}; report in {out_dir}")
    return 0 if passed else 3


def run_mabuchi(config: ExperimentConfig, data: SuiteData, out_dir: Path, variant: str) -> int:
    """Functional traces along solved paths; no pass/fail judgement here."""
    from .functionals import TruncationSpec, mabuchi, mabuchi_eps_A, mabuchi_k
    from .ma_fiber import family_report

    bg = config.bg
    traces = []
    extra: dict = {}
    if variant == "exact":
        traces.append(("mabuchi_trace.csv", mabuchi(bg, data.ladder_path)))
    elif variant == "k":
        family = data.ladder_family
        for k in config.k_list:
            traces.append((f"mabuchi_k{k}_trace.csv", mabuchi_k(bg, data.ladder_path, family, k)))
        extra["family"] = family_report(family)
    else:
        for i, sol in enumerate(data.ladder_rungs):
            for j, a in enumerate(config.a_values):
                spec = TruncationSpec(float(a), chi=config.chi)
                traces.append((f"mabuchi_epsA_e{i:02d}_a{j:02d}.csv", mabuchi_eps_A(bg, sol, spec)))

    trace_docs = []
    for name, trace in traces:
        _write_csv_via(out_dir, name, "t,value,second_difference",
                       [trace.times, trace.values, trace.second_differences])
        trace_docs.append(
            {
                "trace_csv": name,
                "meta": trace.meta,
                "min_second_difference": float(np.nanmin(trace.second_differences)),
            }
        )
    report = {
        "config": config.raw,
        "variant": variant,
        "n_time": config.n_time,
        "traces": trace_docs,
        **extra,
    }
    _write_json(out_dir, f"mabuchi_{variant.lower()}_report.json", report, "mabuchi_report")
    print(f"mabuchi[{variant}]: wrote {len(trace_docs)} trace CSVs to {out_dir}")
    return 0


def run_verify(config: ExperimentConfig, data: SuiteData, out_dir: Path, suite: str) -> int:
    """Theorem-check suites; exit 0 iff every result row passes.

    verify's suite runner inverts negative controls into their rows (a
    control row passes exactly when the underlying check rejects the
    tampered input), so the uniform all-rows rule covers them too.
    """
    from .verify import MEASURED, run_suite

    data.solve_chain_first(suite)
    results = run_suite(data, suite)

    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name} (margin={res.margin:.3e})")
    rows = [f"{r.name},{'true' if r.passed else 'false'},{_format_float(r.margin)}" for r in results]
    _atomic_write_text(out_dir / "verify_results.csv", "\n".join(["name,pass,margin", *rows]) + "\n")
    n_controls = sum(1 for r in results if r.details.get("control"))
    passed = all(r.passed for r in results)
    report = {
        "config": config.raw,
        "suite": suite,
        "results": [r.to_dict() for r in results],
        "counts": {
            "total": len(results),
            "passed": sum(1 for r in results if r.passed),
            "failed": sum(1 for r in results if not r.passed),
            "controls": n_controls,
        },
        "passed": passed,
    }
    if suite in ("all", MEASURED[0]):
        report["measured"] = MEASURED[3](data)
    _write_json(out_dir, "verify_report.json", report, "verify_report")
    print(f"verify[{suite}]: {report['counts']['passed']}/{len(results)} checks passed")
    return 0 if passed else 3


def _pipelines() -> dict:
    """{subcommand: run_*}, read per call so that a wrapper on a module-level run_* name sees its stage."""
    return {"geodesic": run_geodesic, "fiberwise": run_fiberwise, "mabuchi": run_mabuchi, "verify": run_verify,
            "study": run_study}


def run_study(config: ExperimentConfig, data: SuiteData, out_dir: Path) -> int:
    """Full pipeline: verify's eps-ladder chain, then the STUDY_STAGES in order.

    An exception leaves with its stage as study_report.json names it, for
    main's diagnostic.json: study:fiberwise, study:mabuchi_k and so on; a
    failure in the chain reads study:verify.
    """
    pipelines = _pipelines()
    stages = {}
    name = "verify"
    try:
        data.solve_chain_first("all")
        for command, option in STUDY_STAGES:
            name = f"mabuchi_{option.lower()}" if command == "mabuchi" else command
            rc = pipelines[command](config, data, out_dir, *filter(None, [option]))
            stages[name] = {"report": f"{name}_report.json", "passed": rc == 0}
            print(f"study stage {name}: {'ok' if rc == 0 else f'exit {rc}'}")
    except Exception as exc:
        exc.stage = f"study:{name}"
        raise

    passed = all(stage["passed"] for stage in stages.values())
    report = {"config": config.raw, "stages": stages, "passed": passed}
    _write_json(out_dir, "study_report.json", report, "study_report")
    print(f"study: {'all stages passed' if passed else 'some stage failed'}; summary in {out_dir}")
    return 0 if passed else 3


# ---------------------------------------------------------------------------
# entry point


def _thread_count(text: str) -> int:
    """--threads' type: an integer >= 1; runs are sequential at any value."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, the config-error code, and not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgeolab",
        description="Drive the epsilon-geodesic / Monge-Ampere pipelines from one JSON config.",
    )
    sub = parser.add_subparsers(dest="command", metavar="subcommand", required=True)
    helps = {
        "geodesic": "epsilon-geodesic sweep: path CSV per epsilon + convergence report",
        "fiberwise": "fiber family solve: uniform bounds, density convergence, vanishing",
        "mabuchi": "functional traces along solved paths, of one --variant",
        "verify": "theorem-check suites, one --suite or all",
        "study": "run every pipeline and summarize",
    }
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", metavar="PATH", required=True, help="experiment config JSON")
        sp.add_argument("--out", metavar="DIR", help="output directory (overrides the config's out_dir)")
        sp.add_argument("--threads", type=_thread_count, metavar="N",
                        help="validated (an integer >= 1); every run is sequential")
        if name == "mabuchi":
            sp.add_argument("--variant", default="exact", choices=VARIANTS, help="trace variant (default: exact)")
        if name == "verify":
            sp.add_argument("--suite", default="all", choices=(*VERIFY_SUITES, "all"), help="suite (default: all)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    given = vars(args)
    option = given.get("variant", given.get("suite"))  # None for the subcommands without one
    stage = args.command if option is None else f"{args.command}:{option}"
    stages = STUDY_STAGES if args.command == "study" else [(args.command, option)]
    out_dir = None
    try:
        config = load_config(args.config)
        _check_requirements(config, stages)
        out_dir = Path(args.out or config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        from .verify import SuiteData

        return _pipelines()[args.command](config, SuiteData(config), out_dir, *filter(None, [option]))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # the contract is exit 2 plus a diagnostic artifact
        stage = getattr(exc, "stage", stage)
        if out_dir is not None:
            try:
                diagnostic = {"stage": stage, "error_type": type(exc).__name__, "message": str(exc)}
                _write_json(out_dir, "diagnostic.json", diagnostic, "diagnostic")
            except Exception:
                pass
        traceback.print_exc(file=sys.stderr)
        print(f"error in {stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
