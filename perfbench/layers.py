"""Per-layer counters and busy times, recorded from outside the program.

``install`` wraps public functions of each kgeolab module.  Modules bind
solver names at import time (``from .geodesic import solve_eps_geodesic``),
so a wrapper replaces the name in every kgeolab module that holds the
original, and in the verify suite registry.  ``splu`` is the one scipy
function wrapped, separately per module, so that geodesic and fiber
factorizations are told apart.

A busy time counts only the outermost active call of its metric on each
thread, so nested or recursive calls within one layer are not counted
twice; under ``--threads 2`` busy times of concurrent threads add up.
Times are inclusive of the layers below.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: (name, unit) of every per-layer metric, in report order
METRICS = [
    ("cli.import_s", "s"),
    *[(f"cli.stage_{stage}_s", "s") for stage in
      ("geodesic", "fiberwise", "mabuchi_exact", "mabuchi_k", "mabuchi_epsa", "verify")],
    ("cli.write_s", "s"),
    ("cli.write_bytes", "bytes"),
    ("cli.write_files", "count"),
    ("cli.cpu_s", "s"),
    ("config.load_s", "s"),
    ("geodesic.solve_calls", "count"),
    ("geodesic.solve_distinct", "count"),
    ("geodesic.solve_s", "s"),
    ("geodesic.newton_iters", "count"),
    ("geodesic.unknowns", "count"),
    ("geodesic.lu_calls", "count"),
    ("geodesic.lu_s", "s"),
    ("geodesic.lu_fill_nnz", "count"),
    ("geodesic.weak_calls", "count"),
    ("geodesic.weak_s", "s"),
    ("geodesic.oracle_s", "s"),
    ("newton.calls", "count"),
    ("newton.iterations", "count"),
    ("newton.halvings", "count"),
    ("newton.s", "s"),
    ("ma_fiber.family_calls", "count"),
    ("ma_fiber.family_distinct", "count"),
    ("ma_fiber.family_s", "s"),
    ("ma_fiber.fiber_calls", "count"),
    ("ma_fiber.fiber_s", "s"),
    ("ma_fiber.fiber_newton_iters", "count"),
    ("ma_fiber.lu_calls", "count"),
    ("ma_fiber.lu_s", "s"),
    ("ma_fiber.checks_s", "s"),
    ("regularize.mollify_s", "s"),
    ("functionals.trace_calls", "count"),
    ("functionals.trace_s", "s"),
    *[(f"verify.suite_{suite}_s", "s") for suite in ("entropy", "convexity", "curvature", "bounds")],
    ("verify.boundary_refinement_s", "s"),
]


class Tracer:
    """Thread-safe sums and distinct-key sets, reset between repetitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.sums = defaultdict(float)
            self.keys = defaultdict(set)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.sums[name] += value

    def distinct(self, name: str, key: str) -> None:
        with self._lock:
            self.keys[name].add(key)

    @contextmanager
    def busy(self, name: str):
        depth = self._local.__dict__.setdefault("depth", defaultdict(int))
        depth[name] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            depth[name] -= 1
            if depth[name] == 0:
                self.add(name, time.perf_counter() - start)

    def snapshot(self) -> dict:
        with self._lock:
            out = dict(self.sums)
            out.update({name: float(len(keys)) for name, keys in self.keys.items()})
        return out


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the imported kgeolab package."""
    from kgeolab import _newton, cli, config, functionals, geodesic, ma_fiber, regularize, verify

    modules = [m for name, m in sys.modules.items() if name == "kgeolab" or name.startswith("kgeolab.")]

    def patch(owner, attr, busy, calls=None, after=None, key=None, everywhere=True):
        orig = getattr(owner, attr)
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if calls:
                tracer.add(calls, 1)
            if key:
                tracer.distinct(key[0], key[1](bound.arguments))
            with tracer.busy(busy(bound.arguments) if callable(busy) else busy):
                result = orig(*args, **kwargs)
            if after:
                after(bound.arguments, result)
            return result

        targets = modules if everywhere else [owner]
        for module in targets:
            for name, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, name, wrapper)
        if owner is verify:
            for name, value in list(verify.SUITES.items()):
                if value is orig:
                    verify.SUITES[name] = wrapper

    # cli: stages and artifact writing
    for attr, stage in (("run_geodesic", "geodesic"), ("run_fiberwise", "fiberwise"), ("run_verify", "verify")):
        patch(cli, attr, f"cli.stage_{stage}_s")
    patch(cli, "run_mabuchi", lambda a: f"cli.stage_mabuchi_{a['variant'].lower()}_s")

    def wrote(target):
        tracer.add("cli.write_files", 1)
        tracer.add("cli.write_bytes", Path(target).stat().st_size)

    patch(cli, "_write_json", "cli.write_s")
    patch(cli, "_atomic_write_text", "cli.write_s", after=lambda a, r: wrote(a["path"]))
    patch(cli, "_write_csv_via", "cli.write_s",
          after=lambda a, r: wrote(Path(a["out_dir"]) / a["name"]))

    patch(config, "load_config", "config.load_s")

    # geodesic
    def geodesic_solved(a, sol):
        problem = a["problem"]
        tracer.add("geodesic.newton_iters", sol.newton_iters)
        tracer.add("geodesic.unknowns", (problem.n_time - 1) * problem.bg.grid.n_points)

    def geodesic_key(a):
        p = a["problem"]
        return _digest(p.bg.scheme, p.bg.psi, p.bg.w, p.endpoint_0, p.endpoint_1, p.epsilon, p.n_time)

    patch(geodesic, "solve_eps_geodesic", "geodesic.solve_s", calls="geodesic.solve_calls",
          key=("geodesic.solve_distinct", geodesic_key), after=geodesic_solved)
    patch(geodesic, "splu", "geodesic.lu_s", calls="geodesic.lu_calls", everywhere=False,
          after=lambda a, lu: tracer.add("geodesic.lu_fill_nnz", lu.L.nnz + lu.U.nnz))
    patch(geodesic, "weak_geodesic", "geodesic.weak_s", calls="geodesic.weak_calls")
    patch(geodesic, "legendre_oracle", "geodesic.oracle_s")

    # the one damped Newton loop every solver uses
    def newton_done(a, result):
        rec = result[1]
        tracer.add("newton.iterations", rec.iterations)
        tracer.add("newton.halvings", rec.halvings)

    patch(_newton, "damped_newton", "newton.s", calls="newton.calls", after=newton_done)

    # fiber layer
    def family_key(a):
        return _digest(a["path"].values, tuple(a["epsilons"]), tuple(a["deltas"]), a["tol"])

    patch(ma_fiber, "solve_family", "ma_fiber.family_s", calls="ma_fiber.family_calls",
          key=("ma_fiber.family_distinct", family_key))
    patch(ma_fiber, "solve_aubin_fiber", "ma_fiber.fiber_s", calls="ma_fiber.fiber_calls",
          after=lambda a, sol: tracer.add("ma_fiber.fiber_newton_iters", sol.newton_iters))
    patch(ma_fiber, "splu", "ma_fiber.lu_s", calls="ma_fiber.lu_calls", everywhere=False)
    for attr in ("check_bounds", "density_convergence", "eps_phi_vanishing"):
        patch(ma_fiber, attr, "ma_fiber.checks_s")

    for attr in ("mollify_fiberwise", "mollify_spacetime"):
        patch(regularize, attr, "regularize.mollify_s")

    for attr in ("mabuchi", "mabuchi_k", "mabuchi_eps_A"):
        patch(functionals, attr, "functionals.trace_s", calls="functionals.trace_calls")

    for suite in ("entropy", "convexity", "curvature", "bounds"):
        patch(verify, f"suite_{suite}", f"verify.suite_{suite}_s")
    patch(verify, "boundary_continuity_refinement", "verify.boundary_refinement_s")
