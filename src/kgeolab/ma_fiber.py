"""Fiberwise Monge-Ampere solvers on the circle.

In one spatial dimension the fiber equation

    theta + beta + D2 phi = (1/eps) e^phi w                            (*)

is semilinear: no determinant survives the reduction, and the Newton
Jacobian D2 - (1/eps) w e^phi Id has a strictly negative zeroth-order part,
so it is invertible at every iterate and damped Newton converges globally
from the constant initial guess fixed by the mass identity

    int e^phi w dx = eps * int (theta + beta) dx.

solve_family assembles the two-parameter family phi_{t,eps} over the rows of
a space-time path: the path is mollified fiberwise at scale delta, each
slice density plus a semipositivity slack (zero for admissible data) becomes
the source beta = (1/eps)(m_delta + slack), and the delta -> 0 limit is
declared at the smallest delta, with the recorded Cauchy increments as
evidence.

solve_aubin_fiber solves a stack of fibers as one batch of the shared Newton
driver.  Per row, -J = -D2 + (1/eps) w e^phi is symmetric positive definite
and periodic tridiagonal, and a step solves it bordered: one LAPACK dptsv
(LDL^T) factors the leading (n-1)-blocks of every row still iterating, put
end to end, and solves for the residual and the corner column; the last node
follows from the scalar Schur complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._newton import damped_newton
from .errors import (
    FamilyMismatch,
    IncompatibleMass,
    NegativeDensity,
    NotASolution,
    SingularSystem,
)
from .geodesic import splu  # unused, kept: perfbench/layers.py wraps ma_fiber.splu by name
from .model import (
    Background,
    PathField,
    _as_field_values,
    _decreasing_ladder,
    _require_central2,
    fourier_field,
    metric_density,
)
from .regularize import MollifierSpec, mollify_fiberwise, semipositivity_constant


# ---------------------------------------------------------------------------
# problem and solution containers


@dataclass(frozen=True, eq=False)
class FiberProblem:
    """A stack of fiber equations (*), one per row of beta (n_points or (rows, n_points)).

    epsilon is one value or one per row; theta, shared by the rows, defaults
    to the curvature density -r of the background; beta is required to be
    semipositive up to round-off.
    """

    bg: Background
    beta: np.ndarray
    epsilon: float | np.ndarray
    theta: np.ndarray | None = None

    def __post_init__(self):
        n = self.bg.grid.n_points
        beta = np.array(self.beta, dtype=float, ndmin=2)
        if beta.ndim != 2 or beta.shape[1] != n or not np.all(np.isfinite(beta)):
            raise ValueError(f"beta must be finite rows of {n} nodal values, got shape {beta.shape}")
        theta = -self.bg.r if self.theta is None else _as_field_values(self.bg.grid, self.theta)
        epsilon = np.full(len(beta), self.epsilon, dtype=float)
        if not np.all(epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        low = np.min(beta, axis=1)
        if np.any(low < -1e-12):
            b = int(np.argmax(low < -1e-12))
            raise NegativeDensity(
                f"beta must be semipositive up to round-off; min = {low[b]:.3g}"
            ).at_row(b)
        for name, arr in (("beta", beta), ("epsilon", epsilon), ("theta", np.array(theta, dtype=float))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class FiberSolution:
    """Solved stack: potentials, residual certificates, solver effort per row."""

    phi: np.ndarray  # (rows, n_points)
    residual_sup: np.ndarray
    row_iters: np.ndarray
    newton_iters: int  # summed over the rows
    min_metric_eigen: np.ndarray


# ---------------------------------------------------------------------------
# fiber solver


def solve_aubin_fiber(
    problem: FiberProblem,
    phi0=None,
    tol: float = 1e-11,
    max_iter: int = 200,
) -> FiberSolution:
    """Damped Newton for every row of (*), from phi0 or the constant mass-matching guess.

    Each step is one bordered dptsv solve over the rows still iterating; a
    failure names its row in the exception's ``row``.
    """
    bg = problem.bg
    _require_central2(bg)
    n = bg.grid.n_points
    source = problem.theta + problem.beta
    eps = problem.epsilon
    total = bg.grid.spacing * np.sum(source, axis=1)
    if np.any(total <= 0.0):
        b = int(np.argmax(total <= 0.0))
        raise IncompatibleMass(
            f"int (theta + beta) dx = {float(total[b])!r} <= 0; the mass identity has no solution"
        ).at_row(b)
    if phi0 is None:
        phi0 = np.repeat([[math.log(v)] for v in eps * total], n, axis=1)
    coef = (1.0 / eps)[:, None] * bg.w
    inv_h2 = 1.0 / (bg.grid.spacing * bg.grid.spacing)

    def residual(phi, rows):
        return bg.d2(phi) - coef[rows] * np.exp(phi) + source[rows]

    def newton_step(phi, r, rows):
        from scipy.linalg.lapack import dptsv  # imported at first use, not with the CLI

        # (-J) step = r: the leading (n-1)-blocks of -J, joined by zero off-diagonals, give y1
        # (residual) and y2 (corner column b); last = (r_last - b.y1) / (d_last - b.y2)
        diag = 2.0 * inv_h2 + coef[rows] * np.exp(phi)
        finite = np.isfinite(diag).all(axis=1)  # dptsv passes NaN and inf; NaN crosses the joins
        if not finite.all():
            raise SingularSystem("fiber Jacobian is not finite").at_row(rows[np.argmin(finite)])
        off = np.tile(np.append(np.full(n - 2, -inv_h2), 0.0), len(rows))[:-1]
        rhs = np.zeros((2, len(rows), n - 1))
        rhs[0], rhs[1, :, [0, -1]] = r[:, :-1], -inv_h2
        _, _, y, info = dptsv(diag[:, :-1].ravel(), off, rhs.reshape(2, -1).T, overwrite_b=1)
        y1, y2 = y.T.reshape(2, len(rows), n - 1)
        schur = diag[:, -1] + inv_h2 * (y2[:, 0] + y2[:, -1])
        if info or not np.all(schur > 0.0):
            b = (info - 1) // (n - 1) if info > 0 else np.argmin(schur > 0.0)
            raise SingularSystem(f"fiber Jacobian is not positive definite (dptsv info {info})").at_row(rows[b])
        last = (r[:, -1:] + inv_h2 * (y1[:, :1] + y1[:, -1:])) / schur[:, None]
        return np.hstack([y1 - last * y2, last])

    phi, rec = damped_newton(
        np.array(phi0, dtype=float, ndmin=2), residual, newton_step, tol=tol, max_iter=max_iter
    )
    top = np.argmax(phi, axis=1)
    for b in np.flatnonzero(source[np.arange(len(phi)), top] > 0.0):  # guaranteed at an exact solution
        p = top[b]
        gap = phi[b, p] - math.log(eps[b] * source[b, p] / bg.w[p])
        if gap > 1e-8:
            raise NotASolution(f"discrete max principle violated by {gap:.3g}").at_row(b)
    return FiberSolution(
        phi=phi,
        residual_sup=np.array([sups[-1] for sups in rec.residual_sups]),
        row_iters=rec.row_iterations,
        newton_iters=rec.iterations,
        min_metric_eigen=np.min(source + bg.d2(phi), axis=1),
    )


# ---------------------------------------------------------------------------
# families over a path


@dataclass(eq=False)
class FiberFamily:
    """phi_{t,eps} at the smallest mollification scale, plus sweep evidence.

    phi[i, j] solves the fiber equation at (epsilons[i], times[j]), with
    residual sup norm residuals[i, j].  cauchy_increments[i] lists the sup
    gaps between consecutive-delta solutions for epsilons[i];
    lipschitz_constants[i] is L(eps) = max adjacent-slice slope, and
    equicontinuity_constant is max_i epsilons[i] * L(epsilons[i]).
    """

    bg: Background
    epsilons: tuple
    times: tuple
    deltas: tuple
    phi: np.ndarray  # (n_eps, n_times, n_points)
    residuals: np.ndarray  # (n_eps, n_times)
    cauchy_increments: list
    lipschitz_constants: list
    equicontinuity_constant: float
    slacks: tuple
    bound_samples: np.ndarray | None = None  # (n_eps, n_delta, 3) sweep diagnostics


class _Report:
    """to_dict() gives the fields named in REPORTED as JSON-ready lists and scalars."""

    REPORTED = ()

    def to_dict(self) -> dict:
        return {key: np.asarray(getattr(self, key)).tolist() for key in self.REPORTED}


@dataclass(eq=False)
class BoundReport(_Report):
    """The three uniform bounds per epsilon and the halves comparison.

    margin is the smallest halves margin of the three bounds, so passed is
    margin >= 0.
    """

    REPORTED = ("epsilons", "sup_phi", "neg_eps_inf_phi", "eps_d2_phi", "maxima", "passed")
    epsilons: tuple
    sup_phi: np.ndarray
    neg_eps_inf_phi: np.ndarray
    eps_d2_phi: np.ndarray
    maxima: tuple
    passed: bool
    margin: float


@dataclass(eq=False)
class ConvergenceReport(_Report):
    """Weak-convergence errors |int (e^phi w - m) xi dx| over the sweep."""

    REPORTED = ("epsilons", "max_per_eps", "final_max", "passed")
    epsilons: tuple
    errors: np.ndarray  # (n_eps, n_times, n_test)
    max_per_eps: np.ndarray
    final_max: float
    passed: bool


@dataclass(eq=False)
class VanishingReport(_Report):
    """sup_t ||eps phi_{t,eps}||_inf along the sweep."""

    REPORTED = ("epsilons", "sup_norms", "passed")
    epsilons: tuple
    sup_norms: np.ndarray
    passed: bool


def solve_family(bg: Background, path: PathField, epsilons, deltas, tol: float = 1e-11) -> FiberFamily:
    """Solve the fiber equation on every path row for each (eps, delta).

    For each delta (decreasing) the path is mollified fiberwise, and the
    slice densities m_delta plus the slack make beta.  Row 0 chains through
    the (eps, delta) pairs; then one batched call per time row j solves row
    j of every pair from row j - 1 of the same pair.  Per epsilon, the
    solution kept is the one at the smallest delta; the sup-norm Cauchy
    increments across consecutive deltas are recorded and must decrease.
    """
    _require_central2(bg)
    epsilons = _decreasing_ladder(epsilons, "epsilons")
    deltas = _decreasing_ladder(deltas, "deltas")

    # per delta: slice densities plus the (usually zero) semipositivity slack
    sources = []
    slacks = []
    for d in deltas:
        m_d = metric_density(bg, mollify_fiberwise(bg.grid, path.values, MollifierSpec(d, "fiberwise")))
        if d == deltas[0] and float(np.min(m_d)) <= 0.0:
            raise NegativeDensity(
                f"path is not slice-wise admissible after mollification at delta={d}; "
                f"min density = {np.min(m_d):.3g}"
            )
        slack = semipositivity_constant(m_d, d) * d
        slacks.append(slack)
        sources.append(m_d + slack)

    times = tuple(float(s) for s in path.times)
    # one batch row per (eps, delta) pair, epsilon-major; only the current time row is held
    sources = np.array(sources)  # (delta, t, x)
    pair_eps, n_pairs = np.repeat(epsilons, len(deltas)), len(epsilons) * len(deltas)
    row, res = np.empty((n_pairs, sources.shape[2])), np.empty(n_pairs)
    stats = np.full((n_pairs, 3), -np.inf)  # running _bound_stats per pair
    gaps = np.zeros(n_pairs)  # running sup |phi - phi of the pair before| (the previous delta)
    phi = np.empty((len(epsilons), *sources.shape[1:]))  # kept rows: the smallest delta
    residuals = np.empty(phi.shape[:2])
    kept = slice(len(deltas) - 1, None, len(deltas))

    def solve(pairs, j, phi0):  # time row j of the given pairs, warm-started from phi0
        beta = sources[pairs % len(deltas), j] / pair_eps[pairs, None]
        prob = FiberProblem(bg=bg, beta=beta, epsilon=pair_eps[pairs])
        try:
            sol = solve_aubin_fiber(prob, phi0=phi0, tol=tol)
        except Exception as exc:
            # keep the exception object (and its attributes); prefix the context
            where = f"t={times[j]}"
            if getattr(exc, "row", None) is not None:
                i, k = divmod(pairs[exc.row], len(deltas))
                where += f", eps={epsilons[i]}, delta={deltas[k]}"
            context = f"fiber solve failed at ({where})"
            exc.args = (f"{context}: {exc.args[0] if exc.args else exc}", *exc.args[1:])
            raise
        row[pairs], res[pairs] = sol.phi, sol.residual_sup

    for j in range(len(times)):
        if j == 0:  # row 0 chains through the pairs
            for p in range(n_pairs):
                solve(np.array([p]), 0, row[p - 1 : p] if p else None)
        else:  # row j of every pair starts from its row j - 1
            solve(np.arange(n_pairs), j, row)
        np.maximum(stats, _bound_stats(bg, pair_eps, row), out=stats)
        np.maximum(gaps[1:], np.max(np.abs(row[1:] - row[:-1]), axis=1), out=gaps[1:])
        phi[:, j], residuals[:, j] = row[kept], res[kept]

    bound_samples = stats.reshape(len(epsilons), len(deltas), 3)
    increments = [[float(g) for g in rows[1:]] for rows in gaps.reshape(len(epsilons), len(deltas))]
    for eps, incs in zip(epsilons, increments):
        if any(b > a + 1e-12 for a, b in zip(incs, incs[1:])):
            raise FamilyMismatch(f"Cauchy increments increase along deltas at eps={eps}: {incs}")

    slopes = np.max(np.abs(np.diff(phi, axis=1)), axis=2) / path.ds  # (eps, t - 1)
    lipschitz = [float(v) for v in np.max(slopes, axis=1)]
    equicont = max((e * L for e, L in zip(epsilons, lipschitz)), default=0.0)

    return FiberFamily(
        bg=bg,
        epsilons=epsilons,
        times=times,
        deltas=deltas,
        phi=phi,
        residuals=residuals,
        cauchy_increments=increments,
        lipschitz_constants=lipschitz,
        equicontinuity_constant=float(equicont),
        slacks=tuple(slacks),
        bound_samples=bound_samples,
    )


def _bound_stats(bg: Background, eps, phi: np.ndarray) -> np.ndarray:
    """sup phi, -eps inf phi and eps sup |D2 phi| of each row of phi, with eps per row."""
    d2 = np.abs(bg.d2(phi))
    return np.stack([phi.max(axis=1), -eps * phi.min(axis=1), eps * d2.max(axis=1)], axis=1)


def _halves_margin(values: np.ndarray) -> float:
    """1.5 max(first half) - max(second half); 0 when the second half is empty."""
    split = (values.size + 1) // 2
    first, second = values[:split], values[split:]
    if second.size == 0:
        return 0.0
    return 1.5 * float(np.max(first)) - float(np.max(second))


def check_bounds(family: FiberFamily) -> BoundReport:
    """Three uniform bounds per epsilon; PASS by the 1.5x halves rule.

    Uniformity proxy: for each of sup phi, -eps inf phi and eps |D2 phi|,
    the maximum over the second half of the (decreasing) epsilon sweep must
    not exceed 1.5 times the maximum over the first half.
    """
    per_eps = zip(family.epsilons, family.phi)
    stats = np.array([_bound_stats(family.bg, e, mat).max(axis=0) for e, mat in per_eps])
    sup_phi, neg_inf, eps_d2 = stats.T
    margin = min(_halves_margin(sup_phi), _halves_margin(neg_inf), _halves_margin(eps_d2))
    return BoundReport(
        epsilons=family.epsilons,
        sup_phi=sup_phi,
        neg_eps_inf_phi=neg_inf,
        eps_d2_phi=eps_d2,
        maxima=(float(np.max(sup_phi)), float(np.max(neg_inf)), float(np.max(eps_d2))),
        passed=margin >= 0.0,
        margin=margin,
    )


def default_test_set(grid) -> list[np.ndarray]:
    """Low-frequency test functions {1, cos 2pi x, sin 2pi x, cos 4pi x, sin 4pi x}."""
    modes = ((0, 1.0, 0.0), (1, 1.0, 0.0), (1, 0.0, 1.0), (2, 1.0, 0.0), (2, 0.0, 1.0))
    return [fourier_field(grid, [mode]) for mode in modes]


def density_convergence(family: FiberFamily, path: PathField, test_set=None) -> ConvergenceReport:
    """Pairings |int (e^phi w - m[path]) xi dx| over the epsilon sweep.

    PASS iff every final-epsilon error is <= 1e-2 and the worst error over
    (t, xi) decreases from the first epsilon to the last.
    """
    bg = family.bg
    if test_set is None:
        test_set = default_test_set(bg.grid)
    test_set = [_as_field_values(bg.grid, xi) for xi in test_set]
    if not test_set:
        raise ValueError("test_set must be nonempty")
    gap = np.exp(family.phi) * bg.w - metric_density(bg, path.values)  # (eps, t, x)
    errors = np.stack([np.abs(bg.grid.spacing * np.sum(gap * xi, axis=-1)) for xi in test_set], axis=-1)
    max_per_eps = errors.reshape(len(errors), -1).max(axis=1)
    passed = bool(np.max(errors[-1]) <= 1e-2 and max_per_eps[-1] <= max_per_eps[0])
    return ConvergenceReport(
        epsilons=family.epsilons,
        errors=errors,
        max_per_eps=max_per_eps,
        final_max=float(max_per_eps[-1]),
        passed=passed,
    )


def eps_phi_vanishing(family: FiberFamily) -> VanishingReport:
    """sup_t ||eps phi||_inf must decrease along the sweep and end <= first/2."""
    if len(family.epsilons) < 3:
        raise ValueError("need at least 3 epsilons to judge the trend")
    sups = np.array([eps * float(np.max(np.abs(mat))) for eps, mat in zip(family.epsilons, family.phi)])
    decreasing = all(b < a or (a == 0.0 and b == 0.0) for a, b in zip(sups, sups[1:]))
    passed = bool(decreasing and sups[-1] <= 0.5 * sups[0])
    return VanishingReport(epsilons=family.epsilons, sup_norms=sups, passed=passed)


def family_report(family: FiberFamily) -> dict:
    """JSON-ready summary {epsilons, times, bounds, residuals, ...}."""
    report = check_bounds(family)
    return {
        "epsilons": list(family.epsilons),
        "times": list(family.times),
        "deltas": list(family.deltas),
        "slacks": list(family.slacks),
        "bounds": report.to_dict(),
        "residuals": family.residuals.tolist(),
        "cauchy_increments": [list(map(float, inc)) for inc in family.cauchy_increments],
        "lipschitz_constants": [float(v) for v in family.lipschitz_constants],
        "equicontinuity_constant": float(family.equicontinuity_constant),
    }
