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
evidence.  Each time row is one batch over every (eps, delta) pair, and
every row starts from the balance start log(eps (theta + beta) / w), which
solves (*) with D2 phi dropped and so is within O(eps) of the solution.

check_bounds, density_convergence and eps_phi_vanishing judge a family and
return a PropertyResult, the verdict type of every check; its details are
what the fiberwise report shows, passed flag included.

solve_aubin_fiber solves a stack of fibers as one batch of the shared Newton
driver.  Per row, -J = -D2 + (1/eps) w e^phi is symmetric positive definite
and periodic tridiagonal with a constant off-diagonal, and a step factors
the rows still iterating once (geodesic._PeriodicFactor): one batched cyclic
reduction of the leading (n-1)-blocks, their solve for the corner column and
the scalar Schur complement of the last node.  The factor's solve then only
substitutes, and its smallest pivot per row tells whether that row's
Jacobian is positive definite.  The x-line smoother of the eps-geodesic's
two-grid cycle factors its two line sets the same way, once per Newton step,
and substitutes in every sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._newton import NewtonRecord, damped_newton
from .config import DEFAULT_TOLERANCES
from .errors import (
    FamilyMismatch,
    IncompatibleMass,
    NegativeDensity,
    NotASolution,
    SingularSystem,
)
from .geodesic import _PeriodicFactor
from .geodesic import splu  # unused, kept: perfbench/layers.py wraps ma_fiber.splu by name
from .model import (
    Background,
    PathField,
    PropertyResult,
    _decreasing_ladder,
    _result,
    fourier_field,
    metric_density,
)
from .regularize import MollifierSpec, mollify_fiberwise, semipositivity_constant


# ---------------------------------------------------------------------------
# problem and solution containers


@dataclass(frozen=True, eq=False)
class FiberProblem:
    """A stack of fiber equations (*), one per row of beta (n_points or (rows, n_points)).

    epsilon is one value or one per row; theta, shared by the rows, is the
    curvature density -r of the background; beta is required to be
    semipositive up to round-off.
    """

    bg: Background
    beta: np.ndarray
    epsilon: float | np.ndarray
    theta: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.bg.grid.n_points
        beta = np.array(self.beta, dtype=float, ndmin=2)
        if beta.ndim != 2 or beta.shape[1] != n or not np.all(np.isfinite(beta)):
            raise ValueError(f"beta must be finite rows of {n} nodal values, got shape {beta.shape}")
        epsilon = np.full(len(beta), self.epsilon, dtype=float)
        if not np.all(epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        low = np.min(beta, axis=1)
        if np.any(low < -1e-12):
            b = int(np.argmax(low < -1e-12))
            raise NegativeDensity(
                f"beta must be semipositive up to round-off; min = {low[b]:.3g}"
            ).at_row(b)
        for name, arr in (("beta", beta), ("epsilon", epsilon), ("theta", -self.bg.r)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class FiberSolution:
    """Solved stack: potentials, residual certificates, solver effort per row."""

    phi: np.ndarray  # (rows, n_points)
    residual_sup: np.ndarray
    record: NewtonRecord

    @property
    def newton_iters(self) -> int:  # summed over the rows
        return self.record.iterations


# ---------------------------------------------------------------------------
# fiber solver


def solve_aubin_fiber(problem: FiberProblem, phi0=None, tol: float = DEFAULT_TOLERANCES["fiber"]) -> FiberSolution:
    """Damped Newton for every row of (*), from phi0 or the constant mass-matching guess.

    Each step factors the rows still iterating (_PeriodicFactor) and solves
    once; a failure names its row in the exception's ``row``.
    """
    bg = problem.bg
    n = bg.grid.n_points
    source = problem.theta + problem.beta
    eps = problem.epsilon
    total = bg.integrate(source)
    if np.any(total <= 0.0):
        b = int(np.argmax(total <= 0.0))
        raise IncompatibleMass(
            f"int (theta + beta) dx = {float(total[b])!r} <= 0; the mass identity has no solution"
        ).at_row(b)
    if phi0 is None:
        phi0 = np.repeat([[math.log(v)] for v in eps * total], n, axis=1)
    coef = (1.0 / eps)[:, None] * bg.w
    inv_h2 = 1.0 / (bg.grid.spacing * bg.grid.spacing)

    def evaluate(phi, rows):  # every iterate is admissible
        return bg.d2(phi) - coef[rows] * np.exp(phi) + source[rows], np.ones(len(rows), dtype=bool)

    def newton_step(phi, r, rows):  # (-J) step = r
        diag = 2.0 * inv_h2 + coef[rows] * np.exp(phi)
        finite = np.isfinite(diag).all(axis=1)  # else a NaN would read as an indefinite Jacobian
        if not finite.all():
            raise SingularSystem("fiber Jacobian is not finite").at_row(rows[np.argmin(finite)])
        factor = _PeriodicFactor(diag, -inv_h2)
        low = factor.low
        if not np.all(low > 0.0):
            b = np.argmin(low > 0.0)
            raise SingularSystem(f"fiber Jacobian is not positive definite (pivot {low[b]:.3g})").at_row(rows[b])
        return factor.solve(r), None

    phi, rec = damped_newton(
        np.array(phi0, dtype=float, ndmin=2), evaluate, newton_step, tol=tol, max_iter=200
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
        record=rec,
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


def solve_family(
    bg: Background, path: PathField, epsilons, deltas, tol: float = DEFAULT_TOLERANCES["fiber"]
) -> FiberFamily:
    """Solve the fiber equation on every path row for each (eps, delta).

    For each delta (decreasing) the path is mollified fiberwise, and the
    slice densities m_delta plus the slack make beta.  One batched call per
    time row j solves row j of every (eps, delta) pair, each from the balance
    start log(eps (theta + beta) / w), or from the mass-matching constant
    where eps (theta + beta) is not positive at every node.  Per epsilon, the
    solution kept is the one at the smallest delta; the sup-norm Cauchy
    increments across consecutive deltas are recorded and must decrease.
    """
    epsilons = _decreasing_ladder(epsilons, "epsilons")
    deltas = _decreasing_ladder(deltas, "deltas")

    # per delta: slice densities plus the (usually zero) semipositivity slack
    sources = []
    slacks = []
    for d in deltas:
        m_d = metric_density(bg, mollify_fiberwise(bg.grid, path.values, MollifierSpec(d)))
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
    stats = np.full((n_pairs, 3), -np.inf)  # running _bound_stats per pair
    gaps = np.zeros(n_pairs)  # running sup |phi - phi of the pair before| (the previous delta)
    phi = np.empty((len(epsilons), *sources.shape[1:]))  # kept rows: the smallest delta
    residuals = np.empty(phi.shape[:2])
    kept = slice(len(deltas) - 1, None, len(deltas))

    for j in range(len(times)):
        source = np.tile(sources[:, j], (len(epsilons), 1))
        prob = FiberProblem(bg=bg, beta=source / pair_eps[:, None], epsilon=pair_eps)
        # balance start: (1/eps) e^phi w ~ theta + beta; the mass-matching constant where that has no log
        balance = pair_eps[:, None] * prob.theta + source
        flat = ~np.all(balance > 0.0, axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):  # a row of no mass raises IncompatibleMass first
            phi0 = np.log(np.where(flat, bg.integrate(balance)[:, None], balance / bg.w))
        try:
            sol = solve_aubin_fiber(prob, phi0=phi0, tol=tol)
        except Exception as exc:
            # keep the exception object (and its attributes); prefix the context
            where = f"t={times[j]}"
            if getattr(exc, "row", None) is not None:
                i, k = divmod(exc.row, len(deltas))
                where += f", eps={epsilons[i]}, delta={deltas[k]}"
            context = f"fiber solve failed at ({where})"
            exc.args = (f"{context}: {exc.args[0] if exc.args else exc}", *exc.args[1:])
            raise
        np.maximum(stats, _bound_stats(bg, pair_eps, sol.phi), out=stats)
        np.maximum(gaps[1:], np.max(np.abs(sol.phi[1:] - sol.phi[:-1]), axis=1), out=gaps[1:])
        phi[:, j], residuals[:, j] = sol.phi[kept], sol.residual_sup[kept]

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
    """sup phi, -eps inf phi and eps sup |D2 phi| of each row of phi (last axis), with eps per row."""
    d2 = np.abs(bg.d2(phi))
    return np.stack([phi.max(axis=-1), -eps * phi.min(axis=-1), eps * d2.max(axis=-1)], axis=-1)


def _halves_margin(values: np.ndarray) -> float:
    """1.5 max(first half) - max(second half); 0 when the second half is empty."""
    split = (values.size + 1) // 2
    first, second = values[:split], values[split:]
    if second.size == 0:
        return 0.0
    return 1.5 * float(np.max(first)) - float(np.max(second))


def _check(name: str, margin: float, **details) -> PropertyResult:
    """A fiber check's verdict; its details repeat passed, as the fiberwise report shows them."""
    return _result(name, margin, {**details, "passed": margin >= 0.0})


def check_bounds(family: FiberFamily) -> PropertyResult:
    """Three uniform bounds per epsilon; PASS by the 1.5x halves rule.

    Uniformity proxy: for each of sup phi, -eps inf phi and eps |D2 phi|,
    the maximum over the second half of the (decreasing) epsilon sweep must
    not exceed 1.5 times the maximum over the first half; the margin is the
    smallest of the three halves margins.
    """
    eps = np.array(family.epsilons)[:, None]
    sup_phi, neg_inf, eps_d2 = _bound_stats(family.bg, eps, family.phi).max(axis=1).T
    margin = min(_halves_margin(sup_phi), _halves_margin(neg_inf), _halves_margin(eps_d2))
    return _check(
        "family_uniform_bounds",
        margin,
        epsilons=family.epsilons,
        sup_phi=sup_phi,
        neg_eps_inf_phi=neg_inf,
        eps_d2_phi=eps_d2,
        maxima=(np.max(sup_phi), np.max(neg_inf), np.max(eps_d2)),
    )


def default_test_set(grid) -> np.ndarray:
    """Low-frequency test functions {1, cos 2pi x, sin 2pi x, cos 4pi x, sin 4pi x}, one per row."""
    modes = ((0, 1.0, 0.0), (1, 1.0, 0.0), (1, 0.0, 1.0), (2, 1.0, 0.0), (2, 0.0, 1.0))
    return np.array([fourier_field(grid, [mode]) for mode in modes])


def density_convergence(family: FiberFamily, path: PathField) -> PropertyResult:
    """Pairings |int (e^phi w - m[path]) xi dx| with the default test set over the epsilon sweep.

    margin >= 0 iff every final-epsilon error is <= 1e-2 and the worst error
    over (t, xi) does not grow from the first epsilon to the last.
    """
    bg = family.bg
    gap = np.exp(family.phi) * bg.w - metric_density(bg, path.values)  # (eps, t, x)
    # one test function at a time: the (eps, t, xi, x) product would be the bounds suite's largest array
    errors = np.abs(np.stack([bg.integrate(gap * xi) for xi in default_test_set(bg.grid)], axis=-1))  # (eps, t, xi)
    max_per_eps = errors.reshape(len(errors), -1).max(axis=1)
    final, first = float(max_per_eps[-1]), float(max_per_eps[0])
    margin = min(1e-2 - final, first - final)
    return _check(
        "density_convergence", margin, epsilons=family.epsilons, max_per_eps=max_per_eps, final_max=final
    )


def eps_phi_vanishing(family: FiberFamily) -> PropertyResult:
    """sup_t ||eps phi||_inf must not grow along the sweep and must end <= first/2."""
    if len(family.epsilons) < 3:
        raise ValueError("need at least 3 epsilons to judge the trend")
    sups = np.array(family.epsilons) * np.max(np.abs(family.phi), axis=(1, 2))
    a, b = sups[:-1], sups[1:]
    steps = (a - b)[(a != 0.0) | (b != 0.0)]  # a step between two zeros does not count
    margin = float(np.min([*steps, 0.5 * sups[0] - sups[-1]]))
    return _check("eps_phi_vanishing", margin, epsilons=family.epsilons, sup_norms=sups)


def family_report(family: FiberFamily) -> dict:
    """JSON-ready summary {epsilons, times, bounds, residuals, ...}."""
    return {
        "epsilons": list(family.epsilons),
        "times": list(family.times),
        "deltas": list(family.deltas),
        "slacks": list(family.slacks),
        "bounds": check_bounds(family).details,
        "residuals": family.residuals.tolist(),
        "cauchy_increments": [list(map(float, inc)) for inc in family.cauchy_increments],
        "lipschitz_constants": [float(v) for v in family.lipschitz_constants],
        "equicontinuity_constant": float(family.equicontinuity_constant),
    }
