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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from ._newton import damped_newton
from .errors import (
    FamilyMismatch,
    IncompatibleMass,
    NegativeDensity,
    NotASolution,
)
from .model import (
    Background,
    PathField,
    PeriodicField,
    _as_field_values,
    _require_central2,
    fourier_field,
    metric_density,
)
from .regularize import MollifierSpec, mollify_fiberwise, semipositivity_constant


def _d2_matrix(grid) -> sparse.csc_matrix:
    """Sparse periodic central2 second-derivative matrix."""
    n = grid.n_points
    inv_h2 = 1.0 / (grid.spacing * grid.spacing)
    rows = np.concatenate([np.arange(n)] * 3)
    cols = np.concatenate([np.arange(n), (np.arange(n) + 1) % n, (np.arange(n) - 1) % n])
    vals = np.concatenate([np.full(n, -2.0 * inv_h2), np.full(n, inv_h2), np.full(n, inv_h2)])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


# ---------------------------------------------------------------------------
# problem and solution containers


@dataclass(frozen=True, eq=False)
class FiberProblem:
    """One fiber equation (*): background, source densities, epsilon.

    theta defaults to the curvature density -r of the background; beta is
    required to be semipositive up to round-off.
    """

    bg: Background
    beta: np.ndarray
    epsilon: float
    theta: np.ndarray | None = None

    def __post_init__(self):
        beta = _as_field_values(self.bg.grid, self.beta)
        theta = -self.bg.r if self.theta is None else _as_field_values(self.bg.grid, self.theta)
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if float(np.min(beta)) < -1e-12:
            raise NegativeDensity(
                f"beta must be semipositive up to round-off; min = {np.min(beta):.3g}"
            )
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "theta", np.array(theta, dtype=float))
        self.beta.setflags(write=False)
        self.theta.setflags(write=False)

    @property
    def source(self) -> np.ndarray:
        return self.theta + self.beta


@dataclass(frozen=True, eq=False)
class FiberSolution:
    """Solved slice: potential, residual certificate, solver effort."""

    phi: PeriodicField
    residual_sup: float
    newton_iters: int
    min_metric_eigen: float


# ---------------------------------------------------------------------------
# single-fiber solvers


def solve_aubin_fiber(
    problem: FiberProblem,
    phi0=None,
    tol: float = 1e-11,
    max_iter: int = 200,
) -> FiberSolution:
    """Damped Newton for (*) from the constant mass-matching initial guess."""
    bg = problem.bg
    _require_central2(bg)
    source = problem.source
    total = bg.integrate(source)
    if total <= 0.0:
        raise IncompatibleMass(
            f"int (theta + beta) dx = {total!r} <= 0; the mass identity has no solution"
        )
    if phi0 is None:
        phi0 = np.full(bg.grid.n_points, math.log(problem.epsilon * total))
    inv_eps = 1.0 / problem.epsilon
    d2 = _d2_matrix(bg.grid)

    def residual(phi):
        return bg.d2(phi) - inv_eps * bg.w * np.exp(phi) + source

    def newton_step(phi, r):
        jac = d2 - sparse.diags(inv_eps * bg.w * np.exp(phi), format="csc")
        return splu(jac.tocsc()).solve(-r)

    phi, rec = damped_newton(phi0, residual, newton_step, tol=tol, max_iter=max_iter)
    p = int(np.argmax(phi))
    if source[p] > 0.0:  # guaranteed at an exact solution; guard for round-off
        gap = phi[p] - math.log(problem.epsilon * source[p] / bg.w[p])
        if gap > 1e-8:
            raise NotASolution(f"discrete max principle violated by {gap:.3g}")
    return FiberSolution(
        phi=PeriodicField(bg.grid, phi),
        residual_sup=rec.residual_sups[-1],
        newton_iters=rec.iterations,
        min_metric_eigen=float(np.min(source + bg.d2(phi))),
    )


# ---------------------------------------------------------------------------
# families over a path


@dataclass(eq=False)
class FiberFamily:
    """phi_{t,eps} at the smallest mollification scale, plus sweep evidence.

    solutions is epsilon-major: solutions[i][j] solves the fiber equation at
    (epsilons[i], times[j]).  cauchy_increments[i] lists the sup gaps between
    consecutive-delta solutions for epsilons[i]; lipschitz_constants[i] is
    L(eps) = max adjacent-slice slope, and equicontinuity_constant is
    max_i epsilons[i] * L(epsilons[i]).
    """

    bg: Background
    epsilons: tuple
    times: tuple
    deltas: tuple
    solutions: list
    cauchy_increments: list
    lipschitz_constants: list
    equicontinuity_constant: float
    slacks: tuple
    bound_samples: np.ndarray | None = None  # (n_eps, n_delta, 3) sweep diagnostics

    def phi_matrix(self) -> np.ndarray:
        """Array of shape (n_eps, n_times, n_points) of solved potentials."""
        return np.array([[sol.phi.values for sol in row] for row in self.solutions])


@dataclass(eq=False)
class BoundReport:
    """The three uniform bounds per epsilon and the halves comparison.

    margin is the smallest halves margin of the three bounds, so passed is
    margin >= 0.
    """

    epsilons: tuple
    sup_phi: np.ndarray
    neg_eps_inf_phi: np.ndarray
    eps_d2_phi: np.ndarray
    maxima: tuple
    passed: bool
    margin: float

    def to_dict(self) -> dict:
        return {
            "epsilons": list(self.epsilons),
            "sup_phi": [float(v) for v in self.sup_phi],
            "neg_eps_inf_phi": [float(v) for v in self.neg_eps_inf_phi],
            "eps_d2_phi": [float(v) for v in self.eps_d2_phi],
            "maxima": [float(v) for v in self.maxima],
            "passed": bool(self.passed),
        }


@dataclass(eq=False)
class ConvergenceReport:
    """Weak-convergence errors |int (e^phi w - m) xi dx| over the sweep."""

    epsilons: tuple
    errors: np.ndarray  # (n_eps, n_times, n_test)
    max_per_eps: np.ndarray
    passed: bool

    def to_dict(self) -> dict:
        return {
            "epsilons": list(self.epsilons),
            "max_per_eps": [float(v) for v in self.max_per_eps],
            "final_max": float(self.max_per_eps[-1]),
            "passed": bool(self.passed),
        }


@dataclass(eq=False)
class VanishingReport:
    """sup_t ||eps phi_{t,eps}||_inf along the sweep."""

    epsilons: tuple
    sup_norms: np.ndarray
    passed: bool

    def to_dict(self) -> dict:
        return {
            "epsilons": list(self.epsilons),
            "sup_norms": [float(v) for v in self.sup_norms],
            "passed": bool(self.passed),
        }


def _check_decreasing(name: str, seq) -> None:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty sequence")
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive, got {list(arr)}")
    if np.any(np.diff(arr) >= 0.0):
        raise ValueError(f"{name} must be strictly decreasing, got {list(arr)}")


def solve_family(bg: Background, path: PathField, epsilons, deltas, tol: float = 1e-11) -> FiberFamily:
    """Solve the fiber equation on every path row for each (eps, delta).

    For each delta (decreasing) the path is mollified fiberwise, the slice
    densities m_delta plus the slack make beta, and every time row is solved
    with warm starts along t.  Per epsilon, the solution kept is the one at
    the smallest delta; the sup-norm Cauchy increments across consecutive
    deltas are recorded and must decrease.
    """
    _require_central2(bg)
    epsilons = tuple(float(e) for e in epsilons)
    deltas = tuple(float(d) for d in deltas)
    _check_decreasing("epsilons", epsilons)
    _check_decreasing("deltas", deltas)

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
    n_rows = path.n_time + 1
    solutions = []
    increments = []
    bound_samples = np.zeros((len(epsilons), len(deltas), 3))
    warm_row0 = None
    for i, eps in enumerate(epsilons):
        prev_mat = None
        kept = None
        incs = []
        for k, d in enumerate(deltas):
            row_solutions = []
            warm = warm_row0
            for j in range(n_rows):
                beta = sources[k][j] / eps
                prob = FiberProblem(bg=bg, beta=beta, epsilon=eps)
                try:
                    sol = solve_aubin_fiber(prob, phi0=warm, tol=tol)
                except Exception as exc:
                    # keep the exception object (and its attributes); prefix the context
                    context = f"fiber solve failed at (t={times[j]}, eps={eps}, delta={d})"
                    exc.args = (f"{context}: {exc.args[0] if exc.args else exc}", *exc.args[1:])
                    raise
                row_solutions.append(sol)
                warm = sol.phi.values.copy()
            warm_row0 = row_solutions[0].phi.values.copy()
            mat = np.array([s.phi.values for s in row_solutions])
            bound_samples[i, k] = _bound_stats(bg, eps, mat)
            if prev_mat is not None:
                incs.append(float(np.max(np.abs(mat - prev_mat))))
            prev_mat = mat
            kept = row_solutions
        for a, b in zip(incs, incs[1:]):
            if b > a + 1e-12:
                raise FamilyMismatch(
                    f"Cauchy increments increase along deltas at eps={eps}: {incs}"
                )
        solutions.append(kept)
        increments.append(incs)

    lipschitz = []
    for i, eps in enumerate(epsilons):
        mat = np.array([s.phi.values for s in solutions[i]])
        slopes = np.max(np.abs(np.diff(mat, axis=0)), axis=1) / path.ds
        lipschitz.append(float(np.max(slopes)) if slopes.size else 0.0)
    equicont = max((e * L for e, L in zip(epsilons, lipschitz)), default=0.0)

    return FiberFamily(
        bg=bg,
        epsilons=epsilons,
        times=times,
        deltas=deltas,
        solutions=solutions,
        cauchy_increments=increments,
        lipschitz_constants=lipschitz,
        equicontinuity_constant=float(equicont),
        slacks=tuple(slacks),
        bound_samples=bound_samples,
    )


def _bound_stats(bg: Background, eps: float, mat: np.ndarray) -> tuple:
    """sup phi, -eps inf phi and eps sup |D2 phi| over the rows of mat."""
    return (
        float(np.max(mat)),
        float(-eps * np.min(mat)),
        float(eps * np.max(np.abs(bg.d2(mat)))),
    )


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
    stats = np.array(
        [_bound_stats(family.bg, eps, mat) for eps, mat in zip(family.epsilons, family.phi_matrix())]
    )
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
    return [
        np.ones(grid.n_points),
        fourier_field(grid, [(1, 1.0, 0.0)]),
        fourier_field(grid, [(1, 0.0, 1.0)]),
        fourier_field(grid, [(2, 1.0, 0.0)]),
        fourier_field(grid, [(2, 0.0, 1.0)]),
    ]


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
    m_rows = metric_density(bg, path.values)
    n_eps = len(family.epsilons)
    n_rows = len(family.times)
    errors = np.zeros((n_eps, n_rows, len(test_set)))
    for i in range(n_eps):
        for j in range(n_rows):
            dens = np.exp(family.solutions[i][j].phi.values) * bg.w
            gap = dens - m_rows[j]
            for k, xi in enumerate(test_set):
                errors[i, j, k] = abs(bg.integrate(gap * xi))
    max_per_eps = errors.reshape(n_eps, -1).max(axis=1)
    passed = bool(np.max(errors[-1]) <= 1e-2 and max_per_eps[-1] <= max_per_eps[0])
    return ConvergenceReport(
        epsilons=family.epsilons,
        errors=errors,
        max_per_eps=max_per_eps,
        passed=passed,
    )


def eps_phi_vanishing(family: FiberFamily) -> VanishingReport:
    """sup_t ||eps phi||_inf must decrease along the sweep and end <= first/2."""
    if len(family.epsilons) < 3:
        raise ValueError("need at least 3 epsilons to judge the trend")
    sups = np.array(
        [
            eps * max(float(np.max(np.abs(s.phi.values))) for s in row)
            for eps, row in zip(family.epsilons, family.solutions)
        ]
    )
    decreasing = all(
        b < a or (a == 0.0 and b == 0.0) for a, b in zip(sups, sups[1:])
    )
    passed = bool(decreasing and sups[-1] <= 0.5 * sups[0])
    return VanishingReport(epsilons=family.epsilons, sup_norms=sups, passed=passed)


def family_report(family: FiberFamily) -> dict:
    """JSON-ready summary {epsilons, times, bounds, residuals, ...}."""
    report = check_bounds(family)
    residuals = [[s.residual_sup for s in row] for row in family.solutions]
    return {
        "epsilons": list(family.epsilons),
        "times": list(family.times),
        "deltas": list(family.deltas),
        "slacks": list(family.slacks),
        "bounds": report.to_dict(),
        "residuals": residuals,
        "cauchy_increments": [list(map(float, inc)) for inc in family.cauchy_increments],
        "lipschitz_constants": [float(v) for v in family.lipschitz_constants],
        "equicontinuity_constant": float(family.equicontinuity_constant),
    }
