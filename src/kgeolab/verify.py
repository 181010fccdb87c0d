"""Theorem-level property checks with signed margins and negative controls.

Every check condenses to a PropertyResult (the curvature identity to one
per kappa) whose margin is the signed distance to its acceptance
threshold, so pass == (margin >= 0) always; the fiber-family checks of
ma_fiber return the same type and the suites run them as they are.
Thresholds are relative to a computed scale (the largest magnitude the
tested quantity reaches on the run) except for identities that must hold
at round-off, whose tolerances are absolute.  A threshold is a constant in
its check's body, or a module constant where a caller shares it, never a
parameter.

A check is paired with a constructed failing input: its control runs the
check on that input and returns the result with the margin sign flipped,
so a control "passes" exactly when the underlying check correctly rejects
the broken data.  ROWS, one table in output order, holds every check and
control as an entry of its suite, a control named "control:" plus the check
it controls; a suite is green only when the checks pass on real data and
fail on the controls.

The curvature identity is checked in the form

    Hess(log(w + Phi_xx))(v, v) - eps D2(e^-f) / (w + Phi_xx) = kappa (D1 a)^2

with v = (-a, 1), a = Phi_xs / (w + Phi_xx), f = log((w + Phi_xx)/w) and
kappa frozen to 1 after a one-time fit: only this form has a residual that
vanishes under grid refinement, which is what the refinement-ratio window
[3, 5] certifies.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .config import OSCILLATION_COUNT, ExperimentConfig, verify_grid_needs
from .errors import FamilyMismatch, NegativeDensity, NotASolution, SkippedHypothesis
from .functionals import (
    FunctionalTrace,
    TruncationSpec,
    _check_k_family,
    _resolve_chi,
    _truncated_log,
    _xlogy,
    ddc_energy_check,
    delta_A,
    mabuchi,
    mabuchi_eps_A,
    mabuchi_k,
    second_differences,
)
from .geodesic import (
    EpsGeodesic,
    EpsGeodesicProblem,
    eps_continuation,
    rung_increments,
    solve_eps_geodesic,
    weak_limit,
)
from .ma_fiber import (
    FiberFamily,
    check_bounds,
    density_convergence,
    eps_phi_vanishing,
    solve_family,
)
from .model import (
    Background,
    PathField,
    PropertyResult,
    SpatialGrid,
    _result,
    fourier_field,
    make_background,
    metric_density,
    path_d1x,
    path_d2s,
    path_d2x,
    path_dxds,
    reduced_hessian,
)
from .regularize import MollifierSpec, mollify_fiberwise

# frozen after the refinement fit; see eps_curvature_identity
CURVATURE_KAPPA = 1.0
CONTROL_KAPPA = 4.0  # the curvature control's wrong constant
KAPPA_FIT_SET = (0.25, 0.5, 1.0, 2.0, 4.0)

# the suites' calibrated ladders, fixed whatever the run's config says
WEAK_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)
WEAK_TOL = 1e-10  # the default geodesic tolerance
# the family's Newton tolerance unless the config sets tolerances.fiber: about 4 ulps
# (2^-42 ~ 2.3e-13) above the round-off floor of its residuals, so last bits decide whether a
# row takes a 4th step; raising it moves outputs, which belongs to ROADMAP's round-off floor item
FAMILY_TOL = 1e-12
# half-decade ladder 1e-1 .. 1e-3: the uniform bounds need the sweep to
# reach the saturated regime in its first half
FAMILY_EPSILONS = (1e-1, 10.0**-1.5, 1e-2, 10.0**-2.5, 1e-3)
FAMILY_DELTAS = (0.1, 0.05, 0.025)
A_VALUES = (2.0, 5.0, 10.0, 20.0)  # floats: the checks report them as they are
K_VALUES = (1, 2, 4)
C_A_BOUND = 100.0
CURVATURE_EPSILON = 1e-2
CURVATURE_N_TIME = 64
CURVED_PSI_AMPLITUDE = 0.002
EPS_A_EPSILONS = (1e-1, 1e-2, 1e-3)
EPS_A_VALUES = (5.0, 10.0)
BOUNDARY_N_TIMES = (32, 64)
# the n_times of the WEAK_EPSILONS chain, coarse to fine; see SuiteData
CHAIN_N_TIMES = (16, *BOUNDARY_N_TIMES)
# the entropy suite's test data: one oscillation sequence for each of ENTROPY_SEEDS seeds from
# the config's seed on, at frequencies 1..OSCILLATION_COUNT (config.verify_grid_needs)
ENTROPY_SEEDS = 20
OSCILLATION_AMPLITUDE = 0.5


# ---------------------------------------------------------------------------
# verdict helpers


def _as_control(name: str, raw: PropertyResult) -> PropertyResult:
    """Flip the verdict: a control passes exactly when the raw check fails."""
    margin = -raw.margin if raw.margin != 0.0 else -1e-300
    details = dict(raw.details)
    details.update({"control": True, "raw_margin": raw.margin, "raw_pass": raw.passed})
    return _result(name, margin, details)


def _scale(*arrays) -> float:
    worst = 0.0
    for arr in arrays:
        a = np.asarray(arr, dtype=float)
        if a.size:
            worst = max(worst, float(np.max(np.abs(a))))
    return worst


# ---------------------------------------------------------------------------
# density sequences (weak-convergence test data for the entropy lemmas)


@dataclass(eq=False)
class DensitySequence:
    """Densities f_i >= 0 of unit mu-mass converging weakly to f_limit; members is (count, n_points)."""

    bg: Background
    f_limit: np.ndarray
    members: np.ndarray
    bound: float

    def __post_init__(self):
        self.f_limit = np.asarray(self.f_limit, dtype=float)
        self.members = np.array(self.members, dtype=float, ndmin=2)
        f = np.vstack([self.f_limit, self.members])  # row 0 is f_limit, row i + 1 member i
        low, high, mass = f.min(axis=1), f.max(axis=1), self.bg.integrate_mu(f)
        bad = np.flatnonzero((low < 0.0) | (high > self.bound + 1e-12) | (np.abs(mass - 1.0) > 1e-10))
        if bad.size:
            i = bad[0]
            label = f"member {i - 1}" if i else "f_limit"
            if low[i] < 0.0:
                raise NegativeDensity(f"{label} reaches {low[i]:.3g}")
            if high[i] > self.bound + 1e-12:
                raise ValueError(f"{label} exceeds the declared bound {self.bound:g}")
            raise ValueError(f"{label} has mu-mass {float(mass[i])!r}, expected 1")


def oscillation_sequence(bg: Background, f_limit) -> DensitySequence:
    """f_i = f (1 + a sin(2 pi i x)) / Z_i: oscillations kill weak limits.

    Frequencies i run 1..OSCILLATION_COUNT and must stay below Nyquist;
    a = OSCILLATION_AMPLITUDE < 1 keeps the members nonnegative whenever f is.
    """
    if need := verify_grid_needs(bg.grid.n_points, "entropy"):
        raise ValueError(f"oscillation_sequence needs {need}, got {bg.grid.n_points}")
    f = np.asarray(f_limit, dtype=float)
    f = f / bg.integrate_mu(f)
    i = np.arange(1, OSCILLATION_COUNT + 1)[:, None]
    g = f * (1.0 + OSCILLATION_AMPLITUDE * np.sin(2.0 * np.pi * i * bg.grid.nodes))
    members = g / bg.integrate_mu(g)[:, None]
    bound = max(float(np.max(f)), float(np.max(members)))
    return DensitySequence(bg=bg, f_limit=f, members=members, bound=bound)


def random_density_sequence(bg: Background, seed: int) -> DensitySequence:
    """Oscillation sequence around a random smooth positive limit density, drawn by random.Random(seed)."""
    rng = random.Random(seed)
    terms = [(k, rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)) for k in (1, 2, 3)]
    base = 1.0 + fourier_field(bg.grid, terms)
    return oscillation_sequence(bg, base)


def mollified_sequence(bg: Background) -> DensitySequence:
    """Nine copies of the limit 1 + cos(2 pi x)/2 mollified at delta = 0.1: entropy drops, never rises.

    This is the canonical failing input for the semicontinuity checks; the
    gap sequence sits at a strictly negative level.
    """
    f = 1.0 + 0.5 * fourier_field(bg.grid, [(1, 1.0, 0.0)])
    f = f / bg.integrate_mu(f)
    smooth = mollify_fiberwise(bg.grid, f, MollifierSpec(0.1, "fiberwise"))
    smooth = smooth / bg.integrate_mu(smooth)
    members = np.repeat(smooth[None, :], 9, axis=0)
    bound = max(float(np.max(f)), float(np.max(smooth)))
    return DensitySequence(bg=bg, f_limit=f, members=members, bound=bound)


def density_entropy(bg: Background, f):
    """H(f) = int f log f dmu for a density f relative to mu, or for each row of a stack."""
    f = np.asarray(f, dtype=float)
    return bg.integrate_mu(_xlogy(f, f))


def density_truncated_entropy(bg: Background, f, spec: TruncationSpec):
    """H_A(f) = int f log max(f, e^(chi - A)) dmu, for a density or each row of a stack; finite on zero sets."""
    f = np.asarray(f, dtype=float)
    return bg.integrate_mu(f * _truncated_log(bg, f, spec))


def _tail_start(n: int) -> int:
    # semicontinuity is asymptotic: only the last third of the gaps counts
    return min(n - 1, (2 * n) // 3)


def entropy_semicontinuity(bg: Background, seq: DensitySequence) -> PropertyResult:
    """liminf H(f_i) >= H(f): tail gaps must clear -tol = -1e-6."""
    tol = 1e-6
    base = density_entropy(bg, seq.f_limit)
    gaps = density_entropy(bg, seq.members) - base
    start = _tail_start(len(gaps))
    margin = np.min(gaps[start:]) + tol
    return _result(
        "entropy_semicontinuity",
        margin,
        {"limit_entropy": base, "gaps": gaps, "tail_start": start, "tol": tol},
    )


def truncated_semicontinuity(bg: Background, seq: DensitySequence, spec: TruncationSpec) -> PropertyResult:
    """Tail gaps of H_A may dip below zero by at most delta(A) + tol, tol = 1e-6."""
    tol = 1e-6
    slack = delta_A(bg, spec)[2]
    base = density_truncated_entropy(bg, seq.f_limit, spec)
    gaps = density_truncated_entropy(bg, seq.members, spec) - base
    start = _tail_start(len(gaps))
    margin = np.min(gaps[start:]) + slack + tol
    return _result(
        f"truncated_semicontinuity[A={spec.A:g}]",
        margin,
        {
            "A": spec.A,
            "delta_A": slack,
            "limit_entropy": base,
            "gaps": gaps,
            "tail_start": start,
            "tol": tol,
        },
    )


def truncated_semicontinuity_sweep(bg: Background, seq: DensitySequence) -> PropertyResult:
    """The per-A checks over A_VALUES must pass and the slacks delta(A) must decrease in A."""
    results = [truncated_semicontinuity(bg, seq, TruncationSpec(a)) for a in A_VALUES]
    slacks = [r.details["delta_A"] for r in results]
    margin_mono = min(
        (a - b for a, b in zip(slacks, slacks[1:])), default=math.inf
    )
    margin = min([r.margin for r in results] + [margin_mono])
    return _result(
        "truncated_semicontinuity_sweep",
        margin,
        {
            "a_values": list(A_VALUES),
            "delta_values": slacks,
            "per_a_margins": [r.margin for r in results],
        },
    )


def delta_a_closed_form(bg: Background) -> PropertyResult:
    """With chi = 0 and unit mu-mass, delta(A) = (A + 2) e^-A to round-off over A_VALUES."""
    worst = 0.0
    rows = []
    for a in A_VALUES:
        c1, c2, slack = delta_A(bg, TruncationSpec(a))
        closed = (a + 2.0) * math.exp(-a)
        worst = max(worst, abs(slack - closed))
        rows.append({"A": a, "delta": slack, "closed_form": closed})
    tail = delta_A(bg, TruncationSpec(20.0))[2]
    margin = min(1e-12 - worst, 1e-7 - tail)
    return _result(
        "delta_a_closed_form",
        margin,
        {"rows": rows, "worst_gap": worst, "delta_20": tail},
    )


# ---------------------------------------------------------------------------
# convexity of the k-averaged potential (log-sum-exp inequality)


def convexity_inequality_k(bg: Background, path: PathField, family: FiberFamily, k: int) -> PropertyResult:
    """mixedDet(Hess L - Ric, G) >= -tol * scale, tol = 1e-6, for L = log of the k-fiber average.

    G is the reduced Hessian of the path (degenerate for a weak geodesic),
    Ric acts on the xx slot only.  The log-sum-exp convexity inequality
    Hess L >= sum p_j Hess phi_j is checked independently in the x and s
    directions on the same data.
    """
    _check_k_family(path, family, k)
    tol = 1e-6
    grid = bg.grid
    ds = path.ds
    phis = family.phi[:k]  # (k, n_rows, n)
    # shifted log-sum-exp: for k = 1, L is phi itself and the gaps below are exactly 0
    top = phis.max(axis=0)
    num = np.exp(phis - top)
    weights = num / num.sum(axis=0)  # softmax over the k fibers
    L = top + np.log(num.mean(axis=0))

    l_xx = path_d2x(grid, L)
    l_ss = path_d2s(L, ds)
    l_xs = path_dxds(grid, L, ds)
    rh = reduced_hessian(bg, path)
    a_xx = l_xx[1:-1] - bg.r[None, :]
    mixed = rh.mixed_det(a_xx, l_xs, l_ss)
    scale = _scale(a_xx * rh.m_ss, l_ss * rh.m_xx, 2.0 * l_xs * rh.m_xs)
    margin_main = float(np.min(mixed)) + tol * scale

    # log-sum-exp directional convexity, Hess L >= sum p_j Hess phi_j
    phi_xx = path_d2x(grid, phis)
    phi_ss = path_d2s(phis, ds)
    gap_x = l_xx - np.sum(weights * phi_xx, axis=0)
    gap_s = l_ss - np.sum(weights[:, 1:-1, :] * phi_ss, axis=0)
    scale_dir = _scale(l_xx, phi_xx, l_ss, phi_ss)
    margin_dir = min(float(np.min(gap_x)), float(np.min(gap_s))) + tol * scale_dir

    margin = min(margin_main, margin_dir)
    return _result(
        f"convexity_inequality_k[k={k}]",
        margin,
        {
            "k": k,
            "epsilons": list(family.epsilons[:k]),
            "min_mixed_det": float(np.min(mixed)),
            "scale": scale,
            "margin_mixed_det": margin_main,
            "min_direction_gap": min(float(np.min(gap_x)), float(np.min(gap_s))),
            "direction_scale": scale_dir,
            "margin_direction": margin_dir,
            "tol": tol,
        },
    )


# ---------------------------------------------------------------------------
# curvature identity along an eps-geodesic


def _curvature_fields(bg: Background, eg: EpsGeodesic, tags) -> dict:
    """The identity's fields on the interior rows: a, a_x, eps_term and the derivatives of f = log(m / w)
    and of g = log m for those of the tags "f" and "g" given, each intermediate row set dropped after
    its last use."""
    grid, ds = bg.grid, eg.path.ds
    m_rows = metric_density(bg, eg.path.values)
    m_int = m_rows[1:-1]  # reduced_hessian's m_xx
    a = path_dxds(grid, eg.path.values, ds) / m_int
    out = {"a": a, "a_x": path_d1x(grid, a)}
    for tag in tags:
        rows = np.log(m_rows / bg.w[None, :]) if tag == "f" else np.log(m_rows)
        out[tag + "_xx"] = path_d2x(grid, rows)[1:-1]
        out[tag + "_ss"] = path_d2s(rows, ds)
        out[tag + "_xs"] = path_dxds(grid, rows, ds)
        del rows
    out["eps_term"] = eg.epsilon * path_d2x(grid, bg.w[None, :] / m_rows)[1:-1] / m_int  # e^-f = w / m
    return out


def _identity_residual(fields: dict, kappa: float) -> float:
    a = fields["a"]
    hess_g = fields["g_ss"] - 2.0 * a * fields["g_xs"] + a * a * fields["g_xx"]
    q = hess_g - fields["eps_term"] - kappa * fields["a_x"] ** 2
    return float(np.max(np.abs(q)))


def curvature_levels(bg: Background, eg: EpsGeodesic) -> list:
    """Re-solve the same boundary problem at quarter and half resolution.

    Grid nodes nest under halving, so restriction is exact slicing, and each
    level starts from the fine path restricted to its nodes.  That start is in
    the cone: its coarse second differences in x and in s are positive-weight
    averages of the fine ones, as the coarse w is of the fine w (both have
    mass 1), so w + Phi_xx and Phi_ss stay positive; round-off that breaks
    this fails the solver's initial check with PositivityLoss.
    """
    n = bg.grid.n_points
    nt = eg.path.n_time
    if need := verify_grid_needs(n, "curvature"):
        raise ValueError(f"curvature_levels needs {need}, got {n}")
    if nt % 4 != 0:
        raise ValueError(f"refinement study needs n_time divisible by 4, got {nt}")
    if nt // 4 < 8:
        raise ValueError(f"n_time // 4 must be >= 8, got {nt // 4}")
    e0 = eg.path.values[0]
    e1 = eg.path.values[-1]
    levels = []
    for f in (4, 2):
        coarse_grid = SpatialGrid(n // f)
        coarse_bg = make_background(coarse_grid, psi=bg.psi[::f])
        problem = EpsGeodesicProblem(coarse_bg, e0[::f], e1[::f], eg.epsilon, nt // f)
        levels.append((coarse_bg, solve_eps_geodesic(problem, path0=eg.path.values[::f, ::f])))
    levels.append((bg, eg))
    return levels


def eps_curvature_identity(bg: Background, eg: EpsGeodesic, levels: list, kappas) -> list:
    """Inequality margin plus refinement-ratio certificate of the identity, one PropertyResult per kappa.

    (a) (Hess f - Ric)(v, v) - eps D2(e^-f)/m >= -tol * scale nodewise, with
        tol = 1e-6; the continuum value is (D1 a)^2 >= 0.
    (b) the identity residual with the frozen kappa must shrink by a factor
        in [3, 5] per refinement level, i.e. at second order, over levels:
        the (background, geodesic) pairs of curvature_levels(bg, eg).
    Only the residuals of (b) depend on kappa, so every level's fields are
    built once for all of kappas.
    """
    if eg.residual_sup > 1e-10:
        raise NotASolution(
            f"curvature identity needs a converged geodesic; residual {eg.residual_sup:.3e}"
        )
    tol = 1e-6

    fields = _curvature_fields(bg, eg, "f")  # the inequality's, dropped before the residuals' are formed
    a, eps_term = fields["a"], fields["eps_term"]
    mixed = 2.0 * a * fields["f_xs"]
    curved = a * a * (fields["f_xx"] - bg.r[None, :])
    q_ineq = fields["f_ss"] - mixed + curved  # Hess f - Ric
    q_ineq -= eps_term
    scale = _scale(fields["f_ss"], mixed, curved, eps_term)
    min_ineq = float(np.min(q_ineq))
    margin_ineq = min_ineq + tol * scale
    del fields, a, eps_term, mixed, curved, q_ineq

    fields = _curvature_fields(bg, eg, "g")
    residuals, shapes = [], []  # residuals: per level, one per kappa
    for level_bg, level_eg in levels:  # the finest level is (bg, eg) itself, whose fields are at hand
        level_fields = fields if level_eg is eg else _curvature_fields(level_bg, level_eg, "g")
        residuals.append([_identity_residual(level_fields, kappa) for kappa in kappas])
        shapes.append([level_bg.grid.n_points, level_eg.path.n_time])

    fit = {k: _identity_residual(fields, k) for k in KAPPA_FIT_SET}
    fitted = min(fit, key=fit.get)

    results = []
    for kappa, kappa_residuals in zip(kappas, zip(*residuals)):
        ratios = [a / b for a, b in zip(kappa_residuals, kappa_residuals[1:])]
        margin_ratio = min(min(r - 3.0 for r in ratios), min(5.0 - r for r in ratios))
        results.append(_result(
            "eps_curvature_identity",
            min(margin_ineq, margin_ratio),
            {
                "kappa": kappa,
                "fitted_kappa": fitted,
                "fit_residuals": {f"{k:g}": v for k, v in fit.items()},
                "levels": shapes,
                "identity_residuals": list(kappa_residuals),
                "ratios": ratios,
                "min_inequality": min_ineq,
                "scale": scale,
                "margin_inequality": margin_ineq,
                "margin_ratios": margin_ratio,
                "tol": tol,
            },
        ))
    return results


def eps_geodesic_residual_c(bg: Background, eg: EpsGeodesic) -> PropertyResult:
    """c = Phi_ss - Phi_xs^2 / m equals eps e^-f, and RH - c e_ss is singular, both to tol = 1e-9.

    The second part is algebraically exact for the discrete stencils, so its
    residual sits at round-off for any path; the first part certifies the
    solved equation.
    """
    rh = reduced_hessian(bg, eg.path)
    c = rh.m_ss - rh.m_xs * rh.m_xs / rh.m_xx
    target = eg.epsilon * bg.w[None, :] / rh.m_xx
    res_c = float(np.max(np.abs(c - target)))
    det_shifted = rh.m_xx * (rh.m_ss - c) - rh.m_xs * rh.m_xs
    res_det = float(np.max(np.abs(det_shifted)))
    tol = 1e-9
    margin = tol - max(res_c, res_det)
    return _result(
        "eps_geodesic_residual_c",
        margin,
        {"residual_c": res_c, "residual_det": res_det, "tol": tol},
    )


# ---------------------------------------------------------------------------
# Mabuchi traces: almost-convexity and boundary continuity


def trace_convexity_margin(trace: FunctionalTrace, rel_tol: float) -> tuple[float, float]:
    """min interior second difference plus rel_tol * its own scale."""
    d2 = trace.second_differences[1:-1]
    scale = _scale(d2)
    return float(np.min(d2)) + rel_tol * scale, scale


def mabuchi_eps_A_almost_convex(bg: Background, traces) -> PropertyResult:
    """Minimal hat-C per epsilon with M_{eps,A} + eps hat-C t(1-t) convex.

    The discrete second difference of t(1-t) is exactly -2, so the smallest
    admissible constant is max(0, max_i(-d2_i - tol)) / (2 eps), with tol
    1e-8 times the trace's scale.  Every hat-C must stay below the cap
    C_A_BOUND and must not grow as eps decreases.
    """
    traces = list(traces)
    if len(traces) < 3:
        raise ValueError("need at least 3 epsilon traces")
    a_values = {t.meta.get("A") for t in traces}
    if len(a_values) != 1 or None in a_values:
        raise ValueError(f"traces must share one truncation level, got {a_values}")
    eps = [float(t.meta["epsilon"]) for t in traces]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"traces must come in strictly decreasing epsilon order: {eps}")
    c_hats = []
    for t, e in zip(traces, eps):
        d2 = t.second_differences[1:-1]
        tol = 1e-8 * _scale(t.values)
        c_hats.append(max(0.0, float(np.max(-d2 - tol)) / (2.0 * e)))
    margin_bound = min(C_A_BOUND - c for c in c_hats)
    margin_mono = min((a - b + 1e-12 for a, b in zip(c_hats, c_hats[1:])), default=math.inf)
    margin = min(margin_bound, margin_mono)
    return _result(
        f"mabuchi_eps_A_almost_convex[A={traces[0].meta['A']:g}]",
        margin,
        {
            "A": traces[0].meta["A"],
            "epsilons": eps,
            "c_hats": c_hats,
            "c_a_bound": C_A_BOUND,
            "margin_bound": margin_bound,
            "margin_monotone": margin_mono,
        },
    )


def _boundary_gaps(values: np.ndarray, n_time: int) -> dict:
    window = max(2, n_time // 8)
    osc0 = float(np.ptp(values[1 : 2 + window]))
    osc1 = float(np.ptp(values[-2 - window : -1]))
    return {
        "gap0": float(abs(values[1] - values[0])),
        "gap1": float(abs(values[-2] - values[-1])),
        "bound0": 3.0 * osc0 + 5e-3,
        "bound1": 3.0 * osc1 + 5e-3,
    }


def mabuchi_convexity_and_continuity(bg: Background, path: PathField, family: FiberFamily) -> PropertyResult:
    """Convexity of M along the path, boundary continuity, and the k-ladder.

    (i)   interior second differences of M >= -1e-3 * scale;
    (ii)  |M(t_1) - M(0)| and |M(t_{n-1}) - M(1)| <= 3 * interior
          oscillation + 5e-3;
    (iii) the same bounds read as one-sided limsup/liminf inequalities at
          both ends;
    (iv)  for k in K_VALUES, each M_k trace is convex at 1e-6 * scale and
          the sup distance to the M trace decreases in k.
    """
    trace = mabuchi(bg, path)
    margin_convex, scale_convex = trace_convexity_margin(trace, 1e-3)
    v = trace.values
    gaps = _boundary_gaps(v, path.n_time)
    margin_boundary = min(gaps["bound0"] - gaps["gap0"], gaps["bound1"] - gaps["gap1"])
    margin_limsup = min(v[0] + gaps["bound0"] - v[1], v[-1] + gaps["bound1"] - v[-2])
    margin_liminf = min(v[1] - v[0] + gaps["bound0"], v[-2] - v[-1] + gaps["bound1"])

    ks = [k for k in K_VALUES if 1 <= k <= len(family.epsilons)]
    if not ks:
        raise FamilyMismatch(f"no usable k in {K_VALUES} for {len(family.epsilons)} epsilons")
    k_margins = {}
    distances = []
    for k in ks:
        trace_k = mabuchi_k(bg, path, family, k)
        k_margins[k] = trace_convexity_margin(trace_k, 1e-6)[0]
        distances.append(float(np.max(np.abs(trace_k.values - v))))
    margin_k = min(k_margins.values())
    margin_dist = min(
        (a - b + 1e-12 for a, b in zip(distances, distances[1:])), default=math.inf
    )

    margin = min(margin_convex, margin_boundary, margin_limsup, margin_liminf, margin_k, margin_dist)
    return _result(
        "mabuchi_convexity_and_continuity",
        margin,
        {
            "margin_convexity": margin_convex,
            "scale": scale_convex,
            "boundary": gaps,
            "margin_boundary": margin_boundary,
            "margin_limsup": margin_limsup,
            "margin_liminf": margin_liminf,
            "k_values": ks,
            "k_margins": {str(k): m for k, m in k_margins.items()},
            "k_distances": distances,
            "margin_k_distance": margin_dist,
            "values": v,
        },
    )


def boundary_continuity_refinement(bg: Background, paths) -> PropertyResult:
    """Boundary gaps of the M trace must stay <= 5e-3 and shrink as n_time doubles path to path."""
    n_times = tuple(path.n_time for path in paths)
    if len(n_times) < 2 or any(b != 2 * a for a, b in zip(n_times, n_times[1:])):
        raise ValueError(f"n_times must double at each step, got {n_times}")
    rows = []
    for path in paths:
        gaps = _boundary_gaps(mabuchi(bg, path).values, path.n_time)
        rows.append({"n_time": path.n_time, "gap0": gaps["gap0"], "gap1": gaps["gap1"]})
    worst = max(max(r["gap0"], r["gap1"]) for r in rows)
    margin_level = 5e-3 - worst
    margin_shrink = min(
        min(a["gap0"] - b["gap0"], a["gap1"] - b["gap1"]) + 1e-12
        for a, b in zip(rows, rows[1:])
    )
    margin = min(margin_level, margin_shrink)
    return _result(
        "boundary_continuity_refinement",
        margin,
        {"rows": rows, "margin_level": margin_level, "margin_shrink": margin_shrink},
    )


def ddc_property(bg: Background, path: PathField, test_fn) -> PropertyResult:
    """Wrap the energy pairing identity as a margin against the relative tol = 1e-3."""
    tol = 1e-3
    report = ddc_energy_check(bg, path, test_fn)
    margin = tol - report.rel_discrepancy
    return _result("ddc_energy_identity", margin, {**report.to_dict(), "tol": tol})


def ddc_test_function(n_time: int) -> np.ndarray:
    """Smooth bump vanishing at the two boundary rows on each side."""
    if n_time < 8:
        raise ValueError(f"n_time must be >= 8, got {n_time}")
    tau = np.zeros(n_time + 1)
    i = np.arange(n_time + 1)
    inner = (i >= 2) & (i <= n_time - 2)
    t = (i[inner] - 2) / (n_time - 4)
    tau[inner] = np.sin(np.pi * t) ** 2
    return tau


# ---------------------------------------------------------------------------
# maximum of subharmonic potentials


def subharmonic_test_fields(grid: SpatialGrid) -> np.ndarray:
    """Fixed nonnegative test family for the distributional pairing, one field per row."""
    x = grid.nodes
    cos1 = np.cos(2.0 * np.pi * x)
    sin1 = np.sin(2.0 * np.pi * x)
    cos2 = np.cos(4.0 * np.pi * x)
    return np.array([
        np.ones(grid.n_points),
        1.0 + cos1,
        1.0 - cos1,
        1.0 + sin1,
        1.0 - sin1,
        0.5 * (1.0 + cos1) ** 2,
        1.0 + 0.5 * cos2,
    ])


def max_subharmonic_lemma(bg: Background, u, v) -> PropertyResult:
    """max(u, v) stays subharmonic relative to the background.

    Hypotheses, with tol = 1e-12: m[v] >= -tol everywhere and m[u] >= -tol
    on {u > v - 1} (checked; SkippedHypothesis otherwise).  Conclusion,
    tested against the fixed family of nonnegative xi:

        sum max(u, v) D2(xi) h >= -int xi w dx - tol_pair,  tol_pair = 1e-10.

    Nodewise D2 max(u, v) >= min(D2 u, D2 v) wherever the larger branch is
    active, so the bound holds exactly on the discrete circle.
    """
    tol, tol_pair = 1e-12, 1e-10
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    m_v = metric_density(bg, v)
    if float(np.min(m_v)) < -tol:
        raise SkippedHypothesis(
            f"v is not background-subharmonic: min m[v] = {np.min(m_v):.3g}"
        )
    mask = u > v - 1.0
    m_u = metric_density(bg, u)
    if np.any(mask) and float(np.min(m_u[mask])) < -tol:
        raise SkippedHypothesis(
            "u is not background-subharmonic on {u > v - 1}: "
            f"min m[u] there = {np.min(m_u[mask]):.3g}"
        )
    xi = subharmonic_test_fields(bg.grid)
    pairings = bg.integrate(np.maximum(u, v) * bg.d2(xi))
    lower = -bg.integrate_mu(xi)
    margin = np.min(pairings - lower) + tol_pair
    return _result(
        "max_subharmonic_lemma",
        margin,
        {"pairings": pairings, "lower_bounds": lower, "tol_pair": tol_pair},
    )


# ---------------------------------------------------------------------------
# mass identity of the fiber family


def mass_pairing_property(family: FiberFamily, path: PathField) -> PropertyResult:
    """|int e^phi w dx - eps int (theta + beta) dx| <= tol = 1e-10 at every (eps, t).

    The sources are rebuilt from the smallest mollification scale exactly as
    the family solver does, so this re-derives the identity from scratch.
    """
    bg = family.bg
    spec = MollifierSpec(family.deltas[-1], "fiberwise")
    m_d = metric_density(bg, mollify_fiberwise(bg.grid, path.values, spec))
    sources = m_d + family.slacks[-1]
    lhs = bg.integrate_mu(np.exp(family.phi))  # (eps, t)
    rhs = np.array(family.epsilons)[:, None] * bg.integrate(-bg.r) + bg.integrate(sources)
    worst = float(np.max(np.abs(lhs - rhs)))
    tol = 1e-10
    margin = tol - worst
    return _result("mass_pairing", margin, {"worst_gap": worst, "tol": tol})


# ---------------------------------------------------------------------------
# measured-only reports (open problems: no pass/fail attached)


def omega_mask_report(bg: Background, eg: EpsGeodesic, spec: TruncationSpec) -> dict:
    """Size of {f >= e^(chi - A)} and the two-sided density ratio, reported raw."""
    m_rows = metric_density(bg, eg.path.values)
    f = m_rows / bg.w[None, :]
    floor = np.exp(_resolve_chi(bg, spec) - spec.A)[None, :]
    mask = f >= floor
    fractions = mask.mean(axis=1)
    mu_measures = bg.integrate_mu(mask)
    return {
        "A": float(spec.A),
        "epsilon": float(eg.epsilon),
        "node_fraction_min": float(np.min(fractions)),
        "node_fraction_max": float(np.max(fractions)),
        "mu_measure_min": float(np.min(mu_measures)),
        "mu_measure_max": float(np.max(mu_measures)),
        "ratio_min": float(np.min(f)),
        "ratio_max": float(np.max(f)),
    }


def density_limit_report(family: FiberFamily, path: PathField) -> dict:
    """Strong-convergence gaps |e^phi w - m[path]| per epsilon, reported raw."""
    bg = family.bg
    gap = np.abs(np.exp(family.phi) * bg.w - metric_density(bg, path.values))  # (eps, t, x)
    return {
        "epsilons": list(family.epsilons),
        "sup_gaps": [float(v) for v in np.max(gap, axis=(1, 2))],
        "l1_gaps": [float(v) for v in np.max(bg.integrate(gap), axis=1)],
    }


# ---------------------------------------------------------------------------
# negative controls: constructed inputs every check must reject


def _with_phi(family: FiberFamily, new_phi) -> FiberFamily:
    """Copy of the family whose potentials are new_phi(eps, t, phi), broadcast over (eps, t, x)."""
    eps, t = np.array(family.epsilons)[:, None, None], np.array(family.times)[None, :, None]
    return replace(family, phi=new_phi(eps, t, family.phi))


def _tampered_family(family: FiberFamily) -> FiberFamily:
    """Copy of the family with a strongly t-concave bump written into phi."""
    x = family.bg.grid.nodes
    return _with_phi(family, lambda eps, t, phi: phi + 0.5 * np.sin(np.pi * t) * np.cos(2.0 * np.pi * x))


def _scaled_family(family: FiberFamily) -> FiberFamily:
    """Copy with phi / eps^2: uniform bounds and vanishing must both fail."""
    return _with_phi(family, lambda eps, t, phi: phi * (1.0 / (eps * eps)))


def _uniform_noise(seed: int, shape: tuple) -> np.ndarray:
    """Unit-variance uniform noise on [-sqrt 3, sqrt 3) from random.Random(seed), not numpy.random."""
    count = math.prod(shape)
    bits = np.frombuffer(random.Random(seed).randbytes(8 * count), dtype="<u8") >> 11
    return (math.sqrt(3.0) * (bits * 2.0**-52 - 1.0)).reshape(shape)  # 53 random bits per value


def control_residual_c(bg: Background, eg: EpsGeodesic) -> PropertyResult:
    noisy = eg.path.values + 1e-3 * _uniform_noise(0, eg.path.values.shape)
    fake = replace(eg, path=PathField(bg.grid, noisy))
    return _as_control("control:eps_geodesic_residual_c", eps_geodesic_residual_c(bg, fake))


def control_density_convergence(family: FiberFamily, path: PathField) -> PropertyResult:
    """The sweep cannot converge to the densities of a different path."""
    grid = family.bg.grid
    shift = 0.05 / (2.0 * np.pi) ** 2 * np.cos(2.0 * np.pi * grid.nodes)
    wrong = PathField(grid, path.values + shift[None, :])
    raw = density_convergence(family, wrong)
    return _as_control("control:density_convergence", raw)


def control_eps_A(bg: Background) -> PropertyResult:
    times = np.linspace(0.0, 1.0, 17)
    ds = times[1] - times[0]
    traces = []
    for i, eps in enumerate((0.1, 0.05, 0.025)):
        values = (1.0 + i) * times * (1.0 - times)  # concave, worsening as eps drops
        meta = {"name": "mabuchi_eps_A", "epsilon": eps, "A": 5.0}
        traces.append(FunctionalTrace(times, values, second_differences(values, ds), meta))
    raw = mabuchi_eps_A_almost_convex(bg, traces)
    return _as_control("control:mabuchi_eps_A_almost_convex", raw)


def control_mabuchi_convexity(bg: Background, path: PathField, family: FiberFamily) -> PropertyResult:
    # a concave bump in s that lowers the density by at most 0.9 of its floor, so the path stays in the cone
    depth = min(0.5, 0.9 * float(np.min(metric_density(bg, path.values))))
    dent = depth / (2.0 * np.pi) ** 2 * np.cos(2.0 * np.pi * bg.grid.nodes)
    s = path.times[:, None]
    dented = PathField(bg.grid, path.values + np.sin(np.pi * s) * dent[None, :])
    raw = mabuchi_convexity_and_continuity(bg, dented, family)
    return _as_control("control:mabuchi_convexity_and_continuity", raw)


def control_ddc(bg: Background) -> PropertyResult:
    n_time = 64
    rough = 0.01 * _uniform_noise(1, (n_time + 1, bg.grid.n_points))
    raw = ddc_property(bg, PathField(bg.grid, rough), ddc_test_function(n_time))
    return _as_control("control:ddc_energy_identity", raw)


def control_subharmonic(bg: Background) -> PropertyResult:
    u = -0.2 * np.cos(2.0 * np.pi * bg.grid.nodes)  # m[u] < 0 on part of {u > v - 1}
    v = np.zeros(bg.grid.n_points)
    try:
        max_subharmonic_lemma(bg, u, v)
    except SkippedHypothesis as exc:
        return _result("control:max_subharmonic_lemma", 1.0, {"control": True, "skipped": str(exc)})
    return _result("control:max_subharmonic_lemma", -1.0, {"control": True, "skipped": None})


# ---------------------------------------------------------------------------
# suite orchestration


@dataclass(eq=False)
class SuiteData:
    """Every solved object of a run, built lazily from its config and cached.

    Each object is solved at most once, at the config's background,
    endpoints and n_time.  The check suites read the objects on their
    calibrated ladders and tolerances (the module constants above); of the
    config's tolerances only an explicit ``tolerances.fiber`` reaches them,
    as the family's.  The artifact stages read the ``ladder_*`` objects,
    solved on the config's own epsilon and delta ladders at its tolerances.
    _ladder caches every rung by (eps prefix, the n_time levels it went
    through, tol), so a ladder sharing leading rungs with an earlier one
    reuses them; curved_geodesics and levels bypass it.  WEAK_EPSILONS is
    one chain through CHAIN_N_TIMES, which holds weak_path's ladder (at a
    run n_time in CHAIN_N_TIMES), boundary_paths and eps_geodesic; once
    those are derived, the rungs of its levels finer than the run's n_time
    leave the cache, and of them only those objects stay.  curvature_identity
    holds the curvature check's and its control's results, which share one
    pass over the fields.
    """

    config: ExperimentConfig
    _rungs: dict = field(default_factory=dict, init=False, repr=False)  # (eps prefix, n_times, tol) -> rung

    @property
    def bg(self) -> Background:
        return self.config.bg

    def _ladder(self, epsilons, tol: float, n_times) -> list:
        """eps_continuation of the run's endpoints through n_times, one list of rungs per level,
        reusing the leading rungs an earlier ladder solved through the same levels at tol.

        A rung depends only on the rungs before it and its coarser rung, so a
        ladder prefix solves the same rungs as the whole ladder; the levels show
        in the last bits, so no rung is taken from others.  Released rungs read None."""
        prefixes = [tuple(float(e) for e in epsilons[: k + 1]) for k in range(len(epsilons))]
        keys = [[(prefix, n_times[: j + 1], tol) for prefix in prefixes] for j in range(len(n_times))]
        solved = [[self._rungs[key] for key in itertools.takewhile(self._rungs.__contains__, level)] for level in keys]
        config = self.config
        levels = eps_continuation(self.bg, config.endpoint_0, config.endpoint_1, epsilons, n_times, tol, solved)
        for level_keys, rungs in zip(keys, levels):
            self._rungs.update(zip(level_keys, rungs))
        return levels

    @cached_property
    def weak_path(self) -> PathField:
        """Weak-geodesic limit of the suites' WEAK_EPSILONS ladder at the run's n_time,
        the chain's level there when CHAIN_N_TIMES holds it."""
        n_time = self.config.n_time
        n_times = CHAIN_N_TIMES[: CHAIN_N_TIMES.index(n_time) + 1] if n_time in CHAIN_N_TIMES else (n_time,)
        return weak_limit(self.bg, self._ladder(WEAK_EPSILONS, WEAK_TOL, n_times)[-1])

    def _spent(self, n_times) -> bool:
        """Whether no object reads the rungs of this chain level once its paths are derived."""
        return len(n_times) > 1 and n_times[-1] > self.config.n_time

    @cached_property
    def boundary_paths(self) -> list:
        """Weak limits of the chain's WEAK_EPSILONS ladders at BOUNDARY_N_TIMES (32 and 64), each taken once its
        level is solved, rung by rung, with the Cauchy increments taken as the rungs arrive.  A _spent level's
        rung k is released (None) once the next level refines it, and on the last level, once rung k + 1's
        increment is taken, unless it is eps_geodesic's."""
        paths = []
        for j, n_time in enumerate(CHAIN_N_TIMES):
            n_times = CHAIN_N_TIMES[: j + 1]
            last = n_times == CHAIN_N_TIMES and self._spent(n_times)
            increments, rung = [], None
            for k in range(len(WEAK_EPSILONS)):
                before = rung  # no local holds rung k - 1 while rung k + 1 is solved
                rung = self._ladder(WEAK_EPSILONS[: k + 1], WEAK_TOL, n_times)[-1][-1]
                if self._spent(CHAIN_N_TIMES[:j]):
                    self._rungs[WEAK_EPSILONS[: k + 1], CHAIN_N_TIMES[:j], WEAK_TOL] = None
                if k:
                    increments += rung_increments((before, rung))
                    if last and (WEAK_EPSILONS[k - 1], n_time) != (CURVATURE_EPSILON, CURVATURE_N_TIME):
                        self._rungs[WEAK_EPSILONS[:k], n_times, WEAK_TOL] = None
            if j:
                paths.append(weak_limit(self.bg, [rung], increments))
        return paths

    def solve_chain_first(self, suite: str) -> None:
        """Solve the part of the WEAK_EPSILONS chain that suite reads, before any stage.

        The chain objects are those the suite's entries of ROWS (and MEASURED)
        name, touched in table order: convexity and all read boundary_paths,
        which holds eps_geodesic, first; curvature and bounds only the chain's
        prefix up to CURVATURE_EPSILON (eps_geodesic); entropy none of it.
        Either way the levels come coarse to fine, so a failing solve stops
        the run before its first stage.  Then the _spent levels, finer than
        the run's n_time, leave the cache: their paths are derived, and the
        first level and the run's own stay for ladder_rungs and weak_path.
        Every other object stays lazy."""
        for row_suite, _, chain, _ in (*ROWS, MEASURED):
            if suite in ("all", row_suite):
                for name in chain:
                    getattr(self, name)
        self._rungs = {key: rung for key, rung in self._rungs.items() if not self._spent(key[1])}

    @cached_property
    def family(self) -> FiberFamily:
        tol = float(self.config.raw.get("tolerances", {}).get("fiber", FAMILY_TOL))
        return solve_family(self.bg, self.weak_path, FAMILY_EPSILONS, FAMILY_DELTAS, tol=tol)

    @cached_property
    def eps_geodesic(self) -> EpsGeodesic:
        """The (CURVATURE_EPSILON, CURVATURE_N_TIME) rung of the chain, solved up to that eps only."""
        prefix = WEAK_EPSILONS[: WEAK_EPSILONS.index(CURVATURE_EPSILON) + 1]
        n_times = CHAIN_N_TIMES[: CHAIN_N_TIMES.index(CURVATURE_N_TIME) + 1]
        return self._ladder(prefix, WEAK_TOL, n_times)[-1][-1]

    @cached_property
    def levels(self) -> list:
        return curvature_levels(self.bg, self.eps_geodesic)

    @cached_property
    def curvature_identity(self) -> list:
        """eps_curvature_identity at CURVATURE_KAPPA and at its control's CONTROL_KAPPA, from one field pass."""
        return eps_curvature_identity(self.bg, self.eps_geodesic, self.levels, (CURVATURE_KAPPA, CONTROL_KAPPA))

    @cached_property
    def curved_bg(self) -> Background:
        psi = fourier_field(self.bg.grid, [(1, CURVED_PSI_AMPLITUDE, 0.0)])
        return make_background(self.bg.grid, psi=psi)

    @cached_property
    def curved_geodesics(self) -> list:
        config = self.config
        return eps_continuation(
            self.curved_bg, config.endpoint_0, config.endpoint_1, EPS_A_EPSILONS, (config.n_time,)
        )[0]

    def eps_a_traces(self, a_value: float) -> list:
        spec = TruncationSpec(float(a_value))
        return [mabuchi_eps_A(self.curved_bg, eg, spec) for eg in self.curved_geodesics]

    @cached_property
    def ladder_rungs(self) -> list:
        """One EpsGeodesic per entry of the config's epsilons, warm-started in order."""
        return self._ladder(self.config.epsilons, self.config.tolerances["geodesic"], (self.config.n_time,))[0]

    @cached_property
    def ladder_path(self) -> PathField:
        """Weak-geodesic limit of ladder_rungs."""
        return weak_limit(self.bg, self.ladder_rungs)

    @cached_property
    def ladder_family(self) -> FiberFamily:
        """Fiber family along ladder_path on the config's epsilons x deltas."""
        config = self.config
        return solve_family(self.bg, self.ladder_path, config.epsilons, config.deltas, tol=config.tolerances["fiber"])


def _subharmonic_pair(grid: SpatialGrid) -> tuple:
    """u and v of the max_subharmonic_lemma row: both background-subharmonic, so its hypotheses hold."""
    u = 0.01 * np.cos(2.0 * np.pi * grid.nodes) / (2.0 * np.pi) ** 2
    v = 0.01 * np.sin(2.0 * np.pi * grid.nodes) / (2.0 * np.pi) ** 2 + 0.003
    return u, v


# The verify row table, in output order: (suite, name, chain, rows).  rows(data) returns the entry's
# PropertyResults, each named name or name[...]; a control entry is named "control:" plus the check it controls
# and writes one row of that name, but for control:truncated_semicontinuity, the sweep's.  chain names the objects
# of the WEAK_EPSILONS chain the entry reads, of boundary_paths and eps_geodesic, which
# SuiteData.solve_chain_first solves first.  Each entry looks its check up by name when called, so a wrapper
# put on a module attribute sees every call.
ROWS = (
    ("entropy", "entropy_semicontinuity", (), lambda d: [
        replace(entropy_semicontinuity(d.bg, random_density_sequence(d.bg, seed)),
                name=f"entropy_semicontinuity[seed={seed}]")
        for seed in range(d.config.seed, d.config.seed + ENTROPY_SEEDS)
    ]),
    ("entropy", "truncated_semicontinuity_sweep", (),
     lambda d: [truncated_semicontinuity_sweep(d.bg, random_density_sequence(d.bg, d.config.seed))]),
    ("entropy", "delta_a_closed_form", (), lambda d: [delta_a_closed_form(d.bg)]),
    ("entropy", "control:entropy_semicontinuity", (), lambda d: [
        _as_control("control:entropy_semicontinuity", entropy_semicontinuity(d.bg, mollified_sequence(d.bg)))
    ]),
    ("entropy", "control:truncated_semicontinuity_sweep", (), lambda d: [_as_control(
        "control:truncated_semicontinuity",
        truncated_semicontinuity(d.bg, mollified_sequence(d.bg), TruncationSpec(20.0)),
    )]),
    ("convexity", "convexity_inequality_k", (), lambda d: [
        convexity_inequality_k(d.bg, d.weak_path, d.family, k) for k in K_VALUES if k <= len(d.family.epsilons)
    ]),
    ("convexity", "mabuchi_convexity_and_continuity", (),
     lambda d: [mabuchi_convexity_and_continuity(d.bg, d.weak_path, d.family)]),
    ("convexity", "boundary_continuity_refinement", ("boundary_paths",),
     lambda d: [boundary_continuity_refinement(d.bg, d.boundary_paths)]),
    ("convexity", "mabuchi_eps_A_almost_convex", (),
     lambda d: [mabuchi_eps_A_almost_convex(d.curved_bg, d.eps_a_traces(a)) for a in EPS_A_VALUES]),
    ("convexity", "ddc_energy_identity", ("eps_geodesic",),
     lambda d: [ddc_property(d.bg, d.eps_geodesic.path, ddc_test_function(d.eps_geodesic.path.n_time))]),
    ("convexity", "control:convexity_inequality_k", (), lambda d: [_as_control(
        "control:convexity_inequality_k",
        convexity_inequality_k(d.bg, d.weak_path, _tampered_family(d.family), min(2, len(d.family.epsilons))),
    )]),
    ("convexity", "control:mabuchi_convexity_and_continuity", (),
     lambda d: [control_mabuchi_convexity(d.bg, d.weak_path, d.family)]),
    ("convexity", "control:mabuchi_eps_A_almost_convex", (), lambda d: [control_eps_A(d.bg)]),
    ("convexity", "control:ddc_energy_identity", (), lambda d: [control_ddc(d.bg)]),
    ("curvature", "eps_curvature_identity", ("eps_geodesic",), lambda d: [d.curvature_identity[0]]),
    ("curvature", "eps_geodesic_residual_c", ("eps_geodesic",),
     lambda d: [eps_geodesic_residual_c(d.bg, d.eps_geodesic)]),
    # a wrong constant, CONTROL_KAPPA, leaves a non-vanishing residual: the ratios collapse to 1
    ("curvature", "control:eps_curvature_identity", ("eps_geodesic",),
     lambda d: [_as_control("control:eps_curvature_identity", d.curvature_identity[1])]),
    ("curvature", "control:eps_geodesic_residual_c", ("eps_geodesic",),
     lambda d: [control_residual_c(d.bg, d.eps_geodesic)]),
    ("bounds", "family_uniform_bounds", (), lambda d: [check_bounds(d.family)]),
    ("bounds", "density_convergence", (), lambda d: [density_convergence(d.family, d.weak_path)]),
    ("bounds", "eps_phi_vanishing", (), lambda d: [eps_phi_vanishing(d.family)]),
    ("bounds", "mass_pairing", (), lambda d: [mass_pairing_property(d.family, d.weak_path)]),
    ("bounds", "max_subharmonic_lemma", (),
     lambda d: [max_subharmonic_lemma(d.bg, *_subharmonic_pair(d.bg.grid))]),
    ("bounds", "control:family_uniform_bounds", (),
     lambda d: [_as_control("control:family_uniform_bounds", check_bounds(_scaled_family(d.family)))]),
    ("bounds", "control:eps_phi_vanishing", (),
     lambda d: [_as_control("control:eps_phi_vanishing", eps_phi_vanishing(_scaled_family(d.family)))]),
    ("bounds", "control:density_convergence", (), lambda d: [control_density_convergence(d.family, d.weak_path)]),
    ("bounds", "control:max_subharmonic_lemma", (), lambda d: [control_subharmonic(d.bg)]),
)
# run_verify's measured block, written with the bounds rows, reads eps_geodesic: solve_chain_first counts it
# as a bounds entry, and run_suite does not run it
MEASURED = ("bounds", "measured", ("eps_geodesic",), None)


def _suite(name: str):
    def suite(data: SuiteData) -> list:
        return [res for row_suite, _, _, rows in ROWS if row_suite == name for res in rows(data)]

    suite.__name__ = suite.__qualname__ = f"suite_{name}"
    return suite


SUITES = {name: _suite(name) for name in ("entropy", "convexity", "curvature", "bounds")}
suite_entropy, suite_convexity, suite_curvature, suite_bounds = SUITES.values()


def run_suite(data: SuiteData, suite: str = "all") -> list:
    """Run one named suite (or all of them) and return the PropertyResults, each suite through SUITES."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)} or 'all'")
    return [res for name in (SUITES if suite == "all" else [suite]) for res in SUITES[name](data)]
