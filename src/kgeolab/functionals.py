"""Energy, entropy, and the Mabuchi functional family along paths.

Conventions used throughout: the reference measure is dmu = w dx with unit
mass; densities are ratios f = m/w; 0 log 0 = 0 (the continuous extension of
x log x), so degenerate slices of weak geodesics integrate cleanly.  The
mean curvature S of the background vanishes on the circle up to round-off;
it is kept in the formulas rather than patched out, so the energy part of
the Mabuchi functional is (S/2) E - E^Ric.

The pointwise functionals take a field or a whole path: model.integrate acts
on the last axis like the stencils, so a path gives one value per row.

The second-difference diagnostics attached to every trace use the uniform
time grid; boundary rows carry nan.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import FamilyMismatch, NegativeDensity
from .model import (
    Background,
    PathField,
    _as_field_values,
    _as_nodal_values,
    metric_density,
    reduced_hessian,
)


def second_differences(values, ds: float) -> np.ndarray:
    """Interior second differences (F_{i-1} - 2 F_i + F_{i+1}) / ds^2, nan at ends."""
    v = np.asarray(values, dtype=float)
    out = np.full(v.shape, np.nan)
    out[1:-1] = ((v[2:] - v[1:-1]) - (v[1:-1] - v[:-2])) / (ds * ds)
    return out


@dataclass(eq=False)
class FunctionalTrace:
    """Values of one functional along the time grid, with diagnostics."""

    times: np.ndarray
    values: np.ndarray
    second_differences: np.ndarray
    meta: dict

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.second_differences = np.asarray(self.second_differences, dtype=float)
        if not (len(self.times) == len(self.values) == len(self.second_differences)):
            raise ValueError("trace arrays must have equal lengths")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class TruncationSpec:
    """Truncation level A and optional continuous weight chi in h_A = e^(chi - A)."""

    A: float
    chi: np.ndarray | None = None

    def __post_init__(self):
        if not self.A >= 1.0:
            raise ValueError(f"A must be >= 1, got {self.A}")


def _resolve_chi(bg: Background, spec: TruncationSpec) -> np.ndarray:
    if spec.chi is None:
        return np.zeros(bg.grid.n_points)
    return _as_field_values(bg.grid, spec.chi)


# ---------------------------------------------------------------------------
# pointwise functionals


def energy(bg: Background, u):
    """E(u) = int u (m[u] + w) dx of a field or of each path row; polynomial in u, no admissibility needed."""
    u = _as_nodal_values(bg.grid, u)
    return bg.integrate(u * (metric_density(bg, u) + bg.w))


def energy_alpha(bg: Background, u, alpha):
    """E^alpha(u) = int u alpha dx of a field or of each path row; with alpha = r this is the Ricci energy."""
    u = _as_nodal_values(bg.grid, u)
    return bg.integrate(u * _as_field_values(bg.grid, alpha))


def _slice_density(bg: Background, u) -> np.ndarray:
    """Density of a field or of each path row, clipped to [0, inf); rejects genuinely negative slices."""
    m = metric_density(bg, _as_nodal_values(bg.grid, u))
    low = np.min(m, axis=-1)
    bad = np.flatnonzero(low < -1e-10)
    if bad.size:
        where = f" at slice {bad[0]}" if m.ndim > 1 else ""
        raise NegativeDensity(f"density reaches {low.flat[bad[0]]:.3g}{where}")
    return np.maximum(m, 0.0)


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x log y for x >= 0, and 0 where x = 0 (scipy's xlogy, to a few ulp, without scipy.special)."""
    return x * np.log(y, out=np.zeros_like(x), where=x > 0)


def entropy(bg: Background, u):
    """H(u) = int f log f dmu with f = m[u]/w, of a field or of each path row; nonnegative since int f dmu = 1."""
    m = _slice_density(bg, u)
    return bg.integrate(_xlogy(m, m / bg.w))


def _truncated_log(bg: Background, f, spec: TruncationSpec) -> np.ndarray:
    """max(log f, chi - A) nodewise, for a density f or a stack of them; finite where f vanishes."""
    floor = _resolve_chi(bg, spec) - spec.A
    above = np.log(f, out=np.array(np.broadcast_to(floor, np.shape(f))), where=f > np.exp(floor))
    return np.maximum(above, floor)


def truncated_entropy(bg: Background, u, spec: TruncationSpec):
    """H_A(u) = int f log max(f, h_A) dmu >= H(u), with h_A = e^(chi - A), of a field or of each path row."""
    m = _slice_density(bg, u)
    return bg.integrate(m * _truncated_log(bg, m / bg.w, spec))


def delta_A(bg: Background, spec: TruncationSpec) -> tuple[float, float, float]:
    """Constants C1 = -int (chi-A) h_A dmu, C2 = 2 int h_A dmu, and delta = C1+C2."""
    chi = _resolve_chi(bg, spec)
    h_a = np.exp(chi - spec.A)
    c1 = -bg.integrate_mu((chi - spec.A) * h_a)
    c2 = 2.0 * bg.integrate_mu(h_a)
    return float(c1), float(c2), float(c1 + c2)


# ---------------------------------------------------------------------------
# Mabuchi family along paths


def _check_k_family(path: PathField, family, k: int) -> None:
    """Raise FamilyMismatch unless 1 <= k <= #epsilons and the times match the path."""
    if k < 1 or k > len(family.epsilons):
        raise FamilyMismatch(f"k = {k} outside the family's {len(family.epsilons)} epsilons")
    times = np.asarray(family.times, dtype=float)
    if times.shape != path.times.shape or float(np.max(np.abs(times - path.times))) > 1e-12:
        raise FamilyMismatch("family times do not match the path grid")


def _mabuchi_trace(bg: Background, path: PathField, entropies: np.ndarray, meta: dict) -> FunctionalTrace:
    """(S/2) E - E^Ric of every path row plus that row's entry of entropies."""
    values = 0.5 * bg.ricci_mean * energy(bg, path.values) - energy_alpha(bg, path.values, bg.r) + entropies
    return FunctionalTrace(
        times=path.times,
        values=values,
        second_differences=second_differences(values, path.ds),
        meta=meta,
    )


def mabuchi(bg: Background, path: PathField) -> FunctionalTrace:
    """M(t) = (S/2) E - E^Ric + int m log(m/w) dx, slice by slice."""
    return _mabuchi_trace(bg, path, entropy(bg, path.values), {"name": "mabuchi"})


def mabuchi_k(bg: Background, path: PathField, family, k: int) -> FunctionalTrace:
    """Mabuchi trace with the entropy integrand averaged over the first k fibers.

    log(m/w) is replaced by log((1/k) sum_j e^(phi_{t, eps_j})) over the k
    largest epsilons of the family; the averaged density is strictly
    positive, so degenerate slices integrate without a log singularity.
    """
    _check_k_family(path, family, k)
    log_avg = np.log(np.mean(np.exp(family.phi[:k]), axis=0))
    return _mabuchi_trace(
        bg,
        path,
        bg.integrate(_slice_density(bg, path.values) * log_avg),
        {"name": "mabuchi_k", "k": int(k), "epsilons": list(family.epsilons[:k])},
    )


def mabuchi_eps_A(bg: Background, eps_geodesic, spec: TruncationSpec) -> FunctionalTrace:
    """Truncated Mabuchi trace along an eps-geodesic.

    The entropy integrand is max(log(m/w), chi - A); both energy terms are
    evaluated on the eps-geodesic potential itself, and the meta block
    records that choice together with (eps, A).
    """
    return _mabuchi_trace(
        bg,
        eps_geodesic.path,
        truncated_entropy(bg, eps_geodesic.path.values, spec),
        {
            "name": "mabuchi_eps_A",
            "epsilon": float(eps_geodesic.epsilon),
            "A": float(spec.A),
            "energy_argument": "eps_geodesic_potential",
        },
    )


# ---------------------------------------------------------------------------
# discrete ddc identity for the energy


@dataclass(eq=False)
class DdcReport:
    """Pairing test of the energy second derivative against the pushforward."""

    lhs: float
    rhs: float
    abs_discrepancy: float
    rel_discrepancy: float

    def to_dict(self) -> dict:
        return asdict(self)


def ddc_energy_check(bg: Background, path: PathField, test_fn) -> DdcReport:
    """Compare sum E(s) D2tau(s) ds with sum (2 int det dx) tau(s) ds.

    tau must vanish at the first and last two time rows, which makes the
    discrete summation by parts exact, so the comparison isolates the
    identity between the energy Hessian and the pushforward density.
    """
    tau = np.asarray(test_fn, dtype=float)
    if tau.shape != (path.n_time + 1,):
        raise ValueError(f"test function must have {path.n_time + 1} samples, got {tau.shape}")
    edge = np.concatenate([tau[:2], tau[-2:]])
    if np.any(edge != 0.0):
        raise ValueError("test function must vanish at the two boundary rows on each side")
    ds = path.ds
    energies = energy(bg, path.values)
    d2tau = second_differences(tau, ds)[1:-1]
    lhs = ds * float(np.sum(energies[1:-1] * d2tau))
    det = reduced_hessian(bg, path).det()
    pushforward = 2.0 * bg.integrate(det)
    rhs = ds * float(np.sum(pushforward * tau[1:-1]))
    gap = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    return DdcReport(
        lhs=lhs,
        rhs=rhs,
        abs_discrepancy=gap,
        rel_discrepancy=gap / scale if scale > 1e-14 else 0.0,
    )
