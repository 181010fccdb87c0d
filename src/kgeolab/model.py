"""Flat-torus discretization: grids, fields, backgrounds, discrete calculus.

The spatial domain is the circle R/Z sampled at n_points uniformly spaced
nodes.  Metric data is carried by densities against dx: a potential u induces
the density m[u] = w + D2 u, where w is the background density and D2 a
periodic second-derivative operator.  The rectangle rule h * sum(u) is the
quadrature; on a uniform periodic grid it is exact for trigonometric
polynomials below the Nyquist frequency.  Like the x-stencils it acts on the
last axis, so it integrates a field, every row of a path or any stack of
fields in one call.

Every x-derivative uses one stencil, ``central2``: D2 u = (u_{j+1} - 2 u_j +
u_{j-1}) / h^2, whose Fourier symbol at wavenumber k, -(2/h^2)(1 - cos(2 pi k
h)), approximates the exact -(2 pi k)^2 to second order, and D1 u = (u_{j+1} -
u_{j-1}) / 2h.  The solvers assemble their banded Newton Jacobians from the
same stencil, so residuals and Jacobians agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import NonAdmissiblePsi


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on [0, 1) with an even number of nodes."""

    n_points: int

    def __post_init__(self):
        if self.n_points < 8:
            raise ValueError(f"n_points must be >= 8, got {self.n_points}")
        if self.n_points % 2 != 0:
            raise ValueError(f"n_points must be even, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return 1.0 / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_points) * self.spacing


def _as_nodal_values(grid: SpatialGrid, values) -> np.ndarray:
    """Nodal values on ``grid`` of a field or a stack of fields: finite, one per node along the last axis."""
    out = np.asarray(values, dtype=float)
    if out.shape[-1:] != (grid.n_points,):
        raise ValueError(f"expected {grid.n_points} nodal values, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("field values must be finite")
    return out


def _as_field_values(grid: SpatialGrid, values) -> np.ndarray:
    """Nodal values on ``grid`` of one field: finite, one per node."""
    out = np.asarray(values, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"expected {grid.n_points} nodal values, got shape {out.shape}")
    return _as_nodal_values(grid, out)


def _decreasing_ladder(values, label: str, error=ValueError) -> tuple:
    """values as floats; they must be nonempty, strictly decreasing and positive."""
    vals = tuple(float(v) for v in values)
    if not vals or any(b >= a for a, b in zip(vals, vals[1:])):
        raise error(f"{label} must be strictly decreasing and nonempty, got {list(vals)}")
    if vals[-1] <= 0.0:
        raise error(f"{label} must be positive, got {list(vals)}")
    return vals


def central2_symbol(grid: SpatialGrid, k) -> np.ndarray:
    """|Fourier symbol| of the central2 second derivative at wavenumber k."""
    h = grid.spacing
    return (2.0 / (h * h)) * (1.0 - np.cos(2.0 * np.pi * np.asarray(k, dtype=float) * h))


def integrate(grid: SpatialGrid, values):
    """Rectangle-rule integral h * sum(u) along the last axis: a float for a field, one per row for a stack.

    Each row gets the bits of integrating it alone: numpy sums a C-order row
    pairwise, as it sums a field, so a stack of another layout is copied first.
    """
    total = grid.spacing * np.sum(np.ascontiguousarray(values, dtype=float), axis=-1)
    return float(total) if total.ndim == 0 else total


def fourier_field(grid: SpatialGrid, terms) -> np.ndarray:
    """Nodal values of sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x).

    ``terms`` is an iterable of (k, a_k, b_k) with integer k >= 0.
    """
    x = grid.nodes
    out = np.zeros(grid.n_points)
    for k, a, b in terms:
        k = int(k)
        if k < 0:
            raise ValueError(f"wavenumber must be >= 0, got {k}")
        out += float(a) * np.cos(2.0 * np.pi * k * x)
        if k > 0:
            out += float(b) * np.sin(2.0 * np.pi * k * x)
    return out


# ---------------------------------------------------------------------------
# background


@dataclass(frozen=True, eq=False)
class Background:
    """Reference geometry: density w > 0 with unit mass and its curvature data.

    r = -D2(log w) is the curvature density of the reference metric and
    ricci_mean is its mean against w, which vanishes up to round-off because
    D2 of any periodic field has zero discrete mean.
    """

    # the one stencil; perfbench/layers.py reads it into each traced geodesic solve's key
    scheme: ClassVar[str] = "central2"
    grid: SpatialGrid
    psi: np.ndarray
    w: np.ndarray
    r: np.ndarray
    ricci_mean: float

    def __post_init__(self):
        for arr in (self.psi, self.w, self.r):
            arr.setflags(write=False)

    def d2(self, values) -> np.ndarray:
        return path_d2x(self.grid, values)

    def integrate(self, values):
        return integrate(self.grid, values)

    def integrate_mu(self, values):
        """Integral against the probability measure d mu = w dx, along the last axis."""
        return integrate(self.grid, np.asarray(values, dtype=float) * self.w)


def make_background(grid: SpatialGrid, psi=None) -> Background:
    """Build the reference density w = 1 + D2(psi), renormalized to unit mass.

    Raises NonAdmissiblePsi when 1 + D2(psi) is not strictly positive.
    """
    if psi is None:
        psi = np.zeros(grid.n_points)
    psi = _as_field_values(grid, psi)
    w_raw = 1.0 + path_d2x(grid, psi)
    if np.min(w_raw) <= 0.0:
        raise NonAdmissiblePsi(
            f"min(1 + D2 psi) = {np.min(w_raw):.6g} <= 0; "
            "background potential is not admissible"
        )
    w = w_raw / integrate(grid, w_raw)
    r = -path_d2x(grid, np.log(w))
    ricci_mean = integrate(grid, r) / integrate(grid, w)
    if not abs(ricci_mean) <= 1e-12:
        raise NonAdmissiblePsi(f"curvature mean {ricci_mean:g} out of tolerance 1e-12")
    return Background(grid=grid, psi=psi, w=w, r=r, ricci_mean=ricci_mean)


def metric_density(bg: Background, u) -> np.ndarray:
    """Density m[u] = w + D2(u) of a field or of every row of a path.

    No positivity check is performed here.
    """
    return bg.w + bg.d2(u)


def is_admissible(bg: Background, u) -> bool:
    """True when min m[u] > 0 strictly."""
    return bool(np.min(metric_density(bg, u)) > 0.0)


# ---------------------------------------------------------------------------
# stencils (paths are (n_time + 1, n_points) arrays; row 0 is s=0; the x
# stencils act on the last axis, so on a field or on every row of a path,
# and the s stencils on the second-to-last, so on a path or a stack of paths)


def _periodic_pad(u: np.ndarray) -> np.ndarray:
    """u with one ghost column on each side along the last axis: u[..., -1], u, u[..., 0].

    Slices of the padded array are the shifted copies the periodic stencils
    difference, built in one allocation where np.roll copies the array per shift.
    """
    return np.concatenate([u[..., -1:], u, u[..., :1]], axis=-1)


def path_d2x(grid: SpatialGrid, values) -> np.ndarray:
    """Periodic (u_{j+1} - 2 u_j + u_{j-1}) / h^2 along the last axis: a field or every path row."""
    h = grid.spacing
    # difference-of-differences keeps the cancellation error at the
    # scale of the local increments, not of the nodal values
    return np.diff(_periodic_pad(np.asarray(values, dtype=float)), n=2, axis=-1) / (h * h)


def path_d1x(grid: SpatialGrid, values) -> np.ndarray:
    """Periodic central first x-derivative (u_{j+1} - u_{j-1}) / 2h along the last axis."""
    g = _periodic_pad(np.asarray(values, dtype=float))
    return (g[..., 2:] - g[..., :-2]) / (2.0 * grid.spacing)


def path_d2s(path, ds: float) -> np.ndarray:
    """Second s-derivative on interior rows 1..n_time-1 along the second-to-last axis."""
    p = np.asarray(path, dtype=float)
    return ((p[..., 2:, :] - p[..., 1:-1, :]) - (p[..., 1:-1, :] - p[..., :-2, :])) / (ds * ds)


def path_d1s(path, ds: float) -> np.ndarray:
    """Central first s-derivative on interior rows 1..n_time-1 along the second-to-last axis."""
    p = np.asarray(path, dtype=float)
    return (p[..., 2:, :] - p[..., :-2, :]) / (2.0 * ds)


def path_dxds(grid: SpatialGrid, path, ds: float) -> np.ndarray:
    """Mixed derivative on interior rows: D1_s then D1_x (the stencils commute)."""
    return path_d1x(grid, path_d1s(path, ds))


# ---------------------------------------------------------------------------
# field containers and check verdicts


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


@dataclass(frozen=True, eq=False)
class PropertyResult:
    """One check's verdict: margin is the signed distance to the threshold, and passed is margin >= 0."""

    name: str
    margin: float
    details: dict

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "margin": float(self.margin),
            "details": _jsonable(self.details),
        }


def _result(name: str, margin: float, details: dict) -> PropertyResult:
    return PropertyResult(name=name, margin=float(margin), details=_jsonable(details))


@dataclass(frozen=True, eq=False)
class PathField:
    """Field on the space-time grid: rows are time slices s_i = i / n_time."""

    grid: SpatialGrid
    values: np.ndarray  # shape (n_time + 1, n_points)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != self.grid.n_points:
            raise ValueError(
                f"path must have shape (n_time + 1, {self.grid.n_points}), got {vals.shape}"
            )
        if vals.shape[0] < 2:
            raise ValueError("path needs at least two time rows")
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", vals)
        self.values.setflags(write=False)

    @property
    def n_time(self) -> int:
        return self.values.shape[0] - 1

    @property
    def ds(self) -> float:
        return 1.0 / self.n_time

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_time + 1) * self.ds


@dataclass(frozen=True, eq=False)
class ReducedHessian:
    """Space-time Hessian data of a path on interior time rows.

    m_xx = w + Phi_xx, m_xs = Phi_xs, m_ss = Phi_ss, each of shape
    (n_time - 1, n_points) for rows 1..n_time-1.
    """

    m_xx: np.ndarray
    m_xs: np.ndarray
    m_ss: np.ndarray

    def det(self) -> np.ndarray:
        return self.m_xx * self.m_ss - self.m_xs * self.m_xs

    def mixed_det(self, a_xx, a_xs, a_ss) -> np.ndarray:
        """Pairing a_xx m_ss + a_ss m_xx - 2 a_xs m_xs (the polarized determinant)."""
        return a_xx * self.m_ss + a_ss * self.m_xx - 2.0 * a_xs * self.m_xs


def reduced_hessian(bg: Background, path: PathField) -> ReducedHessian:
    vals = path.values
    ds = path.ds
    m_xx = metric_density(bg, vals)
    return ReducedHessian(
        m_xx=m_xx[1:-1, :],
        m_xs=path_dxds(bg.grid, vals, ds),
        m_ss=path_d2s(vals, ds),
    )
