"""Space-time solver for the eps-geodesic boundary-value problem.

The unknown is a potential path Phi on the (s, x) grid with Dirichlet rows at
s = 0, 1.  The interior equation

    (w + Phi_xx) Phi_ss - Phi_xs^2 = eps w

is elliptic on the cone {w + Phi_xx > 0, Phi_ss > 0} for eps > 0, and damped
Newton with cone-preserving step halving converges from the affine guess
(1-s) phi0 + s phi1 + (eps/2)(s^2 - s), whose s-Hessian equals eps exactly
and whose slice densities are convex combinations of the endpoint densities.
All interior rows are solved jointly; the Jacobian is the nine-point
space-time stencil, factored sparse at a Newton step.  The Newton driver
reuses that LU for chord steps at later iterates while each cuts the
residual tenfold, and polishes the solution on it to the round-off floor,
so a solve factors about once or twice and its result does not depend on
the start beyond round-off.  The Jacobian's sparsity pattern, the
map from the five coefficient arrays to the CSC entries and the LU's column
order are built once per (n_points, n_time), so an iterate only gathers its
coefficients and permutes its right-hand side.  The order is George's nested
dissection of the periodic (n_time - 1) x n_points strip (_dissection_order),
and the pattern is emitted already permuted, so the LU runs in natural order
with one-column supernodes and panels (LU_OPTIONS).  Against
minimum degree on A^T + A, which SuperLU recomputed on every factorization
with its default supernodes and panels, the order keeps 2-3% more fill and
flops, but the 512 x 31 Jacobian factors in about 0.55 of the time, and the
narrow panels lower the peak memory of a solve.  Another ordering changes
only the last bits of the solution.

weak_geodesic extracts the small-eps limit of eps_continuation, the one
warm-started eps-ladder of the package.  From its third rung on, a rung
starts from the secant extrapolation in eps of the two rungs before it.
A ladder solved at n_time / 2 can start the same ladder at n_time instead:
prolong_in_s carries each coarse rung to the fine time grid.
legendre_oracle is the independent surrogate for the exact degenerate
solution: with P = x^2/2 + psi + phi the admissible cone becomes discrete
convexity of P, the degenerate flow is affine interpolation of the convex
conjugates P*, and conjugation is evaluated on three unrolled periods with a
4x dual grid through a monotone searchsorted scan.  The double conjugate
reproduces P exactly whenever every node carries density at least 1/4 (the
dual spacing h/4 then hits every subdifferential gap); the involution check
turns silent failures of that condition into NonConvexInput.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._newton import NewtonRecord, damped_newton
from .errors import (
    FamilyMismatch,
    KGeoError,
    NegativeDensity,
    NonConvexInput,
    NotASolution,
    PositivityLoss,
    SingularSystem,
)
from .model import (
    Background,
    PathField,
    _as_field_values,
    _decreasing_ladder,
    _periodic_pad,
    is_admissible,
    reduced_hessian,
)

# splu options of the space-time Newton step: its pattern is already in nested-dissection
# order, and one-column supernodes and panels factor it faster than the defaults
LU_OPTIONS = dict(permc_spec="NATURAL", relax=1, panel_size=1)


def splu(matrix, **options):
    """scipy's sparse LU; newton_step calls this name, so a wrapper of it sees every factorization."""
    from scipy.sparse.linalg import splu as superlu  # imported at first use, not with the CLI
    return superlu(matrix, **options)


@dataclass(frozen=True, eq=False)
class EpsGeodesicProblem:
    """Boundary data and grid for one eps-geodesic solve."""

    bg: Background
    endpoint_0: np.ndarray
    endpoint_1: np.ndarray
    epsilon: float
    n_time: int

    def __post_init__(self):
        e0 = _as_field_values(self.bg.grid, self.endpoint_0)
        e1 = _as_field_values(self.bg.grid, self.endpoint_1)
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.n_time < 8:
            raise ValueError(f"n_time must be >= 8, got {self.n_time}")
        for name, endpoint in (("endpoint_0", e0), ("endpoint_1", e1)):
            if not is_admissible(self.bg, endpoint):
                raise NegativeDensity(f"{name} is not admissible on this background")
        object.__setattr__(self, "endpoint_0", e0)
        object.__setattr__(self, "endpoint_1", e1)
        e0.setflags(write=False)
        e1.setflags(write=False)


@dataclass(frozen=True, eq=False)
class EpsGeodesic:
    """Solved path with its residual certificate, cone margins and Newton record."""

    path: PathField
    residual_sup: float
    positivity_margin: float
    record: NewtonRecord
    epsilon: float

    @property
    def newton_iters(self) -> int:  # Newton and chord steps
        return self.record.iterations


def initial_guess(problem: EpsGeodesicProblem) -> np.ndarray:
    """Affine interpolation plus the exact constant-coefficient correction."""
    s = (np.arange(problem.n_time + 1) / problem.n_time)[:, None]
    base = (1.0 - s) * problem.endpoint_0[None, :] + s * problem.endpoint_1[None, :]
    return base + 0.5 * problem.epsilon * (s * s - s)


def eval_geodesic_residual(bg: Background, path: PathField, epsilon: float) -> np.ndarray:
    """Nodewise PDE residual on interior rows, built from the reduced Hessian.

    Kept independent of the Newton assembly so the two can certify each
    other.
    """
    return reduced_hessian(bg, path).det() - epsilon * bg.w[None, :]


# the nine-point stencil: (time offset, space offset, row of the coefficient
# stack that newton_step builds)
_STENCIL = (
    (0, 0, 0),
    (0, 1, 1),
    (0, -1, 1),
    (1, 0, 2),
    (-1, 0, 2),
    (1, 1, 3),
    (1, -1, 4),
    (-1, 1, 4),
    (-1, -1, 3),
)


@lru_cache(maxsize=None)
def _box_order(rows: int, cols: int) -> tuple:
    """Nested-dissection order of a rows x cols box, as (row, col) offsets.

    A box is split at its middle column or row, across its longer side, and
    its separator follows both halves; a box with a side shorter than 3 is
    emitted as it is, row by row.  The split depends only on the shape, so
    the order is memoized by shape and translated to each position.
    """
    if min(rows, cols) < 3:
        r, c = np.divmod(np.arange(rows * cols), cols)
    elif cols >= rows:
        mid = cols // 2
        parts = [(_box_order(rows, mid), 0), (_box_order(rows, cols - mid - 1), mid + 1), (_box_order(rows, 1), mid)]
        r = np.concatenate([rr for (rr, _), _ in parts])
        c = np.concatenate([cc + shift for (_, cc), shift in parts])
    else:
        mid = rows // 2
        parts = [(_box_order(mid, cols), 0), (_box_order(rows - mid - 1, cols), mid + 1), (_box_order(1, cols), mid)]
        r = np.concatenate([rr + shift for (rr, _), shift in parts])
        c = np.concatenate([cc for (_, cc), _ in parts])
    r.setflags(write=False)
    c.setflags(write=False)
    return r, c


def _dissection_order(n_int: int, n: int) -> np.ndarray:
    """Nested-dissection order of the n_int x n strip, periodic in x.

    George's nested dissection of a regular mesh: the columns x = 0 and
    x = n/2 open the ring into two boxes and come last; each box follows
    _box_order.  Returns the raveled row-major node index of each position.
    """
    half = n // 2
    parts = []
    for c0, c1 in ((1, half), (half + 1, n), (0, 1), (half, half + 1)):
        r, c = _box_order(n_int, c1 - c0)
        parts.append(r * n + (c + c0))
    return np.concatenate(parts)


@lru_cache(maxsize=16)
def _jacobian_pattern(n: int, n_time: int) -> tuple:
    """CSC pattern of the space-time Jacobian in nested-dissection order.

    Returns (indices, indptr, gather, perm): the CSC row indices and column
    pointers of P J P^T, for every stored entry its position in the raveled
    stack of the five coefficient arrays of newton_step, and the order perm
    itself (unknown perm[k] is unknown k of the permuted system).  Rows next
    to the Dirichlet rows drop the off-grid neighbours, x wraps
    periodically.  Entries are in canonical CSC order (rows sorted within
    each column), as coo_matrix(...).tocsc() would store them.
    """
    n_int = n_time - 1
    size = n_int * n
    perm = _dissection_order(n_int, n)
    rank = np.empty(size, dtype=np.int64)
    rank[perm] = np.arange(size)
    i, j = np.indices((n_int, n))
    eq = (i * n + j).ravel()
    rows, cols, src = [], [], []
    for dr, dc, k in _STENCIL:
        ti = i + dr
        keep = ((ti >= 0) & (ti < n_int)).ravel()
        rows.append(rank[eq[keep]])
        cols.append(rank[(ti * n + (j + dc) % n).ravel()[keep]])
        src.append(k * size + eq[keep])
    rows, cols, src = np.concatenate(rows), np.concatenate(cols), np.concatenate(src)
    order = np.lexsort((rows, cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=size))])
    out = (rows[order].astype(np.int32), indptr.astype(np.int32), src[order], perm)
    for arr in out:
        arr.setflags(write=False)
    return out


def _stencil_parts(bg: Background, p: np.ndarray) -> tuple:
    """w + Phi_xx, Phi_ss and Phi_xs on the interior rows of the path values p, as Newton assembles them."""
    h = bg.grid.spacing
    ds = 1.0 / (p.shape[0] - 1)
    inv_h2 = 1.0 / (h * h)
    inv_ds2 = 1.0 / (ds * ds)
    g = _periodic_pad(p)
    m_xx = bg.w[None, :] + np.diff(g[1:-1], n=2, axis=1) * inv_h2
    phi_ss = ((p[2:, :] - p[1:-1, :]) - (p[1:-1, :] - p[:-2, :])) * inv_ds2
    phi_xs = (g[2:, 2:] - g[2:, :-2] - g[:-2, 2:] + g[:-2, :-2]) / (4.0 * h * ds)
    return m_xx, phi_ss, phi_xs


def _in_cone(parts) -> bool:
    """The cone the solver keeps its iterates in: w + Phi_xx > 0 and Phi_ss > 0 on every interior node."""
    m_xx, phi_ss, _ = parts
    return float(np.min(m_xx)) > 0.0 and float(np.min(phi_ss)) > 0.0


def solve_eps_geodesic(
    problem: EpsGeodesicProblem,
    tol: float = 1e-10,
    max_iter: int = 60,
    path0: np.ndarray | None = None,
) -> EpsGeodesic:
    """Damped Newton over all interior rows jointly."""
    import scipy.sparse.linalg  # before the solve's arrays: imported among them, it fragments the heap

    bg = problem.bg
    grid = bg.grid
    n = grid.n_points
    nt = problem.n_time
    n_int = nt - 1
    h = grid.spacing
    ds = 1.0 / nt
    w = bg.w
    e0, e1 = problem.endpoint_0, problem.endpoint_1
    inv_h2 = 1.0 / (h * h)
    inv_ds2 = 1.0 / (ds * ds)

    def full_path(x):
        return np.vstack([e0[None, :], x.reshape(n_int, n), e1[None, :]])

    last = [None, None]  # accept, residual and the next newton_step read one iterate

    def parts_of(x):  # x is a batch of one row, shape (1, n_int * n)
        if not np.array_equal(last[0], x):
            last[:] = [x.copy(), _stencil_parts(bg, full_path(x))]
        return last[1]

    def residual(x, rows):
        m_xx, phi_ss, phi_xs = parts_of(x)
        return (m_xx * phi_ss - phi_xs * phi_xs - problem.epsilon * w[None, :]).reshape(1, -1)

    def accept(x, rows):
        return np.array([_in_cone(parts_of(x))])

    indices, indptr, gather, perm = _jacobian_pattern(n, nt)

    def newton_step(x, r, rows):
        m_xx, phi_ss, phi_xs = parts_of(x)
        last[:] = [None, None]  # the next iterate is a new one: drop the memo before the LU
        q = phi_xs / (2.0 * h * ds)
        coefs = np.stack([
            -2.0 * inv_h2 * phi_ss - 2.0 * inv_ds2 * m_xx,  # centre
            inv_h2 * phi_ss,  # x neighbours
            inv_ds2 * m_xx,  # s neighbours
            -q,  # (+1, +1) and (-1, -1)
            q,  # (+1, -1) and (-1, +1)
        ])
        jac = scipy.sparse.csc_matrix((coefs.ravel()[gather], indices, indptr), shape=(n_int * n, n_int * n))
        try:
            lu = splu(jac, **LU_OPTIONS)
        except RuntimeError as exc:
            raise SingularSystem(f"space-time Jacobian factorization failed: {exc}") from exc

        def solve(r, rows):  # the driver's chord steps reuse this LU at later iterates
            step = np.empty_like(r)
            step[0, perm] = lu.solve(-r[0, perm])
            return step

        return solve(r, rows), solve

    try:
        start = initial_guess(problem) if path0 is None else np.asarray(path0, dtype=float)
        x0 = start[1:-1, :].reshape(1, -1)
        x, rec = damped_newton(x0, residual, newton_step, accept=accept, tol=tol, max_iter=max_iter)
        path = PathField(grid, full_path(x))
        cert = eval_geodesic_residual(bg, path, problem.epsilon)
        cert_sup = float(np.max(np.abs(cert)))
        newton_sup = rec.residual_sups[0][-1]
        if not abs(cert_sup - newton_sup) <= 1e-12:
            raise NotASolution(
                f"assembly and certificate residuals disagree: {newton_sup:.3e} vs {cert_sup:.3e}"
            )
        rh = reduced_hessian(bg, path)
        margin = float(min(np.min(rh.det()), np.min(rh.m_xx + rh.m_ss)))
        if not margin > 0.0:
            raise PositivityLoss(f"cone condition lost at the solution, margin {margin:.3g}")
        return EpsGeodesic(
            path=path,
            residual_sup=cert_sup,
            positivity_margin=margin,
            record=rec,
            epsilon=problem.epsilon,
        )
    except KGeoError as exc:  # keep the exception object (and its attributes); prefix the context
        context = f"eps-geodesic solve failed at (eps={problem.epsilon}, n_time={nt}, n_points={n})"
        exc.args = (f"{context}: {exc.args[0] if exc.args else exc}", *exc.args[1:])
        raise


def prolong_in_s(coarse: np.ndarray) -> np.ndarray:
    """Cubic-in-s prolongation of a path from n_c + 1 time rows to 2 n_c + 1.

    The coarse rows become the even rows, bit for bit.  A midpoint row takes
    the 4-point Lagrange weights (-1, 9, 9, -1)/16 of its coarse neighbours,
    and the two rows next to s = 0 and s = 1 the one-sided weights
    (5, 15, -5, 1)/16, so every cubic in s is reproduced.  Linear
    interpolation would leave the cone: its Phi_ss vanishes on the midpoint
    rows.
    """
    c = np.asarray(coarse, dtype=float)
    if c.shape[0] < 4:
        raise ValueError(f"prolongation needs at least 4 time rows, got {c.shape[0]}")
    fine = np.empty((2 * c.shape[0] - 1, c.shape[1]))
    fine[::2] = c
    fine[3:-3:2] = (9.0 * (c[1:-2] + c[2:-1]) - (c[:-3] + c[3:])) / 16.0
    fine[1] = (5.0 * c[0] + 15.0 * c[1] - 5.0 * c[2] + c[3]) / 16.0
    fine[-2] = (c[-4] - 5.0 * c[-3] + 15.0 * c[-2] + 5.0 * c[-1]) / 16.0
    return fine


def eps_continuation(
    bg: Background, endpoint_0, endpoint_1, epsilons, n_time: int, tol: float = 1e-10, solved=(), coarse=()
) -> list:
    """Solve the eps-geodesic at every eps of the ladder, in order.

    The first rung starts Newton from the affine guess, the second from the
    first rung, and every later one from the secant extrapolation in eps of
    the two rungs before it (the predictor of Allgower & Georg, Numerical
    Continuation Methods, 1990: the rungs are close to linear in eps), or
    from the rung before it where that start leaves the cone.  The leading
    rungs already in solved (same endpoints, n_time and tol) are kept.  With
    coarse, the rungs of the same ladder solved at n_time / 2, rung k
    instead starts from prolong_in_s of coarse[k]: a transferred solution of
    the neighbouring grid needs about one Newton step (mesh independence).
    Returns one EpsGeodesic per rung.
    """
    if coarse and [(r.epsilon, 2 * r.path.n_time) for r in coarse] != [(float(e), n_time) for e in epsilons]:
        raise ValueError(f"coarse rungs must solve the same ladder at n_time {n_time // 2}")
    rungs = list(solved)
    for k in range(len(rungs), len(epsilons)):
        problem = EpsGeodesicProblem(bg, endpoint_0, endpoint_1, float(epsilons[k]), n_time)
        if coarse:
            path0 = prolong_in_s(coarse[k].path.values)
        elif len(rungs) >= 2:
            path0 = _secant_start(bg, rungs[-2], rungs[-1], problem.epsilon)
        else:
            path0 = rungs[-1].path.values if rungs else None
        rungs.append(solve_eps_geodesic(problem, tol=tol, path0=path0))
    return rungs


def _secant_start(bg: Background, a: EpsGeodesic, b: EpsGeodesic, epsilon: float) -> np.ndarray:
    """The secant extrapolation in eps of rungs a and b to epsilon, or b's path where it leaves the cone."""
    theta = (epsilon - b.epsilon) / (b.epsilon - a.epsilon)
    guess = b.path.values + theta * (b.path.values - a.path.values)
    return guess if _in_cone(_stencil_parts(bg, guess)) else b.path.values


def rung_increments(rungs) -> list:
    """Sup-norm Cauchy increments between consecutive rungs."""
    return [float(np.max(np.abs(b.path.values - a.path.values))) for a, b in zip(rungs, rungs[1:])]


def weak_limit(bg: Background, rungs) -> PathField:
    """The last rung's path, once the continuation has shown its limit.

    The Cauchy increments must decrease, and the last path must satisfy the
    degenerate-determinant bound |det| <= eps_last max w.
    """
    increments = rung_increments(rungs)
    for a, b in zip(increments, increments[1:]):
        if b > a + 1e-12:
            raise FamilyMismatch(f"continuation increments increase: {increments}")
    path = rungs[-1].path
    det = reduced_hessian(bg, path).det()
    bound = rungs[-1].epsilon * float(np.max(bg.w)) + 1e-10
    worst = float(np.max(np.abs(det)))
    if worst > bound:
        raise NotASolution(
            f"limit path violates the degenerate-determinant bound: {worst:.3e} > {bound:.3e}"
        )
    return path


def weak_geodesic(
    bg: Background, endpoint_0, endpoint_1, eps_sequence, n_time: int = 64, solved=(), coarse=()
) -> PathField:
    """Warm-started continuation to the smallest eps of the sequence.

    The sequence needs at least 3 entries; the returned path is the
    eps-geodesic at eps_sequence[-1], checked by weak_limit.  solved and
    coarse are passed on to eps_continuation.
    """
    eps_sequence = _decreasing_ladder(eps_sequence, "eps_sequence")
    if len(eps_sequence) < 3:
        raise ValueError("eps_sequence needs at least 3 entries")
    rungs = eps_continuation(bg, endpoint_0, endpoint_1, eps_sequence, n_time, solved=solved, coarse=coarse)
    return weak_limit(bg, rungs)


# ---------------------------------------------------------------------------
# convex-duality oracle


def _conjugate(xs: np.ndarray, fs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Discrete Legendre transform max_j (y xs[j] - fs[j]) for convex samples.

    The maximizer index is monotone in y and equals the number of chord
    slopes below y, so a searchsorted over the slope sequence evaluates the
    whole transform in sorted order.  On non-convex data the selection is
    wrong by construction; callers detect that through the involution check.
    """
    slopes = np.diff(fs) / np.diff(xs)
    idx = np.searchsorted(slopes, ys)
    return ys * xs[idx] - fs[idx]


def legendre_oracle(bg: Background, endpoint_0, endpoint_1, n_time: int) -> PathField:
    """Exact-solution surrogate: affine interpolation of convex conjugates."""
    grid = bg.grid
    endpoints = [_as_field_values(grid, endpoint_0), _as_field_values(grid, endpoint_1)]
    n = grid.n_points
    h = grid.spacing
    xs = (np.arange(3 * n) - n) * h
    ys = (np.arange(12 * n) - 4 * n) * (h / 4.0)
    x_central = grid.nodes
    quad_central = 0.5 * x_central * x_central + bg.psi
    duals = []
    for phi in endpoints:
        p = 0.5 * xs * xs + np.tile(bg.psi + phi, 3)
        pstar = _conjugate(xs, p, ys)
        back = _conjugate(ys, pstar, x_central)
        defect = float(np.max(np.abs(back - (quad_central + phi))))
        if defect > 1e-8:
            raise NonConvexInput(
                f"conjugation involution defect {defect:.3e} > 1e-08; "
                "endpoint potential is not discretely convex enough"
            )
        duals.append(pstar)
    rows = np.empty((n_time + 1, n))
    for i in range(n_time + 1):
        s = i / n_time
        pstar_s = (1.0 - s) * duals[0] + s * duals[1]
        rows[i] = _conjugate(ys, pstar_s, x_central) - quad_central
    return PathField(grid, rows)
