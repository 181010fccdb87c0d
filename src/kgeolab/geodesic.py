"""Space-time solver for the eps-geodesic boundary-value problem.

The unknown is a potential path Phi on the (s, x) grid with Dirichlet rows at
s = 0, 1.  The interior equation

    (w + Phi_xx) Phi_ss - Phi_xs^2 = eps w

is elliptic on the cone {w + Phi_xx > 0, Phi_ss > 0} for eps > 0, and damped
Newton with cone-preserving step halving converges from the affine guess
(1-s) phi0 + s phi1 + (eps/2)(s^2 - s), whose s-Hessian equals eps exactly
and whose slice densities are convex combinations of the endpoint densities.
All interior rows are solved jointly; the Jacobian is the nine-point
space-time stencil, factored sparse at a Newton step.  It is held as three
fields (_jacobian): the x and s neighbours' coefficients and q, which
weighs the anti-diagonal neighbours and whose negative weighs the diagonal
ones; the centre, -2 times the sum of the first two, is formed where it is
read, and splu's five-field stack only for a factorization.  The Newton loop
reuses that LU for chord steps at later iterates while each cuts the
residual tenfold, and polishes the solution on it to the round-off floor,
so a solve factors about once or twice and its result does not depend on
the start beyond round-off.  The LU is numpy's, multifrontal in George's
nested-dissection order of the periodic (n_time - 1) x n_points strip
(George, SIAM J. Numer. Anal. 1973), each batch of like fronts factored as
a stack of dense blocks (splu).  Its symbolic phase is built once per grid,
in int32, and kept while that grid is factored (_dissection; 1.0 MB on
512 x 31, 0.23 MB on 256 x 15).  A solve permutes the right-hand side into
elimination order, where each batch pivots one slice, and sweeps once up
and once down the tree.  Against SuperLU on the same order, the factor
stores about 0.9 of the entries; another ordering changes only the last
bits of the solution.

A Newton step factors in float32 and takes that factor's solve as its step.
The factor stores its blocks in half the bytes (2.9 instead of 5.8 MB on
512 x 31) and takes about a third less time than in float64 (512 x 31:
22 -> 15 ms).  The step leaves 3.7e-6..1.94e-3 of the right-hand side as
float64 linear residual, which the driver's chord steps on the same factor
remove: each is kept only if it cuts the float64 Newton residual tenfold,
so the chord steps refine in two precisions (Carson & Higham, SIAM J.
Sci. Comput. 2018) and the polish ends at the float64 floor.  One test
(_checked) judges every step on the chord steps' terms: a step that leaves
more than CHORD_CONTRACTION of the right-hand side, overflows or meets a
singular pivot block gives way to the float64 factor, whose step is taken
as it is, and the solve's NewtonRecord counts these fallbacks.

A solve given the rung of the same problem at half the n_time refines it
without a fine LU: it starts from prolong_in_s of that rung (nested
iteration, Brandt, Math. Comp. 1977), and each Newton step takes its step
from one two-grid cycle (_two_grid), which also serves the driver's chord
steps and polish.  The cycle coarsens in s only, onto the even time rows,
and it relaxes whole x-lines, whose two sets (odd and even rows) it
factors once per Newton step (_PeriodicFactor) and only
substitutes in its sweeps.  As eps falls, the s coupling (w + Phi_xx)/ds^2
outgrows the x coupling Phi_ss/h^2; line relaxation keeps the cycle robust
where that anisotropy flips, on the thin slices of a nearly degenerate
endpoint (Schaffer, SIAM J. Sci. Comput. 1998; Trottenberg, Oosterlee &
Schueller, Multigrid, 2001, 5.1).  The coarse solve (_coarse_solve) is the
float32 factor of the Jacobian at the iterate's even rows when those are
at most 16 intervals; above that it is COARSE_CYCLES two-grid cycles of
that Jacobian, whose own coarse solve recurses.  So a refined level factors
only Jacobians of at most 16 intervals in s: a step of the chain's
n_time-64 level cycles over the levels 64, 32 and 16 (a W-cycle, with two
cycles per coarse solve), and the chain factors a 256 x 31 Jacobian, and
builds its symbolic phase, only for a fallback step.  A cycle that
_checked rejects gives way to the fine factors, and NewtonRecord counts
the steps of both kinds.  By power iteration, a two-grid cycle contracts
at 0.01-0.05 on the canonical endpoints, 0.05-0.24 at density amplitude
0.3 and 0.09-0.54 at 0.9; a step from a prolonged start does better, and
only at 0.9 do some steps fall back.

eps_continuation is the one eps-ladder solver of the package.  It solves
the ladder at each of its n_time levels, coarse to fine.  On the first
level, from the third rung on, a rung starts from the secant extrapolation
in eps of the two rungs before it.  Every later level doubles n_time, and
each of its rungs is refined by two-grid steps from the same rung one
level coarser, so a chain from n_time 16 factors only Jacobians of its
first level's grid.
weak_limit certifies the small-eps limit of one level.
legendre_oracle is the independent surrogate for the exact degenerate
solution: with P = x^2/2 + psi + phi the admissible cone becomes discrete
convexity of P, and the degenerate flow is affine interpolation of the convex
conjugates P*.  On three unrolled periods P* is piecewise linear with breaks
at the chord slopes of P, so the conjugates are evaluated, by a monotone
searchsorted scan, at the union of both endpoints' slopes: exact for the
piecewise-linear interpolants, at any positive node density.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from ._newton import CHORD_CONTRACTION, NewtonRecord, damped_newton
from .errors import (
    FamilyMismatch,
    KGeoError,
    NegativeDensity,
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

def _admissible_endpoints(bg: Background, endpoint_0, endpoint_1) -> list:
    """Nodal values of both endpoints; NegativeDensity names one that is not admissible on bg."""
    values = []
    for name, endpoint in (("endpoint_0", endpoint_0), ("endpoint_1", endpoint_1)):
        values.append(_as_field_values(bg.grid, endpoint))
        if not is_admissible(bg, values[-1]):
            raise NegativeDensity(f"{name} is not admissible on this background")
    return values


@dataclass(frozen=True, eq=False)
class EpsGeodesicProblem:
    """Boundary data and grid for one eps-geodesic solve."""

    bg: Background
    endpoint_0: np.ndarray
    endpoint_1: np.ndarray
    epsilon: float
    n_time: int

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.n_time < 8:
            raise ValueError(f"n_time must be >= 8, got {self.n_time}")
        e0, e1 = _admissible_endpoints(self.bg, self.endpoint_0, self.endpoint_1)
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
# stack that _stack builds)
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


#: a box of at most this many nodes is a leaf of the dissection: its nodes are pivoted together,
#: in one dense front.  Smaller leaves mean more batches, so more numpy calls per factor and
#: solve; larger ones a dense inverse of a sparse box.  At 16 the leaves of the usual grids are
#: 3 x 3 boxes, and the factor stores 0.86-0.91 of the entries SuperLU keeps on the same order.
LEAF_NODES = 16


def _front(rows: int, cols: int, top: bool, bottom: bool) -> tuple:
    """Pivots, ring and child boxes of the front of a rows x cols box.

    Nodes are (row, col) offsets from the box origin.  A box of at most
    LEAF_NODES nodes is a leaf and pivots all of them; a larger box is split
    at its middle column or row, across its longer side, and pivots that
    separator.  The ring is every node outside the box that the nine-point
    stencil reaches from inside it; top and bottom say that the box touches
    the first or last time row, where no ring row lies beyond.  Returns
    (pivots, ring, children), each child as ((rows, cols, top, bottom),
    (row offset, col offset)).
    """
    if rows * cols <= LEAF_NODES:
        pivots = [(r, c) for r in range(rows) for c in range(cols)]
        children = []
    elif cols >= rows:
        mid = cols // 2
        pivots = [(r, mid) for r in range(rows)]
        children = [((rows, mid, top, bottom), (0, 0)), ((rows, cols - mid - 1, top, bottom), (0, mid + 1))]
    else:
        mid = rows // 2
        pivots = [(mid, c) for c in range(cols)]
        children = [((mid, cols, top, False), (0, 0)), ((rows - mid - 1, cols, False, bottom), (mid + 1, 0))]
    ring = [
        (r, c)
        for r in range(0 if top else -1, rows if bottom else rows + 1)
        for c in range(-1, cols + 1)
        if not (0 <= r < rows and 0 <= c < cols)
    ]
    return pivots, ring, children


class _Fronts(NamedTuple):
    """Fronts of one tree level with one local structure, factored as one batch; a row per front."""

    shape: tuple  # (batch, p, f): fronts, pivots per front and front size, pivots first
    pos: np.ndarray  # (E,) position of each stencil entry of the front in the raveled f x f front
    gather: np.ndarray  # (E, batch) index of that entry in the raveled (5, n_int, n) coefficient stack
    kids: tuple  # per child slot: (its group, its slice of that batch, front positions of its ring)
    release: tuple  # the child groups whose updates this group consumes last
    sweep: int  # the _Sweep that solves with these fronts
    rp: np.ndarray | None = None  # leaves only: which of the E entries make up F_RP
    pr: np.ndarray | None = None  # and F_PR


class _Sweep(NamedTuple):
    """Fronts that a solve handles together: all leaves of one pivot count, or the groups of
    one tree level with one front size.  Their factor blocks are stacked in group order."""

    own: slice  # the batch x p elimination positions pivoted here, front by front in group order
    ring: np.ndarray | None  # (batch, r) positions; None for leaves, whose couplings are one entry list:
    # each F_RP entry as (its column in the raveled (batch, p) pivot values, its ring unknown's
    # position), which are also the row and column of the F_PR entry of the same index
    entries: tuple = ()


@lru_cache(maxsize=1)  # ladders factor one grid at a time: no grid's index arrays outlive its ladder
def _dissection(n_int: int, n: int) -> tuple:
    """Symbolic phase of splu: George's nested dissection of the periodic n_int x n strip.

    Only the last grid's phase is cached: a ladder factors one grid at every
    rung, and the next ladder's first factor computes its own again.

    The root front pivots the columns x = 0 and x = n/2, which open the ring
    into two boxes; every box follows _front.  Fronts of one tree level and
    one box signature (shape and the two boundary flags) have the same local
    structure, so they form one _Fronts group, children before parents.
    A solve takes all leaves of one size together, since leaves depend on
    nothing, and the separators of one level and one front size together:
    one _Sweep each.  The sweeps in sequence, each its groups in member
    order, are the elimination order, and the sweeps store positions in it;
    the fronts' gather stays in grid numbering.  Returns (groups, sweeps,
    order), where the permutation order maps a position to its grid unknown.
    """
    half = n // 2
    size = n_int * n
    root = [(r, 0) for r in range(n_int)] + [(r, half) for r in range(n_int)]
    boxes = [((n_int, half - 1, True, True), (0, 1)), ((n_int, n - half - 1, True, True), (0, half + 1))]
    templates = {"root": (root, [], boxes)}
    level = {"root": [(0, 0)]}
    levels = []
    while level:  # breadth first; the children of one group and slot are contiguous in theirs
        below, links = {}, {}
        for sig, origins in level.items():
            for k, (child, (dr, dc)) in enumerate(templates[sig][2]):
                if child[0] * child[1]:
                    if child not in templates:
                        templates[child] = _front(*child)
                    taken = below.setdefault(child, [])
                    links[sig, k] = (child, slice(len(taken), len(taken) + len(origins)), (dr, dc))
                    taken += [(r + dr, c + dc) for r, c in origins]
        levels.append((level, links))
        level = below
    groups, globs, index, last_use, sweeps = [], [], {}, {}, {}
    for depth, (level, links) in reversed(list(enumerate(levels))):
        for sig, origins in level.items():
            pivots, ring, children = templates[sig]
            nodes = pivots + ring
            p, f = len(pivots), len(nodes)
            where = {node: k for k, node in enumerate(nodes)}
            if sig == "root":  # box x = n/2 + 1 .. n - 1 reaches round to x = 0
                where.update({(r, n): k for k, (r, c) in enumerate(pivots) if c == 0})
            entries = []  # (front row, front col, stencil row, front position of the equation's node)
            for a, (r, c) in enumerate(pivots):
                for dr, dc, k in _STENCIL:
                    b = where.get((r + dr, c + dc))
                    if b is not None:  # a node inside the box but not pivoted here is a descendant's
                        entries.append((a, b, k, a))
                        if b >= p:  # F_PR's entry, then F_RP's: a leaf's two lists pair up
                            entries.append((b, a, k, b))
            origin = np.array(origins, dtype=np.int32)[:, None, :]
            local = np.array(nodes, dtype=np.int32)[None, :, :] + origin
            glob = local[..., 0] * n + local[..., 1] % n  # (batch, f) grid unknowns, pivots first
            rows, cols, stencil, eq = np.array(entries, dtype=np.int32).T
            kids = []
            for k in range(len(children)):
                if (sig, k) in links:
                    child, batch, (dr, dc) = links[sig, k]
                    slot = np.array([where[r + dr, c + dc] for r, c in templates[child][1]], dtype=np.int32)
                    kids.append((index[depth + 1, child], batch, slot))
                    last_use[index[depth + 1, child]] = len(groups)
            key = ("leaf", p) if not children else ("level", depth, p, f - p)
            members = sweeps.setdefault(key, [])
            fronts = _Fronts(
                (len(origins), p, f), rows * f + cols, stencil[:, None] * size + glob[:, eq].T,
                tuple(kids), [], list(sweeps).index(key),
            )
            if not children:
                rp, pr = np.flatnonzero(rows >= p).astype(np.int32), np.flatnonzero(cols >= p).astype(np.int32)
                fronts = fronts._replace(rp=rp, pr=pr)
            members.append(len(groups))
            index[depth, sig] = len(groups)
            groups.append(fronts)
            globs.append(glob)
    for child, user in last_use.items():
        groups[user].release.append(child)
    # a sweep comes after every sweep that holds a descendant of its fronts, since the deepest
    # level comes first and a level's sweeps open before the next level up is reached: so each
    # ring lies past the positions its own sweep pivots
    order = np.concatenate([globs[g][:, : groups[g].shape[1]].ravel() for members in sweeps.values() for g in members])
    rank = np.empty_like(order)
    rank[order] = np.arange(size, dtype=np.int32)
    solve, start = [], 0
    for (kind, *_), members in sweeps.items():
        p = groups[members[0]].shape[1]
        own = slice(start, start + p * sum(groups[g].shape[0] for g in members))
        rings, entries = [], []
        for g in members:  # each group's unknowns are dropped once mapped: no copy of them all is made
            at, globs[g] = rank.take(globs[g]).T, None  # (f, batch) elimination positions
            if kind == "level":
                rings.append(at[p:].T)
            else:
                row, col = np.divmod(groups[g].pos[groups[g].rp], groups[g].shape[2])  # a ring row, a pivot col
                entries.append(((at[col] - start).ravel(), at[row].ravel()))
        couplings = tuple(map(np.concatenate, zip(*entries))) if entries else ()
        solve.append(_Sweep(own, np.concatenate(rings) if rings else None, couplings))
        start = own.stop
    out = tuple(fronts._replace(release=tuple(fronts.release)) for fronts in groups), tuple(solve), order
    _read_only(out)  # cached, so shared by every factorization of this grid while it is the last one
    return out


def _read_only(item) -> None:
    """Mark every array in a nest of tuples read-only."""
    if isinstance(item, np.ndarray):
        item.setflags(write=False)
    elif isinstance(item, tuple):
        for sub in item:
            _read_only(sub)


class _FrontalLU:
    """The factor splu returns: per front, F_PP^-1 and the couplings F_RP and F_PR.

    A separator keeps F_RP and F_PP^-1 F_PR dense, since its children's
    updates fill them; a leaf keeps only the stencil entries of F_RP and
    F_PR.  L holds the inverted pivot blocks and F_RP, U the rest; their nnz
    count the entries stored.  All act in _dissection's elimination order.
    """

    def __init__(self, sweeps: tuple, order: np.ndarray, blocks: list):
        self.sweeps, self.order, self.blocks = sweeps, order, blocks
        self.dtype = blocks[0][0].dtype
        self.L = SimpleNamespace(nnz=sum(inv.size + lower.size for inv, lower, _ in blocks))
        self.U = SimpleNamespace(nnz=sum(upper.size for _, _, upper in blocks))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with J x = rhs: one sweep up the tree (forward), one down (backward).

        The sweeps run in the factor's precision, on rhs permuted into
        elimination order; x comes back in float64, in grid order.
        """
        y = np.asarray(rhs, dtype=self.dtype).take(self.order)
        for sweep, (inv, lower, _) in zip(self.sweeps, self.blocks):
            own = y[sweep.own].reshape(inv.shape[:2])
            z = own[...] = _matvec(inv, own)
            # b_R -= F_RP z, summed over fronts that share ring unknowns
            if sweep.entries:
                cols, ring = sweep.entries
                np.subtract.at(y, ring, lower * z.take(cols))
            elif sweep.ring.size:
                np.subtract.at(y, sweep.ring.ravel(), _matvec(lower, z).ravel())
        for sweep, (inv, _, upper) in zip(reversed(self.sweeps), reversed(self.blocks)):
            # x_P = z - F_PP^-1 F_PR x_R
            own = y[sweep.own].reshape(inv.shape[:2])
            if sweep.entries:
                rows, ring = sweep.entries
                coupled = np.zeros_like(own)
                np.add.at(coupled.reshape(-1), rows, upper * y.take(ring))
                own -= _matvec(inv, coupled)
            elif sweep.ring.size:
                own -= _matvec(upper, y.take(sweep.ring))
        x = np.empty(y.size)
        x[self.order] = y
        return x


def _matvec(blocks: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """blocks[k] @ vectors[k] for every k; for stacks of small blocks einsum beats matmul's loop."""
    return np.einsum("kij,kj->ki", blocks, vectors)


def splu(coefs: np.ndarray) -> _FrontalLU:
    """Multifrontal LU of the space-time Jacobian in nested-dissection order.

    coefs is the (5, n_time - 1, n_points) stack of the stencil coefficients
    that _stack forms from newton_step's fields, and the factor is computed
    and stored in its precision: float32 for a Newton step, float64 for its
    last fallback (newton_step).  This is the numeric phase, one batch of
    fronts at a time, children first: each front is assembled from its
    children's Schur updates and the stencil coefficients of its pivot rows
    and columns, its pivot block is inverted with np.linalg.inv (partial
    pivoting inside the block), and F_RR - F_RP F_PP^-1 F_PR goes on to the
    parent.  newton_step calls this name once per factorization, the
    fallback's included, so a wrapper of it sees every one.  Raises
    np.linalg.LinAlgError on an exactly singular pivot block.
    """
    groups, sweeps, order = _dissection(*coefs.shape[1:])
    coefs = np.ascontiguousarray(coefs).reshape(-1)
    dtype = coefs.dtype
    updates, parts, blocks = {}, [[] for _ in sweeps], [None] * len(sweeps)
    pending = [sum(fronts.sweep == k for fronts in groups) for k in range(len(sweeps))]
    for g, fronts in enumerate(groups):
        batch, p, f = fronts.shape
        if fronts.kids:  # assembled batch last, where each scattered entry moves a whole row
            front = np.zeros((f * f, batch), dtype=dtype)
            for child, rows, slot in fronts.kids:
                front[(slot[:, None] * f + slot).ravel()] += updates[child][:, rows]
            for child in fronts.release:
                del updates[child]
            front[fronts.pos] += coefs.take(fronts.gather)  # take reads int32 indices as fast as intp
            front = np.ascontiguousarray(front.T).reshape(batch, f, f)
        else:  # a leaf holds stencil entries only, each in its own place
            front = np.zeros((batch, f * f), dtype=dtype)
            front[:, fronts.pos] = coefs.take(fronts.gather).T
            front = front.reshape(batch, f, f)
        inv = np.linalg.inv(front[:, :p, :p])
        v = inv @ front[:, :p, p:]
        if f > p:
            updates[g] = (front[:, p:, p:] - front[:, p:, :p] @ v).reshape(batch, -1).T.copy()
        if fronts.rp is not None:  # the leaves' coupling entries, raveled entry by entry
            rp, pr = coefs.take(fronts.gather[fronts.rp]), coefs.take(fronts.gather[fronts.pr])
            parts[fronts.sweep].append((inv, rp.ravel(), pr.ravel()))
        else:
            parts[fronts.sweep].append((inv, front[:, p:, :p].copy(), v))  # a copy, so that the front is freed
        pending[fronts.sweep] -= 1
        if not pending[fronts.sweep]:  # stack a sweep's blocks once its last group is factored
            blocks[fronts.sweep] = tuple(np.concatenate(arrays) for arrays in zip(*parts[fronts.sweep]))
            parts[fronts.sweep] = None
    return _FrontalLU(sweeps, order, blocks)


def _ghosted(s: np.ndarray) -> np.ndarray:
    """The interior rows s with the zero Dirichlet rows around them and a periodic ghost column on each side."""
    g = np.zeros((s.shape[0] + 2, s.shape[1] + 2))
    g[1:-1, 1:-1] = s
    g[1:-1, 0], g[1:-1, -1] = s[:, -1], s[:, 0]
    return g


def _centre(fields: np.ndarray) -> np.ndarray:
    """The centre coefficient of the Jacobian with the three fields (x_nbr, s_nbr, q): -2 x_nbr - 2 s_nbr."""
    x_nbr, s_nbr, _ = fields
    return -2.0 * x_nbr - 2.0 * s_nbr


def _stack(fields: np.ndarray, dtype) -> np.ndarray:
    """splu's (5, n_time - 1, n_points) coefficient stack in dtype: centre, x and s neighbours, then
    -q on the diagonal (+1, +1) and (-1, -1) and q on the anti-diagonal (+1, -1) and (-1, +1)."""
    x_nbr, s_nbr, q = fields
    return np.stack([_centre(fields), x_nbr, s_nbr, -q, q], dtype=dtype)


def _jacobian_times(fields: np.ndarray, s: np.ndarray) -> np.ndarray:
    """J s in float64 for the nine-point Jacobian of the fields (x_nbr, s_nbr, q), s raveled like them.

    The Dirichlet rows beyond the first and last interior row are zero, x is periodic.
    """
    x_nbr, s_nbr, q = fields
    g = _ghosted(s.reshape(x_nbr.shape))
    return (
        _centre(fields) * g[1:-1, 1:-1]
        + x_nbr * (g[1:-1, 2:] + g[1:-1, :-2])
        + s_nbr * (g[2:, 1:-1] + g[:-2, 1:-1])
        - q * (g[2:, 2:] + g[:-2, :-2])  # the diagonal's coefficient is -q
        + q * (g[2:, :-2] + g[:-2, 2:])
    ).reshape(-1)


def _step(solve, r: np.ndarray) -> np.ndarray:
    """The step s with J s = -r of a linear solve of J: -solve(r), negated in place.  Every solve
    here, the LU's and the two-grid cycle, is odd in its right-hand side bit for bit, so -r is
    never formed."""
    s = solve(r)
    return np.negative(s, out=s)


def _checked(fields: np.ndarray, r: np.ndarray, build):
    """(solve, s): the solve build() returns, J the Jacobian of the float64 fields, and its step
    s = _step(solve, r), with J s = -r.  None where building or solving overflows or meets a
    singular pivot block, or where s leaves more than CHORD_CONTRACTION of r as float64 linear
    residual (sup norms), the terms on which damped_newton keeps a chord step; a rejected solve is
    dropped here."""
    try:
        with np.errstate(over="raise"):  # an overflow fails the solve as a singular block does
            solve = build()
            s = _step(solve, r)
    except (FloatingPointError, np.linalg.LinAlgError):
        return None
    if np.max(np.abs(r + _jacobian_times(fields, s))) <= CHORD_CONTRACTION * np.max(np.abs(r)):
        return solve, s
    return None


class _PeriodicFactor:
    """Factor of periodic symmetric tridiagonal systems T_k x = r_k, batched.

    Row k of diag (batch, n) is the diagonal of T_k and e its constant
    off-diagonal, which the corners T_k[0, n-1] = T_k[n-1, 0] repeat.  The
    leading (n-1)-blocks are reduced once by cyclic reduction: each level
    eliminates the unknowns 0, 2, 4, ... of the system the level before
    left, which leaves a tridiagonal system of half the size on the odd ones
    (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 1970), with n - 1 padded
    by decoupled unit rows to 2^l - 1.  The corner column is reduced in the
    same loop, with the eliminators each level forms, and substituted back;
    the last unknown's scalar Schur complement is then formed, so solve(r)
    only substitutes.  low is, per system, the smallest of the reduction's
    pivots (the diagonals of the eliminated unknowns, level by level) and
    the Schur complement: T_k is positive definite iff it is positive.  Each
    level keeps its inverted pivots and its couplings only (the first
    level's couplings, the same in every system, as one column); a solve
    forms the eliminators (coupling times inverted pivot) again, in the
    operations the reduction used, since storing them as well would add two
    batch-wide arrays per level.  Every element of a solve takes the
    operations of a one-pass elimination with the right-hand side in the
    same order, so the solution does not depend on what else the factor
    solved.
    """

    def __init__(self, diag: np.ndarray, e: float):
        batch, n = diag.shape
        self.m, self.size, self.e = n - 1, 1, e
        while self.size < self.m:
            self.size = 2 * self.size + 1
        dd = np.ones((self.size, batch))
        dd[: self.m] = diag[:, :-1].T
        ee = np.zeros((self.size - 1, 1))  # the first level's couplings are the same in every system
        ee[: self.m - 1] = e
        b = np.zeros((self.size, batch))  # the corner column's first n - 1 rows, reduced alongside
        b[[0, self.m - 1]] = e
        self.levels, kept, low = [], [], np.full(batch, np.inf)
        while len(dd) > 1:
            piv = dd[::2]
            low = np.minimum(low, piv.min(axis=0))
            inv = 1.0 / piv
            self.levels.append((inv, ee))
            kept.append(b)
            lo, hi = ee[::2], ee[1::2]  # the couplings of each kept unknown to its two neighbours
            alpha, beta = lo * inv[:-1], hi * inv[1:]
            dd = dd[1::2] - alpha * lo - beta * hi
            b = b[1::2] - alpha * b[:-1:2] - beta * b[2::2]
            ee = -beta[:-1] * ee[2::2]
        self.top = dd
        self.corner = self._substitute(b, kept)  # y2: T's (n-1)-block times y2 is the corner column
        self.schur = diag[:, -1] - e * (self.corner[:, 0] + self.corner[:, -1])
        self.low = np.minimum(np.minimum(low, dd[0]), self.schur)

    def _block_solve(self, r: np.ndarray) -> np.ndarray:
        """The (n-1)-blocks solved for the first n - 1 rows of r (n, batch); returns (batch, n - 1)."""
        b = np.zeros((self.size, r.shape[1]))
        b[: self.m] = r[:-1]
        kept = []
        for inv, ee in self.levels:
            kept.append(b)
            b = b[1::2] - (ee[::2] * inv[:-1]) * b[:-1:2] - (ee[1::2] * inv[1:]) * b[2::2]
        return self._substitute(b, kept)

    def _substitute(self, b: np.ndarray, kept: list) -> np.ndarray:
        """Rows (batch, n - 1) of the block solution, from the fully reduced right-hand side b and
        the right-hand side each level started from (kept)."""
        x = b / self.top
        for (inv, ee), b in zip(reversed(self.levels), reversed(kept)):  # back substitution, coarse to fine
            full = np.empty((2 * len(x) + 1, x.shape[1]))
            full[1::2] = x
            elim = b[::2].copy()
            elim[1:] -= ee[1::2] * x
            elim[:-1] -= ee[::2] * x
            full[::2] = elim * inv
            x = full
        return x[: self.m].T

    def solve(self, r: np.ndarray) -> np.ndarray:
        """x with T_k x[k] = r[k] for every k; r and x are (batch, n)."""
        y = self._block_solve(r.T)
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero Schur complement shows in low
            last = (r[:, -1:] - self.e * (y[:, :1] + y[:, -1:])) / self.schur[:, None]
        return np.hstack([y - last * self.corner, last])


def _two_grid(fields: np.ndarray, coarse):
    """One two-grid cycle for J s = b from s = 0, as a function of b; s and b are raveled like fields.

    coarse solves the Jacobian on every second time row (_coarse_solve).
    A cycle is a zebra x-line Gauss-Seidel sweep (the lines of the odd time
    rows, then those of the even ones), full weighting in s of the
    residual onto the even rows, the coarse solve there, linear
    prolongation in s of that correction, and a second zebra sweep.  A line
    row divided by -Phi_ss/h^2, its coupling to both x-neighbours, is
    symmetric periodic tridiagonal with off-diagonal -1 and diagonal
    2 + 2 h^2 (w + Phi_xx) / (ds^2 Phi_ss), which is above 2 in the cone.
    Both line sets are factored here, once, and every sweep of every cycle
    only substitutes.
    """
    n_int, n = fields.shape[1:]
    x_nbr, s_nbr, q = fields
    lines = -_centre(fields) / x_nbr
    odd, even = slice(0, None, 2), slice(1, None, 2)  # interior rows at s = ds, 3 ds, ... and 2 ds, 4 ds, ...
    zebra = [(rows, _PeriodicFactor(lines[rows], -1.0)) for rows in (odd, even)]

    def product(s, rows, whole):
        """J s on the lines rows; without their own line terms unless whole."""
        g = _ghosted(s)
        up, down = g[2:][rows], g[:-2][rows]
        out = s_nbr[rows] * (up[:, 1:-1] + down[:, 1:-1])
        q_rows = q[rows]
        out += q_rows * (up[:, :-2] + down[:, 2:]) - q_rows * (up[:, 2:] + down[:, :-2])  # anti-diagonal - diagonal
        if whole:
            mid = g[1:-1][rows]
            out += _centre(fields[:, rows]) * mid[:, 1:-1] + x_nbr[rows] * (mid[:, 2:] + mid[:, :-2])
        return out

    def sweep(s, b):  # each line set solved exactly, the rows next to it held
        for rows, factor in zebra:
            s[rows] = factor.solve((product(s, rows, False) - b[rows]) / x_nbr[rows])

    def cycle(b: np.ndarray) -> np.ndarray:
        b = b.reshape(n_int, n)
        s = np.zeros((n_int, n))
        sweep(s, b)
        r = b[odd] - product(s, odd, True)  # on the even lines, just relaxed, the residual is round-off
        e = np.zeros((n_int // 2 + 2, n))  # the correction on the even rows, s = 0 and s = 1 included
        e[1:-1] = coarse(0.25 * (r[:-1] + r[1:])).reshape(-1, n)
        s[even] += e[1:-1]
        s[odd] += 0.5 * (e[:-1] + e[1:])
        sweep(s, b)
        return s.reshape(-1)

    return cycle


#: two-grid cycles per coarse solve on a level above the factored one, so that two make a W-cycle.
#: A level's cycle contracts at up to about 0.5 near a degenerate endpoint, and the level above
#: sees that as the error of its coarse solve.  At density amplitude 0.9, with one cycle all 4
#: n_time-64 rungs fell back to their fine factor; with two, 3 of 4 do, and three match the 2 of
#: 4 of a factored coarse level at half as many cycles again on every step.
COARSE_CYCLES = 2


def _coarse_solve(bg: Background, p: np.ndarray):
    """The coarse solve of the two-grid cycle one level finer: J e = r for the Jacobian at the path
    values p, as a function of r.  Up to n_time 16 it is the float32 factor's solve; above, it is
    COARSE_CYCLES two-grid cycles of that Jacobian, each on the coarse solve at every second row of
    p, so only the first level at or below n_time 16 is factored."""
    if len(p) - 1 <= 16:
        return splu(_stack(_jacobian(bg, p), np.float32)).solve
    fields = _jacobian(bg, p)
    cycle = _two_grid(fields, _coarse_solve(bg, p[::2]))

    def solve(r: np.ndarray) -> np.ndarray:
        r = r.reshape(-1)
        s = cycle(r)
        for _ in range(COARSE_CYCLES - 1):
            s += cycle(r - _jacobian_times(fields, s))
        return s

    return solve


def _jacobian(bg: Background, p: np.ndarray) -> np.ndarray:
    """The three fields (x_nbr, s_nbr, q) of the Newton Jacobian at the path values p, (3, n_time - 1,
    n_points): the coefficients of the x and s neighbours, and q, whose negative weighs the diagonal
    neighbours (+1, +1) and (-1, -1) and which weighs the anti-diagonal ones.  The centre coefficient
    is -2 x_nbr - 2 s_nbr (_centre); splu takes all five (_stack)."""
    h = bg.grid.spacing
    ds = 1.0 / (p.shape[0] - 1)
    fields = np.empty((3, p.shape[0] - 2, p.shape[1]))
    x_nbr, s_nbr, q = fields
    _stencil_parts(bg, _periodic_pad(p), out=(s_nbr, x_nbr, q))  # w + Phi_xx, Phi_ss and Phi_xs, scaled in place
    x_nbr *= 1.0 / (h * h)
    s_nbr *= 1.0 / (ds * ds)
    q /= 2.0 * h * ds
    return fields


def _stencil_parts(bg: Background, g: np.ndarray, out=None):
    """w + Phi_xx, Phi_ss and Phi_xs on the interior rows of a path, as Newton assembles them, from
    its values g with a periodic ghost column on each side (_periodic_pad).

    Formed in the (3, n_time - 1, n_points) array it returns, or in the three arrays of out; each
    second difference takes its two first differences in place, one in a slot not yet filled.
    """
    p = g[:, 1:-1]
    h = bg.grid.spacing
    ds = 1.0 / (p.shape[0] - 1)
    parts = np.empty((3, p.shape[0] - 2, p.shape[1])) if out is None else out
    m_xx, phi_ss, phi_xs = parts
    np.subtract(g[1:-1, 2:], g[1:-1, 1:-1], out=m_xx)
    m_xx -= np.subtract(g[1:-1, 1:-1], g[1:-1, :-2], out=phi_ss)
    m_xx *= 1.0 / (h * h)
    m_xx += bg.w[None, :]
    np.subtract(p[2:, :], p[1:-1, :], out=phi_ss)
    phi_ss -= np.subtract(p[1:-1, :], p[:-2, :], out=phi_xs)
    phi_ss *= 1.0 / (ds * ds)
    np.subtract(g[2:, 2:], g[2:, :-2], out=phi_xs)
    phi_xs -= g[:-2, 2:]
    phi_xs += g[:-2, :-2]
    phi_xs /= 4.0 * h * ds
    return parts


def _in_cone(parts) -> bool:
    """The cone the solver keeps its iterates in: w + Phi_xx > 0 and Phi_ss > 0 on every interior node."""
    m_xx, phi_ss, _ = parts
    return float(np.min(m_xx)) > 0.0 and float(np.min(phi_ss)) > 0.0


def solve_eps_geodesic(
    problem: EpsGeodesicProblem,
    tol: float = 1e-10,
    path0: np.ndarray | None = None,
) -> EpsGeodesic:
    """Damped Newton over all interior rows jointly, from the affine guess or path0.

    path0 holds the n_time + 1 rows of a start, or the n_time / 2 + 1 rows
    of a coarser rung: that one is prolonged in s (prolong_in_s) and every
    Newton step takes the two-grid cycle (_two_grid) as its step and as the
    solve of its chord steps.  A cycle that fails its tenfold test gives
    way to the fine factor; the record counts both kinds of step.
    """
    bg = problem.bg
    grid = bg.grid
    n = grid.n_points
    nt = problem.n_time
    n_int = nt - 1
    w = bg.w
    e0, e1 = problem.endpoint_0, problem.endpoint_1
    refined = path0 is not None and 2 * (len(path0) - 1) == nt

    def full_path(x):
        return np.vstack([e0[None, :], x.reshape(n_int, n), e1[None, :]])

    def padded_path(x):  # _periodic_pad(full_path(x)), built in one allocation
        g = np.empty((nt + 1, n + 2))
        g[0, 1:-1], g[1:-1, 1:-1], g[-1, 1:-1] = e0, x.reshape(n_int, n), e1
        g[:, 0], g[:, -1] = g[:, -2], g[:, 1]
        return g

    counts = {"fallbacks": 0, "two_grid": 0, "two_grid_fallbacks": 0}

    def evaluate(x, rows):  # x is a batch of one row, shape (1, n_int * n)
        parts = _stencil_parts(bg, padded_path(x))
        m_xx, phi_ss, phi_xs = parts
        r = m_xx * phi_ss
        r -= np.square(phi_xs, out=phi_xs)
        r -= problem.epsilon * w[None, :]
        return r.reshape(1, -1), np.array([_in_cone(parts)])

    def newton_step(x, r, rows):
        p = full_path(x)
        fields = _jacobian(bg, p)
        # np.linalg.inv passes NaN and inf through; the centre, formed from finite fields, may overflow
        if not (np.isfinite(fields).all() and np.isfinite(_centre(fields)).all()):
            raise SingularSystem("space-time Jacobian is not finite")
        r = r[0]
        step = None
        if refined:
            step = _checked(fields, r, lambda: _two_grid(fields, _coarse_solve(bg, p[::2])))
            counts["two_grid" if step else "two_grid_fallbacks"] += 1
        try:
            step = step or _checked(fields, r, lambda: splu(_stack(fields, np.float32)).solve)
            if step is None:
                counts["fallbacks"] += 1
                solve = splu(_stack(fields, float)).solve
                step = solve, _step(solve, r)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise SingularSystem(f"space-time Jacobian factorization failed: {exc}") from exc
        solve, s = step  # the driver's chord steps reuse this solve at later iterates
        return s[None, :], lambda r, rows: _step(solve, r[0])[None, :]

    def first_iterate():  # damped_newton copies it and drops it: no prolonged start is held through the solve
        start = initial_guess(problem) if path0 is None else np.asarray(path0, dtype=float)
        return (prolong_in_s(start) if refined else start)[1:-1, :].reshape(1, -1)

    try:
        x, rec = damped_newton(first_iterate(), evaluate, newton_step, tol=tol, max_iter=60)
        for name, count in counts.items():
            setattr(rec, name, count)
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
    bg: Background, endpoint_0, endpoint_1, epsilons, n_times, tol: float = 1e-10, solved=()
) -> list:
    """Solve the eps-geodesic at every eps of the ladder, at each n_time of n_times in turn.

    On the first level the first rung starts Newton from the affine guess,
    the second from the first rung, and every later one from the secant
    extrapolation in eps of the two rungs before it (the predictor of
    Allgower & Georg, Numerical Continuation Methods, 1990: the rungs are
    close to linear in eps), or from the rung before it where that start
    leaves the cone.  Each later n_time must double the one before; its
    rung k is solve_eps_geodesic's refinement of rung k one level coarser,
    passed as path0: prolonged in s, it needs about one Newton step (mesh
    independence), taken from a two-grid cycle.  The leading rungs of level
    j already in solved[j] (same endpoints, levels and tol) are kept.
    Returns one list of EpsGeodesic per level.
    """
    if any(fine != 2 * coarse for coarse, fine in zip(n_times, n_times[1:])):
        raise ValueError(f"each n_time must double the one before, got {n_times}")
    levels = []
    for j, n_time in enumerate(n_times):
        rungs = list(solved[j]) if j < len(solved) else []
        for k in range(len(rungs), len(epsilons)):
            problem = EpsGeodesicProblem(bg, endpoint_0, endpoint_1, float(epsilons[k]), n_time)
            if levels:
                path0 = levels[-1][k].path.values  # prolonged and refined by two-grid steps
            elif len(rungs) >= 2:
                path0 = _secant_start(bg, rungs[-2], rungs[-1], problem.epsilon)
            else:
                path0 = rungs[-1].path.values if rungs else None
            rungs.append(solve_eps_geodesic(problem, tol=tol, path0=path0))
        levels.append(rungs)
    return levels


def _secant_start(bg: Background, a: EpsGeodesic, b: EpsGeodesic, epsilon: float) -> np.ndarray:
    """The secant extrapolation in eps of rungs a and b to epsilon, or b's path where it leaves the cone."""
    theta = (epsilon - b.epsilon) / (b.epsilon - a.epsilon)
    guess = b.path.values + theta * (b.path.values - a.path.values)
    return guess if _in_cone(_stencil_parts(bg, _periodic_pad(guess))) else b.path.values


def rung_increments(rungs) -> list:
    """Sup-norm Cauchy increments between consecutive rungs."""
    return [float(np.max(np.abs(b.path.values - a.path.values))) for a, b in zip(rungs, rungs[1:])]


def weak_limit(bg: Background, rungs, increments=None) -> PathField:
    """The last rung's path, once the continuation has shown its limit.

    The Cauchy increments must decrease, and the last path must satisfy the
    degenerate-determinant bound |det| <= eps_last max w.  increments are
    rung_increments(rungs) unless given: a caller that took them as its
    rungs arrived passes them, and of the rungs only the last.
    """
    increments = rung_increments(rungs) if increments is None else increments
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


def weak_geodesic(bg: Background, endpoint_0, endpoint_1, eps_sequence, n_time: int) -> PathField:
    """Warm-started continuation to the smallest eps of the sequence.

    The sequence needs at least 3 entries; the returned path is the
    eps-geodesic at eps_sequence[-1], checked by weak_limit.
    """
    eps_sequence = _decreasing_ladder(eps_sequence, "eps_sequence")
    if len(eps_sequence) < 3:
        raise ValueError("eps_sequence needs at least 3 entries")
    return weak_limit(bg, eps_continuation(bg, endpoint_0, endpoint_1, eps_sequence, (n_time,))[0])


# ---------------------------------------------------------------------------
# convex-duality oracle


def _conjugate(xs: np.ndarray, fs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Discrete Legendre transform max_j (y xs[j] - fs[j]) for convex samples.

    The maximizer index is monotone in y and equals the number of chord
    slopes below y, so a searchsorted over the slope sequence evaluates the
    whole transform in sorted order.  The samples must be convex: on other
    data the selection is wrong by construction.
    """
    slopes = np.diff(fs) / np.diff(xs)
    idx = np.searchsorted(slopes, ys)
    return ys * xs[idx] - fs[idx]


def legendre_oracle(bg: Background, endpoint_0, endpoint_1, n_time: int) -> PathField:
    """Exact-solution surrogate: affine interpolation of convex conjugates, taken at their breakpoints."""
    grid = bg.grid
    xs = (np.arange(3 * grid.n_points) - grid.n_points) * grid.spacing
    convex = [0.5 * xs * xs + np.tile(bg.psi + phi, 3) for phi in _admissible_endpoints(bg, endpoint_0, endpoint_1)]
    ys = np.sort(np.concatenate([np.diff(p) / np.diff(xs) for p in convex]))
    ys = ys[np.concatenate(([True], ys[1:] != ys[:-1]))]  # np.unique's values, without its numpy.ma import
    duals = [_conjugate(xs, p, ys) for p in convex]
    s = (np.arange(n_time + 1) / n_time)[:, None]
    rows = [_conjugate(ys, pstar, grid.nodes) for pstar in (1.0 - s) * duals[0] + s * duals[1]]
    return PathField(grid, np.array(rows) - (0.5 * grid.nodes * grid.nodes + bg.psi))
