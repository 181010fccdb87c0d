"""Space-time solver, continuation limit, and the duality oracle."""

import warnings
import weakref

import numpy as np
import pytest

from kgeolab import (
    EpsGeodesicProblem,
    PathField,
    SpatialGrid,
    FamilyMismatch,
    NegativeDensity,
    NoConvergence,
    NotASolution,
    PositivityLoss,
    SingularSystem,
    eps_continuation,
    eval_geodesic_residual,
    initial_guess,
    legendre_oracle,
    make_background,
    reduced_hessian,
    solve_eps_geodesic,
    weak_geodesic,
)
from kgeolab import geodesic
from kgeolab.geodesic import rung_increments, weak_limit
from kgeolab.model import _periodic_pad, fourier_field, metric_density

AMP = 0.05 / (2.0 * np.pi) ** 2


def _endpoints(grid):
    return np.zeros(grid.n_points), fourier_field(grid, [(1, AMP, 0.0)])


# ---------------------------------------------------------------------------
# problem validation


def test_problem_validation(small_bg):
    e0, e1 = _endpoints(small_bg.grid)
    EpsGeodesicProblem(small_bg, e0, e1, 0.1, 8)
    with pytest.raises(ValueError, match="epsilon"):
        EpsGeodesicProblem(small_bg, e0, e1, 0.0, 8)
    with pytest.raises(ValueError, match="n_time"):
        EpsGeodesicProblem(small_bg, e0, e1, 0.1, 4)
    with pytest.raises(NegativeDensity):
        bad = np.cos(2.0 * np.pi * small_bg.grid.nodes)
        EpsGeodesicProblem(small_bg, e0, bad, 0.1, 8)


def test_initial_guess_endpoint_rows(small_bg):
    e0, e1 = _endpoints(small_bg.grid)
    guess = initial_guess(EpsGeodesicProblem(small_bg, e0, e1, 0.1, 8))
    assert np.array_equal(guess[0], e0) and np.array_equal(guess[-1], e1)
    # interior correction is negative: s^2 - s < 0 on (0, 1)
    mid = guess[4] - 0.5 * (e0 + e1)
    assert np.max(mid) < 0.0


# ---------------------------------------------------------------------------
# single solves


def test_solve_small(small_bg):
    e0, e1 = _endpoints(small_bg.grid)
    sol = solve_eps_geodesic(EpsGeodesicProblem(small_bg, e0, e1, 1e-2, 8))
    assert sol.residual_sup <= 1e-10
    assert sol.positivity_margin > 0.0
    assert np.array_equal(sol.path.values[0], e0) and np.array_equal(sol.path.values[-1], e1)


def _nine_point_entries(coefs):
    """(rows, cols, values) of the space-time Jacobian of a (5, n_int, n) coefficient stack, in
    natural order, written out stencil entry by stencil entry."""
    _, n_int, n = coefs.shape
    i, j = np.indices((n_int, n))
    offsets = [(0, 0, 0), (0, 1, 1), (0, -1, 1), (1, 0, 2), (-1, 0, 2), (1, 1, 3), (-1, -1, 3), (1, -1, 4), (-1, 1, 4)]
    rows, cols, vals = [], [], []
    for di, dj, k in offsets:
        keep = (i + di >= 0) & (i + di < n_int)  # the Dirichlet rows are not unknowns
        rows.append((i * n + j)[keep])
        cols.append(((i + di) * n + (j + dj) % n)[keep])
        vals.append(coefs[k][keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _nine_point_csc(coefs):
    sparse = pytest.importorskip("scipy.sparse")
    size = coefs[0].size
    rows, cols, vals = _nine_point_entries(coefs)
    return sparse.csc_matrix((vals, (rows, cols)), shape=(size, size))


def _random_fields(n, n_int, seed):
    """The Jacobian fields (x_nbr, s_nbr, q) newton_step builds, at random cone values of w + Phi_xx,
    Phi_ss and Phi_xs."""
    rng = np.random.default_rng(seed)
    h, ds = 1.0 / n, 1.0 / (n_int + 1)
    m_xx, phi_ss = rng.uniform(0.5, 1.5, (2, n_int, n))
    q = rng.uniform(-0.3, 0.3, (n_int, n)) / (2.0 * h * ds)
    return np.stack([phi_ss / h**2, m_xx / ds**2, q])


def _five_fields(fields):
    """The (5, n_int, n) stack splu factors, written out from the fields (x_nbr, s_nbr, q): centre,
    x and s neighbours, diagonal and anti-diagonal."""
    x_nbr, s_nbr, q = fields
    return np.stack([-2.0 * x_nbr - 2.0 * s_nbr, x_nbr, s_nbr, -q, q])


def _random_coefs(n, n_int, seed):
    """The coefficient stack of _random_fields."""
    return _five_fields(_random_fields(n, n_int, seed))


def test_newton_jacobian_matches_finite_differences(monkeypatch):
    """The matrix of the linear system the Newton step solves is the derivative of the interior residual.

    Checked entry by entry against central differences of the independent
    certificate residual, on 8 points so that the periodic wrap and the rows
    next to both Dirichlet rows make up most of the matrix.  The residual is
    quadratic in the unknowns, so central differences are exact up to
    round-off.
    """
    grid = SpatialGrid(8)
    bg = make_background(grid, psi=fourier_field(grid, [(1, 0.002, 0.001)]))
    e0 = fourier_field(grid, [(1, 0.001, 0.002)])
    e1 = fourier_field(grid, [(1, -0.002, 0.0), (2, 0.0005, -0.001)])
    eps, n_time = 1e-2, 8
    problem = EpsGeodesicProblem(bg, e0, e1, eps, n_time)
    start = initial_guess(problem)
    start[1:-1] += 1e-6 * np.random.default_rng(3).standard_normal((n_time - 1, 8))

    factored = []
    real = geodesic._checked

    def spy(fields, r, build):
        factored.append(fields.copy())
        return real(fields, r, build)

    monkeypatch.setattr(geodesic, "_checked", spy)
    solve_eps_geodesic(problem, path0=start)
    # the first Newton step linearizes at the start
    rows, cols, vals = _nine_point_entries(_five_fields(factored[0]))
    jac = np.zeros((7 * 8, 7 * 8))
    jac[rows, cols] = vals

    def residual(x):
        path = np.vstack([e0, x.reshape(n_time - 1, 8), e1])
        return eval_geodesic_residual(bg, PathField(grid, path), eps).ravel()

    x0 = start[1:-1].ravel()
    step = 1e-4
    fd = np.empty_like(jac)
    for k in range(x0.size):
        dx = np.zeros_like(x0)
        dx[k] = step
        fd[:, k] = (residual(x0 + dx) - residual(x0 - dx)) / (2.0 * step)
    assert np.max(np.abs(jac - fd)) <= 1e-9 * np.max(np.abs(jac))
    # the pattern is the nine-point stencil: wrap entries present, nothing else
    assert jac[0, 7] != 0.0 and jac[0, 8 + 7] != 0.0 and jac[6 * 8, 5 * 8 + 7] != 0.0
    assert np.array_equal(jac != 0.0, fd != 0.0)
    assert np.count_nonzero(jac) == 9 * 8 * 7 - 2 * 3 * 8


@pytest.mark.parametrize("n", [8, 64, 256, 512])
@pytest.mark.parametrize("n_time", [8, 16, 32, 64])
def test_dissection_order_is_a_permutation(n, n_time):
    """order numbers every unknown once, the columns x = 0 and x = n/2 that open the ring come
    last, and the sweeps pivot consecutive slices of it.  Every ring and coupling position of a
    sweep lies past its own slice, which the forward sweep relies on when it writes in place."""
    groups, sweeps, order = geodesic._dissection(n_time - 1, n)
    assert order.dtype == np.int32 and np.array_equal(np.sort(order), np.arange((n_time - 1) * n))
    root = order[-2 * (n_time - 1):].reshape(2, n_time - 1)
    assert np.array_equal(root, [np.arange(n_time - 1) * n, np.arange(n_time - 1) * n + n // 2])
    assert groups[-1].shape == (1, root.size, root.size) and sweeps[-1].own == slice(order.size - root.size, order.size)
    assert [sweep.own.start for sweep in sweeps] == [0] + [sweep.own.stop for sweep in sweeps[:-1]]
    for sweep in sweeps:
        if sweep.ring is None:  # a leaf sweep: its pivots are entries of its own slice, its ring unknowns past it
            cols, ring = sweep.entries
            assert 0 <= cols.min() and cols.max() < sweep.own.stop - sweep.own.start
        else:
            ring = sweep.ring
        assert ring.size == 0 or ring.min() >= sweep.own.stop


def _grid_fronts(n_int, n):
    """Each group's pivots and ring as grid unknowns, one row per front, read back from the
    elimination positions the symbolic phase stores: a group pivots its rows of its sweep's
    slice, a separator's ring is its rows of its sweep's ring, and a leaf's ring is read off its
    F_RP entries, which pair up with its F_PR entries.  Each sweep's slice and entry lists hold
    exactly its groups."""
    groups, sweeps, order = geodesic._dissection(n_int, n)
    fronts_seen, pivots_seen, entries_seen, out = [0] * len(sweeps), [0] * len(sweeps), [0] * len(sweeps), []
    for fronts in groups:
        batch, p, f = fronts.shape
        k, first = fronts.sweep, fronts_seen[fronts.sweep]
        fronts_seen[k] += batch
        pivots_seen[k] += batch * p
        at = (first + np.arange(batch))[:, None] * p
        pivots = sweeps[k].own.start + at + np.arange(p)
        if sweeps[k].ring is not None:
            ring = sweeps[k].ring[first:first + batch]
        else:
            row, col = np.divmod(fronts.pos[fronts.rp], f)
            assert np.array_equal(np.divmod(fronts.pos[fronts.pr], f), (col, row))
            mine = slice(entries_seen[k], entries_seen[k] + row.size * batch)
            entries_seen[k] = mine.stop
            cols, positions = (part[mine].reshape(row.size, batch).T for part in sweeps[k].entries)
            assert np.array_equal(cols, at + col)
            ring = np.full((batch, f - p), -1)
            ring[:, row - p] = positions
            assert ring.min() >= 0
        out.append((order[pivots], order[ring]))
    assert pivots_seen == [sweep.own.stop - sweep.own.start for sweep in sweeps]
    assert entries_seen == [sweep.entries[0].size if sweep.entries else 0 for sweep in sweeps]
    return out


def _recursive_fronts(n_int, n):
    """Every front as (pivots, ring), children first, from one recursive call per box: a box of
    at most LEAF_NODES nodes pivots them all, a larger one its middle column or row across its
    longer side, and its ring is every stencil neighbour outside it."""
    fronts = []

    def ring(r0, r1, c0, c1):
        return {
            r * n + c % n
            for r in range(max(r0 - 1, 0), min(r1 + 1, n_int))
            for c in range(c0 - 1, c1 + 1)
            if not (r0 <= r < r1 and c0 <= c < c1)
        }

    def box(r0, r1, c0, c1):
        if (r1 - r0) * (c1 - c0) <= geodesic.LEAF_NODES:
            pivots = {r * n + c for r in range(r0, r1) for c in range(c0, c1)}
        elif c1 - c0 >= r1 - r0:
            mid = (c0 + c1) // 2
            box(r0, r1, c0, mid)
            box(r0, r1, mid + 1, c1)
            pivots = {r * n + mid for r in range(r0, r1)}
        else:
            mid = (r0 + r1) // 2
            box(r0, mid, c0, c1)
            box(mid + 1, r1, c0, c1)
            pivots = {mid * n + c for c in range(c0, c1)}
        fronts.append((frozenset(pivots), frozenset(ring(r0, r1, c0, c1))))

    half = n // 2
    box(0, n_int, 1, half)
    box(0, n_int, half + 1, n)
    fronts.append((frozenset(r * n + c for r in range(n_int) for c in (0, half)), frozenset()))
    return fronts


@pytest.mark.parametrize("n, n_time", [(256, 64), (256, 32), (256, 16), (64, 16), (128, 32), (512, 32), (8, 8)])
def test_dissection_order_equals_the_recursive_reference(n, n_time):
    """Fronts batched by box signature, mapped through order back to the grid, are the fronts of
    recursing box by box."""
    batched = [
        (frozenset(p), frozenset(r))
        for pivots, ring in _grid_fronts(n_time - 1, n)
        for p, r in zip(pivots.tolist(), ring.tolist())
    ]
    reference = _recursive_fronts(n_time - 1, n)
    assert len(batched) == len(reference) and set(batched) == set(reference)


@pytest.mark.parametrize("n, n_int", [(8, 7), (30, 9), (256, 63), (512, 31)])
def test_child_ring_lies_in_parent_front(n, n_int):
    """Every child's Schur update lands inside its parent's front: the front positions a child
    slot names hold exactly the child's ring, the child is factored first, and each update
    is released once, after its last parent."""
    groups = geodesic._dissection(n_int, n)[0]
    fronts_in_grid = _grid_fronts(n_int, n)
    covered, last_user, released = {}, {}, {}
    for g, fronts in enumerate(groups):
        nodes = np.concatenate(fronts_in_grid[g], axis=1)
        for child, batch, slot in fronts.kids:
            assert child < g
            assert np.array_equal(nodes[:, slot], fronts_in_grid[child][1][batch])
            covered.setdefault(child, []).extend(range(groups[child].shape[0])[batch])
            last_user[child] = g
        released.update({child: g for child in fronts.release})
    assert released == last_user
    assert sorted(covered) == [g for g, fronts in enumerate(groups) if fronts.shape[2] > fronts.shape[1]]
    assert all(sorted(rows) == list(range(groups[child].shape[0])) for child, rows in covered.items())


def _index_arrays(item):
    """Every array in a nest of tuples, as _dissection returns them."""
    if isinstance(item, np.ndarray):
        yield item
    elif isinstance(item, tuple):
        for sub in item:
            yield from _index_arrays(sub)


#: bytes the symbolic phase of the 256 x 63 Jacobian of study owns: 1,045,160 measured
#: (1,361,064 with pivot arrays and a leaf's F_RP and F_PR positions stored apart, 2,548,000
#: when pivots and rings were int64 and stored twice)
PHASE_BYTES_256_63 = 1_060_000


@pytest.mark.parametrize("n, n_int", [(8, 7), (30, 9), (256, 63), (512, 31)])
def test_symbolic_phase_stores_each_index_once_in_int32(n, n_int):
    """Every index array of the symbolic phase is int32, none is a view of a buffer the phase
    does not hold, and on 256 x 63 the arrays that own their data stay in bound."""
    arrays = list(_index_arrays(geodesic._dissection(n_int, n)))
    assert all(a.dtype == np.int32 for a in arrays)
    owners = [a for a in arrays if a.base is None]
    assert all(a.base is None or any(a.base is o for o in owners) for a in arrays)  # no hidden buffer
    if (n, n_int) == (256, 63):
        assert sum(a.nbytes for a in owners) <= PHASE_BYTES_256_63


def test_one_symbolic_phase_is_cached():
    """Factoring on a second grid replaces the first grid's symbolic phase: a ladder factors one
    grid at a time, so no grid's index arrays outlive it, and a repeat on one grid reuses it."""
    geodesic._dissection.cache_clear()
    for n, n_int in ((64, 15), (32, 7), (32, 7)):
        geodesic.splu(_random_coefs(n, n_int, seed=n))
    info = geodesic._dissection.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 2, 1)
    assert geodesic._dissection(7, 32) is geodesic._dissection(7, 32)


def _float32_step(fields, b):
    """The float32 factor's step for J s = b as newton_step judges it, at the residual -b, read-only
    where b is: (solve, s), or None where it is not kept."""
    return geodesic._checked(fields, _residual(b), lambda: geodesic.splu(geodesic._stack(fields, np.float32)).solve)


def _float64_step(fields, b):
    """The float64 factor's step for J s = b, judged as _float32_step judges its own."""
    return geodesic._checked(fields, _residual(b), lambda: geodesic.splu(geodesic._stack(fields, float)).solve)


def _residual(b):
    """-b, the residual whose Newton step solves J s = b, read-only where b is."""
    r = -b
    r.setflags(write=b.flags.writeable)
    return r


@pytest.mark.parametrize("n, n_int", [(8, 7), (30, 9), (64, 15), (256, 63), (512, 31)])
def test_nested_dissection_solve_matches_superlu(n, n_int):
    """The multifrontal LU of the float64 stack solves random nine-point Jacobians as SuperLU
    does, to 1e-12 relative, and the float32 factor's step is kept: its float64 linear residual
    is at most CHORD_CONTRACTION of the right-hand side."""
    linalg = pytest.importorskip("scipy.sparse.linalg")
    fields = _random_fields(n, n_int, seed=n * n_int)
    coefs = _five_fields(fields)
    rhs = np.random.default_rng(n).standard_normal(n * n_int)
    reference = linalg.splu(_nine_point_csc(coefs)).solve(rhs)
    x = geodesic.splu(coefs).solve(rhs)
    assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))
    solve, step = _float32_step(fields, rhs)
    assert solve.__self__.dtype == np.float32
    assert np.array_equal(step, solve(rhs))
    bound = geodesic.CHORD_CONTRACTION * np.max(np.abs(rhs))
    assert np.max(np.abs(rhs - geodesic._jacobian_times(fields, step))) <= bound


def _first_newton_system(monkeypatch, n, n_time):
    """The first Newton step of a curved 0.05-amplitude solve: the float64 coefficient stack of
    its linear system, the right-hand side and the step that came back."""
    grid = SpatialGrid(n)
    bg = make_background(grid, psi=fourier_field(grid, [(1, 0.002, 0.001)]))
    e0, e1 = _endpoints(grid)
    real = geodesic._checked
    seen = []

    def spy(fields, r, build):
        seen.append((fields.copy(), -r, real(fields, r, build)))
        return seen[-1][2]

    monkeypatch.setattr(geodesic, "_checked", spy)
    solve_eps_geodesic(EpsGeodesicProblem(bg, e0, e1, 1e-2, n_time))
    monkeypatch.undo()
    fields, rhs, (_, step) = seen[0]
    return _five_fields(fields), rhs, step


def test_dissection_fill_is_close_to_minimum_degree(monkeypatch):
    """On a 256 x 16 Jacobian the multifrontal factor stores fewer entries than SuperLU keeps
    with minimum degree on A^T + A."""
    linalg = pytest.importorskip("scipy.sparse.linalg")
    coefs, _, _ = _first_newton_system(monkeypatch, 256, 16)
    nd = geodesic.splu(coefs)
    mmd = linalg.splu(_nine_point_csc(coefs), permc_spec="MMD_AT_PLUS_A")
    assert nd.L.nnz + nd.U.nnz <= mmd.L.nnz + mmd.U.nnz


def test_newton_step_equals_minimum_degree_solve(monkeypatch):
    """The float64 factor of a Newton system solves it as SuperLU with minimum degree does, and
    the solve whose steps come from float32 factors ends where one on float64 factors ends,
    to round-off: the chord steps and the polish make up the float32 step's error."""
    linalg = pytest.importorskip("scipy.sparse.linalg")
    coefs, rhs, step = _first_newton_system(monkeypatch, 256, 16)
    reference = linalg.splu(_nine_point_csc(coefs), permc_spec="MMD_AT_PLUS_A").solve(rhs)
    assert np.max(np.abs(geodesic.splu(coefs).solve(rhs) - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert np.max(np.abs(step - reference)) <= 1e-3 * np.max(np.abs(reference))  # the float32 solve
    grid = SpatialGrid(256)
    bg = make_background(grid, psi=fourier_field(grid, [(1, 0.002, 0.001)]))
    problem = EpsGeodesicProblem(bg, *_endpoints(grid), 1e-2, 16)
    mixed = solve_eps_geodesic(problem)

    monkeypatch.setattr(geodesic, "_checked", lambda fields, r, build: None)  # every step falls back
    double = solve_eps_geodesic(problem)
    assert mixed.record.fallbacks == 0 and double.record.fallbacks == double.record.factorizations
    assert max(mixed.residual_sup, double.residual_sup) <= 1e-13
    assert np.max(np.abs(mixed.path.values - double.path.values)) <= 1e-15


# the five-field formulation the three Jacobian fields replaced, kept as the reference they must
# equal bit for bit: the stack (centre, x_nbr, s_nbr, diag, anti) and every routine that read it


def _stencil_parts_reference(bg, p):
    """w + Phi_xx, Phi_ss and Phi_xs from np.diff and whole-array differences."""
    h, ds = bg.grid.spacing, 1.0 / (p.shape[0] - 1)
    g = _periodic_pad(p)
    m_xx = bg.w[None, :] + np.diff(g[1:-1], n=2, axis=1) * (1.0 / (h * h))
    phi_ss = ((p[2:, :] - p[1:-1, :]) - (p[1:-1, :] - p[:-2, :])) * (1.0 / (ds * ds))
    phi_xs = (g[2:, 2:] - g[2:, :-2] - g[:-2, 2:] + g[:-2, :-2]) / (4.0 * h * ds)
    return m_xx, phi_ss, phi_xs


def _jacobian_reference(bg, p):
    h, ds = bg.grid.spacing, 1.0 / (p.shape[0] - 1)
    inv_h2, inv_ds2 = 1.0 / (h * h), 1.0 / (ds * ds)
    m_xx, phi_ss, phi_xs = _stencil_parts_reference(bg, p)
    q = phi_xs / (2.0 * h * ds)
    return np.stack([-2.0 * inv_h2 * phi_ss - 2.0 * inv_ds2 * m_xx, inv_h2 * phi_ss, inv_ds2 * m_xx, -q, q])


def _jacobian_times_reference(coefs, s):
    centre, x_nbr, s_nbr, diag, anti = coefs
    g = geodesic._ghosted(s.reshape(coefs.shape[1:]))
    return (
        centre * g[1:-1, 1:-1]
        + x_nbr * (g[1:-1, 2:] + g[1:-1, :-2])
        + s_nbr * (g[2:, 1:-1] + g[:-2, 1:-1])
        + diag * (g[2:, 2:] + g[:-2, :-2])
        + anti * (g[2:, :-2] + g[:-2, 2:])
    ).reshape(-1)


def _two_grid_reference(coefs, coarse):
    n_int, n = coefs.shape[1:]
    centre, x_nbr, s_nbr, diag, anti = coefs
    lines = -centre / x_nbr
    odd, even = slice(0, None, 2), slice(1, None, 2)
    zebra = [(rows, geodesic._PeriodicFactor(lines[rows], -1.0)) for rows in (odd, even)]

    def product(s, rows, whole):
        g = geodesic._ghosted(s)
        up, down = g[2:][rows], g[:-2][rows]
        out = s_nbr[rows] * (up[:, 1:-1] + down[:, 1:-1])
        out += diag[rows] * (up[:, 2:] + down[:, :-2]) + anti[rows] * (up[:, :-2] + down[:, 2:])
        if whole:
            mid = g[1:-1][rows]
            out += centre[rows] * mid[:, 1:-1] + x_nbr[rows] * (mid[:, 2:] + mid[:, :-2])
        return out

    def sweep(s, b):
        for rows, factor in zebra:
            s[rows] = factor.solve((product(s, rows, False) - b[rows]) / x_nbr[rows])

    def cycle(b):
        b = b.reshape(n_int, n)
        s = np.zeros((n_int, n))
        sweep(s, b)
        r = b[odd] - product(s, odd, True)
        e = np.zeros((n_int // 2 + 2, n))
        e[1:-1] = coarse(0.25 * (r[:-1] + r[1:])).reshape(-1, n)
        s[even] += e[1:-1]
        s[odd] += 0.5 * (e[:-1] + e[1:])
        sweep(s, b)
        return s.reshape(-1)

    return cycle


def _coarse_solve_reference(bg, p):
    if len(p) - 1 <= 16:
        return geodesic.splu(_jacobian_reference(bg, p).astype(np.float32)).solve
    coefs = _jacobian_reference(bg, p)
    cycle = _two_grid_reference(coefs, _coarse_solve_reference(bg, p[::2]))

    def solve(r):
        r = r.reshape(-1)
        s = cycle(r)
        for _ in range(geodesic.COARSE_CYCLES - 1):
            s += cycle(r - _jacobian_times_reference(coefs, s))
        return s

    return solve


def _random_cone_path(n_time, seed):
    """A curved 64-point background and a path in the cone: the (eps 0.1) affine guess plus noise."""
    grid = SpatialGrid(64)
    bg = make_background(grid, psi=fourier_field(grid, [(1, 0.002, 0.001)]))
    path = initial_guess(EpsGeodesicProblem(bg, *_endpoints(grid), 0.1, n_time))
    path[1:-1] += 1e-7 * np.random.default_rng(seed).standard_normal(path[1:-1].shape)
    assert geodesic._in_cone(geodesic._stencil_parts(bg, _periodic_pad(path)))
    return bg, path


@pytest.mark.parametrize("n_time", [16, 32, 64])
def test_three_jacobian_fields_act_as_the_five_field_stack_bit_for_bit(n_time):
    """On random cone paths, the fields (x_nbr, s_nbr, q) give splu the five-field stack in float64
    and in float32, J s, the two-grid cycle and the coarse solve (at n_time 64 the W-cycle over 32
    and 16) of the five-field formulation, to the last bit.  The cycle and the float32 LU solve are
    odd functions of their right-hand side, bit for bit, which the chord steps rely on."""
    bg, path = _random_cone_path(n_time, seed=n_time)
    fields = geodesic._jacobian(bg, path)
    coefs = _jacobian_reference(bg, path)
    assert fields.shape == (3, n_time - 1, 64)
    assert np.array_equal(geodesic._stack(fields, float), coefs)
    assert np.array_equal(geodesic._stack(fields, np.float32), coefs.astype(np.float32))
    coarse = geodesic._coarse_solve(bg, path[::2])
    cycle, reference = geodesic._two_grid(fields, coarse), _two_grid_reference(coefs, coarse)
    fine, fine_reference = geodesic._coarse_solve(bg, path), _coarse_solve_reference(bg, path)
    lu = geodesic.splu(geodesic._stack(fields, np.float32))
    for s, b in np.random.default_rng(n_time + 1).standard_normal((3, 2, fields[0].size)):
        assert np.array_equal(geodesic._jacobian_times(fields, s), _jacobian_times_reference(coefs, s))
        assert np.array_equal(cycle(b), reference(b))
        assert np.array_equal(cycle(-b), -cycle(b))
        assert np.array_equal(fine(b), fine_reference(b))
        assert np.array_equal(lu.solve(-b), -lu.solve(b))


@pytest.mark.parametrize("n_time", [16, 64])
def test_stencil_parts_in_place_equal_the_np_diff_formulas_bit_for_bit(n_time):
    """The second differences formed in place, in one (3, n_time - 1, n) array or in three given
    arrays, are those of np.diff and the whole-array differences, bit for bit."""
    bg, path = _random_cone_path(n_time, seed=3 * n_time)
    reference = _stencil_parts_reference(bg, path)
    parts = geodesic._stencil_parts(bg, _periodic_pad(path))
    out = tuple(np.empty_like(part) for part in reference)
    assert geodesic._stencil_parts(bg, _periodic_pad(path), out=out) is out
    for got in (parts, out):
        assert all(np.array_equal(a, b) for a, b in zip(got, reference))


def test_overflowing_centre_raises_singular_system(small_bg):
    """At Phi_ss = 2.4e304 every Jacobian field is finite (x_nbr = Phi_ss / h^2 is 9.8e307 on 64
    points), but the centre -2 x_nbr - 2 s_nbr the factor needs overflows: the step's check
    still raises SingularSystem."""
    e0, e1 = _endpoints(small_bg.grid)
    problem = EpsGeodesicProblem(small_bg, e0, e1, 1e-2, 8)
    s = np.arange(9) / 8.0
    steep = initial_guess(problem) + 1.2e304 * (s * s - s)[:, None]
    fields = geodesic._jacobian(small_bg, steep)
    with np.errstate(over="ignore"):
        assert np.isfinite(fields).all() and not np.isfinite(geodesic._centre(fields)).all()
    with pytest.raises(SingularSystem, match=(
        r"^eps-geodesic solve failed at \(eps=0\.01, n_time=8, n_points=64\): space-time Jacobian is not finite$"
    )), np.errstate(over="ignore"):
        solve_eps_geodesic(problem, path0=steep)


def test_non_finite_jacobian_raises_singular_system(small_bg):
    """np.linalg.inv passes inf and NaN through, so the step checks its coefficients: a start so
    steep in s that the Jacobian overflows raises SingularSystem, named by its solve."""
    e0, e1 = _endpoints(small_bg.grid)
    problem = EpsGeodesicProblem(small_bg, e0, e1, 1e-2, 8)
    s = np.arange(9) / 8.0
    steep = initial_guess(problem) + 1e306 * (s * s - s)[:, None]  # Phi_ss = 2e306: in the cone
    with pytest.raises(SingularSystem, match=(
        r"^eps-geodesic solve failed at \(eps=0\.01, n_time=8, n_points=64\): space-time Jacobian is not finite$"
    )), np.errstate(over="ignore", invalid="ignore"):
        solve_eps_geodesic(problem, path0=steep)


def test_singular_pivot_block_raises_singular_system(small_bg, monkeypatch):
    """np.linalg.inv's LinAlgError on a singular pivot block becomes SingularSystem, named by its solve."""
    real_splu = geodesic.splu
    monkeypatch.setattr(geodesic, "splu", lambda coefs: real_splu(0.0 * coefs))
    e0, e1 = _endpoints(small_bg.grid)
    with pytest.raises(SingularSystem, match=(
        r"^eps-geodesic solve failed at \(eps=0\.01, n_time=8, n_points=64\): "
        r"space-time Jacobian factorization failed: Singular matrix$"
    )):
        solve_eps_geodesic(EpsGeodesicProblem(small_bg, e0, e1, 1e-2, 8))


def _coupled_only_below_float32(n, n_int, node):
    """Constant Jacobian fields in which every entry of node's column is of order 1e-60: zero in
    float32, so any float32 front that pivots node is singular, while the float64 system is
    regular up to the scale of that unknown."""
    fields = np.stack([np.full((n_int, n), v) for v in (1.0, 1.0, -0.1)])
    i, j = node
    fields[:2, i, j] = 5e-61  # the centre, -2 x_nbr - 2 s_nbr
    for di, dj, k in geodesic._STENCIL[1:]:
        fields[min(k - 1, 2), i - di, (j - dj) % n] = 1e-60  # row node - offset reaches node through k
    return fields


def _solve_on_float32_factors_of(small_bg, monkeypatch, stack):
    """The (eps 1e-2, n_time 8) solve with every float32 factor taken of stack(coefs) instead, and
    the same solve unpatched.  splu stays patched for the rest of the test."""
    e0, e1 = _endpoints(small_bg.grid)
    problem = EpsGeodesicProblem(small_bg, e0, e1, 1e-2, 8)
    reference = solve_eps_geodesic(problem)
    real_splu = geodesic.splu
    monkeypatch.setattr(geodesic, "splu", lambda c: real_splu(stack(c) if c.dtype == np.float32 else c))
    return solve_eps_geodesic(problem), reference


def test_float32_singular_pivot_block_falls_back_to_float64(small_bg, monkeypatch):
    """A stack that np.linalg.inv rejects in float32 but not in float64 gives no float32 step,
    and its float64 factor solves it.  In a solve, a float32 factor that raises LinAlgError makes
    each Newton step factor in float64, counted as a fallback, and the solve ends where the
    float32 one does, to round-off."""
    fields = _coupled_only_below_float32(8, 7, (3, 4))
    b = np.random.default_rng(0).standard_normal(fields[0].size)
    with pytest.raises(np.linalg.LinAlgError):
        geodesic.splu(geodesic._stack(fields, np.float32))
    assert _float32_step(fields, b) is None
    step = geodesic.splu(geodesic._stack(fields, float)).solve(b)
    assert np.max(np.abs(b - geodesic._jacobian_times(fields, step))) <= 1e-14 * np.max(np.abs(b))
    sol, reference = _solve_on_float32_factors_of(small_bg, monkeypatch, lambda c: 0.0 * c)
    assert sol.record.fallbacks == sol.record.factorizations >= 1
    assert np.max(np.abs(sol.path.values - reference.path.values)) <= 1e-15


def test_stack_beyond_float32_range_falls_back_to_float64():
    """Coefficients that overflow float32 fail the float32 factor quietly, as a singular block
    does, and the float64 factor's step is kept."""
    fields = 1e36 * _random_fields(64, 7, seed=3)
    b = np.ones(fields[0].size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _float32_step(fields, b) is None
        solve, step = _float64_step(fields, b)
    assert solve.__self__.dtype == np.float64
    assert np.array_equal(step, geodesic.splu(_five_fields(fields)).solve(b))


def test_right_hand_side_beyond_float32_range_falls_back_to_float64():
    """A right-hand side that overflows float32 fails the float32 solve quietly, as a singular
    block does, and the float64 factor's step is kept.  A solve in either precision, and the
    check of its step, leave a read-only argument as it was."""
    fields = _random_fields(64, 7, seed=3)
    coefs = _five_fields(fields)
    b = np.full(coefs[0].size, 1e39)
    b.setflags(write=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _float32_step(fields, b) is None
        solve, step = _float64_step(fields, b)
    assert solve.__self__.dtype == np.float64
    assert np.array_equal(step, geodesic.splu(coefs).solve(b))
    for lu in (geodesic.splu(coefs), geodesic.splu(coefs.astype(np.float32))):
        rhs = np.linspace(-1.0, 1.0, b.size).astype(lu.dtype)
        rhs.setflags(write=False)
        lu.solve(rhs)
        assert np.array_equal(rhs, np.linspace(-1.0, 1.0, b.size).astype(lu.dtype))
    assert np.all(b == 1e39)


def test_refinement_that_does_not_contract_falls_back_to_float64(small_bg, monkeypatch):
    """A float32 factor whose step leaves more than CHORD_CONTRACTION of the right-hand side as
    float64 linear residual is replaced by a float64 one.  Here the float32 factor is that of
    3 J, so its step leaves 2/3 of it.  The solve counts one fallback per Newton step and ends
    where the float32 solve does, to round-off."""
    e0, e1 = _endpoints(small_bg.grid)
    problem = EpsGeodesicProblem(small_bg, e0, e1, 1e-2, 8)
    reference = solve_eps_geodesic(problem)
    assert reference.record.fallbacks == 0
    real_splu = geodesic.splu
    precisions = []

    def off_by_three(coefs):
        precisions.append(coefs.dtype)
        return real_splu(3.0 * coefs if coefs.dtype == np.float32 else coefs)

    monkeypatch.setattr(geodesic, "splu", off_by_three)
    fields = _random_fields(64, 7, seed=5)
    assert _float32_step(fields, np.ones(fields[0].size)) is None and precisions == [np.float32]
    precisions.clear()
    sol = solve_eps_geodesic(problem)
    rec = sol.record
    assert rec.fallbacks == rec.factorizations >= 1
    assert precisions == [np.float32, np.float64] * rec.factorizations
    assert sol.residual_sup <= 1e-13
    assert np.max(np.abs(sol.path.values - reference.path.values)) <= 1e-15


def test_float32_step_leaving_a_third_of_the_residual_falls_back_to_float64(small_bg, monkeypatch):
    """A float32 factor of 1.5 J steps to J^-1 b / 1.5, which leaves 1/3 of b as linear residual:
    more than CHORD_CONTRACTION, so the step is not kept, as a chord step would not be, and the
    Newton step factors in float64, counted as a fallback.  The solve ends where the float32 one
    does, to round-off."""
    sol, reference = _solve_on_float32_factors_of(small_bg, monkeypatch, lambda c: 1.5 * c)
    assert sol.record.fallbacks == sol.record.factorizations >= 1
    assert np.max(np.abs(sol.path.values - reference.path.values)) <= 1e-15
    fields = _random_fields(64, 7, seed=5)
    b = np.ones(fields[0].size)
    left = b - geodesic._jacobian_times(fields, geodesic.splu(geodesic._stack(fields, np.float32)).solve(b))
    assert abs(np.max(np.abs(left)) - 1.0 / 3.0) <= 1e-3
    assert _float32_step(fields, b) is None


def test_rejected_float32_factor_is_released_before_the_float64_one_is_built(small_bg, monkeypatch):
    """A float32 factor whose step is not kept is gone by the time its float64 replacement is
    factored, so a fallback step holds one factor at its peak, not both."""
    real_splu = geodesic.splu
    rejected, alive = [], []

    def track(coefs):
        if coefs.dtype == np.float32:
            lu = real_splu(3.0 * coefs)  # its step leaves 2/3 of the right-hand side
            rejected.append(weakref.ref(lu))
            return lu
        alive.append(rejected[-1]() is not None)
        return real_splu(coefs)

    monkeypatch.setattr(geodesic, "splu", track)
    e0, e1 = _endpoints(small_bg.grid)
    sol = solve_eps_geodesic(EpsGeodesicProblem(small_bg, e0, e1, 1e-2, 8))
    assert len(alive) == len(rejected) == sol.record.fallbacks >= 1 and not any(alive)


def test_large_factor_stores_float32_blocks_with_unchanged_fill(monkeypatch):
    """The 256 x 63 factors of a solve are float32 throughout, store the 942,810 entries a float64
    factor of the same stack stores, and come from one splu call per factorization."""
    grid = SpatialGrid(256)
    bg = make_background(grid, psi=fourier_field(grid, [(1, 0.002, 0.001)]))
    e0, e1 = _endpoints(grid)
    real_splu = geodesic.splu
    factors = []

    def keep(coefs):
        factors.append((coefs.copy(), real_splu(coefs)))
        return factors[-1][1]

    monkeypatch.setattr(geodesic, "splu", keep)
    sol = solve_eps_geodesic(EpsGeodesicProblem(bg, e0, e1, 1e-2, 64))
    assert len(factors) == sol.record.factorizations >= 1 and sol.record.fallbacks == 0
    for coefs, lu in factors:
        assert coefs.dtype == lu.dtype == np.float32
        assert all(block.dtype == np.float32 for blocks in lu.blocks for block in blocks)
        wide = real_splu(coefs.astype(float))
        assert lu.L.nnz + lu.U.nnz == wide.L.nnz + wide.U.nnz == 942_810


def test_equal_constant_endpoints_closed_form(small_bg):
    """With equal constant endpoints the exact solution is the s-parabola."""
    n = small_bg.grid.n_points
    c = 0.3
    eps = 1e-2
    sol = solve_eps_geodesic(EpsGeodesicProblem(small_bg, np.full(n, c), np.full(n, c), eps, 16))
    s = np.arange(17) / 16.0
    exact = c + 0.5 * eps * (s * s - s)
    assert np.max(np.abs(sol.path.values - exact[:, None])) < 1e-11
    assert sol.newton_iters == 0  # the initial guess is the solution


def test_closed_form_on_curved_background(small_grid):
    """The parabola solves the equation on any background when endpoints are constant."""
    bg = make_background(small_grid, psi=fourier_field(small_grid, [(1, 0.002, 0.0)]))
    eps = 5e-2
    sol = solve_eps_geodesic(EpsGeodesicProblem(bg, np.zeros(64), np.zeros(64), eps, 8))
    s = np.arange(9) / 8.0
    exact = 0.5 * eps * (s * s - s)
    assert np.max(np.abs(sol.path.values - exact[:, None])) < 1e-11


def test_residual_linear_in_epsilon(small_bg):
    """r(path, eps_a) - r(path, eps_b) = (eps_b - eps_a) w exactly."""
    e0, e1 = _endpoints(small_bg.grid)
    sol = solve_eps_geodesic(EpsGeodesicProblem(small_bg, e0, e1, 1e-1, 8))
    r1 = eval_geodesic_residual(small_bg, sol.path, 1e-1)
    r2 = eval_geodesic_residual(small_bg, sol.path, 1e-2)
    gap = r1 - r2 - (1e-2 - 1e-1) * small_bg.w[None, :]
    assert np.max(np.abs(gap)) < 1e-14


def test_no_convergence_at_impossible_tolerance(small_bg):
    e0, e1 = _endpoints(small_bg.grid)
    with pytest.raises(NoConvergence):
        solve_eps_geodesic(EpsGeodesicProblem(small_bg, e0, e1, 1e-2, 8), tol=1e-18)


def test_positivity_loss_on_concave_start(small_bg):
    e0, e1 = _endpoints(small_bg.grid)
    problem = EpsGeodesicProblem(small_bg, e0, e1, 1e-2, 8)
    s = np.arange(9) / 8.0
    bad = initial_guess(problem) + 5.0 * np.sin(np.pi * s)[:, None]  # Phi_ss < 0
    with pytest.raises(PositivityLoss):
        solve_eps_geodesic(problem, path0=bad)


def test_certificate_disagreement_is_typed(small_bg, monkeypatch):
    """The independent certificate must match the Newton residual, or NotASolution."""
    e0, e1 = _endpoints(small_bg.grid)
    real = geodesic.eval_geodesic_residual
    monkeypatch.setattr(geodesic, "eval_geodesic_residual", lambda bg, path, eps: real(bg, path, eps) + 1e-6)
    with pytest.raises(NotASolution, match="disagree"):
        solve_eps_geodesic(EpsGeodesicProblem(small_bg, e0, e1, 1e-2, 8))


def test_cone_loss_at_solution_is_typed(small_bg):
    """A loose tolerance accepts the affine guess, whose determinant is negative at tiny eps."""
    e0, e1 = _endpoints(small_bg.grid)
    with pytest.raises(PositivityLoss, match="cone condition lost"):
        solve_eps_geodesic(EpsGeodesicProblem(small_bg, e0, e1, 1e-8, 8), tol=1e-3)


def test_errors_name_the_failing_solve(small_bg):
    """Errors from Newton and from the checks after it carry (eps, n_time, n_points); objects are kept."""
    e0, e1 = _endpoints(small_bg.grid)
    where = r"^eps-geodesic solve failed at \(eps={}, n_time=8, n_points=64\): "
    with pytest.raises(NoConvergence, match=where.format("0.01")) as info:
        solve_eps_geodesic(EpsGeodesicProblem(small_bg, e0, e1, 1e-2, 8), tol=1e-18)
    assert info.value.iterations >= 1 and info.value.residual_sup > 1e-18
    with pytest.raises(PositivityLoss, match=where.format("1e-08") + "cone condition lost"):
        solve_eps_geodesic(EpsGeodesicProblem(small_bg, e0, e1, 1e-8, 8), tol=1e-3)


# ---------------------------------------------------------------------------
# continuation


def test_weak_geodesic_record_and_bound(small_bg):
    """The continuation's rungs carry the increments and residuals of the ladder."""
    e0, e1 = _endpoints(small_bg.grid)
    rungs = eps_continuation(small_bg, e0, e1, (1e-1, 1e-2, 1e-3), (8,))[0]
    assert [r.epsilon for r in rungs] == [1e-1, 1e-2, 1e-3]
    incs = rung_increments(rungs)
    assert len(incs) == 2 and incs[1] < incs[0]
    assert all(r.residual_sup <= 1e-10 for r in rungs)
    path = weak_geodesic(small_bg, e0, e1, (1e-1, 1e-2, 1e-3), n_time=8)
    assert np.array_equal(path.values, rungs[-1].path.values)
    det = reduced_hessian(small_bg, path).det()
    assert np.max(np.abs(det)) <= 1e-3 * np.max(small_bg.w) + 1e-10


def test_prolong_in_s_reproduces_cubics_and_keeps_the_coarse_rows():
    """Cubics in s come out exactly (dyadic nodes and weights leave no round-off); coarse rows stay bit for bit."""
    s_coarse = np.arange(9)[:, None] / 8.0
    s_fine = np.arange(17)[:, None] / 16.0
    coefs = np.array([[3.0, -1.0, 0.0, 5.0], [-2.0, 7.0, 4.0, 1.0], [0.0, 0.0, -6.0, 2.0]]).T  # one cubic per column

    def cubic(s):
        return sum(coefs[p][None, :] * s**p for p in range(4))

    assert np.array_equal(geodesic.prolong_in_s(cubic(s_coarse)), cubic(s_fine))

    rough = np.random.default_rng(0).standard_normal((9, 5))
    fine = geodesic.prolong_in_s(rough)
    assert fine.shape == (17, 5) and np.array_equal(fine[::2], rough)
    with pytest.raises(ValueError, match="at least 4 time rows"):
        geodesic.prolong_in_s(rough[:3])


@pytest.mark.parametrize("a", [0.05, 0.3])
def test_prolonged_fine_ladder_agrees_with_the_eps_warm_one(a):
    """Started from the n_time-32 rungs, the n_time-64 weak path is the eps-warm one to 1e-12.

    1e-12 is the absolute bound of tools/compare_artifacts.py on solved
    fields; a = 0.05 is the canonical endpoint, on the canonical grid.
    """
    bg = make_background(SpatialGrid(256))
    e0, e1 = np.zeros(256), fourier_field(bg.grid, [(1, a / (2.0 * np.pi) ** 2, 0.0)])
    ladder = (1e-1, 1e-2, 1e-3, 1e-4)
    prolonged = weak_limit(bg, eps_continuation(bg, e0, e1, ladder, (32, 64))[1])
    warm = weak_geodesic(bg, e0, e1, ladder, n_time=64)
    assert np.max(np.abs(prolonged.values - warm.values)) <= 1e-12
    with pytest.raises(ValueError, match="must double the one before"):
        eps_continuation(bg, e0, e1, ladder[:3], (32, 128))


def _fine_lu_solve(bg, e0, e1, coarse: "geodesic.EpsGeodesic", n_time: int):
    """The problem of a refined rung solved through the fine LU, from the prolonged coarser rung."""
    problem = EpsGeodesicProblem(bg, e0, e1, coarse.epsilon, n_time)
    return solve_eps_geodesic(problem, path0=geodesic.prolong_in_s(coarse.path.values))


def _logged_stacks(monkeypatch) -> list:
    """The time rows of every stack geodesic.splu factors from now on, in call order."""
    real_splu = geodesic.splu
    stacks = []

    def logging(coefs):
        stacks.append(coefs.shape[1])
        return real_splu(coefs)

    monkeypatch.setattr(geodesic, "splu", logging)
    return stacks


def test_refined_rungs_equal_fine_lu_solves_from_the_same_start(bg, endpoint_0, endpoint_1, monkeypatch):
    """The chain's n_time-32 and n_time-64 rungs take every step from a two-grid cycle, none
    falling back on the canonical endpoints, and equal the same problems solved through the fine
    LU from the same prolonged start to 1e-12, the bound of tools/compare_artifacts.py on solved
    fields.  The n_time-64 rungs take theirs through the W-cycle, whose coarse solve is two cycles
    on the n_time-32 rows over the factor of the n_time-16 rows: the chain factors only 15-row
    stacks."""
    stacks = _logged_stacks(monkeypatch)
    levels = eps_continuation(bg, endpoint_0, endpoint_1, (1e-1, 1e-2, 1e-3, 1e-4), (16, 32, 64))
    monkeypatch.undo()
    records = [rung.record for level in levels for rung in level]
    assert stacks == [15] * sum(rec.factorizations for rec in records)
    for coarse, fine in zip(levels, levels[1:]):
        for below, rung in zip(coarse, fine):
            rec = rung.record
            assert rec.two_grid == rec.factorizations >= 1 and rec.two_grid_fallbacks == rec.fallbacks == 0
            assert rung.residual_sup <= 1e-13
            lu = _fine_lu_solve(bg, endpoint_0, endpoint_1, below, rung.path.n_time)
            assert lu.record.two_grid == lu.record.two_grid_fallbacks == 0
            assert np.max(np.abs(rung.path.values - lu.path.values)) <= 1e-12


def test_refined_rungs_converge_near_a_degenerate_endpoint_and_count_their_fallbacks(
    bg, endpoint_0, monkeypatch
):
    """At density amplitude 0.9 (node density down to 0.1) the cycle contracts at up to about
    0.5, so some refined Newton steps fail the tenfold test and factor the fine Jacobian: each
    such step makes one splu call more than its coarse factor.  3 of the 4 rungs of each refined
    level fall back once (at n_time 64, 2 of 4 while its coarse solve was the n_time-32 factor).
    Every rung still converges."""
    e1 = fourier_field(bg.grid, [(1, 0.9 / (2.0 * np.pi) ** 2, 0.0)])
    stacks = _logged_stacks(monkeypatch)
    levels = eps_continuation(bg, endpoint_0, e1, (1e-1, 1e-2, 1e-3, 1e-4), (16, 32, 64))
    records = [rung.record for level in levels for rung in level]
    assert all(rung.residual_sup <= 1e-10 for level in levels for rung in level)
    assert len(stacks) == sum(rec.factorizations + rec.fallbacks + rec.two_grid_fallbacks for rec in records)
    refined = records[4:]
    assert all(rec.two_grid + rec.two_grid_fallbacks == rec.factorizations for rec in refined)
    assert [[rec.two_grid_fallbacks for rec in records[k : k + 4]] for k in (4, 8)] == [[0, 1, 1, 1]] * 2
    assert stacks.count(31) == sum(rec.two_grid_fallbacks + rec.fallbacks for rec in records[4:8])
    assert stacks.count(63) == sum(rec.two_grid_fallbacks + rec.fallbacks for rec in records[8:])
    assert len(stacks) == stacks.count(15) + stacks.count(31) + stacks.count(63)


def test_wrong_coarse_factor_makes_every_refined_step_fall_back(small_bg, monkeypatch):
    """A coarse factor of J / 3, whose correction is three times too large, leaves a cycle that does
    not cut the linear residual tenfold, so every refined Newton step falls back to the fine
    factor, and the rung is the fine LU's.  (With 3 J, whose correction is a third of the right
    one, a step from a residual rough in s still passes: the smoother alone cuts that tenfold.)"""
    e0, e1 = _endpoints(small_bg.grid)
    coarse = eps_continuation(small_bg, e0, e1, (1e-1, 1e-2, 1e-3), (8,))[0]
    references = [_fine_lu_solve(small_bg, e0, e1, below, 16) for below in coarse]
    real_splu = geodesic.splu

    def off_by_three(coefs):  # the coarse stack has 7 rows, the fine one 15
        return real_splu(coefs / 3.0 if coefs.shape[1] == 7 else coefs)

    monkeypatch.setattr(geodesic, "splu", off_by_three)
    for below, reference in zip(coarse, references):
        sol = solve_eps_geodesic(EpsGeodesicProblem(small_bg, e0, e1, below.epsilon, 16), path0=below.path.values)
        rec = sol.record
        assert rec.two_grid == 0 and rec.two_grid_fallbacks == rec.factorizations >= 1
        assert sol.residual_sup <= 1e-13
        assert np.max(np.abs(sol.path.values - reference.path.values)) <= 1e-15


def test_cold_and_warm_solves_agree_to_round_off(bg, endpoint_0, endpoint_1, eps_geo):
    """The curvature problem (eps = 1e-2, n_time 64, canonical endpoints), cold, warm from
    eps = 0.1 and as the rung of verify's chain (from the prolonged n_time-32 rung): all are
    polished to the round-off floor, so the start no longer shows (7.9e-13 between cold and
    warm when Newton stopped at the first iterate under tol)."""
    cold = solve_eps_geodesic(EpsGeodesicProblem(bg, endpoint_0, endpoint_1, 1e-2, 64))
    warm = eps_continuation(bg, endpoint_0, endpoint_1, (1e-1, 1e-2), (64,))[0][-1]
    for other in (warm, eps_geo):
        assert np.max(np.abs(other.path.values - cold.path.values)) <= 1e-15
    for sol in (cold, warm, eps_geo):
        rec = sol.record
        assert abs(rec.residual_sups[0][-1] - sol.residual_sup) <= 1e-12
        assert sol.residual_sup <= 1e-14 and rec.halvings == 0
        assert 1 <= rec.factorizations <= rec.iterations == sol.newton_iters
    # cold and warm polish on their last LU; the prolonged start needs one factorization alone
    assert cold.record.factorizations < cold.newton_iters and warm.record.factorizations < warm.newton_iters
    assert eps_geo.record.factorizations == 1


def _logged_starts(monkeypatch):
    """Wrap solve_eps_geodesic; return the list of the path0 arguments it gets."""
    starts = []
    real = geodesic.solve_eps_geodesic

    def logging(problem, tol=1e-10, path0=None):
        starts.append(path0)
        return real(problem, tol=tol, path0=path0)

    monkeypatch.setattr(geodesic, "solve_eps_geodesic", logging)
    return starts


@pytest.mark.parametrize("ladder, secant", [((1e-1, 1e-2, 1e-4), True), ((1e-1, 5e-2, 1e-4), False)])
def test_secant_start_or_the_last_rung(small_bg, monkeypatch, ladder, secant):
    """Rung 3 starts from the secant extrapolation in eps of rungs 1 and 2.  The jump from 5e-2
    to 1e-4, twice the step before it, extrapolates out of the cone (Phi_ss < 0 at some node),
    and the rung starts from rung 2 instead."""
    e0, e1 = _endpoints(small_bg.grid)
    starts = _logged_starts(monkeypatch)
    rungs = geodesic.eps_continuation(small_bg, e0, e1, ladder, (8,))[0]
    a, b = (r.path.values for r in rungs[:2])
    assert starts[0] is None and starts[1] is a
    extrapolated = b + (ladder[2] - ladder[1]) / (ladder[1] - ladder[0]) * (b - a)
    phi_ss = extrapolated[2:] - 2.0 * extrapolated[1:-1] + extrapolated[:-2]
    assert bool(np.min(phi_ss) > 0.0) == secant
    if secant:
        assert np.array_equal(starts[2], extrapolated)
    else:
        assert starts[2] is b
    assert rungs[2].residual_sup <= 1e-10


def test_ladder_rungs_agree_with_cold_solves(small_bg):
    """Every rung of a half-decade ladder, started from the secant or the rung before it, is
    its cold solve to 1e-14 (up to 2.4e-12 when Newton stopped at the first iterate under tol)."""
    e0, e1 = _endpoints(small_bg.grid)
    ladder = (1e-1, 10.0**-1.5, 1e-2, 10.0**-2.5, 1e-3, 1e-4)
    for rung in eps_continuation(small_bg, e0, e1, ladder, (8,))[0]:
        cold = solve_eps_geodesic(EpsGeodesicProblem(small_bg, e0, e1, rung.epsilon, 8))
        assert np.max(np.abs(rung.path.values - cold.path.values)) <= 1e-14


def test_a_multi_level_ladder_resumes_from_its_solved_rungs(small_bg):
    """Given the solved levels of a ladder prefix, eps_continuation keeps those rung objects and
    solves the rest bit for bit as a fresh call does; a level that does not double the one
    before it is refused."""
    e0, e1 = _endpoints(small_bg.grid)
    ladder = (1e-1, 1e-2, 1e-3)
    part = eps_continuation(small_bg, e0, e1, ladder[:2], (8, 16))
    resumed = eps_continuation(small_bg, e0, e1, ladder, (8, 16), solved=part)
    fresh = eps_continuation(small_bg, e0, e1, ladder, (8, 16))
    assert [[r.path.n_time for r in level] for level in resumed] == [[8] * 3, [16] * 3]
    for kept, level, other in zip(part, resumed, fresh):
        assert all(a is b for a, b in zip(kept, level))
        assert [r.epsilon for r in level] == list(ladder)
        assert all(np.array_equal(a.path.values, b.path.values) for a, b in zip(level, other))
    with pytest.raises(ValueError, match="must double the one before"):
        eps_continuation(small_bg, e0, e1, ladder, (8, 24))


def test_weak_geodesic_input_validation(small_bg):
    e0, e1 = _endpoints(small_bg.grid)
    with pytest.raises(ValueError, match="at least 3"):
        weak_geodesic(small_bg, e0, e1, (1e-1, 1e-2), n_time=8)
    with pytest.raises(ValueError, match="strictly decreasing"):
        weak_geodesic(small_bg, e0, e1, (1e-1, 1e-1, 1e-2), n_time=8)
    with pytest.raises(ValueError, match="strictly decreasing"):
        weak_geodesic(small_bg, e0, e1, (1e-1, -1e-2, 1e-3), n_time=8)


def test_weak_geodesic_flat_ladder_rejected(small_bg):
    """A near-flat ladder cannot produce decreasing increments."""
    e0, e1 = _endpoints(small_bg.grid)
    with pytest.raises(FamilyMismatch):
        weak_geodesic(small_bg, e0, e1, (0.4, 0.35, 0.3), n_time=8)


# ---------------------------------------------------------------------------
# duality oracle


def test_oracle_endpoint_interpolation(small_bg):
    e0, e1 = _endpoints(small_bg.grid)
    oracle = legendre_oracle(small_bg, e0, e1, 8)
    assert np.max(np.abs(oracle.values[0] - e0)) < 1e-10
    assert np.max(np.abs(oracle.values[-1] - e1)) < 1e-10


def test_oracle_constant_endpoints(small_bg):
    n = small_bg.grid.n_points
    oracle = legendre_oracle(small_bg, np.full(n, 0.2), np.full(n, 0.2), 8)
    assert np.max(np.abs(oracle.values - 0.2)) < 1e-10


def test_oracle_rejects_nonconvex_cover(small_bg):
    bad = np.cos(2.0 * np.pi * small_bg.grid.nodes)  # density 1 - (2 pi)^2 cos < 0
    with pytest.raises(NegativeDensity, match="^endpoint_1 is not admissible"):
        legendre_oracle(small_bg, np.zeros(64), bad, 8)


def _exhaustive_oracle(bg, e0, e1, n_time):
    """Affine interpolation of Legendre conjugates, each conjugate a brute-force max over all pairs.

    P = x^2/2 + psi + phi on three unrolled periods; its conjugate is taken
    at every chord slope of either endpoint's P by a max over every node,
    and the interpolated conjugate is conjugated back at every node by a
    max over every slope.
    """
    n = bg.grid.n_points
    xs = (np.arange(3 * n) - n) / n
    convex = [0.5 * xs**2 + np.tile(bg.psi + e, 3) for e in (e0, e1)]
    slopes = np.unique(np.concatenate([np.diff(p) * n for p in convex]))
    stars = [np.max(slopes[:, None] * xs[None, :] - p[None, :], axis=1) for p in convex]
    x = bg.grid.nodes
    rows = []
    for s in np.arange(n_time + 1) / n_time:
        star = (1.0 - s) * stars[0] + s * stars[1]
        rows.append(np.max(x[:, None] * slopes[None, :] - star[None, :], axis=1) - 0.5 * x**2 - bg.psi)
    return np.array(rows)


def test_oracle_equals_the_exhaustive_conjugates_at_low_density():
    """The oracle is exact for the piecewise-linear interpolants at any positive node density:
    a = 0.9 (density 0.1007 at its lowest node) and a random curved case."""
    grid = SpatialGrid(64)
    flat = make_background(grid)
    degenerate = fourier_field(grid, [(1, 0.9 / (2.0 * np.pi) ** 2, 0.0)])
    assert 0.1 < np.min(metric_density(flat, degenerate)) < 0.101
    rng = np.random.default_rng(7)

    def random_field(modes):  # each mode moves the density by about 0.1
        return fourier_field(grid, [(k, *rng.normal(0.0, 0.1, 2) / (2.0 * np.pi * k) ** 2) for k in modes])

    curved = make_background(grid, psi=random_field((1, 2)))
    e0, e1 = random_field((1, 2, 3)), random_field((1, 2, 3))
    for bg, a, b in ((flat, np.zeros(64), degenerate), (curved, e0, e1)):
        assert min(np.min(metric_density(bg, a)), np.min(metric_density(bg, b))) > 0.0
        oracle = legendre_oracle(bg, a, b, 8)
        assert np.max(np.abs(oracle.values - _exhaustive_oracle(bg, a, b, 8))) <= 1e-14


def test_oracle_slopes_are_those_of_np_unique(small_bg, monkeypatch):
    """The sorted, deduplicated chord slopes the conjugates are taken at are np.unique's, on two
    distinct endpoints and on two equal ones, whose slopes all come twice."""
    taken = []
    real = geodesic._conjugate

    def spy(xs, fs, ys):
        taken.append(ys)
        return real(xs, fs, ys)

    monkeypatch.setattr(geodesic, "_conjugate", spy)
    grid = small_bg.grid
    xs = (np.arange(3 * grid.n_points) - grid.n_points) * grid.spacing
    e0, e1 = _endpoints(grid)
    for a, b in ((e0, e1), (e1, e1)):
        taken.clear()
        legendre_oracle(small_bg, a, b, 8)
        slopes = np.concatenate([np.diff(0.5 * xs * xs + np.tile(small_bg.psi + e, 3)) / np.diff(xs) for e in (a, b)])
        assert np.array_equal(taken[0], np.unique(slopes))
    assert 2 * len(taken[0]) == len(slopes)


def test_continuation_approaches_oracle(small_bg):
    e0, e1 = _endpoints(small_bg.grid)
    oracle = legendre_oracle(small_bg, e0, e1, 8)
    path = weak_geodesic(small_bg, e0, e1, (1e-1, 1e-2, 1e-3), n_time=8)
    assert np.max(np.abs(path.values - oracle.values)) < 5e-3
