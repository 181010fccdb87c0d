"""Space-time solver, continuation limit, and the duality oracle."""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from kgeolab import (
    EpsGeodesicProblem,
    PathField,
    SpatialGrid,
    FamilyMismatch,
    NegativeDensity,
    NoConvergence,
    NonConvexInput,
    NotASolution,
    PositivityLoss,
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
from kgeolab.geodesic import LU_OPTIONS, rung_increments
from kgeolab.model import fourier_field

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


def test_newton_jacobian_matches_finite_differences(monkeypatch):
    """The matrix the Newton step factors is the derivative of the interior residual.

    Checked entry by entry against central differences of the independent
    certificate residual, once the symmetric nested-dissection permutation of
    the pattern is undone, on 8 points so that the periodic wrap and the rows
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
    real_splu = geodesic.splu

    def spy(matrix, *args, **kwargs):
        factored.append(matrix.toarray())
        return real_splu(matrix, *args, **kwargs)

    monkeypatch.setattr(geodesic, "splu", spy)
    solve_eps_geodesic(problem, path0=start)
    # the first Newton step linearizes at the start; the LU sees P J P^T
    perm = geodesic._jacobian_pattern(8, n_time)[3]
    jac = np.empty_like(factored[0])
    jac[np.ix_(perm, perm)] = factored[0]

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
    assert jac.shape == (7 * 8, 7 * 8)
    assert np.max(np.abs(jac - fd)) <= 1e-9 * np.max(np.abs(jac))
    # the pattern is the nine-point stencil: wrap entries present, nothing else
    assert jac[0, 7] != 0.0 and jac[0, 8 + 7] != 0.0 and jac[6 * 8, 5 * 8 + 7] != 0.0
    assert np.array_equal(jac != 0.0, fd != 0.0)
    assert np.count_nonzero(jac) == 9 * 8 * 7 - 2 * 3 * 8


@pytest.mark.parametrize("n", [8, 64, 256, 512])
@pytest.mark.parametrize("n_time", [8, 16, 32, 64])
def test_dissection_order_is_a_permutation(n, n_time):
    perm = geodesic._dissection_order(n_time - 1, n)
    assert np.array_equal(np.sort(perm), np.arange((n_time - 1) * n))
    # the columns x = 0 and x = n/2 that open the ring come last
    last = perm[-2 * (n_time - 1):].reshape(2, n_time - 1)
    assert np.array_equal(last % n, [[0] * (n_time - 1), [n // 2] * (n_time - 1)])


def _first_newton_system(monkeypatch, n, n_time):
    """The first Newton step of a curved 0.05-amplitude solve: the permuted
    matrix it factors, that matrix in natural order, the right-hand side in
    natural order and the step it returned."""
    grid = SpatialGrid(n)
    bg = make_background(grid, psi=fourier_field(grid, [(1, 0.002, 0.001)]))
    e0, e1 = _endpoints(grid)
    real_splu = geodesic.splu
    seen = []

    class Spy:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            seen.append((rhs.copy(), self.lu.solve(rhs)))
            return seen[-1][1]

    def spy(matrix, *args, **kwargs):
        seen.append(matrix.copy())
        return Spy(real_splu(matrix, *args, **kwargs))

    monkeypatch.setattr(geodesic, "splu", spy)
    solve_eps_geodesic(EpsGeodesicProblem(bg, e0, e1, 1e-2, n_time))
    monkeypatch.undo()
    permuted, (rhs, step) = seen[0], seen[1]
    # position k of the permuted system is unknown perm[k]
    rank = np.argsort(geodesic._jacobian_pattern(n, n_time)[3])
    return permuted, permuted[rank][:, rank].tocsc(), rhs[rank], step[rank]


def test_dissection_fill_is_close_to_minimum_degree(monkeypatch):
    """On a 256 x 16 Jacobian the natural-order LU of the dissection pattern
    keeps within 5% of the fill of SuperLU's minimum degree on A^T + A."""
    permuted, natural, _, _ = _first_newton_system(monkeypatch, 256, 16)
    nd = splu(permuted, **LU_OPTIONS)
    mmd = splu(natural, permc_spec="MMD_AT_PLUS_A")
    assert nd.L.nnz + nd.U.nnz <= 1.05 * (mmd.L.nnz + mmd.U.nnz)


def test_newton_step_equals_minimum_degree_solve(monkeypatch):
    """The step scattered back through the permutation solves the unpermuted system."""
    _, natural, rhs, step = _first_newton_system(monkeypatch, 256, 16)
    reference = splu(natural, permc_spec="MMD_AT_PLUS_A").solve(rhs)
    assert np.max(np.abs(step - reference)) <= 1e-12 * np.max(np.abs(reference))


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
    rungs = eps_continuation(small_bg, e0, e1, (1e-1, 1e-2, 1e-3), 8)
    assert [r.epsilon for r in rungs] == [1e-1, 1e-2, 1e-3]
    incs = rung_increments(rungs)
    assert len(incs) == 2 and incs[1] < incs[0]
    assert all(r.residual_sup <= 1e-10 for r in rungs)
    path = weak_geodesic(small_bg, e0, e1, (1e-1, 1e-2, 1e-3), n_time=8)
    assert np.array_equal(path.values, rungs[-1].path.values)
    det = reduced_hessian(small_bg, path).det()
    assert np.max(np.abs(det)) <= 1e-3 * np.max(small_bg.w) + 1e-10


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
    with pytest.raises(NonConvexInput):
        legendre_oracle(small_bg, np.zeros(64), bad, 8)


def test_continuation_approaches_oracle(small_bg):
    e0, e1 = _endpoints(small_bg.grid)
    oracle = legendre_oracle(small_bg, e0, e1, 8)
    path = weak_geodesic(small_bg, e0, e1, (1e-1, 1e-2, 1e-3), n_time=8)
    assert np.max(np.abs(path.values - oracle.values)) < 5e-3
