"""Fiber solvers, families, and the uniform-bound machinery."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgeolab import (
    FiberProblem,
    IncompatibleMass,
    NegativeDensity,
    NoConvergence,
    NotASolution,
    PathField,
    SingularSystem,
    SpatialGrid,
    check_bounds,
    density_convergence,
    eps_phi_vanishing,
    family_report,
    fourier_field,
    make_background,
    metric_density,
    solve_aubin_fiber,
    solve_family,
)
from kgeolab import geodesic, ma_fiber, regularize
from kgeolab.model import path_d2x


# ---------------------------------------------------------------------------
# problem container


def test_fiber_problem_validation(small_bg):
    n = small_bg.grid.n_points
    FiberProblem(small_bg, np.ones(n), 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        FiberProblem(small_bg, np.ones(n), 0.0)
    with pytest.raises(NegativeDensity):
        FiberProblem(small_bg, np.full(n, -1e-3), 0.1)


def test_theta_defaults_to_curvature(small_bg):
    prob = FiberProblem(small_bg, np.ones(64), 0.1)
    assert np.array_equal(prob.theta, -small_bg.r)


# ---------------------------------------------------------------------------
# semilinear fiber solve


def test_aubin_constant_solution(small_bg):
    eps = 0.1
    prob = FiberProblem(small_bg, small_bg.w / eps, eps)
    sol = solve_aubin_fiber(prob)
    assert np.max(np.abs(sol.phi)) < 1e-11


def test_aubin_identities_on_generic_source(small_bg):
    grid = small_bg.grid
    eps = 0.05
    beta = (1.0 + 0.3 * np.cos(2.0 * np.pi * grid.nodes)) / eps
    prob = FiberProblem(small_bg, beta, eps)
    sol = solve_aubin_fiber(prob)
    assert sol.residual_sup <= 1e-11


def test_aubin_zero_source_rejected(small_bg):
    n = small_bg.grid.n_points
    prob = FiberProblem(small_bg, np.zeros(n), 0.1)
    assert np.all(prob.theta == 0.0)  # -r on the flat background: the source theta + beta is 0
    with pytest.raises(IncompatibleMass):
        solve_aubin_fiber(prob)


def test_stability_constants_bounded(small_bg):
    """sup |phi[beta + eta] - phi[beta]| / eta for three shifts eta of the source."""
    beta = (1.0 + 0.2 * np.cos(2.0 * np.pi * small_bg.grid.nodes)) / 0.1
    base = solve_aubin_fiber(FiberProblem(small_bg, beta, 0.1)).phi
    ks = []
    for eta in (1e-2, 1e-3, 1e-4):
        shifted = solve_aubin_fiber(FiberProblem(small_bg, beta + eta, 0.1), phi0=base.copy())
        ks.append(float(np.max(np.abs(shifted.phi - base))) / eta)
    assert all(np.isfinite(ks))
    assert max(ks) < 1.0  # measured sensitivity stays mild


def test_stacked_rows_match_row_by_row_solves(small_bg):
    """One call on a stack of rows equals one call per row, with the same effort per row."""
    x = small_bg.grid.nodes
    eps = np.array([0.1, 0.03, 0.01, 0.003])
    shapes = zip((0.3, 0.1, 0.5, 0.2), (1, 2, 1, 3), eps)
    beta = np.array([(1.0 + a * np.cos(2.0 * np.pi * k * x)) / e for a, k, e in shapes])
    stacked = solve_aubin_fiber(FiberProblem(small_bg, beta, eps))
    assert len(set(stacked.record.row_iterations.tolist())) > 1  # rows freeze at different steps
    for b in range(len(eps)):
        solo = solve_aubin_fiber(FiberProblem(small_bg, beta[b], eps[b]))
        assert np.max(np.abs(stacked.phi[b] - solo.phi[0])) <= 1e-13
        assert stacked.record.row_iterations[b] == solo.record.row_iterations[0]
        assert stacked.residual_sup[b] <= 1e-11
    assert stacked.newton_iters == int(np.sum(stacked.record.row_iterations))


def test_solution_keeps_its_newton_record(small_bg, monkeypatch):
    """The NewtonRecord of the solve, halvings included, stays on the solution."""
    records = []
    real = ma_fiber.damped_newton

    def keep(*args, **kwargs):
        x, rec = real(*args, **kwargs)
        records.append(rec)
        return x, rec

    monkeypatch.setattr(ma_fiber, "damped_newton", keep)
    x = small_bg.grid.nodes
    problem = FiberProblem(small_bg, (1.0 + 0.5 * np.cos(2.0 * np.pi * x)) / 1e-3, 1e-3)
    sol = solve_aubin_fiber(problem, phi0=5.0 * np.cos(6.0 * np.pi * x))  # a far start: one halving
    assert sol.record is records[0]
    assert sol.record.halvings == 1
    assert sol.newton_iters == sol.record.iterations == 10


def _captured_newton_step(bg, eps, monkeypatch):
    """The newton_step callback of solve_aubin_fiber on rows with these epsilons, before any step."""
    steps = []

    def spy(x0, evaluate, newton_step, **kwargs):
        steps.append(newton_step)
        raise InterruptedError

    monkeypatch.setattr(ma_fiber, "damped_newton", spy)
    with pytest.raises(InterruptedError):
        solve_aubin_fiber(FiberProblem(bg, np.ones((len(eps), bg.grid.n_points)), eps))
    return lambda x, r, rows: steps[0](x, r, rows)[0]  # the step; the fiber has no solve to reuse


@pytest.mark.parametrize("n", [8, 256])
def test_newton_step_equals_dense_periodic_solve(n, monkeypatch):
    bg = make_background(SpatialGrid(n), psi=fourier_field(SpatialGrid(n), [(1, 0.01, 0.005)]))
    eps = np.array([1e-1, 1e-2, 1e-3])
    newton_step = _captured_newton_step(bg, eps, monkeypatch)
    rng = np.random.default_rng(n)
    rows = np.array([0, 2, 1])  # any subset of the batch, in any order
    phi, r = rng.standard_normal((2, len(rows), n))
    step = newton_step(phi, r, rows)
    d2 = bg.d2(np.eye(n))  # the periodic three-point matrix
    for k, b in enumerate(rows):
        dense = np.linalg.solve(d2 - np.diag(bg.w / eps[b] * np.exp(phi[k])), -r[k])
        assert np.max(np.abs(step[k] - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_non_finite_jacobian_raises_singular_system_naming_its_row(small_bg, monkeypatch):
    newton_step = _captured_newton_step(small_bg, np.array([0.1, 0.01, 0.001]), monkeypatch)
    phi = np.zeros((2, 64))
    phi[1, 7] = np.nan
    with pytest.raises(SingularSystem) as exc:
        newton_step(phi, np.ones((2, 64)), np.array([0, 2]))
    assert exc.value.row == 2
    monkeypatch.undo()
    # 1/eps overflows to inf in the second row: its coefficient (1/eps) w is not finite
    beta = np.ones((2, 64))
    with pytest.raises(SingularSystem) as exc, np.errstate(over="ignore"):
        solve_aubin_fiber(FiberProblem(small_bg, beta, np.array([0.1, 1e-320])))
    assert exc.value.row == 1


@pytest.mark.parametrize("node", [5, 63])
def test_indefinite_jacobian_raises_not_positive_definite_naming_its_row(small_bg, monkeypatch, node):
    """A negative density node makes the Jacobian of the row whose potential peaks there indefinite:
    inside the (n-1)-block a reduced pivot of the cyclic reduction turns negative (node 5), at the
    last node the Schur complement does (node 63)."""
    w = small_bg.w.copy()
    w[node] = -1.0
    newton_step = _captured_newton_step(dataclasses.replace(small_bg, w=w), np.full(3, 0.01), monkeypatch)
    phi = np.zeros((2, 64))
    phi[1, node] = 6.0  # (1/eps) w e^phi = -4e4 there, against 2/h^2 = 8192
    with pytest.raises(SingularSystem, match="fiber Jacobian is not positive definite") as exc:
        newton_step(phi, np.ones((2, 64)), np.array([0, 2]))
    assert exc.value.row == 2


@pytest.mark.parametrize("rows", [1, 17])
@pytest.mark.parametrize("m", [7, 8, 63, 255, 511])
def test_cyclic_reduction_matches_dptsv(m, rows):
    """The factor's cyclic reduction solves the fiber step's (n-1)-block systems as LAPACK's LDL^T
    does, to 1e-13 relative, on diagonals 2/h^2 + (1/eps) w e^phi with (1/eps) w e^phi from 10 to
    1e3; the last row's diagonal is the only one the blocks do not read."""
    lapack = pytest.importorskip("scipy.linalg.lapack")
    rng = np.random.default_rng(m * rows)
    inv_h2 = float((m + 1) ** 2)
    diag = 2.0 * inv_h2 + np.exp(rng.uniform(np.log(10.0), np.log(1e3), (rows, m + 1)))
    rhs = rng.standard_normal((2, m + 1, rows))
    factor = geodesic._PeriodicFactor(diag, -inv_h2)
    assert np.all(factor.low > 0.0) and np.all(factor.low <= diag[:, :-1].min(axis=1))
    for b in rhs:
        x = factor._block_solve(b)
        for k in range(rows):
            _, _, reference, info = lapack.dptsv(diag[k, :-1], np.full(m - 1, -inv_h2), b[:-1, k])
            assert info == 0
            assert np.max(np.abs(x[k] - reference)) <= 1e-13 * np.max(np.abs(reference))


def _x_lines(n: int, lines: int, seed: int) -> np.ndarray:
    """Diagonals of x-lines of the space-time Jacobian divided by -Phi_ss/h^2:
    2 + 2 h^2 (w + Phi_xx) / (ds^2 Phi_ss), with random positive Phi_ss and w + Phi_xx."""
    rng = np.random.default_rng(seed)
    h, ds = 1.0 / n, 1.0 / 64
    m_xx, phi_ss = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), (2, lines, n)))
    return 2.0 + 2.0 * h * h * m_xx / (ds * ds * phi_ss)


@pytest.mark.parametrize("n, lines", [(8, 1), (64, 7), (256, 32)])
def test_periodic_tridiagonal_solves_row_scaled_x_lines(n, lines):
    """The periodic factor that the fiber step and the eps-geodesic's line smoother share, on
    x-lines of the space-time Jacobian with off-diagonal -1, matches a dense solve to 1e-12
    relative and reports positive pivots."""
    diag = _x_lines(n, lines, n + lines)
    r = np.random.default_rng(n).standard_normal((lines, n))
    factor = geodesic._PeriodicFactor(diag, -1.0)
    x = factor.solve(r)
    assert np.all(factor.low > 0.0)
    ring = np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)  # both x-neighbours, periodic
    for k in range(lines):
        dense = np.linalg.solve(np.diag(diag[k]) - ring, r[k])
        assert np.max(np.abs(x[k] - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("n, lines", [(8, 3), (256, 32)])
def test_one_factor_solves_like_a_fresh_factor_per_right_hand_side(n, lines):
    """A factor kept across solves, as the line smoother keeps it for a Newton step, gives the same
    bits for each right-hand side as a factor built for that one alone: solve only substitutes."""
    diag = _x_lines(n, lines, 7 * n)
    kept = geodesic._PeriodicFactor(diag, -1.0)
    for r in np.random.default_rng(n).standard_normal((4, lines, n)):
        assert np.array_equal(kept.solve(r), geodesic._PeriodicFactor(diag, -1.0).solve(r))


def _bordered_reference(diag: np.ndarray, e: float, r: np.ndarray) -> tuple:
    """The fiber step's former solve, eliminating and substituting in one pass: cyclic reduction of
    the (n-1)-blocks with the right-hand side and the corner column side by side, then the last
    unknown from the Schur complement.  Returns (x, the smallest pivot of each system)."""
    n, batch = diag.shape[1], len(diag)
    m, size = n - 1, 1
    while size < m:
        size = 2 * size + 1
    dd = np.concatenate([diag[:, :-1].T, np.ones((size - m, batch))])
    ee = np.concatenate([np.full((m - 1, batch), e), np.zeros((size - m, batch))])
    bb = np.zeros((size, 2, batch))
    bb[:m, 0], bb[[0, m - 1], 1] = r[:, :-1].T, e
    levels, low = [], np.full(batch, np.inf)
    while len(dd) > 1:
        piv = dd[::2]
        low = np.minimum(low, piv.min(axis=0))
        inv = 1.0 / piv
        lo, hi = ee[::2], ee[1::2]
        alpha, beta = lo * inv[:-1], hi * inv[1:]
        levels.append((inv, ee, bb))
        dd = dd[1::2] - alpha * lo - beta * hi
        ee = -beta[:-1] * ee[2::2]
        bb = bb[1::2] - alpha[:, None] * bb[:-1:2] - beta[:, None] * bb[2::2]
    low = np.minimum(low, dd[0])
    y = bb / dd[:, None]
    for inv, ee, bb in reversed(levels):
        full = np.empty((2 * len(y) + 1, *bb.shape[1:]))
        full[1::2] = y
        elim = bb[::2].copy()
        elim[1:] -= ee[1::2, None] * y
        elim[:-1] -= ee[::2, None] * y
        full[::2] = elim * inv[:, None]
        y = full
    y1, y2 = y[:m, 0].T, y[:m, 1].T
    schur = diag[:, -1] - e * (y2[:, 0] + y2[:, -1])
    last = (r[:, -1:] - e * (y1[:, :1] + y1[:, -1:])) / schur[:, None]
    return np.hstack([y1 - last * y2, last]), np.minimum(low, schur)


@pytest.mark.parametrize("n, rows", [(8, 1), (64, 5), (256, 17)])
def test_factor_gives_the_bits_of_the_one_pass_solve(n, rows):
    """Split into a factor and a substitution, the fiber step's solve does the same operations on
    every element in the same order as the one-pass reference, so its step and pivots are equal to
    the last bit, on diagonals 2/h^2 + (1/eps) w e^phi."""
    rng = np.random.default_rng(n + rows)
    inv_h2 = float(n * n)
    diag = 2.0 * inv_h2 + np.exp(rng.uniform(np.log(10.0), np.log(1e3), (rows, n)))
    r = rng.standard_normal((rows, n))
    x, low = _bordered_reference(diag, -inv_h2, r)
    factor = geodesic._PeriodicFactor(diag, -inv_h2)
    assert np.array_equal(factor.solve(r), x) and np.array_equal(factor.low, low)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_comparison_defect_nonpositive(seed):
    """int_{u<v} m[v] <= int_{u<v} m[u] exactly on the discrete circle."""
    grid = SpatialGrid(64)
    bg = make_background(grid)
    rng = np.random.default_rng(seed)
    terms = lambda: [(k, rng.uniform(-1, 1) / (2.0 * np.pi * k) ** 2 * 0.4, 0.0) for k in (1, 2)]
    u = fourier_field(grid, terms())
    v = fourier_field(grid, terms()) + rng.uniform(-0.1, 0.1)
    # int_{u<v} (m[v] - m[u]) dx = h sum of D2(v - u) over {u < v}
    assert bg.grid.spacing * float(np.sum(path_d2x(grid, v - u)[u < v])) <= 1e-12


# ---------------------------------------------------------------------------
# families


def test_family_shape_and_residuals(small_family):
    _, family = small_family
    assert family.phi.shape == (3, 9, 64)
    assert family.residuals.shape == (3, 9)
    assert np.all(family.residuals <= 1e-11)


def test_family_cauchy_increments_decrease(small_family):
    _, family = small_family
    for incs in family.cauchy_increments:
        assert len(incs) == 2
        assert incs[1] <= incs[0] + 1e-12


def test_family_slacks_vanish_on_admissible(small_family):
    _, family = small_family
    assert all(s == 0.0 for s in family.slacks)


def test_family_equicontinuity(small_family):
    _, family = small_family
    for eps, lip in zip(family.epsilons, family.lipschitz_constants):
        assert eps * lip <= family.equicontinuity_constant + 1e-15


def test_constant_path_gives_zero_family(small_bg):
    path = PathField(small_bg.grid, np.zeros((9, 64)))
    family = solve_family(small_bg, path, (1e-1, 1e-2, 1e-3), (0.1, 0.05))
    assert np.max(np.abs(family.phi)) < 1e-11


def test_family_mollifies_each_delta_once(small_bg, small_family, monkeypatch):
    """The slack and the admissibility check read the density of the one mollification per delta."""
    path, _ = small_family
    calls = []
    real = ma_fiber.mollify_fiberwise

    def counting(grid, values, spec):
        calls.append(spec.delta)
        return real(grid, values, spec)

    for module in (ma_fiber, regularize):
        monkeypatch.setattr(module, "mollify_fiberwise", counting)
    family = solve_family(small_bg, path, (1e-1,), (0.1, 0.05, 0.025))
    assert calls == [0.1, 0.05, 0.025]
    assert family.slacks == (0.0, 0.0, 0.0)


def test_family_batches_the_time_rows(small_bg, small_family, monkeypatch):
    """One call per time row serves every one of the n_eps * n_delta pairs."""
    path, expected = small_family
    sizes = []
    real = ma_fiber.solve_aubin_fiber

    def counting(problem, *args, **kwargs):
        sizes.append(len(problem.beta))
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(ma_fiber, "solve_aubin_fiber", counting)
    family = solve_family(small_bg, path, (1e-1, 1e-2, 1e-3), (0.1, 0.05, 0.025))
    assert sizes == [9] * (path.n_time + 1)
    assert np.array_equal(family.phi, expected.phi)


def test_family_row_without_a_balance_start_starts_from_the_mass_constant(small_grid, monkeypatch):
    """On a curved background eps theta + m_delta dips below 0 at eps = 0.1 (theta = -r reaches -237),
    so those rows start from the constant log int (eps theta + m_delta) dx and end where a solo solve
    from no start ends; the eps = 1e-3 rows of the same call keep the balance start."""
    bg = make_background(small_grid, psi=fourier_field(small_grid, [(3, 0.8 / (6.0 * np.pi) ** 2, 0.0)]))
    path = PathField(small_grid, np.linspace(0.0, 1.0, 9)[:, None] * 0.05 / (2.0 * np.pi) ** 2
                     * np.cos(2.0 * np.pi * small_grid.nodes)[None, :])
    calls = []
    real = ma_fiber.solve_aubin_fiber

    def keep(problem, phi0=None, tol=1e-11):
        sol = real(problem, phi0=phi0, tol=tol)
        calls.append((problem, phi0, sol))
        return sol

    monkeypatch.setattr(ma_fiber, "solve_aubin_fiber", keep)
    family = solve_family(bg, path, (1e-1, 1e-3), (0.1, 0.05))
    assert np.all(family.residuals <= 1e-11)
    for problem, phi0, sol in calls:
        balance = problem.epsilon[:, None] * (problem.theta + problem.beta)
        flat = ~np.all(balance > 0.0, axis=1)
        assert flat.tolist() == [True, True, False, False]
        assert np.max(np.abs(phi0[2:] - np.log(balance[2:] / bg.w))) <= 1e-14
        for b in np.flatnonzero(flat):
            assert np.max(np.abs(phi0[b] - np.log(bg.integrate(balance[b])))) <= 1e-14
            assert sol.residual_sup[b] <= 1e-11
            solo = real(FiberProblem(bg, problem.beta[b], problem.epsilon[b]))
            assert np.max(np.abs(sol.phi[b] - solo.phi[0])) <= 1e-13


def test_family_failure_keeps_exception_and_names_the_solve(small_bg, small_family):
    path, _ = small_family
    with pytest.raises(NoConvergence) as info:
        solve_family(small_bg, path, (1e-1, 1e-2, 1e-3), (0.1, 0.05, 0.025), tol=1e-18)
    exc = info.value
    assert exc.residual_sup is not None and exc.iterations is not None
    # row t=0 of the path is flat and solved exactly by the initial guess
    assert "(t=0.125, eps=0.1, delta=0.1)" in str(exc)


def test_max_principle_violation_is_typed(small_bg, monkeypatch):
    """A returned iterate above the discrete maximum-principle bound raises NotASolution."""
    real = ma_fiber.damped_newton

    def shifted(*args, **kwargs):
        x, rec = real(*args, **kwargs)
        return x + 1.0, rec

    monkeypatch.setattr(ma_fiber, "damped_newton", shifted)
    n = small_bg.grid.n_points
    with pytest.raises(NotASolution, match="max principle"):
        solve_aubin_fiber(FiberProblem(small_bg, np.ones(n), 0.1))


def test_family_input_validation(small_bg):
    path = PathField(small_bg.grid, np.zeros((9, 64)))
    with pytest.raises(ValueError, match="strictly decreasing"):
        solve_family(small_bg, path, (1e-1, 1e-1, 1e-2), (0.1, 0.05))
    with pytest.raises(ValueError, match="strictly decreasing"):
        solve_family(small_bg, path, (1e-1, 1e-2, 1e-3), (0.05, 0.1))


# ---------------------------------------------------------------------------
# family reports


def test_check_bounds_constant_family(small_bg):
    path = PathField(small_bg.grid, np.zeros((9, 64)))
    family = solve_family(small_bg, path, (1e-1, 1e-2, 1e-3), (0.1, 0.05))
    report = check_bounds(family)
    assert report.name == "family_uniform_bounds"
    assert report.passed and report.details["passed"] is True
    assert max(report.details["maxima"]) < 1e-10


def test_density_convergence_report(small_family):
    path, family = small_family
    report = density_convergence(family, path)
    assert report.name == "density_convergence"
    assert set(report.details) == {"epsilons", "max_per_eps", "final_max", "passed"}
    max_per_eps = report.details["max_per_eps"]
    assert len(max_per_eps) == 3 and max_per_eps[-1] <= max_per_eps[0]
    # the pairing with xi = 1 is the mass identity, not a convergence statement
    bg = family.bg
    gap = np.exp(family.phi) * bg.w - metric_density(bg, path.values)  # (eps, t, x)
    assert np.max(np.abs(bg.integrate(gap))) <= 1e-10
    # paired one test function at a time, the errors keep the bits of the whole (eps, t, xi, x) product
    errors = np.abs(bg.integrate(gap[..., None, :] * ma_fiber.default_test_set(bg.grid)))
    assert np.array_equal(np.asarray(max_per_eps), errors.reshape(3, -1).max(axis=1))


def test_eps_phi_vanishing_trend(small_family):
    _, family = small_family
    report = eps_phi_vanishing(family)
    assert report.name == "eps_phi_vanishing"
    sups = report.details["sup_norms"]
    assert report.passed
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= 0.5 * sups[0]


def test_family_report_keys(small_family):
    _, family = small_family
    doc = family_report(family)
    assert set(doc) == {
        "epsilons",
        "times",
        "deltas",
        "slacks",
        "bounds",
        "residuals",
        "cauchy_increments",
        "lipschitz_constants",
        "equicontinuity_constant",
    }
    assert doc["bounds"]["passed"] is True


def test_inadmissible_path_rejected(small_bg):
    bad = PathField(
        small_bg.grid,
        np.linspace(0, 1, 9)[:, None] * np.cos(2.0 * np.pi * small_bg.grid.nodes)[None, :],
    )
    with pytest.raises(NegativeDensity):
        solve_family(small_bg, bad, (1e-1, 1e-2, 1e-3), (0.1, 0.05))
