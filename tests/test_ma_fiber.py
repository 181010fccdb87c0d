"""Fiber solvers, families, and the uniform-bound machinery."""

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
    solve_aubin_fiber,
    solve_family,
)
from kgeolab import ma_fiber, regularize
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
    assert sol.min_metric_eigen > 0.0


def test_aubin_zero_source_rejected(small_bg):
    n = small_bg.grid.n_points
    prob = FiberProblem(small_bg, np.zeros(n), 0.1, theta=np.zeros(n))
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
    assert len(set(stacked.row_iters.tolist())) > 1  # rows freeze at different steps
    for b in range(len(eps)):
        solo = solve_aubin_fiber(FiberProblem(small_bg, beta[b], eps[b]))
        assert np.max(np.abs(stacked.phi[b] - solo.phi[0])) <= 1e-13
        assert stacked.row_iters[b] == solo.row_iters[0]
        assert stacked.residual_sup[b] <= 1e-11
    assert stacked.newton_iters == int(np.sum(stacked.row_iters))


def _captured_newton_step(bg, eps, monkeypatch):
    """The newton_step callback of solve_aubin_fiber on rows with these epsilons, before any step."""
    steps = []

    def spy(x0, residual, newton_step, **kwargs):
        steps.append(newton_step)
        raise InterruptedError

    monkeypatch.setattr(ma_fiber, "damped_newton", spy)
    with pytest.raises(InterruptedError):
        solve_aubin_fiber(FiberProblem(bg, np.ones((len(eps), bg.grid.n_points)), eps))
    return steps[0]


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
    """Row 0 chains through the n_eps * n_delta pairs; then one call per later row serves every pair."""
    path, expected = small_family
    sizes = []
    real = ma_fiber.solve_aubin_fiber

    def counting(problem, *args, **kwargs):
        sizes.append(len(problem.beta))
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(ma_fiber, "solve_aubin_fiber", counting)
    family = solve_family(small_bg, path, (1e-1, 1e-2, 1e-3), (0.1, 0.05, 0.025))
    assert sizes == [1] * 9 + [9] * path.n_time
    assert np.array_equal(family.phi, expected.phi)


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
    assert report.passed
    assert max(report.maxima) < 1e-10


def test_density_convergence_report(small_family):
    path, family = small_family
    report = density_convergence(family, path)
    assert report.errors.shape == (3, 9, 5)
    assert report.max_per_eps[-1] <= report.max_per_eps[0]
    # mass pairing row (xi = 1) is an identity, not a convergence statement
    assert np.max(report.errors[:, :, 0]) <= 1e-10
    with pytest.raises(ValueError, match="nonempty"):
        density_convergence(family, path, test_set=[])


def test_eps_phi_vanishing_trend(small_family):
    _, family = small_family
    report = eps_phi_vanishing(family)
    sups = report.sup_norms
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
