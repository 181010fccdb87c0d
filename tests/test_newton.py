"""The damped Newton driver with a batch axis: per-row norms, damping and freezing."""

import numpy as np
import pytest

from kgeolab import NoConvergence, PositivityLoss
from kgeolab._newton import damped_newton


def _arctan_rows(centres, n=3):
    """Row b solves arctan(x - centres[b]) = 0: full steps overshoot far from the root."""
    c = np.repeat(np.asarray(centres, dtype=float)[:, None], n, axis=1)

    def residual(x, rows):
        return np.arctan(x - c[rows])

    def newton_step(x, r, rows):
        return -r * (1.0 + (x - c[rows]) ** 2)

    return residual, newton_step


def _solo(x0, centres, b, **kwargs):
    """Row b of the batch, solved as a batch of one."""
    residual, newton_step = _arctan_rows([centres[b]])
    return damped_newton(x0[b:b + 1], residual, newton_step, **kwargs)


def test_converged_row_stays_bit_identical():
    """Row 0 starts within tol of its root (residual about 1e-13) and is not refined."""
    centres = [0.3, 2.0]
    x0 = np.array([[0.3 + 1e-13, 0.3, 0.3 - 2e-13], [0.0, 0.0, 0.0]])
    residual, newton_step = _arctan_rows(centres)
    x, rec = damped_newton(x0, residual, newton_step, tol=1e-12)
    assert np.array_equal(x[0], x0[0])
    assert rec.row_iterations[0] == 0
    assert 0.0 < rec.residual_sups[0][0] <= 1e-12 and len(rec.residual_sups[0]) == 1
    assert rec.row_iterations[1] > 0 and rec.residual_sups[1][-1] <= 1e-12


def test_rows_take_their_own_halvings():
    centres = [0.5, 3.0, -6.0]
    x0 = np.zeros((3, 3))
    residual, newton_step = _arctan_rows(centres)
    x, rec = damped_newton(x0, residual, newton_step, tol=1e-12)
    solo = [_solo(x0, centres, b, tol=1e-12) for b in range(3)]
    assert [s[1].halvings for s in solo][0] == 0
    assert all(s[1].halvings > 0 for s in solo[1:])
    assert solo[1][1].halvings != solo[2][1].halvings
    assert rec.halvings == sum(s[1].halvings for s in solo)
    for b, (xb, recb) in enumerate(solo):
        assert np.array_equal(x[b], xb[0])
        assert rec.row_iterations[b] == recb.row_iterations[0]
        assert rec.residual_sups[b] == recb.residual_sups[0]
    assert rec.iterations == sum(s[1].iterations for s in solo)


def test_stalled_row_raises_with_its_own_record():
    """Row 1 cannot get below 0.25; rows 0 and 2 converge around it."""
    c = np.array([[0.5], [1.0], [-0.5]]) * np.ones((1, 2))

    def residual(x, rows):
        r = x - c[rows]
        return np.where((rows == 1)[:, None] & (np.abs(r) < 0.25), 0.25, r)

    def newton_step(x, r, rows):
        return -(x - c[rows])

    with pytest.raises(NoConvergence, match="damping stalled") as info:
        damped_newton(np.zeros((3, 2)), residual, newton_step, tol=1e-12)
    exc = info.value
    assert exc.row == 1
    assert exc.residual_sup == 0.25
    assert exc.iterations == 1


def test_iteration_budget_names_the_slow_row():
    residual, newton_step = _arctan_rows([0.1, 8.0])
    with pytest.raises(NoConvergence, match="after 3 iterations") as info:
        damped_newton(np.zeros((2, 3)), residual, newton_step, tol=1e-12, max_iter=3)
    assert info.value.row == 1 and info.value.iterations == 3
    assert info.value.residual_sup > 1e-12


def test_rejected_initial_row_is_named():
    residual, newton_step = _arctan_rows([0.0, 0.0])
    with pytest.raises(PositivityLoss, match="initial iterate") as info:
        damped_newton(np.array([[1.0], [-1.0]]), residual, newton_step, accept=lambda x, rows: x[:, 0] > 0)
    assert info.value.row == 1


def _reference_newton(x0, residual, newton_step, accept, tol, max_iter=200, max_halvings=30):
    """The unbatched loop the driver generalizes: one vector, scalar damping."""
    x = np.array(x0, dtype=float)
    r = residual(x)
    r_sup = float(np.max(np.abs(r)))
    sups = [r_sup]
    while r_sup > tol:
        step = newton_step(x, r)
        t = 1.0
        for _ in range(max_halvings + 1):
            trial = x + t * step
            if accept(trial):
                trial_r = residual(trial)
                trial_sup = float(np.max(np.abs(trial_r)))
                if trial_sup < r_sup:
                    x, r, r_sup = trial, trial_r, trial_sup
                    break
            t *= 0.5
        else:
            raise AssertionError("reference loop stalled")
        sups.append(r_sup)
    return x, sups


def test_batch_of_one_matches_the_unbatched_loop():
    """A fixed coupled problem with cone rejections and halvings, bit for bit."""
    n = 6
    a = 0.3 * np.cos(np.arange(n))
    lap = -2.0 * np.eye(n) + np.roll(np.eye(n), 1, axis=0) + np.roll(np.eye(n), -1, axis=0)

    def res(x):
        return lap @ x + 4.0 * np.arctan(x - 3.0) + a

    def step(x, r):
        return np.linalg.solve(lap + np.diag(4.0 / (1.0 + (x - 3.0) ** 2)), -r)

    def ok(x):
        return bool(np.min(x) > -1.5)

    x0 = np.linspace(-1.0, 1.0, n)
    ref_x, ref_sups = _reference_newton(x0, res, step, ok, tol=1e-12)
    x, rec = damped_newton(
        x0[None, :],
        lambda x, rows: res(x[0])[None, :],
        lambda x, r, rows: step(x[0], r[0])[None, :],
        accept=lambda x, rows: np.array([ok(x[0])]),
        tol=1e-12,
    )
    assert rec.halvings > 0
    assert np.array_equal(x[0], ref_x)
    assert rec.residual_sups == [ref_sups]
    assert rec.iterations == len(ref_sups) - 1
