"""The damped Newton driver with a batch axis: per-row norms, damping and freezing."""

import numpy as np
import pytest

from kgeolab import NoConvergence, PositivityLoss
from kgeolab._newton import damped_newton


def _arctan_rows(centres, n=3):
    """Row b solves arctan(x - centres[b]) = 0: full steps overshoot far from the root."""
    c = np.repeat(np.asarray(centres, dtype=float)[:, None], n, axis=1)

    def evaluate(x, rows):
        return np.arctan(x - c[rows]), np.ones(len(rows), dtype=bool)

    def newton_step(x, r, rows):
        return -r * (1.0 + (x - c[rows]) ** 2), None

    return evaluate, newton_step


def _solo(x0, centres, b, **kwargs):
    """Row b of the batch, solved as a batch of one."""
    evaluate, newton_step = _arctan_rows([centres[b]])
    return damped_newton(x0[b:b + 1], evaluate, newton_step, **kwargs)


def test_converged_row_stays_bit_identical():
    """Row 0 starts within tol of its root (residual about 1e-13) and is not refined."""
    centres = [0.3, 2.0]
    x0 = np.array([[0.3 + 1e-13, 0.3, 0.3 - 2e-13], [0.0, 0.0, 0.0]])
    evaluate, newton_step = _arctan_rows(centres)
    x, rec = damped_newton(x0, evaluate, newton_step, tol=1e-12, max_iter=200)
    assert np.array_equal(x[0], x0[0])
    assert rec.row_iterations[0] == 0
    assert 0.0 < rec.residual_sups[0][0] <= 1e-12 and len(rec.residual_sups[0]) == 1
    assert rec.row_iterations[1] > 0 and rec.residual_sups[1][-1] <= 1e-12


def test_rows_take_their_own_halvings():
    centres = [0.5, 3.0, -6.0]
    x0 = np.zeros((3, 3))
    evaluate, newton_step = _arctan_rows(centres)
    x, rec = damped_newton(x0, evaluate, newton_step, tol=1e-12, max_iter=200)
    solo = [_solo(x0, centres, b, tol=1e-12, max_iter=200) for b in range(3)]
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

    def evaluate(x, rows):
        r = x - c[rows]
        return np.where((rows == 1)[:, None] & (np.abs(r) < 0.25), 0.25, r), np.ones(len(rows), dtype=bool)

    def newton_step(x, r, rows):
        return -(x - c[rows]), None

    with pytest.raises(NoConvergence, match="damping stalled") as info:
        damped_newton(np.zeros((3, 2)), evaluate, newton_step, tol=1e-12, max_iter=200)
    exc = info.value
    assert exc.row == 1
    assert exc.residual_sup == 0.25
    assert exc.iterations == 1


def test_iteration_budget_names_the_slow_row():
    evaluate, newton_step = _arctan_rows([0.1, 8.0])
    with pytest.raises(NoConvergence, match="after 3 iterations") as info:
        damped_newton(np.zeros((2, 3)), evaluate, newton_step, tol=1e-12, max_iter=3)
    assert info.value.row == 1 and info.value.iterations == 3
    assert info.value.residual_sup > 1e-12


def test_rejected_initial_row_is_named():
    arctan, newton_step = _arctan_rows([0.0, 0.0], n=1)

    def evaluate(x, rows):
        return arctan(x, rows)[0], x[:, 0] > 0

    with pytest.raises(PositivityLoss, match="initial iterate") as info:
        damped_newton(np.array([[1.0], [-1.0]]), evaluate, newton_step, tol=1e-11, max_iter=200)
    assert info.value.row == 1


def _reference_newton(x0, residual, newton_step, accept, tol, max_iter=200, max_halvings=30):
    """The unbatched loop the driver generalizes: one vector, scalar damping.

    Returns the solution, the residual sups and the number of trial iterates, the start included.
    """
    x = np.array(x0, dtype=float)
    r = residual(x)
    trials = 1
    r_sup = float(np.max(np.abs(r)))
    sups = [r_sup]
    while r_sup > tol:
        step = newton_step(x, r)
        t = 1.0
        for _ in range(max_halvings + 1):
            trial = x + t * step
            trials += 1
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
    return x, sups, trials


def test_batch_of_one_matches_the_unbatched_loop():
    """A fixed coupled problem with cone rejections and halvings, bit for bit, with one evaluate
    call per trial iterate of the plain loop and one newton_step call per factorization."""
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
    ref_x, ref_sups, ref_trials = _reference_newton(x0, res, step, ok, tol=1e-12)
    calls = {"evaluate": 0, "newton_step": 0}

    def evaluate(x, rows):
        calls["evaluate"] += 1
        return res(x[0])[None, :], np.array([ok(x[0])])

    def newton_step(x, r, rows):
        calls["newton_step"] += 1
        return step(x[0], r[0])[None, :], None

    x, rec = damped_newton(x0[None, :], evaluate, newton_step, tol=1e-12, max_iter=200)
    assert calls == {"evaluate": ref_trials, "newton_step": rec.factorizations}
    assert rec.factorizations == len(ref_sups) - 1
    assert rec.halvings > 0
    assert np.array_equal(x[0], ref_x)
    assert rec.residual_sups == [ref_sups]
    assert rec.iterations == len(ref_sups) - 1


# ---------------------------------------------------------------------------
# chord steps on a reused factorization


def _chord_rows(centres, solve_at, log):
    """Row b solves arctan(x - c[b]) = 0 with Newton steps that also return a solve.

    solve_at(r) is the step the solve gives for residuals r; log gets each
    iterate that newton_step factors at and "chord" for each solve call.
    """
    evaluate, plain_step = _arctan_rows(centres)

    def newton_step(x, r, rows):
        log.append(x.copy())
        return plain_step(x, r, rows)[0], lambda r, rows: (log.append("chord"), solve_at(r))[1]

    return evaluate, newton_step


def test_chord_steps_save_factorizations_and_polish_to_the_floor():
    """With the derivative of the factorization's iterate, chord steps replace most fresh
    steps and polish both rows below tol, to the round-off floor."""
    centres = [0.5, 1.5]
    c = np.repeat(np.asarray(centres)[:, None], 3, axis=1)
    evaluate, plain_step = _arctan_rows(centres)

    def newton_step(x, r, rows):
        d = dict(zip(rows.tolist(), 1.0 + (x - c[rows]) ** 2))
        return plain_step(x, r, rows)[0], lambda r, rows: -r * np.array([d[b] for b in rows.tolist()])

    x, rec = damped_newton(np.zeros((2, 3)), evaluate, newton_step, tol=1e-10, max_iter=200)
    _, plain = damped_newton(np.zeros((2, 3)), evaluate, plain_step, tol=1e-10, max_iter=200)
    assert 0 < rec.factorizations < plain.factorizations
    assert rec.iterations > rec.factorizations + 2  # chord steps count as steps
    assert max(sups[-1] for sups in rec.residual_sups) <= 1e-15 < max(sups[-1] for sups in plain.residual_sups)
    assert np.max(np.abs(x - c)) <= 1e-15


@pytest.mark.parametrize("bad", ["contraction", "accept"])
def test_rejected_chord_step_is_replaced_by_a_fresh_factorization_at_the_same_iterate(bad):
    """Every chord step here fails: 0.3 of the Newton step cuts the residual by about 0.7, not
    0.1, and a Newton step that lands 2e-3 past the root leaves the acceptance region x < c + 1e-3.
    Each is followed by a factorization at the iterate it started from, and the run is the one
    without reuse, bit for bit."""
    centres = [0.5, 1.5]
    c = np.repeat(np.asarray(centres)[:, None], 3, axis=1)
    newton_at = lambda r: -r * (1.0 + np.tan(r) ** 2)  # the Newton step at x = c + tan(r)
    solve_at = (lambda r: 0.3 * newton_at(r)) if bad == "contraction" else (lambda r: newton_at(r) + 2e-3)
    arctan, _ = _arctan_rows(centres)
    evaluate = lambda x, rows: (arctan(x, rows)[0], np.max(x - c[rows], axis=1) < 1e-3)
    log, plain_log = [], []
    _, newton_step = _chord_rows(centres, solve_at, log)
    _, counting_step = _chord_rows(centres, solve_at, plain_log)
    x, rec = damped_newton(np.zeros((2, 3)), evaluate, newton_step, tol=1e-12, max_iter=200)
    plain_x, plain = damped_newton(
        np.zeros((2, 3)), evaluate, lambda *a: (counting_step(*a)[0], None), tol=1e-12, max_iter=200
    )
    factored = [entry for entry in log if not isinstance(entry, str)]
    assert [isinstance(entry, str) for entry in log][:4] == [False, True, False, True]
    assert len(factored) == len(plain_log) == rec.factorizations == plain.factorizations
    assert all(np.array_equal(a, b) for a, b in zip(factored, plain_log))
    assert np.array_equal(x, plain_x)
    assert rec.residual_sups == plain.residual_sups
    if bad == "accept":  # the same chord steps pass the contraction test: admissibility alone rejects them
        reusing_step = _chord_rows(centres, solve_at, [])[1]
        _, kept = damped_newton(np.zeros((2, 3)), arctan, reusing_step, tol=1e-12, max_iter=200)
        assert kept.residual_sups[0][:3] != plain.residual_sups[0][:3]


def _failing_system():
    """Row 0 converges; row 1 stalls at residual 0.25; row 2 tends to a root outside the admissible set."""
    c = np.array([[0.5], [1.0], [1.0]]) * np.ones((1, 2))

    def evaluate(x, rows):
        r = x - c[rows]
        return np.where((rows == 1)[:, None] & (np.abs(r) < 0.25), 0.25, r), (rows != 2) | (x[:, 0] < 0.5)

    def plain_step(x, r, rows):
        return -(x - c[rows]), None

    def reusing_step(x, r, rows):
        return plain_step(x, r, rows)[0], lambda r, rows: -r

    return evaluate, plain_step, reusing_step


@pytest.mark.parametrize("rows", [[0, 1, 2], [0, 2]])
def test_failures_with_reuse_match_those_without(rows):
    """With a solve to reuse, the stall (rows 0-2) and the cone loss (rows 0 and 2) raise the
    same error type and message on the same batch row as without one."""
    evaluate, plain_step, reusing_step = _failing_system()
    sub = np.array(rows)

    def solve(step):
        x0 = np.zeros((len(sub), 2))
        return damped_newton(
            x0, lambda x, b: evaluate(x, sub[b]), lambda x, r, b: step(x, r, sub[b]), tol=1e-12, max_iter=200
        )

    errors = []
    for step in (plain_step, reusing_step):
        with pytest.raises((NoConvergence, PositivityLoss)) as info:
            solve(step)
        errors.append(info.value)
    plain, reused = errors
    assert type(reused) is type(plain) and reused.row == plain.row == 1
    assert str(reused) == str(plain)
    assert isinstance(plain, NoConvergence if rows[1] == 1 else PositivityLoss)
