"""Shared damped Newton driver.

One loop serves every nonlinear solve in the package: full steps with
residual-decrease line search by halving, iterates kept admissible (inside
a positivity cone), and sup-norm convergence.  One callback, ``evaluate``,
answers for a trial iterate both its residual and whether it is admissible,
and every trial, chord, damped or polishing, takes the same path through it.
The iterate has a leading batch axis, one independent system per row, and
norms, halving and convergence are per row: a row at or below tol is frozen.
The rows still iterating share each callback call, so a caller can solve
one batched linear system per step; a batch of one row does the
arithmetic of the plain loop.

A Newton step may come with a reusable solve, the factored Jacobian of its
iterate or another fixed linear approximation of its inverse, such as a
two-grid cycle.  The next iterate then first tries a chord step with it
(Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003): one
full step, kept only if it stays admissible and cuts the residual by
CHORD_CONTRACTION; otherwise the factorization is dropped and a fresh
Newton step with line search is taken at the same iterate, so every failure
comes from a fresh step.  A row that reaches tol goes on with chord steps
while each at least halves its residual, at most POLISH_STEPS of them,
which brings it to the round-off floor wherever it started.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, PositivityLoss

#: a chord step before tol is kept only if it cuts the residual sup at least tenfold.
#: Newton from a near iterate contracts quadratically, a chord step only linearly, at a
#: rate set by how far the Jacobian moved since it was factored: a tenfold cut keeps the
#: chord steps to about one per digit still missing, and past that a fresh LU gains more.
CHORD_CONTRACTION = 0.1
#: chord steps a row at tol takes while each at least halves its residual; from a
#: residual near tol the contraction reaches the floor of a double-precision stencil in two
#: or three, and a step that no longer halves the residual is round-off
POLISH_STEPS = 3
#: step halvings a fresh Newton step may take before its row counts as stalled
MAX_HALVINGS = 30


@dataclass
class NewtonRecord:
    """Per-row steps and sup-norm histories (start included); halvings and factorizations of all rows.

    A row's steps count Newton and chord steps alike; factorizations counts
    the newton_step calls, each over the rows it was given.  The rest are
    the caller's.  fallbacks: the steps whose reduced-precision factor failed
    and were factored again in float64, each one factorization more.
    two_grid: the steps taken from a two-grid cycle, and two_grid_fallbacks
    the cycles that failed and gave way to a factorization of the whole system.
    """

    row_iterations: np.ndarray
    residual_sups: list
    halvings: int = 0
    factorizations: int = 0
    fallbacks: int = 0
    two_grid: int = 0
    two_grid_fallbacks: int = 0

    @property
    def iterations(self) -> int:  # summed over the rows
        return int(self.row_iterations.sum())


def damped_newton(x0, evaluate, newton_step, tol: float, max_iter: int):
    """Drive every row of x0, of shape (rows, n), to a residual sup norm <= tol.

    The callbacks get the stack x of the rows still iterating and their
    batch indices ``rows``: ``evaluate(x, rows)`` returns ``(r, ok)``, the
    residuals and one admissibility flag per row; ``newton_step(x, r, rows)``
    returns ``(step, solve)``, the full updates (J(x) step = -r row by row)
    and None or a ``solve(r, rows)`` applying the same factored Jacobians to
    the residuals r of any of those rows, which the driver keeps for chord
    steps.  An inadmissible row of x0, or one whose every damping level is
    inadmissible, fails with PositivityLoss; a row out of halvings or
    iterations fails with NoConvergence, carrying its residual_sup and
    iterations.  The other rows still finish; then the error of the lowest
    failing row is raised, with its batch index in ``row``.
    """
    x = np.array(x0, dtype=float)
    del x0  # frees a start the caller did not keep (CPython 3.11 moves call arguments to the callee)
    active = np.arange(len(x))
    r, ok = evaluate(x, active)
    if not ok.all():
        raise PositivityLoss("initial iterate violates the acceptance predicate").at_row(np.argmin(ok))
    r_sup = np.max(np.abs(r), axis=1)
    rec = NewtonRecord(np.zeros(len(x), dtype=int), [[float(s)] for s in r_sup])
    failed = {}
    solve, solve_rows = None, np.zeros(len(x), dtype=bool)  # the one factorization kept; the rows it was built for

    def unconverged(b, message):
        return NoConvergence(message, residual_sup=float(r_sup[b]), iterations=int(rec.row_iterations[b]))

    def attempt(rows, step, factor):
        """Try x[rows] + step; commit the rows admissible with residual below factor times the old.

        The trial is formed in step, which every caller passes as a fresh array.  Returns the flags
        ok (admissible) and kept (committed), one per row."""
        trial = np.add(step, x[rows], out=step)
        trial_r, ok = evaluate(trial, rows)
        trial_sup = np.max(np.abs(trial_r), axis=1)
        kept = ok & (trial_sup < factor * r_sup[rows])
        won = rows[kept]
        x[won], r[won], r_sup[won] = trial[kept], trial_r[kept], trial_sup[kept]
        rec.row_iterations[won] += 1
        for b in won:
            rec.residual_sups[b].append(float(r_sup[b]))
        return ok, kept

    def chord(rows, factor):
        """One full chord step on rows; returns the rows that kept it."""
        if not rows.size:
            return rows
        every = r if len(rows) == len(x) else r[rows]  # r itself, not a copy, when it can
        return rows[attempt(rows, solve(every, rows), factor)[1]]

    active = active[r_sup > tol]
    while active.size:
        spent = rec.row_iterations[active] >= max_iter
        for b in active[spent]:
            failed[b] = unconverged(b, f"residual {r_sup[b]:.3e} > {tol:g} after {max_iter} iterations")
        active = active[~spent]
        if not active.size:
            break
        moved = np.zeros(len(x), dtype=bool)  # the rows that take a step this round
        moved[chord(active[solve_rows[active]], CHORD_CONTRACTION)] = True
        fresh = active[~moved[active]]
        if fresh.size:
            solve, step = None, None  # release the last LU and step before the next
            solve_rows[:] = False
            every = slice(None) if len(fresh) == len(x) else fresh  # a view, not a copy, when it can
            step, solve = newton_step(x[every], r[every], fresh)
            solve_rows[fresh] = solve is not None
            rec.factorizations += 1
            t = np.ones(len(fresh))
            pending = np.arange(len(fresh))  # positions in fresh still without a step
            cone_ok = np.zeros(len(fresh), dtype=bool)
            for _ in range(MAX_HALVINGS + 1):
                ok, kept = attempt(fresh[pending], t[pending, None] * step[pending], 1.0)
                cone_ok[pending[ok]] = True
                pending = pending[~kept]
                if not pending.size:
                    break
                t[pending] *= 0.5
                rec.halvings += len(pending)
            for b, admissible in zip(fresh[pending], cone_ok[pending]):
                at = f"residual {r_sup[b]:.3e}"
                failed[b] = (
                    unconverged(b, f"damping stalled at {at}") if admissible
                    else PositivityLoss(f"no damping level kept the iterate admissible ({at})")
                )
            moved[np.delete(fresh, pending)] = True
        moved = np.flatnonzero(moved)
        polishing = moved[(r_sup[moved] <= tol) & solve_rows[moved]]
        for _ in range(POLISH_STEPS):
            polishing = chord(polishing, 0.5)  # kept while it at least halves the residual
        active = moved[r_sup[moved] > tol]
    if failed:
        b = min(failed)
        raise failed[b].at_row(b)
    return x, rec
