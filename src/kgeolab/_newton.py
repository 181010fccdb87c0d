"""Shared damped Newton driver.

One loop serves every nonlinear solve in the package: full steps with
residual-decrease line search by halving, an optional acceptance predicate
that keeps iterates inside a positivity cone, and sup-norm convergence.
The iterate has a leading batch axis, one independent system per row, and
norms, halving and convergence are per row: a row at or below tol is frozen.
The rows still iterating share each callback call, so a caller can factor
one block-diagonal Jacobian per step; a batch of one row does the
arithmetic of the plain loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, PositivityLoss

# splu options of both Newton solvers: each builds its pattern in the order it
# factors (the fiber blocks need no reordering, the geodesic pattern is in
# nested-dissection order), and one-column supernodes and panels factor both
# faster than the defaults
LU_OPTIONS = dict(permc_spec="NATURAL", relax=1, panel_size=1)


@dataclass
class NewtonRecord:
    """Per-row Newton steps and sup-norm histories (start included); halvings of all rows."""

    row_iterations: np.ndarray
    residual_sups: list
    halvings: int = 0

    @property
    def iterations(self) -> int:  # summed over the rows
        return int(self.row_iterations.sum())


def damped_newton(
    x0,
    residual,
    newton_step,
    accept=None,
    tol: float = 1e-11,
    max_iter: int = 200,
    max_halvings: int = 30,
):
    """Drive every row of x0, of shape (rows, n), to a residual sup norm <= tol.

    The callbacks get the stack x of the rows still iterating and their
    batch indices ``rows``: ``residual(x, rows)``, ``newton_step(x, r, rows)``
    (the full updates, J(x) step = -r row by row) and ``accept(x, rows)``
    (one flag per row, gating trial iterates).  A row whose every damping
    level accept rejects fails with PositivityLoss; a row out of halvings or
    iterations fails with NoConvergence, carrying its residual_sup and
    iterations.  The other rows still finish; then the error of the lowest
    failing row is raised, with its batch index in ``row``.
    """
    x = np.array(x0, dtype=float)
    active = np.arange(len(x))
    if accept is not None:
        bad = np.flatnonzero(~accept(x, active))
        if bad.size:
            raise PositivityLoss("initial iterate violates the acceptance predicate").at_row(bad[0])
    r = residual(x, active)
    r_sup = np.max(np.abs(r), axis=1)
    rec = NewtonRecord(np.zeros(len(x), dtype=int), [[float(s)] for s in r_sup])
    failed = {}

    def unconverged(b, message):
        return NoConvergence(message, residual_sup=float(r_sup[b]), iterations=int(rec.row_iterations[b]))

    active = active[r_sup > tol]
    while active.size:
        spent = rec.row_iterations[active] >= max_iter
        for b in active[spent]:
            failed[b] = unconverged(b, f"residual {r_sup[b]:.3e} > {tol:g} after {max_iter} iterations")
        active = active[~spent]
        if not active.size:
            break
        step = None  # release the last step before the factorization, the peak of a step
        every = slice(None) if len(active) == len(x) else active  # a view, not a copy, when it can
        step = newton_step(x[every], r[every], active)
        t = np.ones(len(active))
        pending = np.arange(len(active))  # positions in active still without a step
        cone_ok = np.zeros(len(active), dtype=bool)
        for _ in range(max_halvings + 1):
            rows = active[pending]
            trial = x[rows] + t[pending, None] * step[pending]
            ok = np.ones(len(rows), dtype=bool) if accept is None else accept(trial, rows)
            cone_ok[pending[ok]] = True
            trial, rows = trial[ok], rows[ok]
            if rows.size:
                trial_r = residual(trial, rows)
                trial_sup = np.max(np.abs(trial_r), axis=1)
                better = trial_sup < r_sup[rows]
                won = rows[better]
                x[won], r[won], r_sup[won] = trial[better], trial_r[better], trial_sup[better]
                pending = np.delete(pending, np.flatnonzero(ok)[better])
            if not pending.size:
                break
            t[pending] *= 0.5
            rec.halvings += len(pending)
        for b, admissible in zip(active[pending], cone_ok[pending]):
            at = f"residual {r_sup[b]:.3e}"
            failed[b] = (
                unconverged(b, f"damping stalled at {at}") if admissible
                else PositivityLoss(f"no damping level kept the iterate admissible ({at})")
            )
        stepped = np.delete(active, pending)
        rec.row_iterations[stepped] += 1
        for b in stepped:
            rec.residual_sups[b].append(float(r_sup[b]))
        active = stepped[r_sup[stepped] > tol]
    if failed:
        b = min(failed)
        raise failed[b].at_row(b)
    return x, rec
