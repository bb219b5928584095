"""Per-cell stiff BDF integration — the CVODE-style reference loop.

This is the paper's conventional chemistry path: every cell is an
independent stiff initial-value problem handed to the variable-order
BDF solver one at a time.  It is the accuracy reference the batched
and surrogate backends are validated against, and its per-cell step
counts exhibit the load imbalance that motivates both.
"""

from __future__ import annotations

import time

import numpy as np

from ..mechanism import Mechanism
from ..ode import BDFIntegrator
from ..reactor import ReactorKernel
from .base import BackendStats, ChemistryBackend

__all__ = ["PerCellBDFBackend"]


class PerCellBDFBackend(ChemistryBackend):
    """One BDF solve per cell (the baseline the paper accelerates), on
    batch-of-one calls of the shared
    :class:`~repro.chemistry.reactor.ReactorKernel`."""

    name = "percell-bdf"
    #: Temperature clamp of the reactor RHS and of the returned ``T``.
    T_FLOOR = 200.0

    def __init__(self, mech: Mechanism, rtol: float = 1e-6, atol: float = 1e-10):
        self.mech = mech
        self.kernel = ReactorKernel(mech, self.T_FLOOR)
        self.rtol, self.atol = rtol, atol

    # ------------------------------------------------------------------
    def advance(self, y, t, p, dt):
        """Advance every cell with its own stiff BDF solve.

        Returns ``(Y_new, T_new, stats)``; ``stats.work_per_cell``
        carries each cell's accepted step count -- the raw signal of
        the paper's chemistry load imbalance.
        """
        y, t, p = self._as_batch(y, t, p, dt)
        n = t.shape[0]
        t_new = t.copy()
        y_new = y.copy()
        steps = np.zeros(n)
        rhs_evals = jac_evals = lu_count = 0
        t0 = time.perf_counter()
        for c in range(n):
            fun, jac = self.kernel.one_cell(float(p[c]))
            solver = BDFIntegrator(fun, jac=jac, rtol=self.rtol, atol=self.atol)
            state0 = np.concatenate(([t[c]], y[c]))
            _, ys = solver.solve((0.0, float(dt)), state0)
            steps[c] = solver.work.steps
            rhs_evals += solver.work.rhs_evals
            jac_evals += solver.work.jac_evals
            lu_count += solver.work.lu_factorizations
            t_new[c] = max(ys[-1, 0], self.T_FLOOR)
            yc = np.clip(ys[-1, 1:], 0.0, 1.0)
            y_new[c] = yc / yc.sum()
        stats = BackendStats(
            backend=self.name, n_cells=n,
            wall_time=time.perf_counter() - t0,
            work_per_cell=steps, rhs_evals=rhs_evals, jac_evals=jac_evals,
            linear_solves=lu_count,
            sub_batches=[("bdf", n, int(steps.sum()))],
        )
        return y_new, t_new, stats
