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

from ..jacobian import AnalyticJacobian
from ..kinetics import KineticsEvaluator
from ..mechanism import Mechanism
from ..ode import BDFIntegrator
from .base import BackendStats, ChemistryBackend

__all__ = ["PerCellBDFBackend"]


class PerCellBDFBackend(ChemistryBackend):
    """One BDF solve per cell (the baseline the paper accelerates).

    ``jacobian`` selects how the Newton iteration matrix is built:
    ``"analytic"`` (default) assembles it from precomputed
    stoichiometry (:class:`~repro.chemistry.jacobian.AnalyticJacobian`)
    in one pass; ``"fd"`` keeps the batched finite-difference column
    loop as the validation reference (1 + n_species RHS sweeps per
    evaluation).
    """

    name = "percell-bdf"

    def __init__(self, mech: Mechanism, rtol: float = 1e-6, atol: float = 1e-10,
                 t_floor: float = 200.0, jacobian: str = "analytic"):
        if jacobian not in ("analytic", "fd"):
            raise ValueError(f"unknown jacobian mode {jacobian!r}")
        self.mech = mech
        self.kinetics = KineticsEvaluator(mech)
        self.rtol, self.atol = rtol, atol
        self.t_floor = t_floor
        self.jacobian = jacobian
        # mechanisms with non-integer orders take the FD columns
        self._ajac = AnalyticJacobian(mech, t_floor=t_floor) \
            if jacobian == "analytic" and self.kinetics._vector_ok else None

    # -- per-cell RHS/Jacobian closures --------------------------------
    def _cell_rhs(self, pressure: float):
        kin = self.kinetics

        def rhs(_t, state):
            """Constant-pressure reactor RHS for one cell's state."""
            temp = max(state[0], self.t_floor)
            y = np.clip(state[1:], 0.0, 1.0)
            dtdt, dydt = kin.constant_pressure_rhs(
                np.array([temp]), np.array([pressure]), y[None, :])
            return np.concatenate((dtdt, dydt[0]))

        return rhs

    def _cell_jac(self, pressure: float):
        if self._ajac is not None:
            ajac = self._ajac

            def jac(_t, state):
                """Analytic reactor Jacobian for one cell's state."""
                return ajac.jacobian_packed(state[None, :],
                                            np.array([pressure]))[0]

            return jac
        kin = self.kinetics

        def jac(_t, state):
            """Finite-difference reactor Jacobian for one cell's state."""
            n = state.size
            eps = np.sqrt(np.finfo(float).eps)
            dy = eps * np.maximum(np.abs(state), 1e-8)
            batch = np.tile(state, (n + 1, 1))
            batch[1:] += np.diag(dy)
            temps = np.maximum(batch[:, 0], self.t_floor)
            ys = np.clip(batch[:, 1:], 0.0, 1.0)
            dtdt, dydt = kin.constant_pressure_rhs(
                temps, np.full(n + 1, pressure), ys)
            f = np.concatenate((dtdt[:, None], dydt), axis=1)
            return (f[1:] - f[0]).T / dy

        return jac

    # ------------------------------------------------------------------
    def advance(self, y, t, p, dt, cell_ids=None):
        """Advance every cell with its own stiff BDF solve.

        Returns ``(Y_new, T_new, stats)``; ``stats.work_per_cell``
        carries each cell's accepted step count -- the raw signal of
        the paper's chemistry load imbalance.
        """
        y, t, p = self._as_batch(y, t, p)
        n = t.shape[0]
        t_new = t.copy()
        y_new = y.copy()
        steps = np.zeros(n)
        rhs_evals = jac_evals = lu_count = 0
        t0 = time.perf_counter()
        for c in range(n):
            solver = BDFIntegrator(self._cell_rhs(float(p[c])),
                                   jac=self._cell_jac(float(p[c])),
                                   rtol=self.rtol, atol=self.atol)
            state0 = np.concatenate(([t[c]], y[c]))
            _, ys = solver.solve((0.0, float(dt)), state0)
            steps[c] = solver.work.steps
            rhs_evals += solver.work.rhs_evals
            jac_evals += solver.work.jac_evals
            lu_count += solver.work.lu_factorizations
            t_new[c] = max(ys[-1, 0], self.t_floor)
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
