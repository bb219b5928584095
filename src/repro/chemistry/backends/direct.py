"""Vectorized direct integration: thousands of cells per NumPy call.

The per-cell BDF loop pays Python/solver overhead for *every* cell;
this backend instead integrates whole sub-batches at once, every cell
under one error control -- RODAS3's weights ``ATOL_T`` on T and
``ATOL_Y + RTOL_Y |Y|`` on each mass fraction:

* **frozen** cells (chemically inactive mixing regions -- the vast
  majority of a real flame field) take one embedded explicit
  Euler/Heun pair off the stiffness indicator's own rates: one more
  batched kinetics evaluation.  A row with any component of Heun -
  Euler beyond its weight joins the active rows;
* **active** cells take error-controlled RODAS3 steps, every row on
  its own step size.  The stage systems ``(I/(gamma h) - J) K = b`` of
  all rows are inverted with one batched LAPACK call per iteration.
  A row that cannot reach ``dt`` within the step budget is an error
  (:class:`FloatingPointError` naming its cells), never a silent
  fallback.

Every decision uses only each cell's own state, so a cell's
trajectory is independent of what other cells share its batch -- the
batched result equals advancing the cell alone to BLAS last-bit
reproducibility.  The sequential depth of an ``advance`` is the
largest RODAS3 step count of its rows.
"""

from __future__ import annotations

import time

import numpy as np

from ..mechanism import Mechanism
from ..ode import rodas3_batch
from ..reactor import ReactorKernel
from .base import BackendStats, ChemistryBackend

__all__ = ["DirectBatchBackend"]


def _refuse(rows, n, what):
    """Raise the typed error naming the batch ``rows`` that ``what``."""
    raise FloatingPointError(
        f"{rows.size} of {n} cells {what}; first cells: "
        f"{rows[:5].tolist()}")


class DirectBatchBackend(ChemistryBackend):
    """Batched Euler/Heun (frozen cells) / adaptive RODAS3 (active
    cells) under one error norm.

    Frozen cells accept their Heun step when every component of the
    embedded Heun - Euler estimate is within :attr:`ATOL_T` /
    :attr:`ATOL_Y` / :attr:`RTOL_Y`, active cells a RODAS3 step when
    the RMS of its ``K4`` estimate in those weights is; rejected frozen
    cells join the RODAS3 rows, and a row that cannot reach ``dt``
    within :attr:`MAX_STEPS` attempts raises.  The RHS and stage
    Jacobians come from one
    :class:`~repro.chemistry.reactor.ReactorKernel`.
    """

    name = "direct-batch"
    #: Temperature clamp of the reactor RHS and of the returned ``T``.
    T_FLOOR = 200.0
    #: Cells with stiffness indicator below this try one Heun step.
    Z_FROZEN = 1e-5
    #: Error weights of both integrators: ``ATOL_T`` kelvin on T,
    #: ``ATOL_Y + RTOL_Y |Y|`` on each mass fraction.
    ATOL_T = 1e-3
    ATOL_Y = 1e-9
    RTOL_Y = 1e-3
    #: RODAS3 step attempts per row (the lockstep depth budget), ~4x
    #: the longest measured row: 259 for a 1500 K cell igniting inside
    #: ``dt = 2e-5``.
    MAX_STEPS = 1000
    #: Cost of one RODAS3 row-step in RK4-step units (the
    #: ``work_per_cell`` currency), measured at 4-6 for 87-1728 rows.
    RODAS3_STEP_WORK = 5.0
    #: Cost of a frozen cell's Heun step in the same units (two RHS
    #: evaluations, the indicator's and one more), measured at 0.63-0.68
    #: for 64-1728 cells; a binary fraction, so work sums do not depend
    #: on the order they are added in.
    HEUN_WORK = 0.625

    def __init__(self, mech: Mechanism):
        self.mech = mech
        self.kernel = ReactorKernel(mech, self.T_FLOOR)
        self._rhs_evals = 0
        self._jac_evals = 0
        self._linear_solves = 0

    # -- counted kernel calls ------------------------------------------
    def _rhs(self, states: np.ndarray, p: np.ndarray) -> np.ndarray:
        self._rhs_evals += states.shape[0]
        return self.kernel.rhs(states, p)

    def _jac(self, states: np.ndarray, p: np.ndarray) -> np.ndarray:
        self._jac_evals += states.shape[0]
        return self.kernel.jacobian(states, p)

    # -- stiffness classification --------------------------------------
    def _stiffness(self, s, p, dt):
        """``(z, f(s))`` for packed states: the indicator and the RHS
        evaluation it is made of."""
        f = self._rhs(s, p)
        z_t = np.abs(f[:, 0]) * dt / np.maximum(s[:, 0], self.T_FLOOR)
        z_y = (np.abs(f[:, 1:]) * dt
               / np.maximum(np.abs(s[:, 1:]), 1e-3)).max(axis=1)
        return np.maximum(z_t, z_y), f

    def stiffness_indicator(self, y, t, p, dt) -> np.ndarray:
        """Per-cell nondimensional activity ``z``: the largest relative
        state change the initial rates would produce over ``dt``.
        Depends only on each cell's own state (batch-composition
        independent)."""
        y, t, p = self._as_batch(y, t, p, dt)
        return self._stiffness(np.concatenate((t[:, None], y), axis=1),
                               p, dt)[0]

    # ------------------------------------------------------------------
    def advance(self, y, t, p, dt):
        """Advance the batch: frozen cells by one checked Heun step,
        every other cell by adaptive RODAS3.

        Returns ``(Y_new, T_new, stats)`` with per-sub-batch work
        accounting.  Raises :class:`FloatingPointError` naming the
        rows with a non-finite state or rate, or that RODAS3 cannot
        finish within :attr:`MAX_STEPS`.
        """
        y, t, p = self._as_batch(y, t, p, dt)
        n = t.shape[0]
        self._rhs_evals = self._jac_evals = self._linear_solves = 0
        t0 = time.perf_counter()

        s = np.concatenate((t[:, None], y), axis=1)
        z, f0 = self._stiffness(s, p, dt)
        bad = np.flatnonzero(~np.isfinite(z))
        if bad.size:
            _refuse(bad, n, "have a non-finite state or "
                    "reaction rate")
        dt = float(dt)
        ns = y.shape[1]
        atol = np.r_[self.ATOL_T, np.full(ns, self.ATOL_Y)]
        rtol = np.r_[0.0, np.full(ns, self.RTOL_Y)]
        s_new = s.copy()
        work = np.zeros(n)
        sub_batches: list[tuple[str, int, int]] = []
        active = z >= self.Z_FROZEN
        idx = np.flatnonzero(~active)
        if idx.size:
            sf, ff = s[idx], f0[idx]
            euler = sf + dt * ff
            heun = sf + (0.5 * dt) * (ff + self._rhs(euler, p[idx]))
            scale = atol + rtol * np.maximum(np.abs(sf), np.abs(heun))
            ok = ((np.abs(heun - euler) <= scale).all(axis=1)
                  & np.isfinite(heun).all(axis=1))
            s_new[idx[ok]] = heun[ok]
            work[idx[ok]] = self.HEUN_WORK
            active[idx[~ok]] = True
            sub_batches.append(("heun", int(ok.sum()),
                                int(work[idx[ok]].sum())))
        idx = np.flatnonzero(active)
        if idx.size:
            s_new[idx], steps, done = rodas3_batch(
                self._rhs, self._jac, s[idx], p[idx], f0[idx], dt,
                dt / np.maximum(1.0, 10.0 * z[idx]), rtol, atol,
                self.MAX_STEPS)
            if not done.all():
                _refuse(idx[~done], n,
                        f"did not reach dt = {dt:g} within "
                        f"{self.MAX_STEPS} RODAS3 step attempts")
            self._linear_solves += 4 * int(steps.sum())
            work[idx] = self.RODAS3_STEP_WORK * steps
            sub_batches.append(("rodas3", idx.size, int(work[idx].sum())))

        t_new = np.maximum(s_new[:, 0], self.T_FLOOR)
        y_new = np.clip(s_new[:, 1:], 0.0, 1.0)
        y_new /= y_new.sum(axis=1, keepdims=True)

        return y_new, t_new, BackendStats(
            backend=self.name, n_cells=n,
            wall_time=time.perf_counter() - t0,
            work_per_cell=work,
            rhs_evals=self._rhs_evals,
            jac_evals=self._jac_evals,
            linear_solves=self._linear_solves,
            sub_batches=sub_batches,
        )
