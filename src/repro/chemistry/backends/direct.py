"""Vectorized direct integration: thousands of cells per NumPy call.

The per-cell BDF loop pays Python/solver overhead for *every* cell;
this backend instead splits the batch by a nondimensional stiffness
indicator and integrates whole sub-batches at once:

* **frozen** cells (chemically inactive mixing regions -- the vast
  majority of a real flame field) take a couple of classical RK4
  steps, eight batched kinetics evaluations in total, validated
  against a half-step twin;
* **active** cells take error-controlled RODAS3 steps, every row on
  its own step size.  The stage systems ``(I/(gamma h) - J) K = b`` of
  all rows are inverted with one batched LAPACK call per iteration;
* cells the batched paths cannot finish (an RK4 twin disagreement, a
  RODAS3 row out of step budget -- ignition inside the interval) fall
  back to the per-cell BDF reference, so accuracy never degrades where
  it matters.

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
from ..ode import rk4_batch, rodas3_batch
from ..reactor import ReactorKernel
from .base import BackendStats, ChemistryBackend
from .percell import PerCellBDFBackend

__all__ = ["DirectBatchBackend"]


class DirectBatchBackend(ChemistryBackend):
    """Batched RK4 (frozen cells) / adaptive RODAS3 (active cells) with
    a per-cell BDF fallback.

    ``rtol`` / ``atol`` are the tolerances of the per-cell BDF
    fallback.  Frozen cells are re-integrated at half the step count,
    and cells where the two solutions disagree beyond
    :attr:`VAL_TOL_T` / :attr:`VAL_TOL_Y` are escalated to the
    fallback; active cells are error-controlled against
    :attr:`ATOL_T` / :attr:`ATOL_Y` / :attr:`RTOL_Y` and escalate when
    they cannot reach ``dt`` within :attr:`MAX_STEPS` attempts (an
    ignition runaway inside the interval).  The RHS and stage Jacobians
    come from one :class:`~repro.chemistry.reactor.ReactorKernel`.
    """

    name = "direct-batch"
    #: Temperature clamp of the reactor RHS and of the returned ``T``.
    T_FLOOR = 200.0
    #: Cells with stiffness indicator below this take :attr:`RK4_STEPS`
    #: classical RK4 steps.
    Z_FROZEN = 1e-5
    RK4_STEPS = 2
    #: Full- vs half-step RK4 disagreement that escalates a cell to BDF.
    VAL_TOL_T = 0.5
    VAL_TOL_Y = 1e-3
    #: RODAS3 error weights: ``ATOL_T`` kelvin on T, ``ATOL_Y + RTOL_Y
    #: |Y|`` on each mass fraction.
    ATOL_T = 1e-3
    ATOL_Y = 1e-9
    RTOL_Y = 1e-3
    #: RODAS3 step attempts per row (the lockstep depth budget); a row
    #: still short of ``dt`` goes to the BDF fallback.
    MAX_STEPS = 160
    #: Cost of one RODAS3 row-step in RK4-step units (the
    #: ``work_per_cell`` currency), measured at 4-6 for 87-1728 rows.
    RODAS3_STEP_WORK = 5.0

    def __init__(self, mech: Mechanism, rtol: float = 1e-6,
                 atol: float = 1e-10):
        self.mech = mech
        self.kernel = ReactorKernel(mech, self.T_FLOOR)
        self.rtol, self.atol = rtol, atol
        self._fallback = PerCellBDFBackend(mech, rtol=rtol, atol=atol)
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

    def work_estimate(self, y, t, p, dt) -> np.ndarray:
        """A-priori per-cell work from one batched RHS evaluation: RK4
        steps (twin included) for frozen cells, ``3 + 0.7 z`` RODAS3
        steps for active ones (fitted to the hot-spot cases: 3-5 steps
        at z < 0.1, 1-4 below 1, 4-6 below 10, 20-28 below 100).  Same
        units as the measured ``work_per_cell``, so the load balancer
        can mix estimates and measurements in one EMA.
        """
        y, t, p = self._as_batch(y, t, p, dt)
        if t.size == 0:
            return np.zeros(0)
        z = self.stiffness_indicator(y, t, p, dt)
        steps = np.minimum(3.0 + 0.7 * z, self.MAX_STEPS)
        return np.where(z < self.Z_FROZEN,
                        self.RK4_STEPS + max(1, self.RK4_STEPS // 2),
                        self.RODAS3_STEP_WORK * steps)

    # ------------------------------------------------------------------
    def advance(self, y, t, p, dt, cell_ids=None):
        """Advance the batch: frozen cells by validated RK4, active
        cells by adaptive RODAS3, and the cells neither finishes by the
        per-cell BDF fallback.

        Returns ``(Y_new, T_new, stats)`` with per-sub-batch work
        accounting.
        """
        y, t, p = self._as_batch(y, t, p, dt)
        n = t.shape[0]
        self._rhs_evals = self._jac_evals = self._linear_solves = 0
        t0 = time.perf_counter()

        s = np.concatenate((t[:, None], y), axis=1)
        z, f0 = self._stiffness(s, p, dt)
        bad = np.flatnonzero(~np.isfinite(z))
        if bad.size:
            ids = bad if cell_ids is None else np.asarray(cell_ids)[bad]
            raise FloatingPointError(
                f"{bad.size} of {n} cells have a non-finite state or "
                f"reaction rate; first cells: {ids[:5].tolist()}")
        dt = float(dt)
        s_new = s.copy()
        bad = np.zeros(n, dtype=bool)
        work = np.zeros(n)
        sub_batches: list[tuple[str, int, int]] = []
        frozen = z < self.Z_FROZEN
        idx = np.flatnonzero(frozen)
        if idx.size:
            args = self._rhs, s[idx], p[idx], f0[idx], dt
            full = rk4_batch(*args, self.RK4_STEPS)
            half = rk4_batch(*args, max(1, self.RK4_STEPS // 2))
            bad[idx] = (~np.isfinite(full).all(axis=1)
                        | ~np.isfinite(half).all(axis=1)
                        | (np.abs(full[:, 0] - half[:, 0]) > self.VAL_TOL_T)
                        | (np.abs(full[:, 1:] - half[:, 1:]).max(axis=1)
                           > self.VAL_TOL_Y))
            s_new[idx] = full
            cell_work = self.RK4_STEPS + max(1, self.RK4_STEPS // 2)
            ok = idx[~bad[idx]]
            work[ok] = cell_work
            sub_batches.append((f"rk4x{self.RK4_STEPS}", ok.size,
                                cell_work * ok.size))
        idx = np.flatnonzero(~frozen)
        if idx.size:
            ns = y.shape[1]
            atol = np.r_[self.ATOL_T, np.full(ns, self.ATOL_Y)]
            rtol = np.r_[0.0, np.full(ns, self.RTOL_Y)]
            s_new[idx], steps, done = rodas3_batch(
                self._rhs, self._jac, s[idx], p[idx], f0[idx], dt,
                dt / np.maximum(1.0, 10.0 * z[idx]), rtol, atol,
                self.MAX_STEPS)
            self._linear_solves += 4 * int(steps.sum())
            bad[idx] = ~done
            work[idx[done]] = self.RODAS3_STEP_WORK * steps[done]
            sub_batches.append(("rodas3", int(done.sum()),
                                int(work[idx[done]].sum())))
        fallback_stats: BackendStats | None = None
        idx = np.flatnonzero(bad)
        if idx.size:
            yb, tb, fallback_stats = self._fallback.advance(
                y[idx], t[idx], p[idx], dt)
            s_new[idx, 0] = tb
            s_new[idx, 1:] = yb
            work[idx] = fallback_stats.work_per_cell
            sub_batches.append(
                ("bdf", idx.size, int(fallback_stats.work_per_cell.sum())))

        t_new = np.maximum(s_new[:, 0], self.T_FLOOR)
        y_new = np.clip(s_new[:, 1:], 0.0, 1.0)
        y_new /= y_new.sum(axis=1, keepdims=True)

        stats = BackendStats(
            backend=self.name, n_cells=n,
            wall_time=time.perf_counter() - t0,
            work_per_cell=work,
            rhs_evals=self._rhs_evals,
            jac_evals=self._jac_evals,
            linear_solves=self._linear_solves,
            sub_batches=sub_batches,
        )
        if fallback_stats is not None:
            stats.rhs_evals += fallback_stats.rhs_evals
            stats.jac_evals += fallback_stats.jac_evals
            stats.linear_solves += fallback_stats.linear_solves
            stats.per_backend["bdf-fallback"] = fallback_stats
        return y_new, t_new, stats
