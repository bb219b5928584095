"""Dynamic chemistry load balancing across decomposed ranks.

A static domain decomposition balances *cell counts*, but stiff
chemistry makes per-cell cost wildly non-uniform (ignition-front cells
integrate tens to hundreds of RODAS3/BDF steps while frozen mixing
cells take one Heun step), so rank-level chemistry work skews -- the dominant
strong-scaling loss the paper attributes to the chemistry stage.
:class:`ChemistryLoadBalancer` closes the loop that
:mod:`repro.runtime.load_balance` only measures:

1. **estimate** per-cell chemistry cost on every rank -- an EMA of the
   work counters the backends report
   (:class:`~repro.chemistry.backends.BackendStats.work_per_cell`),
   seeded by the backend's cheap a-priori ``work_estimate`` before any
   step has been measured;
2. **plan** a cell migration
   (:func:`~repro.chemistry.redistribute.plan_migration`: greedy
   bin-pack over stiffness-graded cell bins) after sharing per-rank
   work totals through one ledgered allreduce;
3. **execute** it: donor ranks ship the migrating cells'
   ``(T, p, Y)`` state as one packed message per donor/recipient pair,
   every rank advances its *union* batch (kept + received cells)
   through its batched backend, and recipients ship advanced mass
   fractions plus measured per-cell work back.

Because every backend's per-cell result is independent of batch
composition, the migrated physics matches the unbalanced path to
floating-point rounding -- only *where* each cell integrates changes.
Every
migration byte and the totals allreduce land in the communicator's
:class:`~repro.runtime.comm.CommLedger`, so the executed bench can
price the migration overhead with the same alpha-beta model as the
halo traffic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..chemistry.backends import BackendStats
from ..chemistry.redistribute import (
    MigrationPlan,
    pack_result,
    pack_state,
    plan_migration,
    unpack_result,
    unpack_state,
)
from ..runtime.comm import SimulatedComm
from ..runtime.load_balance import per_rank_imbalance
from .decompose import Decomposition

__all__ = ["BalanceReport", "ChemistryLoadBalancer", "BALANCE_MODES"]

#: accepted values of ``DecomposedSolver(balance_chemistry=...)`` --
#: canonically defined next to the other mode tuples on
#: :class:`~repro.core.settings.SolverSettings`, re-exported here.
from ..core.settings import BALANCE_MODES  # noqa: E402


@dataclass
class BalanceReport:
    """What one balanced chemistry stage measured and moved.

    Attributes
    ----------
    mode:
        ``"static"`` or ``"dynamic"``.
    plan:
        The executed :class:`~repro.chemistry.redistribute.MigrationPlan`.
    owner_work:
        Measured chemistry work per rank attributed to the *owning*
        rank -- what a static decomposition would have executed.
    executed_work:
        Measured work per rank where it actually ran after migration.
    messages, bytes_sent:
        Migration messages/bytes this stage added to the ledger (both
        legs: state out, results back).
    allreduces, allreduce_bytes:
        Collective traffic of the work-total sharing step.
    wall_time:
        Wall-clock seconds of the whole balanced stage.
    """

    mode: str
    plan: MigrationPlan
    owner_work: np.ndarray
    executed_work: np.ndarray
    messages: int = 0
    bytes_sent: int = 0
    allreduces: int = 0
    allreduce_bytes: int = 0
    wall_time: float = 0.0

    @property
    def imbalance_static(self) -> float:
        """Rank imbalance (max/mean - 1) had no cell migrated."""
        return per_rank_imbalance(self.owner_work)

    @property
    def imbalance_executed(self) -> float:
        """Rank imbalance (max/mean - 1) of the work actually executed."""
        return per_rank_imbalance(self.executed_work)

    @property
    def n_migrated(self) -> int:
        """Number of cells that executed off their owning rank."""
        return self.plan.n_migrated


class ChemistryLoadBalancer:
    """Migrates chemistry work between decomposed ranks each step.

    Parameters
    ----------
    decomp:
        The mesh decomposition the ranks run over.
    comm:
        The simulated communicator; all migration traffic and the
        work-total allreduce flow through it (and its ledger).
    mode:
        ``"dynamic"`` re-plans every stage from the EMA work estimates;
        ``"static"`` freezes the first plan and reuses it (the paper's
        one-shot repartitioning baseline).
    ema:
        Weight of the newest measurement in the per-cell work EMA
        (1.0 = use only the last step, 0.0 = never update the seed).
    tolerance:
        Relative rank imbalance below which no migration is attempted.
    n_bins:
        Number of stiffness-graded bins per donor
        (:func:`~repro.chemistry.redistribute.plan_migration`).
    max_move_fraction:
        Cap on the fraction of a donor's work that may migrate per
        stage.
    """

    def __init__(
        self,
        decomp: Decomposition,
        comm: SimulatedComm,
        mode: str = "dynamic",
        ema: float = 0.5,
        tolerance: float = 0.05,
        n_bins: int = 8,
        max_move_fraction: float = 0.5,
    ):
        if mode not in ("static", "dynamic"):
            raise ValueError(
                f"unknown balance mode {mode!r}; use 'static' or 'dynamic'")
        self.decomp = decomp
        self.comm = comm
        self.mode = mode
        self.ema = float(ema)
        self.tolerance = float(tolerance)
        self.n_bins = int(n_bins)
        self.max_move_fraction = float(max_move_fraction)
        self.work_est: list[np.ndarray | None] = [None] * decomp.nparts
        self._static_plan: MigrationPlan | None = None
        self.last_report: BalanceReport | None = None

    # ------------------------------------------------------------------
    def _estimates(self, backends, t, p, y, dt) -> list[np.ndarray]:
        """Per-rank per-cell work estimates (EMA state, seeded lazily)."""
        for r, backend in enumerate(backends):
            if self.work_est[r] is None:
                self.work_est[r] = np.asarray(
                    backend.work_estimate(y[r], t[r], p[r], dt), dtype=float)
        return self.work_est  # type: ignore[return-value]

    def _share_totals(self, est: list[np.ndarray]) -> np.ndarray:
        """Allgather per-rank work totals via one ledgered allreduce.

        Each rank contributes a one-hot row carrying its own total (the
        standard allgather-by-allreduce emulation); the summed vector
        gives every rank the global load picture the planner's quota
        stage derives the ``(src, dst)`` assignment from.  The
        per-cell selection stays donor-local, so this allreduce is the
        plan's *entire* collective footprint.
        """
        nparts = self.decomp.nparts
        contrib = np.zeros((nparts, nparts))
        contrib[np.arange(nparts), np.arange(nparts)] = [
            e.sum() for e in est]
        return np.asarray(self.comm.allreduce(contrib, op="sum"))

    def _plan(self, est: list[np.ndarray],
              totals: np.ndarray) -> MigrationPlan:
        """Compute the migration plan (and cache it in static mode)."""
        plan = plan_migration(
            est, n_bins=self.n_bins, tolerance=self.tolerance,
            max_move_fraction=self.max_move_fraction, totals=totals)
        if self.mode == "static":
            self._static_plan = plan
        return plan

    # ------------------------------------------------------------------
    def advance(self, ranks, dt: float, tm=None) -> BalanceReport:
        """One balanced chemistry stage over all rank solvers.

        Parameters
        ----------
        ranks:
            The per-rank :class:`~repro.core.DeepFlameSolver` instances
            (each must carry a batched-backend chemistry adapter).
        dt:
            Chemistry sub-step size.
        tm:
            Optional :class:`~repro.core.deepflame.StepTimings`; the
            stage's wall time is charged to its ``dnn`` component, as
            the unbalanced chemistry stage does.

        Returns
        -------
        BalanceReport
            Also stored as :attr:`last_report`.
        """
        t_start = time.perf_counter()
        led = self.comm.ledger
        led0 = (led.messages, led.bytes_sent, led.allreduces,
                led.allreduce_bytes)
        subs = self.decomp.subdomains
        backends = [r.chemistry.backend for r in ranks]
        t_own = [r.props.temperature[:s.n_owned] for r, s in zip(ranks, subs)]
        p_own = [r.p.values[:s.n_owned] for r, s in zip(ranks, subs)]
        y_own = [r.y[:s.n_owned] for r, s in zip(ranks, subs)]

        est = self._estimates(backends, t_own, p_own, y_own, dt)
        if self.mode == "static" and self._static_plan is not None:
            # Frozen plan: no collective needed to reuse it.
            plan = self._static_plan
        else:
            plan = self._plan(est, self._share_totals(est))

        # -- outbound leg: donor state, one packed message per pair ----
        if not plan.is_noop:
            outboxes = [
                {dst: pack_state(t_own[r], p_own[r], y_own[r], idx)
                 for dst, idx in plan.pairs_from(r)}
                for r in range(len(ranks))]
            inboxes = self.comm.halo_exchange(outboxes)
        else:
            inboxes = [dict() for _ in ranks]

        # -- advance every rank's union batch (kept + received) --------
        y_res = [y.copy() for y in y_own]
        work_meas = [np.zeros(s.n_owned) for s in subs]
        stats: list[BackendStats] = []
        return_out: list[dict[int, np.ndarray]] = [dict() for _ in ranks]
        for r, backend in enumerate(backends):
            keep = np.setdiff1d(np.arange(subs[r].n_owned),
                                plan.moved_from(r))
            srcs = plan.sources_into(r)
            parts = [(t_own[r][keep], p_own[r][keep], y_own[r][keep])]
            parts += [unpack_state(inboxes[r][src]) for src in srcs]
            tb = np.concatenate([q[0] for q in parts])
            pb = np.concatenate([q[1] for q in parts])
            yb = np.concatenate([q[2] for q in parts], axis=0)
            if tb.size == 0:
                stats.append(BackendStats(backend=backend.name))
                continue
            y_new, t_new, st = backend.advance(yb, tb, pb, dt)
            stats.append(st)
            y_res[r][keep] = y_new[:keep.size]
            work_meas[r][keep] = st.work_per_cell[:keep.size]
            off = keep.size
            for src in srcs:
                k = inboxes[r][src].shape[0]
                return_out[r][src] = pack_result(
                    y_new[off:off + k], t_new[off:off + k],
                    st.work_per_cell[off:off + k])
                off += k

        # -- return leg: advanced state + measured work to the owners --
        if not plan.is_noop:
            returns = self.comm.halo_exchange(return_out)
            for r in range(len(ranks)):
                for dst, idx in plan.pairs_from(r):
                    y_back, _t_back, w_back = unpack_result(returns[r][dst])
                    y_res[r][idx] = y_back
                    work_meas[r][idx] = w_back

        # -- adopt results + update the EMA estimates ------------------
        for r, (rank, sub) in enumerate(zip(ranks, subs)):
            rank.adopt_chemistry(y_res[r], cells=sub.owned, stats=stats[r])
            self.work_est[r] = ((1.0 - self.ema) * est[r]
                                + self.ema * work_meas[r])

        report = BalanceReport(
            mode=self.mode, plan=plan,
            owner_work=np.array([w.sum() for w in work_meas]),
            executed_work=np.array([st.total_work for st in stats]),
            messages=led.messages - led0[0],
            bytes_sent=led.bytes_sent - led0[1],
            allreduces=led.allreduces - led0[2],
            allreduce_bytes=led.allreduce_bytes - led0[3],
            wall_time=time.perf_counter() - t_start,
        )
        self.last_report = report
        if tm is not None:
            tm.dnn += report.wall_time
        return report
