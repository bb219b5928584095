"""Parallel scheduling of the decomposed time step on real cores.

The step itself lives in :class:`~repro.dist.solver.DecomposedSolver` and is
written once, over the ranks its communicator endpoint hosts.  This
module only *schedules* it differently: :class:`ParallelExecutor`
builds the shared arena, forks one worker per rank
(:class:`~repro.runtime.executor.WorkerPool`), and each worker runs a
``DecomposedSolver`` over a one-rank
:class:`~repro.runtime.shm.SharedMemComm` endpoint of the driver's
decomposition.  After construction and after every step the per-rank
ledgers are merged back into the driver's communicator.  Gathers and
snapshots collect the per-rank arrays with one pool broadcast, and a
restore sends each worker its own rank's snapshot with one scatter;
none of them touches the fabric or its ledger.

**Parity contract.**  Both fabrics stack per-rank reduction partials in
rank order and reduce them identically, so every Krylov iterate,
convergence decision and iteration count -- and with them the fields,
the step diagnostics and the merged ledger -- are bitwise identical to
driver-stepped execution.

**Core binding.**  Each rank worker binds itself to one core, round
robin over the CPUs its process may use (what ``mpirun --bind-to core``
does).  A step is a few hundred collectives, each a wait on a peer's
sequence counter that spins and then yields the core; unbound, the
kernel's wake-affine placement keeps pulling a rank onto its peer's
core, and the same bitwise-identical step then takes anywhere between
the one-core-per-rank and the two-ranks-on-one-core time from one
window to the next.
"""

from __future__ import annotations

import dataclasses
import logging
import os

from ..runtime.comm import CommLedger
from ..runtime.executor import WorkerPool
from ..runtime.shm import SharedArena, SharedMemComm
from .solver import DecomposedSolver

__all__ = ["ParallelExecutor"]


def _bind_to_core(rank: int) -> None:
    """Bind the calling rank worker to one of the CPUs it may run on."""
    if hasattr(os, "sched_setaffinity"):  # Linux only
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[rank % len(cpus)]})


class _RankWorker:
    """Pool handler: one worker's solver over its one-rank endpoint."""

    def __init__(self, solver: DecomposedSolver):
        self.solver = solver

    def drain_ledger(self) -> CommLedger:
        """Return this rank's ledger and start a fresh one."""
        comm = self.solver.comm
        led, comm.ledger = comm.ledger, CommLedger()
        return led

    def step(self, dt: float) -> dict:
        """Advance this rank by one collective dt; returns its
        diagnostics, timings, chemistry backend stats and drained
        communication ledger."""
        diag = self.solver.step(dt)
        return {"diag": diag, "timings": self.solver.last_timings,
                "chemistry": self.solver.last_backend_stats,
                "ledger": self.drain_ledger()}

    def each_rank(self, method: str, *args) -> list:
        """``method(*args)`` of this worker's rank solver, as a list."""
        return self.solver._each_rank(method, *args)

    def restore_state(self, snap: dict) -> None:
        """Restore this worker's share of a decomposed snapshot."""
        self.solver.restore_state(snap)


class ParallelExecutor:
    """Driver-side harness of a parallel decomposed run.

    Builds the shared arena (the communicators' staging slabs)
    *before* forking one worker per rank, so the whole fabric is
    inherited copy-on-write; merges every worker's drained ledger into
    the driver communicator's ledger after construction and after each
    step, keeping ``comm.ledger`` (and with it ``last_comm`` and the
    cost reports) bitwise identical to serial execution.  A worker that
    fails to build takes the pool and the arena down with it: no
    shared-memory segment outlives a failed construction.
    """

    def __init__(self, case, decomp, settings, comm, properties,
                 chemistry, barrier_timeout: float = 120.0,
                 pool_timeout: float = 600.0):
        nparts = decomp.nparts
        self.comm = comm
        self.pool = None
        self.arena = arena = SharedArena(nparts)
        try:
            rank_settings = settings.overlay(execution="serial")

            def factory(w: int) -> _RankWorker:
                _bind_to_core(w)
                if w:   # solver results are identical on every rank:
                    # rank 0 alone reports an unconverged solve
                    logging.getLogger("repro.solvers").setLevel(logging.ERROR)
                rank_comm = SharedMemComm(arena, w, timeout=barrier_timeout)
                return _RankWorker(
                    DecomposedSolver(case, rank_settings, comm=rank_comm,
                                     decomp=decomp, properties=properties,
                                     chemistry=chemistry))

            self.pool = WorkerPool(nparts, factory,
                                   base_seed=settings.partition_seed,
                                   timeout=pool_timeout)
            # fold the construction-time ghost syncs into the driver ledger
            for led in self.pool.broadcast("drain_ledger"):
                self.comm.ledger.merge(led)
        except BaseException:
            self.close()
            raise

    def step(self, dt: float):
        """One collective step on all workers.

        Returns ``(diagnostics, timings, backend stats)``: rank 0's view
        (the reduced fields are identical on every rank) with
        ``solver_flops`` summed over the workers, which each price their
        hosted rows, and every rank's chemistry stats in rank order.
        """
        results = self.pool.broadcast("step", dt)
        for res in results:
            self.comm.ledger.merge(res["ledger"])
        diag = dataclasses.replace(
            results[0]["diag"],
            solver_flops=sum(res["diag"].solver_flops for res in results))
        stats = [st for res in results for st in res["chemistry"]]
        return diag, results[0]["timings"], stats

    def each_rank(self, method: str, *args) -> list:
        """``method(*args)`` of every worker's rank solver, in rank
        order (one broadcast)."""
        return [x for part in self.pool.broadcast("each_rank", method, *args)
                for x in part]

    def restore_state(self, snaps: list[dict]) -> None:
        """Restore worker ``w`` from ``snaps[w]`` (one scatter)."""
        self.pool.scatter("restore_state", [(s,) for s in snaps])

    def close(self) -> None:
        """Shut the workers down and unlink the arena (idempotent)."""
        if self.pool is not None:
            self.pool.close()
        self.arena.close()
