"""Parallel scheduling of the decomposed time step on real cores.

The step itself lives in :class:`~repro.dist.DecomposedSolver` and is
written once, over the ranks its communicator endpoint hosts.  This
module only *schedules* it differently: :class:`ParallelExecutor`
builds the shared arena and barrier, forks one worker per rank
(:class:`~repro.runtime.executor.WorkerPool`), and each worker runs a
``DecomposedSolver`` over a one-rank
:class:`~repro.runtime.shm.SharedMemComm` endpoint of the driver's
decomposition.  After construction and after every step the per-rank
ledgers are merged back into the driver's communicator.

**Parity contract.**  Both fabrics stack per-rank reduction partials in
rank order and reduce them identically, so every Krylov iterate,
convergence decision and iteration count -- and with them the fields,
the step diagnostics and the merged ledger -- are bitwise identical to
driver-stepped execution.

**Core binding.**  Each rank worker binds itself to one core, round
robin over the CPUs its process may use (what ``mpirun --bind-to core``
does).  A step is a few hundred blocking barriers; unbound, the kernel's
wake-affine placement keeps pulling the woken rank onto the waker's core,
and the same bitwise-identical step then takes anywhere between the
one-core-per-rank and the two-ranks-on-one-core time from one window to
the next (61 vs 81 ms on the 2-rank TGV of ``bench/``).
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing as mp
import os

import numpy as np

from ..runtime.comm import CommLedger
from ..runtime.executor import WorkerPool
from ..runtime.shm import SharedArena, SharedMemComm
from .solver import _FIELD_GETTERS, DecomposedSolver

__all__ = ["ParallelExecutor"]


def _bind_to_core(rank: int) -> None:
    """Bind the calling rank worker to one of the CPUs it may run on."""
    if hasattr(os, "sched_setaffinity"):  # Linux only
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[rank % len(cpus)]})


class _RankWorker:
    """Pool handler: one worker's solver plus the shared gather arena."""

    def __init__(self, solver: DecomposedSolver, arena: SharedArena):
        self.solver = solver
        self.arena = arena

    def drain_ledger(self) -> CommLedger:
        """Return this rank's ledger and start a fresh one."""
        comm = self.solver.comm
        led, comm.ledger = comm.ledger, CommLedger()
        return led

    def write_field(self, name: str) -> None:
        """Write the rank's owned rows of a field into the arena."""
        self.solver.gather(name, out=self.arena.get(f"g_{name}"))

    def step(self, dt: float) -> dict:
        """Advance this rank by one collective dt; returns its
        diagnostics, timings and drained communication ledger."""
        diag = self.solver.step(dt)
        return {"diag": diag, "timings": self.solver.last_timings,
                "ledger": self.drain_ledger()}


class ParallelExecutor:
    """Driver-side harness of a parallel decomposed run.

    Builds the shared arena (staging slabs + named gather arrays)
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
            n = case.mesh.n_cells
            shapes = {
                "y": (n, np.asarray(case.mass_fractions).shape[1]),
                "h": (n,), "p": (n,), "rho": (n,), "T": (n,),
                "u": (n, case.velocity.values.shape[1]),
            }
            for name, shape in shapes.items():
                arena.alloc(f"g_{name}", shape)
            barrier = mp.get_context("fork").Barrier(nparts)
            rank_settings = settings.overlay(execution="serial")

            def factory(w: int) -> _RankWorker:
                _bind_to_core(w)
                if w:   # solver results are identical on every rank:
                    # rank 0 alone reports an unconverged solve
                    logging.getLogger("repro.solvers").setLevel(logging.ERROR)
                rank_comm = SharedMemComm(arena, w, barrier,
                                          timeout=barrier_timeout)
                return _RankWorker(
                    DecomposedSolver(case, rank_settings, comm=rank_comm,
                                     decomp=decomp, properties=properties,
                                     chemistry=chemistry), arena)

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

        Returns ``(diagnostics, timings)``: rank 0's view (the reduced
        fields are identical on every rank) with ``solver_flops``
        summed over the workers, which each price their hosted rows.
        """
        results = self.pool.broadcast("step", dt)
        for res in results:
            self.comm.ledger.merge(res["ledger"])
        diag = dataclasses.replace(
            results[0]["diag"],
            solver_flops=sum(res["diag"].solver_flops for res in results))
        return diag, results[0]["timings"]

    def gather(self, name: str) -> np.ndarray:
        """A state field in global cell order, via the arena."""
        if name not in _FIELD_GETTERS:
            raise KeyError(f"unknown field {name!r}")
        self.pool.broadcast("write_field", name)
        return self.arena.get(f"g_{name}").copy()

    def close(self) -> None:
        """Shut the workers down and unlink the arena (idempotent)."""
        if self.pool is not None:
            self.pool.close()
        self.arena.close()
