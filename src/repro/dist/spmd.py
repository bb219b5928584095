"""SPMD execution of the decomposed time step on real cores.

The driver-centric :class:`~repro.dist.DecomposedSolver` advances all
``P`` ranks itself, rank by rank, over a
:class:`~repro.runtime.comm.SimulatedComm`.  This module is the same
step written the way a real MPI program writes it -- one process per
rank, each seeing only its own side of every collective:

* :class:`RankHalo` -- one rank's half of
  :class:`~repro.dist.halo.HaloExchanger`: packs this rank's send
  indices into one message per neighbour, exchanges over a
  :class:`~repro.runtime.shm.SharedMemComm`, unpacks into the local
  ghost rows;
* :class:`RankSystem` -- one rank's block of
  :class:`~repro.dist.krylov.DistributedSystem`: the identical
  interior/boundary matvec split, with reductions routed through the
  shared-memory allreduce.  The blocked Krylov solvers run on the
  rank-local block unmodified (``n`` is the owned row count);
* :class:`RankStepper` -- one rank's side of
  ``DecomposedSolver.step``, stage for stage (properties, chemistry,
  species, energy, momentum + pressure, diagnostics), with the exact
  same refresh groupings, so the message/collective sequence matches
  the serial driver's;
* :class:`ParallelExecutor` -- the driver-side harness: builds the
  arena and barrier, forks one worker per rank
  (:class:`~repro.runtime.executor.WorkerPool`), and merges the
  per-rank ledgers back into the driver's communicator after every
  step.

**Parity contract.**  Reductions stack per-rank contributions in rank
order and reduce exactly as the simulated fabric does, so every Krylov
iterate, convergence decision and iteration count is bitwise identical
to serial execution; merged ledgers reproduce the serial ledger
bitwise.  The one intentional difference: ``solver_flops`` in the
diagnostics uses the *rank-local* operator sizes (each worker prices
its own rows), so parallel flop totals are not comparable with serial
ones -- iteration counts are, and the parity tests pin those instead.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np

from ..core.deepflame import DeepFlameSolver, StepDiagnostics, StepTimings
from ..fv.operators import fvc_grad
from ..runtime import alloc
from ..runtime.comm import CommLedger
from ..runtime.executor import WorkerPool
from ..runtime.shm import SharedArena, SharedMemComm
from ..solvers.workspace import KrylovWorkspace
from .krylov import SystemHooks, solve_distributed
from .rank_operator import RankOperator

__all__ = ["RankHalo", "RankSystem", "RankStepper", "ParallelExecutor"]

#: gatherable state fields and their per-rank accessors
_FIELD_GETTERS = {
    "y": lambda r: r.y,
    "h": lambda r: r.h,
    "p": lambda r: r.p.values,
    "u": lambda r: r.u.values,
    "rho": lambda r: r.rho,
    "T": lambda r: r.props.temperature,
}


class _RankPendingRefresh:
    """Wait handle of one rank's posted ghost refresh."""

    def __init__(self, halo: "RankHalo", fields, widths, pending):
        self._halo = halo
        self._fields = fields
        self._widths = widths
        self._pending = pending

    def wait(self) -> None:
        """Complete the exchange: fill this rank's ghost rows."""
        self._halo._unpack(self._fields, self._widths,
                           self._pending.wait())


class RankHalo:
    """One rank's ghost-layer refreshes over the shared-memory fabric.

    The SPMD half of :class:`~repro.dist.halo.HaloExchanger`: the same
    packing (one concatenated message per neighbour pair, all fields
    of a refresh aggregated) applied to this rank's fields only.
    """

    def __init__(self, sub, comm: SharedMemComm):
        self.sub = sub
        self.comm = comm

    def _pack(self, fields):
        fields = [fields] if isinstance(fields, np.ndarray) \
            else list(fields)
        widths = [int(np.prod(a.shape[1:], dtype=int)) for a in fields]
        outbox = {
            q: np.concatenate(
                [a[sidx].reshape(sidx.size, -1) for a in fields], axis=1)
            for q, sidx in self.sub.send.items()}
        return fields, widths, outbox

    def _unpack(self, fields, widths, inbox) -> None:
        for q, payload in inbox.items():
            ridx = self.sub.recv[q]
            col = 0
            for a, w in zip(fields, widths):
                a[ridx] = payload[:, col:col + w].reshape(
                    (ridx.size,) + a.shape[1:])
                col += w

    def refresh(self, fields) -> None:
        """Blocking ghost refresh of one array or a list of arrays."""
        fields, widths, outbox = self._pack(fields)
        self._unpack(fields, widths, self.comm.halo_exchange(outbox))

    def post(self, fields) -> _RankPendingRefresh:
        """Post the refresh nonblocking; returns a wait handle."""
        fields, widths, outbox = self._pack(fields)
        return _RankPendingRefresh(self, fields, widths,
                                   self.comm.post_halo(outbox))


class RankSystem(SystemHooks):
    """One rank's block of the distributed operator.

    Quacks like the ``a`` argument of the blocked Krylov solvers for a
    *rank-local* system (``n`` = owned rows): the one
    :class:`~repro.dist.rank_operator.RankOperator` kernel that
    :class:`~repro.dist.krylov.DistributedSystem` runs per rank (kept
    in ``scratch`` across solves), with per-column reductions routed
    through the shared-memory allreduce.  Because
    contributions are stacked in rank order and reduced identically,
    every reduction scalar -- and with it the whole Krylov trajectory
    -- is bitwise equal to the driver-executed solve.
    """

    def __init__(self, sub, comm: SharedMemComm, mat,
                 halo: RankHalo | None = None,
                 scratch: dict | None = None,
                 overlap_halo: bool = False):
        super().__init__(comm, sub.n_owned, scratch)
        self.sub = sub
        self.mat = mat
        self.halo = halo or RankHalo(sub, comm)
        self.overlap_halo = bool(overlap_halo)
        # rank-local operator size: flop accounting prices this rank's
        # rows only (see the module parity contract)
        self.nnz = sub.mesh.n_cells + 2 * sub.mesh.n_internal_faces
        self.op = RankOperator.bound(self._scratch, ("op",), sub, mat)

    # -- hooks for the blocked solvers ---------------------------------
    def matvec_multi(self, x: np.ndarray) -> np.ndarray:
        """y = A x on the owned rows, with one ghost refresh."""
        loc = self.op.load(x)
        out = self._next_out(x.shape[1])
        if self.overlap_halo:
            handle = self.halo.post(loc)
            self.op.apply_interior(loc, out)
            handle.wait()
        else:
            self.halo.refresh(loc)
            self.op.apply_interior(loc, out)
        self.op.apply_boundary(loc, out)
        return out

    def coldot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-column dots: local partials + shared-memory allreduce."""
        part = self._buf(("red",), (a.shape[1],))
        np.einsum("ij,ij->j", a, b, out=part)
        return np.atleast_1d(self.comm.allreduce(part, op="sum"))

    def colsum_abs(self, r: np.ndarray) -> np.ndarray:
        """Per-column L1 norms: local partials + allreduce."""
        part = self._buf(("red",), (r.shape[1],))
        np.abs(r).sum(axis=0, out=part)
        return np.atleast_1d(self.comm.allreduce(part, op="sum"))

    def _pack_group(self, dots, sums) -> np.ndarray:
        k = (dots[0][0] if dots else sums[0]).shape[1]
        nd = len(dots)
        parts = self._buf(("fused",), (nd + len(sums), k))
        for i, (a, b) in enumerate(dots):
            np.einsum("ij,ij->j", a, b, out=parts[i])
        for i, s in enumerate(sums):
            np.abs(s).sum(axis=0, out=parts[nd + i])
        return parts

    # -- preconditioners ------------------------------------------------
    def jacobi(self):
        """Diagonal preconditioner on the owned rows (bitwise equal to
        this rank's slice of the serial stacked Jacobi)."""
        r_diag = 1.0 / self.mat.diag[:self.sub.n_owned]

        def apply(r: np.ndarray) -> np.ndarray:
            """Scale residual columns by the inverse owned diagonal."""
            return r * (r_diag[:, None] if r.ndim == 2 else r_diag)

        return apply

    def block_dic(self):
        """Block-Jacobi DIC: this rank's cached factor, value-refreshed
        from its owned diagonal block."""
        return self.op.block_dic().apply_multi


class RankStepper:
    """One worker's side of the decomposed time step.

    Owns the rank's :class:`~repro.core.DeepFlameSolver` (built in the
    worker after the fork) and advances it through exactly the stage
    and refresh sequence of ``DecomposedSolver.step`` -- same fields
    grouped into the same exchanges, same three diagnostic allreduces
    -- so the collective schedule lines up across ranks and the merged
    ledger reproduces the serial one bitwise.
    """

    def __init__(self, case, sub, comm: SharedMemComm, settings,
                 properties, chemistry, arena: SharedArena):
        from .solver import _PROP_FIELDS, _localize_case

        self.sub = sub
        self.comm = comm
        self.arena = arena
        self.settings = settings
        self.scalar_controls = settings.scalar_controls
        self.pressure_controls = settings.pressure_controls
        self.n_correctors = settings.n_correctors
        self.solve_momentum = settings.solve_momentum
        self.krylov_variant = settings.krylov_variant
        self.overlap_halo = settings.overlap_halo
        self._prop_fields = _PROP_FIELDS
        self.halo = RankHalo(sub, comm)
        self._krylov_scratch: dict = {}
        self._krylov_workspace = KrylovWorkspace()
        rank_settings = settings.overlay(
            transport="coupled", ranks=0, balance_chemistry="none",
            balance_options={}, execution="serial")
        self.solver = DeepFlameSolver(
            _localize_case(case, sub), properties=properties,
            chemistry=chemistry, settings=rank_settings)
        # the same post-construction ghost sync the serial driver runs
        r = self.solver
        self.halo.refresh(
            [*(getattr(r.props, f) for f in self._prop_fields), r.h])
        r.rho[sub.n_owned:] = r.props.rho[sub.n_owned:]
        r.phi = r._face_mass_flux()
        self.current_time = 0.0
        self.step_count = 0

    # -- handler API (called over the worker pipe) ----------------------
    def drain_ledger(self) -> CommLedger:
        """Return this rank's ledger and start a fresh one."""
        led, self.comm.ledger = self.comm.ledger, CommLedger()
        return led

    def write_field(self, name: str) -> None:
        """Write the rank's owned rows of a field into the arena."""
        arr = self.arena.get(f"g_{name}")
        arr[self.sub.owned_global] = \
            _FIELD_GETTERS[name](self.solver)[:self.sub.n_owned]

    def step(self, dt: float) -> dict:
        """Advance this rank by one collective dt.

        Returns the step diagnostics (identical on every rank up to
        the rank-local flop count), this rank's timings, and its
        drained communication ledger.
        """
        tm = StepTimings()
        flops = iters = 0
        r = self.solver
        sub = self.sub
        no = sub.n_owned

        # (1) properties on owned rows, ghost rows by exchange
        rho_old = r.stage_properties(tm, cells=sub.owned)
        self.halo.refresh(
            [getattr(r.props, f) for f in self._prop_fields])
        r.rho[no:] = r.props.rho[no:]

        # (2) chemistry on owned rows only
        r.stage_chemistry(dt, tm, cells=sub.owned)
        self.halo.refresh(r.y)

        # (3) species transport
        eqn = r.assemble_species_eqn(dt, rho_old, r.props.alpha, tm)
        x, fl, it = self._solve(eqn, "PBiCGStab", self.scalar_controls,
                                r.y, tm)
        flops += fl
        iters += it
        r.finish_species(x, tm, cells=sub.owned)
        self.halo.refresh(r.y)

        # (4) energy
        eqn = r.assemble_energy_eqn(dt, rho_old, tm)
        x, fl, it = self._solve(eqn, "PBiCGStab", self.scalar_controls,
                                r.h, tm)
        flops += fl
        iters += it
        r.h[:no] = x[:, 0]
        self.halo.refresh(r.h)

        # (5) momentum + pressure correction
        if self.solve_momentum:
            fl, it = self._momentum_pressure(dt, rho_old, tm)
            flops += fl
            iters += it

        self.current_time += dt
        self.step_count += 1
        r.current_time = self.current_time
        r.step_count = self.step_count
        r.last_timings = tm
        diag = self._diagnostics(flops, iters)
        r.last_diag = diag
        return {"diag": diag, "timings": tm,
                "ledger": self.drain_ledger()}

    # -- internals ------------------------------------------------------
    def _solve(self, eqn, solver, controls, x0, tm):
        no = self.sub.n_owned
        b = np.array(np.asarray(eqn.source, dtype=float)[:no])
        x0 = np.array(np.asarray(x0, dtype=float)[:no])
        if b.ndim == 1:
            b = b[:, None]
            x0 = x0[:, None]
        system = RankSystem(self.sub, self.comm, eqn.a, halo=self.halo,
                            scratch=self._krylov_scratch,
                            overlap_halo=self.overlap_halo)
        a0 = alloc.snapshot()
        t0 = time.perf_counter()
        x, results = solve_distributed(system, b, x0=x0, solver=solver,
                                       controls=controls,
                                       variant=self.krylov_variant,
                                       workspace=self._krylov_workspace)
        tm.solving += time.perf_counter() - t0
        tm.alloc_solving += alloc.snapshot() - a0
        return (x, sum(res.flops for res in results),
                sum(res.iterations for res in results))

    def _momentum_pressure(self, dt, rho_old, tm):
        r = self.solver
        sub = self.sub
        no = sub.n_owned

        # predictor
        grad_p = fvc_grad(r.p)
        eqn, r_au = r.assemble_momentum_eqn(dt, rho_old, grad_p, tm)
        x, flops, iters = self._solve(eqn, "PBiCGStab",
                                      self.scalar_controls,
                                      r.u.values, tm)
        r.u.values[:no] = x
        self.halo.refresh([r.u.values, r_au, grad_p])

        # correctors
        psi = np.empty(sub.n_local)
        psi[:no] = r._psi_field(cells=sub.owned)
        self.halo.refresh(psi)

        for _ in range(self.n_correctors):
            eqn, aux = r.assemble_pressure_eqn(dt, rho_old, r_au, psi,
                                               grad_p, tm)
            x, fl, it = self._solve(eqn, "PCG", self.pressure_controls,
                                    r.p.values, tm)
            flops += fl
            iters += it
            r.p.values[:no] = x[:, 0]
            self.halo.refresh(r.p.values)
            grad_p = r.finish_pressure(dt, r_au, psi, aux, tm)
            self.halo.refresh([r.u.values, grad_p])
        return flops, iters

    def _diagnostics(self, flops: int, iters: int) -> StepDiagnostics:
        r = self.solver
        sub = self.sub
        no = sub.n_owned
        sums = np.array([
            float((r.rho[:no] * sub.mesh.cell_volumes[:no]).sum())])
        mins = np.array([
            float(r.props.temperature[:no].min()),
            float(r.y[:no].min())])
        maxs = np.array([
            float(r.props.temperature[:no].max()),
            float(r.y[:no].max()),
            float(np.linalg.norm(r.u.values[:no], axis=1).max())])
        total_mass = self.comm.allreduce(sums, op="sum")[0]
        t_min, y_min = self.comm.allreduce(mins, op="min")
        t_max, y_max, u_max = self.comm.allreduce(maxs, op="max")
        return StepDiagnostics(
            step=self.step_count, time=self.current_time,
            total_mass=total_mass, t_min=t_min, t_max=t_max,
            y_min=y_min, y_max=y_max, max_velocity=u_max,
            solver_flops=flops, solver_iterations=iters)


class ParallelExecutor:
    """Driver-side harness of a parallel decomposed run.

    Builds the shared arena (staging slabs + named gather arrays)
    *before* forking one worker per rank, so the whole fabric is
    inherited copy-on-write; merges every worker's drained ledger into
    the driver communicator's ledger after construction and after each
    step, keeping ``comm.ledger`` (and with it ``last_comm`` and the
    cost reports) bitwise identical to serial execution.
    """

    def __init__(self, case, decomp, settings, comm, properties,
                 chemistry, barrier_timeout: float = 120.0,
                 pool_timeout: float = 600.0):
        nparts = decomp.nparts
        self.decomp = decomp
        self.comm = comm
        self.arena = SharedArena(nparts)
        n = case.mesh.n_cells
        shapes = {
            "y": (n, np.asarray(case.mass_fractions).shape[1]),
            "h": (n,), "p": (n,), "rho": (n,), "T": (n,),
            "u": (n, case.velocity.values.shape[1]),
        }
        for name, shape in shapes.items():
            self.arena.alloc(f"g_{name}", shape)
        ctx = mp.get_context("fork")
        barrier = ctx.Barrier(nparts)
        arena = self.arena

        def factory(w: int) -> RankStepper:
            rank_comm = SharedMemComm(arena, w, barrier,
                                      timeout=barrier_timeout)
            return RankStepper(case, decomp.subdomains[w], rank_comm,
                               settings, properties, chemistry, arena)

        self.pool = WorkerPool(nparts, factory,
                               base_seed=settings.partition_seed,
                               timeout=pool_timeout)
        # fold the construction-time ghost syncs into the driver ledger
        for led in self.pool.broadcast("drain_ledger"):
            self.comm.ledger.merge(led)

    def step(self, dt: float) -> dict:
        """One collective step on all workers; returns rank 0's view."""
        results = self.pool.broadcast("step", dt)
        for res in results:
            self.comm.ledger.merge(res["ledger"])
        return results[0]

    def gather(self, name: str) -> np.ndarray:
        """A state field in global cell order, via the arena."""
        if name not in _FIELD_GETTERS:
            raise KeyError(f"unknown field {name!r}")
        self.pool.broadcast("write_field", name)
        return self.arena.get(f"g_{name}").copy()

    def close(self) -> None:
        """Shut the workers down and unlink the arena (idempotent)."""
        self.pool.close()
        self.arena.close()
