"""The domain-decomposed DeepFlame driver.

:class:`DecomposedSolver` advances the same time step as the serial
:class:`~repro.core.DeepFlameSolver`, but over ``P`` subdomains: one
rank solver per subdomain executes the shared physics stages on its
local-plus-halo mesh, and the driver supplies what a single rank
cannot do alone --

* **halo refreshes** between stages (state fields and the derived
  cell fields whose ghost rows a rank cannot compute, e.g. the
  pressure gradient and the PISO ``1/A``), and
* **distributed Krylov solves**: the per-rank equations become one
  global system (:class:`~repro.dist.krylov.DistributedSystem`) whose
  matvecs halo-exchange and whose reductions allreduce, and
* optionally, **chemistry load balancing**
  (``balance_chemistry="static"|"dynamic"``): stiff cells migrate to
  underloaded ranks through the same ledgered fabric before each
  chemistry stage (:class:`~repro.dist.balance.ChemistryLoadBalancer`),
  with :attr:`last_balance` reporting what moved.

Because the local assemblies reproduce the owned rows of the global
operators exactly (see :mod:`.decompose`), the decomposed step agrees
with the serial one to solver tolerance -- the agreement tests pin it
at <= 1e-8 over multiple steps.  Every exchange and reduction lands in
the communicator's ledger; :attr:`last_comm` carries the per-step
totals the executed strong-scaling bench reports.

**One step, two schedulings.**  The step is written once, over the
ranks the communicator endpoint *hosts* (``comm.ranks``): all ``P`` in
lockstep over a :class:`~repro.runtime.comm.SimulatedComm`
(``execution="serial"``), one per forked worker over a
:class:`~repro.runtime.shm.SharedMemComm` under
``execution="parallel"`` (:mod:`.spmd`).  Both fabrics reduce per-rank
partials stacked in rank order, so the two agree bitwise.
"""

from __future__ import annotations

import time

import numpy as np

from ..backend import get_backend
from ..core.cases import Case
from ..core.chemistry_source import BackendChemistry
from ..core.deepflame import DeepFlameSolver, StepDiagnostics, StepTimings
from ..core.settings import SolverSettings, build_chemistry
from ..fv.fields import VolField
from ..fv.operators import fvc_grad
from ..runtime import alloc
from ..runtime.comm import SimulatedComm
from ..solvers.controls import SolverControls
from ..solvers.workspace import KrylovWorkspace
from .balance import BalanceReport, ChemistryLoadBalancer
from .decompose import Decomposition
from .halo import HaloExchanger
from .krylov import DistributedSystem, solve_distributed

__all__ = ["DecomposedSolver"]

#: property-set arrays exchanged after a per-cell property evaluation
_PROP_FIELDS = ("rho", "temperature", "mu", "alpha", "cp")

#: gatherable state fields and their per-rank accessors
_FIELD_GETTERS = {
    "y": lambda r: r.y,
    "h": lambda r: r.h,
    "p": lambda r: r.p.values,
    "u": lambda r: r.u.values,
    "rho": lambda r: r.rho,
    "T": lambda r: r.props.temperature,
}


def _localize_case(case: Case, sub) -> Case:
    """Restrict a case to one subdomain (owned + halo cells)."""
    cells = np.concatenate([sub.owned_global, sub.halo_global])
    vel = VolField("U", sub.mesh, case.velocity.values[cells].copy(),
                   boundary=dict(case.velocity.boundary))
    p = VolField("p", sub.mesh, case.pressure.values[cells].copy(),
                 boundary=dict(case.pressure.boundary))
    return Case(
        f"{case.name}_rank{sub.rank}", sub.mesh, case.mech, vel, p,
        np.asarray(case.mass_fractions, dtype=float)[cells].copy(),
        np.asarray(case.temperature, dtype=float)[cells].copy(),
        case.y_boundary, case.t_boundary)


class DecomposedSolver:
    """P-rank decomposed execution of the DeepFlame time step.

    ``settings`` is the whole configuration (``settings.ranks`` is the
    rank count).  ``comm`` and ``decomp`` are injected objects: by
    default the solver partitions the case mesh and hosts all ``P``
    ranks on a fresh ``SimulatedComm``; a worker of a parallel run gets
    the driver's decomposition and a one-rank endpoint.  ``chemistry``
    replaces the backend ``settings.chemistry`` describes; either way
    one raw backend is shared by the hosted ranks, each wrapping it in
    its own stats adapter.  ``ranks`` / ``subs`` list the hosted rank
    solvers / subdomains, in ``comm.ranks`` order.
    """

    def __init__(
        self,
        case: Case,
        settings: SolverSettings,
        *,
        comm=None,
        decomp: Decomposition | None = None,
        properties=None,
        chemistry=None,
    ):
        if settings.ranks < 1:
            raise ValueError(
                "DecomposedSolver needs a rank count: pass settings "
                "with ranks >= 1")
        # fail here, with the registry's ValueError, on a backend this
        # host cannot construct -- before a decomposition, a worker
        # pool or a shared-memory arena exists
        get_backend(settings.backend)
        self.settings = settings
        self.case = case
        self.mech = case.mech
        self.decomp = decomp if decomp is not None else \
            Decomposition.from_mesh(
                case.mesh, settings.ranks,
                method=settings.partition_method,
                seed=settings.partition_seed)
        self.comm = comm or SimulatedComm(settings.ranks)
        self.exchanger = HaloExchanger(self.decomp, self.comm)
        self.subs = self.exchanger.subs
        self.scalar_controls = settings.scalar_controls
        self.pressure_controls = settings.pressure_controls
        self.n_correctors = settings.n_correctors
        self.solve_momentum = settings.solve_momentum
        self.krylov_variant = settings.krylov_variant
        self.overlap_halo = settings.overlap_halo
        # Persistent Krylov scratch (local blocks, matvec outputs,
        # packed reduction partials, the cached interior/boundary row
        # split) and solution-block pool: every per-solve
        # DistributedSystem reuses them, so warm solves allocate
        # nothing.
        self._krylov_scratch: dict = {}
        self._krylov_workspace = KrylovWorkspace()

        if properties is None:
            from ..core.properties import DirectRealFluidProperties

            properties = DirectRealFluidProperties(case.mech)
        self.properties = properties
        self._parallel = None
        if settings.execution == "parallel":
            # The rank solvers live in forked worker processes, each
            # running this class over a one-rank endpoint (and building
            # its own chemistry backend when none is injected); the
            # driver keeps self.comm as the ledger holder the per-rank
            # ledgers merge back into.
            from .spmd import ParallelExecutor

            self.ranks = []
            self._parallel = ParallelExecutor(
                case, self.decomp, settings, self.comm, properties,
                chemistry)
        else:
            # Rank solvers are serial solvers: the per-rank
            # balance/decomposition fields are stripped.
            rank_settings = settings.overlay(
                ranks=0, balance_chemistry="none", balance_options={})
            if chemistry is None:
                chemistry = build_chemistry(settings, case.mech)
            self.ranks = [
                DeepFlameSolver(
                    _localize_case(case, sub), rank_settings,
                    properties=properties, chemistry=chemistry)
                for sub in self.subs
            ]
            # The rank constructors evaluated properties/enthalpy over
            # local-plus-halo batches; re-sync the ghost rows from
            # their owners (per-cell Newton convergence makes a
            # recomputed ghost match its owner to rounding, but only
            # the owner's actual value is *bitwise* identical) and
            # rebuild the face mass flux so every cut face starts
            # bitwise-consistent across its pair.
            self._refresh([[*(getattr(r.props, f) for f in _PROP_FIELDS),
                            r.h] for r in self.ranks])
            for r, sub in self._pairs():
                r.rho[sub.n_owned:] = r.props.rho[sub.n_owned:]
                r.phi = r._face_mass_flux()

        self.balancer: ChemistryLoadBalancer | None = None
        if settings.balance_chemistry != "none":
            if len(self.subs) != self.decomp.nparts:
                raise ValueError(
                    "balance_chemistry plans over all ranks at once: the "
                    "communicator must host every rank")
            if not all(isinstance(r.chemistry, BackendChemistry)
                       for r in self.ranks):
                raise ValueError(
                    "balance_chemistry requires a batched chemistry "
                    "backend (got a non-backend chemistry adapter)")
            self.balancer = ChemistryLoadBalancer(
                self.decomp, self.comm, mode=settings.balance_chemistry,
                **settings.balance_options)

        self.current_time = 0.0
        self.step_count = 0
        self.last_timings = StepTimings()
        self.last_diag: StepDiagnostics | None = None
        self.last_comm: dict | None = None
        self.last_balance: BalanceReport | None = None

    # -- helpers --------------------------------------------------------
    def _pairs(self):
        return zip(self.ranks, self.subs)

    def _refresh(self, per_rank) -> None:
        self.exchanger.refresh(per_rank)

    def _solve(self, eqns, solver: str, controls: SolverControls,
               x0_per_rank, tm: StepTimings) -> tuple[list, int, int]:
        """One distributed solve; returns (per-rank views of the
        stacked solution, flops, iterations summed over columns)."""
        b = np.concatenate(
            [np.asarray(e.source, dtype=float)[:s.n_owned]
             for e, s in zip(eqns, self.subs)])
        x0 = np.concatenate(
            [np.asarray(x, dtype=float)[:s.n_owned]
             for x, s in zip(x0_per_rank, self.subs)])
        if b.ndim == 1:
            b = b[:, None]
            x0 = x0[:, None]
        system = DistributedSystem(self.decomp, self.comm,
                                   [e.a for e in eqns],
                                   exchanger=self.exchanger,
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
        return ([x[sl] for sl in system.slices],
                sum(r.flops for r in results),
                sum(r.iterations for r in results))

    # -- one time step ---------------------------------------------------
    def step(self, dt: float) -> StepDiagnostics:
        """Advance the hosted ranks by one dt (collectively)."""
        if self._parallel is not None:
            return self._step_parallel(dt)
        led = self.comm.ledger
        led0 = led.totals()
        tm = StepTimings()
        flops = iters = 0

        # (1) properties on owned rows, ghost rows by exchange
        rho_olds = [r.stage_properties(tm, cells=sub.owned)
                    for r, sub in self._pairs()]
        self._refresh([[getattr(r.props, f) for f in _PROP_FIELDS]
                       for r in self.ranks])
        for r, sub in self._pairs():
            r.rho[sub.n_owned:] = r.props.rho[sub.n_owned:]

        # (2) chemistry on owned rows only (never recomputed for
        # ghosts); with a balancer, stiff cells migrate to underloaded
        # ranks first and their advanced state is scattered back
        if self.balancer is not None:
            self.last_balance = self.balancer.advance(self.ranks, dt, tm)
        else:
            for r, sub in self._pairs():
                r.stage_chemistry(dt, tm, cells=sub.owned)
        self._refresh([r.y for r in self.ranks])

        # (3) species transport: one distributed blocked solve
        eqns = [r.assemble_species_eqn(dt, rho_olds[i], r.props.alpha, tm)
                for i, r in enumerate(self.ranks)]
        xs, fl, it = self._solve(eqns, "PBiCGStab", self.scalar_controls,
                                 [r.y for r in self.ranks], tm)
        flops += fl
        iters += it
        for x, (r, sub) in zip(xs, self._pairs()):
            r.finish_species(x, tm, cells=sub.owned)
        self._refresh([r.y for r in self.ranks])

        # (4) energy
        eqns = [r.assemble_energy_eqn(dt, rho_olds[i], tm)
                for i, r in enumerate(self.ranks)]
        xs, fl, it = self._solve(eqns, "PBiCGStab", self.scalar_controls,
                                 [r.h for r in self.ranks], tm)
        flops += fl
        iters += it
        for x, (r, sub) in zip(xs, self._pairs()):
            r.h[:sub.n_owned] = x[:, 0]
        self._refresh([r.h for r in self.ranks])

        # (5) momentum + pressure correction
        if self.solve_momentum:
            fl, it = self._momentum_pressure(dt, rho_olds, tm)
            flops += fl
            iters += it

        self.current_time += dt
        self.step_count += 1
        for r in self.ranks:
            r.current_time = self.current_time
            r.step_count = self.step_count
            r.last_timings = tm
        self.last_timings = tm

        diag = self._diagnostics(flops, iters)
        self.last_diag = diag
        for r in self.ranks:
            r.last_diag = diag
        self.last_comm = led.delta(led0)
        return diag

    def _step_parallel(self, dt: float) -> StepDiagnostics:
        """One step on the worker pool (ledgers merged back here).

        The diagnostics equal the driver-stepped ones field for field:
        the reduced fields are bitwise identical on every rank, and
        ``solver_flops`` is summed over the workers' hosted rows.
        """
        led = self.comm.ledger
        led0 = led.totals()
        diag, self.last_timings = self._parallel.step(dt)
        self.current_time = diag.time
        self.step_count = diag.step
        self.last_diag = diag
        self.last_comm = led.delta(led0)
        return diag

    def _momentum_pressure(self, dt, rho_olds, tm) -> tuple[int, int]:
        # predictor
        grad_ps = [fvc_grad(r.p) for r in self.ranks]
        eqn_raus = [r.assemble_momentum_eqn(dt, rho_olds[i], grad_ps[i], tm)
                    for i, r in enumerate(self.ranks)]
        eqns = [e for e, _ in eqn_raus]
        r_aus = [ra for _, ra in eqn_raus]
        xs, flops, iters = self._solve(eqns, "PBiCGStab",
                                       self.scalar_controls,
                                       [r.u.values for r in self.ranks], tm)
        for x, (r, sub) in zip(xs, self._pairs()):
            r.u.values[:sub.n_owned] = x
        # ghost rows of U, 1/A and grad(p): a rank cannot form them
        # locally (ghost cells lack their full face sets)
        self._refresh([[r.u.values, r_aus[i], grad_ps[i]]
                       for i, r in enumerate(self.ranks)])

        # correctors
        psis = []
        for r, sub in self._pairs():
            psi = np.empty(sub.n_local)
            psi[:sub.n_owned] = r._psi_field(cells=sub.owned)
            psis.append(psi)
        self._refresh(psis)

        for _ in range(self.n_correctors):
            eqn_auxs = [
                r.assemble_pressure_eqn(dt, rho_olds[i], r_aus[i], psis[i],
                                        grad_ps[i], tm)
                for i, r in enumerate(self.ranks)]
            eqns = [e for e, _ in eqn_auxs]
            auxs = [a for _, a in eqn_auxs]
            xs, fl, it = self._solve(eqns, "PCG", self.pressure_controls,
                                     [r.p.values for r in self.ranks], tm)
            flops += fl
            iters += it
            for x, (r, sub) in zip(xs, self._pairs()):
                r.p.values[:sub.n_owned] = x[:, 0]
            self._refresh([r.p.values for r in self.ranks])
            grad_ps = [r.finish_pressure(dt, r_aus[i], psis[i], auxs[i], tm)
                       for i, r in enumerate(self.ranks)]
            self._refresh([[r.u.values, grad_ps[i]]
                           for i, r in enumerate(self.ranks)])
        return flops, iters

    def _diagnostics(self, flops: int, iters: int) -> StepDiagnostics:
        """Global step diagnostics via 3 allreduces (sum / min / max
        with packed array payloads)."""
        sums = np.array([
            [float((r.rho[:s.n_owned]
                    * s.mesh.cell_volumes[:s.n_owned]).sum())]
            for r, s in self._pairs()])
        mins = np.array([
            [float(r.props.temperature[:s.n_owned].min()),
             float(r.y[:s.n_owned].min())]
            for r, s in self._pairs()])
        maxs = np.array([
            [float(r.props.temperature[:s.n_owned].max()),
             float(r.y[:s.n_owned].max()),
             float(np.linalg.norm(r.u.values[:s.n_owned], axis=1).max())]
            for r, s in self._pairs()])
        total_mass = self.comm.allreduce(sums, op="sum")[0]
        t_min, y_min = self.comm.allreduce(mins, op="min")
        t_max, y_max, u_max = self.comm.allreduce(maxs, op="max")
        return StepDiagnostics(
            step=self.step_count, time=self.current_time,
            total_mass=total_mass, t_min=t_min, t_max=t_max,
            y_min=y_min, y_max=y_max, max_velocity=u_max,
            solver_flops=flops, solver_iterations=iters)

    # -- multi-step driver / gathers ------------------------------------
    def run(self, n_steps: int, dt: float) -> list[StepDiagnostics]:
        """Advance ``n_steps`` collective steps of size ``dt``."""
        return [self.step(dt) for _ in range(n_steps)]

    def gather(self, name: str, out: np.ndarray | None = None) -> np.ndarray:
        """A state field in global cell order ('y', 'h', 'p', 'u',
        'rho' or 'T').

        Writes the owned rows of the hosted ranks into ``out`` (a fresh
        global array by default) -- a worker of a parallel run passes
        the shared gather buffer and fills its own rank's rows.
        """
        if self._parallel is not None:
            return self._parallel.gather(name)
        if name not in _FIELD_GETTERS:
            raise KeyError(f"unknown field {name!r}")
        local = [_FIELD_GETTERS[name](r) for r in self.ranks]
        if out is None:
            out = np.empty((self.decomp.mesh.n_cells,) + local[0].shape[1:],
                           local[0].dtype)
        for a, sub in zip(local, self.subs):
            out[sub.owned_global] = a[:sub.n_owned]
        return out

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release parallel-execution resources (serial: a no-op).

        Shuts the worker pool down and unlinks the shared arena;
        idempotent, and also registered via the arena's own ``atexit``
        hook, so a leaked solver cannot leave segments behind.
        """
        if self._parallel is not None:
            self._parallel.close()

    def __enter__(self) -> "DecomposedSolver":
        """Context-manager entry (returns the solver)."""
        return self

    def __exit__(self, *exc) -> None:
        """Release parallel-execution resources on context exit."""
        self.close()
