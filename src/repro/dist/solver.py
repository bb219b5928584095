"""The domain-decomposed DeepFlame driver.

:class:`DecomposedSolver` advances the same time step as the serial
:class:`~repro.core.DeepFlameSolver`, but over ``P`` subdomains: one
rank solver per subdomain executes the shared physics stages on its
local-plus-halo mesh, and the driver supplies what a single rank
cannot do alone --

* **halo refreshes** between stages (the ghost rows a later face loop
  reads: the property set, velocity and pressure, and the derived
  cell fields a rank cannot compute there, e.g. the pressure gradient
  and the PISO ``1/A``), and
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

**One step, two schedulings.**  The stage sequence is
:func:`repro.core.step.advance_step` -- the one the serial solver runs
-- over the ranks the communicator endpoint *hosts* (``comm.ranks``):
all ``P`` in lockstep over a :class:`~repro.runtime.comm.SimulatedComm`
(``execution="serial"``), one per forked worker over a
:class:`~repro.runtime.shm.SharedMemComm` under
``execution="parallel"`` (:mod:`.spmd`).  Both fabrics reduce per-rank
partials stacked in rank order, so the two agree bitwise.
"""

from __future__ import annotations

import numpy as np

from ..backend import get_backend
from ..core.cases import Case
from ..core.chemistry_source import BackendChemistry
from ..core.deepflame import DeepFlameSolver, StepDiagnostics, StepTimings
from ..core.settings import SolverSettings, build_chemistry
from ..core.step import PROP_FIELDS, advance_step
from ..fv.fields import VolField
from ..runtime.comm import SimulatedComm
from ..solvers.controls import SolverControls
from ..solvers.workspace import KrylovWorkspace
from .balance import BalanceReport, ChemistryLoadBalancer
from .decompose import Decomposition
from .halo import HaloExchanger
from .krylov import DistributedSystem, solve_distributed

__all__ = ["DecomposedSolver"]

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
        # The persistent distributed system (local blocks, matvec
        # outputs, packed reduction partials, the cached
        # interior/boundary row split; built by the first solve, which
        # brings the sparsity) and the solution-block pool: warm solves
        # allocate nothing.
        self._system: DistributedSystem | None = None
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
            # The rank constructors evaluated properties over
            # local-plus-halo batches; re-sync the ghost rows from
            # their owners (per-cell Newton convergence makes a
            # recomputed ghost match its owner to rounding, but only
            # the owner's actual value is *bitwise* identical) and
            # rebuild the face mass flux so every cut face starts
            # bitwise-consistent across its pair.
            self.exchanger.refresh(
                [[getattr(r.props, f) for f in PROP_FIELDS]
                 for r in self.ranks])
            for r, sub in zip(self.ranks, self.subs):
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
    def _solve(self, eqns, solver: str,
               controls: SolverControls) -> tuple[list, list]:
        """The decomposed solve hook: the hosted equations as one
        distributed system; returns (per-rank views of the stacked
        ``(N, k)`` solution, per-column results)."""
        b = np.concatenate([e.source[:s.n_owned]
                            for e, s in zip(eqns, self.subs)])
        x0 = np.concatenate([e.field.values[:s.n_owned]
                             for e, s in zip(eqns, self.subs)])
        if b.ndim == 1:
            b, x0 = b[:, None], x0[:, None]
        mats = [e.a for e in eqns]
        if self._system is None:
            self._system = DistributedSystem(
                self.decomp, self.comm, mats, exchanger=self.exchanger,
                overlap_halo=self.settings.krylov_variant == "overlapped")
        else:
            self._system.bind(mats)
        x, results = solve_distributed(self._system, b, x0=x0, solver=solver,
                                       controls=controls,
                                       variant=self.settings.krylov_variant,
                                       workspace=self._krylov_workspace)
        return [x[sl] for sl in self._system.slices], results

    def _balanced_chemistry(self, dt: float, tm: StepTimings) -> None:
        self.last_balance = self.balancer.advance(self.ranks, dt, tm)

    # -- one time step ---------------------------------------------------
    def step(self, dt: float) -> StepDiagnostics:
        """Advance the hosted ranks by one dt (collectively)."""
        if self._parallel is not None:
            return self._step_parallel(dt)
        led = self.comm.ledger
        led0 = led.totals()
        diag = advance_step(
            [(r, s.owned) for r, s in zip(self.ranks, self.subs)], dt,
            refresh=self.exchanger.refresh, solve=self._solve,
            reduce=self.comm.allreduce,
            chemistry=self._balanced_chemistry if self.balancer else None)
        self.current_time = diag.time
        self.step_count = diag.step
        self.last_timings = self.ranks[0].last_timings
        self.last_diag = diag
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
