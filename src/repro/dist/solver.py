"""The domain-decomposed DeepFlame driver.

:class:`DecomposedSolver` advances the same time step as the serial
:class:`~repro.core.deepflame.DeepFlameSolver`, but over ``P`` subdomains: one
rank solver per subdomain executes the shared physics stages on its
local-plus-halo mesh, and the driver supplies what a single rank
cannot do alone --

* **halo refreshes** between stages (the ghost rows a later face loop
  reads: the property set, velocity and pressure, and the derived
  cell fields a rank cannot compute there, e.g. the pressure gradient
  and the PISO ``1/A``), and
* **distributed Krylov solves**: the per-rank equations become one
  global system (:class:`~repro.dist.krylov.DistributedSystem`) whose
  matvecs halo-exchange and whose reductions allreduce.

Chemistry needs neither: each rank advances the cells it owns.

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

from ..core.cases import Case
from ..core.deepflame import (
    FIELDS,
    STATE_ATTRS,
    DeepFlameSolver,
    StepDiagnostics,
    StepTimings,
    check_state,
)
from ..core.properties import DirectRealFluidProperties
from ..core.settings import SolverSettings, build_chemistry
from ..core.step import PROP_FIELDS, advance_step
from ..fv.fields import VolField
from ..runtime.comm import SimulatedComm
from ..solvers.controls import SolverControls
from ..solvers.workspace import KrylovWorkspace
from .decompose import Decomposition
from .halo import HaloExchanger
from .krylov import DistributedSystem, solve_distributed

__all__ = ["DecomposedSolver"]

def _localize_case(case: Case, sub) -> Case:
    """Restrict a case to one subdomain (owned + halo cells)."""
    cells = np.concatenate([sub.owned_global, sub.halo_global])
    vel = VolField("U", sub.mesh, case.velocity.values[cells],
                   boundary=dict(case.velocity.boundary))
    p = VolField("p", sub.mesh, case.pressure.values[cells],
                 boundary=dict(case.pressure.boundary))
    return Case(
        f"{case.name}_rank{sub.rank}", sub.mesh, case.mech, vel, p,
        np.asarray(case.mass_fractions, dtype=float)[cells],
        np.asarray(case.temperature, dtype=float)[cells],
        case.y_boundary, case.t_boundary)


class DecomposedSolver:
    """P-rank decomposed execution of the DeepFlame time step.

    ``settings`` is the whole configuration (``settings.ranks`` is the
    rank count).  ``comm`` and ``decomp`` are injected objects: by
    default the solver partitions the case mesh and hosts all ``P``
    ranks on a fresh ``SimulatedComm``; a worker of a parallel run gets
    the driver's decomposition and a one-rank endpoint.  An injected
    ``decomp`` / ``comm`` must span ``settings.ranks`` ranks
    (``ValueError`` otherwise, before any worker forks).  Each hosted
    rank builds the backend ``settings.chemistry`` describes, as each
    parallel worker does; an injected ``chemistry`` replaces it and is
    shared by the hosted ranks.  Either way every rank wraps its
    backend in its own stats adapter.  ``ranks`` / ``subs`` list the
    hosted rank solvers / subdomains, in ``comm.ranks`` order.
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
        for what, n in (("decomp", getattr(decomp, "nparts", None)),
                        ("comm", getattr(comm, "n_ranks", None))):
            if n is not None and n != settings.ranks:
                raise ValueError(f"the injected {what} has {n} ranks for "
                                 f"settings.ranks={settings.ranks}")
        self.settings = settings
        self.case = case
        self.mech = case.mech
        self.decomp = decomp if decomp is not None else \
            Decomposition.from_mesh(case.mesh, settings.ranks,
                                    seed=settings.partition_seed)
        self.comm = comm or SimulatedComm(settings.ranks)
        self.exchanger = HaloExchanger(self.decomp, self.comm)
        self.subs = self.exchanger.subs
        # The persistent distributed system (local blocks, matvec
        # outputs, reduction partials, the cached
        # interior/boundary row split; built by the first solve, which
        # brings the sparsity) and the solution-block pool: warm solves
        # allocate nothing.
        self._system: DistributedSystem | None = None
        self._krylov_workspace = KrylovWorkspace()

        if properties is None:
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
            # Rank solvers are serial solvers: the rank count is
            # stripped.
            rank_settings = settings.overlay(ranks=0)
            # Without an injected backend each hosted rank builds its
            # own, as each parallel worker does: a stateful backend
            # (the hybrid audit counter) then advances identically
            # under both schedules.
            self.ranks = [
                DeepFlameSolver(
                    _localize_case(case, sub), rank_settings,
                    properties=properties,
                    chemistry=(chemistry if chemistry is not None
                               else build_chemistry(settings, case.mech)))
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

        self.current_time = 0.0
        self.step_count = 0
        self.last_timings = StepTimings()
        self.last_diag: StepDiagnostics | None = None
        self.last_comm: dict | None = None
        #: per rank, the chemistry backend's stats of the last step
        self.last_backend_stats: list = []

    # -- helpers --------------------------------------------------------
    def _solve(self, eqns, solver: str,
               controls: SolverControls) -> tuple[list, list]:
        """The decomposed solve hook: the hosted equations as one
        distributed system; returns (per-rank views of the stacked
        ``(N, k)`` solution, per-column results).  ``b`` and ``x0`` are
        stacked column-major, as ``(k, N)`` blocks whose ``(N, k)``
        transposes the solve reads in place."""
        def stacked(blocks) -> np.ndarray:
            return np.concatenate(
                [np.atleast_2d(v[:s.n_owned].T)
                 for v, s in zip(blocks, self.subs)], axis=1)

        b = stacked(e.source for e in eqns)
        x0 = stacked(e.field.values for e in eqns)
        mats = [e.a for e in eqns]
        if self._system is None:
            self._system = DistributedSystem(
                self.decomp, self.comm, mats, exchanger=self.exchanger)
        else:
            self._system.bind(mats)
        x, results = solve_distributed(self._system, b.T, x0=x0.T,
                                       solver=solver, controls=controls,
                                       workspace=self._krylov_workspace)
        return [x[sl] for sl in self._system.slices], results

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
            reduce=self.comm.allreduce)
        self.current_time = diag.time
        self.step_count = diag.step
        self.last_timings = self.ranks[0].last_timings
        self.last_diag = diag
        self.last_comm = led.delta(led0)
        self.last_backend_stats = [
            getattr(r.chemistry, "last_backend_stats", None)
            for r in self.ranks]
        return diag

    def _step_parallel(self, dt: float) -> StepDiagnostics:
        """One step on the worker pool (ledgers merged back here).

        The diagnostics equal the driver-stepped ones field for field:
        the reduced fields are bitwise identical on every rank, and
        ``solver_flops`` is summed over the workers' hosted rows.
        """
        led = self.comm.ledger
        led0 = led.totals()
        diag, self.last_timings, self.last_backend_stats = \
            self._parallel.step(dt)
        self.current_time = diag.time
        self.step_count = diag.step
        self.last_diag = diag
        self.last_comm = led.delta(led0)
        return diag

    # -- multi-step driver -----------------------------------------------
    def run(self, n_steps: int, dt: float) -> list[StepDiagnostics]:
        """Advance ``n_steps`` collective steps of size ``dt``."""
        return [self.step(dt) for _ in range(n_steps)]

    # -- flow state ------------------------------------------------------
    def _each_rank(self, method: str, *args) -> list:
        """``method(*args)`` of every hosted rank solver, in rank order
        (under ``execution="parallel"``, of every worker's)."""
        if self._parallel is not None:
            return self._parallel.each_rank(method, *args)
        return [getattr(r, method)(*args) for r in self.ranks]

    def gather(self, name: str, out: np.ndarray | None = None) -> np.ndarray:
        """A :data:`~repro.core.deepflame.FIELDS` array in global cell
        order: the owned rows of every rank, written into ``out`` (a
        fresh global array by default)."""
        if name not in FIELDS:
            raise KeyError(f"unknown field {name!r}")
        local = self._each_rank("gather", name)
        if out is None:
            out = np.empty((self.decomp.mesh.n_cells,) + local[0].shape[1:],
                           local[0].dtype)
        for a, sub in zip(local, self.subs):
            out[sub.owned_global] = a[:sub.n_owned]
        return out

    def state_snapshot(self) -> dict:
        """The flow state: one :meth:`DeepFlameSolver.state_snapshot
        <repro.core.deepflame.DeepFlameSolver.state_snapshot>` per rank (key
        ``ranks``, rank order) plus the driver's clocks.

        Under ``execution="parallel"`` one pool broadcast collects the
        per-rank dicts.  Beyond what a rank snapshot leaves out,
        ``last_comm`` and ``last_backend_stats`` are not captured;
        neither feeds a step, so restore + step is bitwise under the
        same chemistry condition as a rank's (``none`` or ``direct``).
        """
        snap = {"ranks": self._each_rank("state_snapshot")}
        snap.update((k, getattr(self, k)) for k in STATE_ATTRS)
        return snap

    def restore_state(self, snap: dict) -> None:
        """Put a :meth:`state_snapshot` back, in place, on every rank.

        Every rank's snapshot is checked against that rank's live
        arrays before any is written (``ValueError`` on another mesh or
        rank layout); under ``execution="parallel"`` one pool scatter
        then sends each worker its own rank's dict.  Adds nothing to
        ``comm.ledger``.
        """
        shapes = self._each_rank("_state_shapes")
        check_state({}, snap)
        ranks = snap.get("ranks")
        if not isinstance(ranks, list) or len(ranks) != len(shapes):
            raise ValueError(
                f"snapshot does not fit this solver's {len(shapes)} ranks")
        for rank_shapes, rank_snap in zip(shapes, ranks):
            check_state(rank_shapes, rank_snap)
        if self._parallel is not None:
            self._parallel.restore_state(
                [{**snap, "ranks": [s]} for s in ranks])
        else:
            for r, s in zip(self.ranks, ranks):
                r.restore_state(s)
        for k in STATE_ATTRS:
            setattr(self, k, snap[k])

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
