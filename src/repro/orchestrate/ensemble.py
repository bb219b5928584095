"""In-process ensemble orchestration over solver instances.

One :class:`Ensemble` launches N configured solver instances --
a parameter sweep, a UQ ensemble, or macro/micro coupled pairs --
inside a single process and advances them in lockstep, the way a
muscle3 manager runs its compute elements:

* each instance's settings resolve through the
  :class:`~repro.orchestrate.settings_manager.SettingsManager`
  (base settings + overlays addressed by instance name/index),
* instances of the same case share one mesh, mechanism, property
  evaluator and equation workspace
  (:class:`~repro.orchestrate.cache.SharedResources` -- asserted by
  object identity in the orchestration tests), and
* all instance-to-instance traffic flows as port messages along
  declared *conduits* through one ledgered
  :class:`~repro.runtime.comm.SimulatedComm` fabric, so the ensemble's
  coupling cost is measured exactly like a decomposed run's halo
  traffic and priced by the same alpha-beta model.

The round-robin step is a pipelined superstep: before each instance
steps, every queued message whose conduit targets it is delivered, so
a macro instance stepping earlier in the order feeds its micro peer
within the same ensemble step, while messages flowing "backwards"
arrive at the start of the next one.  Instances step strictly
sequentially -- that, plus the per-use zero/refill discipline of the
workspace buffers, is what makes workspace sharing bitwise-neutral.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.deepflame import StepDiagnostics
from ..core.settings import SolverSettings
from ..runtime.comm import SimulatedComm
from .cache import CaseCache, nbytes_deep
from .instance import SolverInstance
from .report import EnsembleCostReport, InstanceCost
from .settings_manager import SettingsManager

__all__ = ["Conduit", "Ensemble"]


class _EnsembleWorker:
    """Worker-side handler owning one round-robin share of instances."""

    def __init__(self, instances, indices):
        self.instances = instances
        self.indices = indices

    def step_all(self, dt: float):
        """Step every owned instance; returns ``(index, diag,
        counters)`` triples with the instance's cumulative cost."""
        out = []
        for i, inst in zip(self.indices, self.instances):
            diag = inst.step(dt)
            out.append((i, diag, {
                "steps": inst.steps,
                "timings": inst.timings,
                "solver_flops": inst.solver_flops,
                "solver_iterations": inst.solver_iterations,
                "chemistry_work": inst.chemistry_work,
                "chemistry_cells": inst.chemistry_cells,
            }))
        return out

    def snapshot_all(self):
        """State snapshots of every owned instance's solver."""
        return [(i, inst.solver.state_snapshot())
                for i, inst in zip(self.indices, self.instances)]


@dataclass(frozen=True)
class Conduit:
    """A directed port connection between two instances.

    Messages queued on ``src``'s output port ``src_port`` are routed
    through the ensemble fabric into ``dst``'s input port
    ``dst_port``.
    """

    src: str
    src_port: str
    dst: str
    dst_port: str


class Ensemble:
    """Launches and round-robin-steps N solver instances.

    Parameters
    ----------
    case_builder:
        Zero-argument factory of the default prototype case; every
        instance added without its own case shares the resources built
        from it.
    base:
        Ensemble-wide base :class:`SolverSettings` (defaults when
        ``None``).
    overlays:
        Instance-addressed settings overlays (see
        :class:`SettingsManager`).
    properties:
        Optional shared property evaluator for the default case.
    cache:
        Optional pre-populated :class:`CaseCache` (lets several
        ensembles share one case pool).
    comm:
        Optional pre-built port fabric; by default one
        :class:`SimulatedComm` with one rank per instance is created
        at the first step (after which the member list is frozen).
    parallel:
        Round-robin the instances across a persistent forked
        :class:`~repro.runtime.executor.WorkerPool` instead of stepping
        them sequentially.  The pool forks lazily at the first step (so
        workers inherit the fully built instances copy-on-write);
        instance ``i`` lives on worker ``i % workers`` for the rest of
        the run.  Conduits are incompatible with parallel execution
        (port routing is inherently sequential) and raise; decomposed
        instances are likewise refused.  ``pre_step``/``post_step``
        hooks run inside the worker process.  Driver-side solver state
        is refreshed from the workers lazily -- transparently on
        :meth:`SolverInstance.field` access, or explicitly via
        :meth:`sync`.
    workers:
        Worker-process count for ``parallel=True`` (default:
        ``min(4, len(instances))``).
    """

    #: cache key of the default (constructor-supplied) case
    DEFAULT_CASE = "__case__"

    def __init__(self, case_builder=None, base: SolverSettings | None = None,
                 overlays: dict[str, dict] | None = None, properties=None,
                 cache: CaseCache | None = None,
                 comm: SimulatedComm | None = None,
                 parallel: bool = False, workers: int | None = None):
        self.manager = SettingsManager(base, overlays)
        self.cache = cache if cache is not None else CaseCache()
        self._properties = properties
        if case_builder is not None:
            self.cache.get(self.DEFAULT_CASE, builder=case_builder,
                           properties=properties)
        self.instances: list[SolverInstance] = []
        self._by_name: dict[str, SolverInstance] = {}
        self.conduits: list[Conduit] = []
        self.comm = comm
        self.step_count = 0
        self.parallel = bool(parallel)
        self.workers = workers
        self._pool = None
        self._stale = False

    # -- membership -----------------------------------------------------
    def add_instance(self, name: str, index: int | None = None,
                     overrides: dict | None = None, case_builder=None,
                     case_key: str | None = None,
                     chemistry=None) -> SolverInstance:
        """Add one instance and build its solver.

        The instance's settings resolve as base < ``name`` overlay <
        ``name[index]`` overlay < ``overrides``.  Its case comes from
        the shared cache: the default prototype unless ``case_key``
        (and optionally ``case_builder``) select another pool entry.
        """
        if self.step_count:
            raise RuntimeError(
                "cannot add instances after the ensemble has stepped")
        full = name if index is None else f"{name}[{index}]"
        if full in self._by_name:
            raise ValueError(f"duplicate instance name {full!r}")
        settings = self.manager.resolve(name, index, overrides)
        key = case_key if case_key is not None else (
            self.DEFAULT_CASE if case_builder is None else full)
        resources = self.cache.get(key, builder=case_builder,
                                   properties=self._properties)
        inst = SolverInstance(full, len(self.instances), settings,
                              resources, chemistry=chemistry)
        self.instances.append(inst)
        self._by_name[full] = inst
        return inst

    @classmethod
    def sweep(cls, case_builder, base: SolverSettings | None,
              key: str, values, name: str = "sweep", **kwargs) -> "Ensemble":
        """An ensemble fanning one settings field over ``values``.

        Instance ``name[i]`` runs the base settings with field ``key``
        (a plain or dotted settings path) overridden to ``values[i]``
        -- the one-line spelling of a parameter study.
        """
        ens = cls(case_builder, base, **kwargs)
        for i, value in enumerate(values):
            ens.add_instance(name, index=i, overrides={key: value})
        return ens

    def __len__(self) -> int:
        """Number of instances."""
        return len(self.instances)

    def __iter__(self):
        """Iterate over the instances in step order."""
        return iter(self.instances)

    def __getitem__(self, key) -> SolverInstance:
        """An instance by full name (``"sweep[3]"``) or step index."""
        if isinstance(key, str):
            return self._by_name[key]
        return self.instances[key]

    # -- wiring ---------------------------------------------------------
    def connect(self, src: str, dst: str) -> Conduit:
        """Declare a conduit, muscle3-style: ``connect("macro.out",
        "micro[0].in")`` routes ``macro``'s port ``out`` to
        ``micro[0]``'s port ``in``."""
        if self.parallel:
            raise RuntimeError(
                "conduits are incompatible with parallel=True: port "
                "routing between instances is inherently sequential")
        s_name, s_port = src.rsplit(".", 1)
        d_name, d_port = dst.rsplit(".", 1)
        for endpoint in (s_name, d_name):
            if endpoint not in self._by_name:
                raise KeyError(f"unknown instance {endpoint!r}")
        conduit = Conduit(s_name, s_port, d_name, d_port)
        self.conduits.append(conduit)
        return conduit

    # -- stepping -------------------------------------------------------
    def _ensure_fabric(self) -> SimulatedComm:
        """The port fabric, built at first use (one rank/instance)."""
        if self.comm is None:
            self.comm = SimulatedComm(len(self.instances))
        elif self.comm.n_ranks != len(self.instances):
            raise ValueError(
                f"fabric has {self.comm.n_ranks} ranks for "
                f"{len(self.instances)} instances")
        return self.comm

    def _route_ports(self, comm: SimulatedComm) -> None:
        """Deliver every queued conduit message through the fabric.

        Each delivery wave builds one outbox set (at most one payload
        per sender/receiver pair, the fabric's contract) and runs one
        ``halo_exchange``; multiple messages on the same pair drain
        over successive waves.  A queued message on a port no conduit
        serves is a wiring bug and raises.
        """
        pending: list[tuple[int, int, str]] = []
        payloads: list = []
        for c in self.conduits:
            src, dst = self._by_name[c.src], self._by_name[c.dst]
            q = src.outbox.get(c.src_port)
            while q:
                pending.append((src.rank, dst.rank, c.dst_port))
                payloads.append(q.popleft())
        for inst in self.instances:
            for port, q in inst.outbox.items():
                if q:
                    raise ValueError(
                        f"{inst.name}.{port} has queued messages but no "
                        f"conduit is connected to it")
        while pending:
            outboxes: list[dict] = [dict() for _ in self.instances]
            now, later = [], []
            for (s, d, port), data in zip(pending, payloads):
                if d in outboxes[s]:
                    later.append(((s, d, port), data))
                else:
                    outboxes[s][d] = data
                    now.append((s, d, port))
            inboxes = comm.halo_exchange(outboxes)
            for s, d, port in now:
                self.instances[d].inbox.setdefault(
                    port, deque()).append(inboxes[d][s])
            pending = [item for item, _ in later]
            payloads = [data for _, data in later]

    def _ensure_pool(self):
        """Fork the worker pool over the frozen instance list."""
        if self._pool is not None:
            return self._pool
        from ..runtime.executor import WorkerPool

        if self.conduits:
            raise RuntimeError(
                "conduits are incompatible with parallel=True")
        for inst in self.instances:
            if inst.settings.is_decomposed:
                raise RuntimeError(
                    f"parallel=True requires serial instances; "
                    f"{inst.name!r} is decomposed "
                    f"(ranks={inst.settings.ranks})")
        n = self.workers or min(4, len(self.instances))
        n = max(1, min(n, len(self.instances)))
        instances = self.instances

        def factory(w: int) -> _EnsembleWorker:
            idx = list(range(w, len(instances), n))
            return _EnsembleWorker([instances[i] for i in idx], idx)

        self._pool = WorkerPool(n, factory)
        for inst in self.instances:
            inst._stale_cb = self.sync
        return self._pool

    def _step_parallel(self, dt: float) -> list[StepDiagnostics]:
        """One superstep across the worker pool."""
        pool = self._ensure_pool()
        diags: list = [None] * len(self.instances)
        for triples in pool.broadcast("step_all", dt):
            for i, diag, counters in triples:
                diags[i] = diag
                inst = self.instances[i]
                for key, val in counters.items():
                    setattr(inst, key, val)
        self._stale = True
        self.step_count += 1
        return diags

    def sync(self) -> None:
        """Refresh driver-side solver state from the worker copies.

        A no-op unless a parallel step has run since the last sync;
        called automatically on :meth:`SolverInstance.field` access.
        """
        if not self._stale or self._pool is None:
            return
        self._stale = False
        for snaps in self._pool.broadcast("snapshot_all"):
            for i, snap in snaps:
                self.instances[i].solver.restore_state(snap)

    def close(self) -> None:
        """Sync outstanding state, shut the worker pool down and close
        every member's solver (a parallel decomposed member's workers
        and shared memory go with it)."""
        if self._pool is not None:
            self.sync()
            self._pool.close()
            self._pool = None
        for inst in self.instances:
            if inst.settings.is_decomposed:
                inst.solver.close()

    def __enter__(self) -> "Ensemble":
        """Context-manager entry (returns the ensemble)."""
        return self

    def __exit__(self, *exc) -> None:
        """:meth:`close` on context exit."""
        self.close()

    def step(self, dt: float) -> list[StepDiagnostics]:
        """One ensemble superstep: every instance advances by ``dt``.

        Before each instance steps, all queued conduit messages are
        delivered -- so messages sent by earlier instances this step
        reach later ones within the same superstep, and the rest
        arrive at the start of the next.  With ``parallel=True`` the
        instances advance concurrently across the worker pool instead
        (no port routing).
        """
        if self.parallel:
            return self._step_parallel(dt)
        comm = self._ensure_fabric()
        diags = []
        for inst in self.instances:
            self._route_ports(comm)
            diags.append(inst.step(dt))
        self.step_count += 1
        return diags

    def run(self, n_steps: int, dt: float) -> list[list[StepDiagnostics]]:
        """Advance ``n_steps`` supersteps; returns per-step diagnostic
        lists."""
        return [self.step(dt) for _ in range(n_steps)]

    # -- reports --------------------------------------------------------
    def cost_report(self) -> EnsembleCostReport:
        """The ledgered cost of the run so far.

        Port traffic is attributed to the sending instance via the
        fabric ledger's per-source counters; each decomposed
        instance's internal halo/allreduce totals ride along.
        """
        ledger = self.comm.ledger if self.comm is not None else None
        costs = []
        for inst in self.instances:
            msgs, nbytes = ledger.src_totals(inst.rank) \
                if ledger is not None else (0, 0)
            costs.append(InstanceCost(
                name=inst.name, steps=inst.steps,
                n_cells=inst.resources.mesh.n_cells,
                ranks=inst.settings.ranks, timings=inst.timings,
                solver_flops=inst.solver_flops,
                solver_iterations=inst.solver_iterations,
                chemistry_work=inst.chemistry_work,
                chemistry_cells=inst.chemistry_cells,
                port_messages=msgs, port_bytes=nbytes,
                internal_comm=inst.internal_comm()))
        fabric = ledger.totals() if ledger is not None else {
            "messages": 0, "bytes": 0, "allreduces": 0,
            "allreduce_bytes": 0}
        return EnsembleCostReport(instances=costs, fabric=fabric)

    def memory_report(self) -> dict:
        """What sharing saves: ensemble bytes vs N independent solvers.

        One incremental :func:`nbytes_deep` walk charges every shared
        array (mesh, mechanism, CSR pattern, workspace buffers) to the
        shared pool and each instance only its exclusive state; the
        *independent* figure re-walks each instance with a fresh
        visited set, i.e. what N standalone solvers would hold.
        """
        seen: set = set()
        shared = {key: res.nbytes(seen=seen)
                  for key, res in self.cache.entries.items()}
        exclusive = {inst.name: inst.memory_nbytes(seen=seen)
                     for inst in self.instances}
        # port payloads in flight belong to the ensemble side too
        # (walked as the persistent queue dicts themselves: a temporary
        # container could collide with a freed id in ``seen``)
        buffers = sum(nbytes_deep(inst.inbox, seen=seen)
                      + nbytes_deep(inst.outbox, seen=seen)
                      for inst in self.instances)
        ensemble_bytes = sum(shared.values()) + sum(exclusive.values()) \
            + buffers
        independent_bytes = sum(inst.memory_nbytes()
                                for inst in self.instances)
        return {
            "shared_bytes": shared,
            "instance_bytes": exclusive,
            "port_buffer_bytes": buffers,
            "ensemble_bytes": ensemble_bytes,
            "independent_bytes": independent_bytes,
            "ratio": ensemble_bytes / independent_bytes
            if independent_bytes else 1.0,
        }
