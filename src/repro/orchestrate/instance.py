"""One ensemble member: a configured solver plus ports and counters.

A :class:`SolverInstance` owns exactly what cannot be shared -- its
cloned case state and the solver built from its resolved
:class:`~repro.core.settings.SolverSettings` -- and borrows everything
else (mesh, mechanism, property evaluator, equation workspace) from
its :class:`~repro.orchestrate.cache.SharedResources`.  Instances
communicate through named *ports* in the muscle3 compute-element
idiom: :meth:`SolverInstance.send` queues an array on an output port,
the ensemble routes it through its ledgered fabric along a conduit,
and the peer collects it with :meth:`SolverInstance.receive`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.deepflame import StepDiagnostics, StepTimings
from ..core.settings import SolverSettings, build_solver
from ..runtime.comm import SimulatedComm
from .cache import SharedResources, nbytes_deep

__all__ = ["SolverInstance"]

class SolverInstance:
    """One named member of an :class:`~repro.orchestrate.ensemble.Ensemble`.

    Parameters
    ----------
    name:
        Full instance address, e.g. ``"sweep[3]"`` or ``"macro"``.
    rank:
        The instance's slot in the ensemble's message fabric.
    settings:
        The resolved, validated settings this instance runs under.
    resources:
        Shared backing objects; the instance clones its private case
        state from the prototype and -- when it runs serial -- steps
        through the shared equation workspace.
    chemistry:
        Optional explicit chemistry adapter/backend; by default the
        backend is built from ``settings.chemistry``.

    Notes
    -----
    A decomposed instance (``settings.ranks >= 2``) gets its own
    internal :class:`~repro.runtime.comm.SimulatedComm` sub-fabric, so
    its halo/allreduce traffic is ledgered separately from the
    ensemble's port traffic.
    """

    def __init__(self, name: str, rank: int, settings: SolverSettings,
                 resources: SharedResources, chemistry=None):
        self.name = name
        self.rank = int(rank)
        self.settings = settings
        self.resources = resources
        self.case = resources.make_case(name)
        workspace = None if settings.is_decomposed else resources.workspace
        self.subcomm = SimulatedComm(settings.ranks) \
            if settings.is_decomposed else None
        self.solver = build_solver(
            self.case, settings, properties=resources.properties,
            chemistry=chemistry, comm=self.subcomm, workspace=workspace)
        #: outgoing port queues; the ensemble drains them along conduits
        self.outbox: dict[str, deque] = {}
        #: incoming port queues; filled by the ensemble's routing step
        self.inbox: dict[str, deque] = {}
        #: callables ``hook(instance)`` run just before / after each step
        self.pre_step: list = []
        self.post_step: list = []
        #: set by a parallel ensemble: called before state reads so the
        #: driver-side solver can be refreshed from the worker copy
        self._stale_cb = None
        # accumulated cost counters (the ledgered report reads these)
        self.steps = 0
        self.timings = StepTimings()
        self.solver_flops = 0
        self.solver_iterations = 0
        self.chemistry_work = 0.0
        self.chemistry_cells = 0

    # -- ports ----------------------------------------------------------
    def send(self, port: str, data) -> None:
        """Queue one array on an output port (delivered by the
        ensemble's next routing pass along the port's conduit)."""
        self.outbox.setdefault(port, deque()).append(
            np.asarray(data, dtype=float))

    def receive(self, port: str, default=None):
        """Pop the oldest message from an input port (``default`` when
        the queue is empty)."""
        q = self.inbox.get(port)
        return q.popleft() if q else default

    def pending(self, port: str) -> int:
        """Number of undelivered messages waiting on an input port."""
        q = self.inbox.get(port)
        return len(q) if q else 0

    # -- stepping -------------------------------------------------------
    def step(self, dt: float) -> StepDiagnostics:
        """Advance this instance by one dt and accumulate its cost.

        Runs the ``pre_step`` hooks (where coupled instances typically
        :meth:`receive`), one solver step, then the ``post_step`` hooks
        (where they typically :meth:`send`).
        """
        for hook in self.pre_step:
            hook(self)
        diag = self.solver.step(dt)
        self.steps += 1
        self.timings.accumulate(self.solver.last_timings)
        self.solver_flops += diag.solver_flops
        self.solver_iterations += diag.solver_iterations
        self._harvest_chemistry()
        for hook in self.post_step:
            hook(self)
        return diag

    def _harvest_chemistry(self) -> None:
        """Fold the step's backend work counters into the totals (a
        decomposed solver reports one per rank in either execution)."""
        stats = self.solver.last_backend_stats \
            if self.settings.is_decomposed else \
            [getattr(self.solver.chemistry, "last_backend_stats", None)]
        for st in stats:
            if st is not None:
                self.chemistry_work += st.total_work
                self.chemistry_cells += int(st.n_cells)

    # -- uniform state access ------------------------------------------
    def field(self, name: str) -> np.ndarray:
        """A copy of a state field in global cell order (``'y'``,
        ``'h'``, ``'p'``, ``'u'``, ``'rho'`` or ``'T'``): the solver's
        :meth:`gather`, serial or decomposed."""
        if self._stale_cb is not None:
            self._stale_cb()
        return self.solver.gather(name)

    # -- accounting -----------------------------------------------------
    def internal_comm(self) -> dict | None:
        """Ledger totals of a decomposed instance's internal sub-fabric
        (``None`` for a serial instance)."""
        return self.subcomm.ledger.totals() \
            if self.subcomm is not None else None

    def memory_nbytes(self, seen: set | None = None) -> int:
        """Deep byte count of the instance's solver state.

        With a fresh ``seen`` set this is what one *independent* solver
        of this configuration would hold (shared objects included);
        with the ensemble's running set it counts only the instance's
        exclusive state.
        """
        return nbytes_deep(self.solver, seen=seen)
