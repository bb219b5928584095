"""Surrogate chemistry: batched ODENet inference as a backend.

Routes whole batches through the framework-free inference stack
(:mod:`repro.dnn.inference`) so the precision / tabulated-GeLU /
batch-size fast paths all apply.  Work per cell is uniform by
construction — the DNN's structural fix for chemistry load imbalance —
and is priced in *inference FLOPs* converted to the direct backend's
work units, so composite backends can mix surrogate and integrator
cells in one cost model.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from .base import BackendStats, ChemistryBackend

if TYPE_CHECKING:
    from ...dnn.inference import InferenceEngine
    from ...dnn.odenet import ODENet

__all__ = ["SurrogateBackend", "FLOPS_PER_WORK_UNIT"]

#: inference FLOPs equivalent to one direct-backend work unit (one
#: batched RK4 step).  Calibrated from measured wall time: one
#: integrator step on this machine costs about as much as 25k dense
#: inference FLOPs, so a (64, 64) surrogate cell (~14 kFLOP) prices at
#: ~0.6 units, about a frozen direct cell's Heun step (0.625) and far
#: under an active cell's RODAS3 steps (5 units each).
FLOPS_PER_WORK_UNIT = 25_000.0

#: per-element FLOPs charged for the exact (tanh) GeLU when no engine
#: is attached (mirrors ``repro.dnn.layers.GeLU.FLOPS_PER_ELEMENT``)
_EXACT_GELU_FLOPS = 12


class SurrogateBackend(ChemistryBackend):
    """Batched ODENet inference (the paper's DNN chemistry path).

    Parameters
    ----------
    odenet:
        A trained :class:`~repro.dnn.odenet.ODENet`.
    engine:
        Optional :class:`~repro.dnn.inference.InferenceEngine`; pass
        one built with ``precision="fp32"`` / ``gelu="table"`` to use
        the optimized inference paths.  ``None`` runs the exact fp64
        forward.
    """

    name = "surrogate"

    def __init__(self, odenet: ODENet, engine: InferenceEngine | None = None):
        if not odenet.trained:
            raise ValueError("ODENet must be trained before use")
        self.odenet = odenet
        self.engine = engine

    def _flops_per_cell(self) -> float:
        """Dense + activation inference FLOPs for one cell."""
        net = self.odenet.net
        act = net.activation_elements_per_sample()
        if self.engine is not None and self.engine.table is not None:
            act_flops = act * self.engine.table.FLOPS_PER_ELEMENT
        else:
            act_flops = act * _EXACT_GELU_FLOPS
        return float(net.flops_per_sample() + act_flops)

    def work_per_cell_estimate(self) -> float:
        """Uniform per-cell work in direct-backend units.

        Inference FLOPs per cell divided by
        :data:`FLOPS_PER_WORK_UNIT` — the price composite backends
        charge a pure-surrogate cell when no engine counts its FLOPs.
        """
        return self._flops_per_cell() / FLOPS_PER_WORK_UNIT

    def advance(self, y, t, p, dt):
        """Advance the batch by one ODENet inference.

        Returns ``(Y_new, T_in, stats)`` -- temperature passes through
        unchanged (the solver re-derives it from ``(h, p, Y)``) and
        work is uniform at the FLOP-derived per-cell price.
        """
        y, t, p = self._as_batch(y, t, p, dt)
        n = t.shape[0]
        t0 = time.perf_counter()
        # the net's features carry log(dt): a zero step is the identity
        y_new = (self.odenet.advance(t, p, y, dt, engine=self.engine)
                 if dt > 0 else y.copy())
        wall = time.perf_counter() - t0
        if self.engine is not None and self.engine.last_stats is not None:
            work = self.engine.last_stats.total_flops / max(n, 1) \
                / FLOPS_PER_WORK_UNIT
        else:
            work = self.work_per_cell_estimate()
        work_per_cell = np.full(n, work)
        stats = BackendStats(
            backend=self.name, n_cells=n, wall_time=wall,
            work_per_cell=work_per_cell,
            sub_batches=[("dnn", n, int(round(work_per_cell.sum())))],
        )
        # Temperature is re-derived from (h, p, Y) by the solver's
        # property evaluation; the surrogate leaves it unchanged.
        return y_new, t.copy(), stats
