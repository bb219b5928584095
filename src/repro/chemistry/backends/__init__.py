"""Pluggable batched chemistry backends.

Every backend advances a *batch* of cells through one constant-
pressure chemistry sub-step behind the uniform API

    ``advance(Y, T, p, dt) -> (Y_new, T_new, stats)``

so the flow solver, the benchmarks and future scaling layers
(sharding, async dispatch) are decoupled from how chemistry is
actually computed:

* :class:`PerCellBDFBackend` — the CVODE-style per-cell reference,
* :class:`DirectBatchBackend` — vectorized Heun (frozen cells) and
  adaptive RODAS3 (every other cell, ignition fronts included) under
  one error norm,
* :class:`SurrogateBackend` — batched ODENet inference,
* :class:`HybridBackend` — trust-gated temperature/stiffness-split
  DNN + ODE.

A backend advances the batch it is handed in-process; chemistry runs
on more cores through the domain decomposition
(``SolverSettings(ranks >= 2, execution="parallel")``), each rank
advancing its own cells.

:func:`repro.core.build_chemistry` builds the one a
:class:`~repro.core.SolverSettings` names.
"""

from __future__ import annotations

from .base import BackendStats, ChemistryBackend
from .direct import DirectBatchBackend
from .hybrid import TRUST_GATE_MODES, HybridBackend
from .percell import PerCellBDFBackend
from .surrogate import FLOPS_PER_WORK_UNIT, SurrogateBackend

__all__ = [
    "BackendStats",
    "ChemistryBackend",
    "DirectBatchBackend",
    "FLOPS_PER_WORK_UNIT",
    "HybridBackend",
    "PerCellBDFBackend",
    "SurrogateBackend",
    "TRUST_GATE_MODES",
]
