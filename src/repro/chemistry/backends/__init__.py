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

:func:`repro.core.settings.build_chemistry` builds the one a
:class:`~repro.core.settings.SolverSettings` names.
"""

# bench/checks.py names these two by the package path; every other
# importer names the defining module, so nothing else loads here.
from .direct import DirectBatchBackend
from .percell import PerCellBDFBackend

__all__ = ["DirectBatchBackend", "PerCellBDFBackend"]
