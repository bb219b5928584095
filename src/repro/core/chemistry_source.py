"""The solver's chemistry seam over the batched backend subsystem.

All chemistry flows through :mod:`repro.chemistry.backends`: the
solver hands a whole mesh's worth of cells to a
:class:`~repro.chemistry.backends.base.ChemistryBackend` in one call and
gets back per-cell work statistics.  :class:`BackendChemistry` is the
one adapter between that batch API and the solver's calling convention
``advance(T, p, Y, dt) -> (T_new, Y_new)``; it holds the last call's
:class:`~repro.chemistry.backends.base.BackendStats` for the diagnostics
and benchmarks.  Every solver wraps its backend in its own adapter, so
ranks sharing an injected backend keep separate statistics.
"""

from __future__ import annotations

import numpy as np

from ..chemistry.backends.base import BackendStats, ChemistryBackend

__all__ = ["BackendChemistry", "NoChemistry"]


class BackendChemistry:
    """Adapt any :class:`ChemistryBackend` to the solver interface.

    Exposes ``advance(T, p, Y, dt) -> (T_new, Y_new)`` plus
    ``last_backend_stats``, the :class:`BackendStats` of the last call.
    """

    def __init__(self, backend: ChemistryBackend):
        self.backend = backend
        self.last_backend_stats: BackendStats | None = None

    def advance(self, t, p, y, dt) -> tuple[np.ndarray, np.ndarray]:
        """Advance every cell by ``dt``; returns ``(T_new, Y_new)``."""
        y_new, t_new, stats = self.backend.advance(y, t, p, dt)
        self.last_backend_stats = stats
        return t_new, y_new


class NoChemistry:
    """Frozen chemistry (non-reactive comparisons)."""

    last_backend_stats: BackendStats | None = None

    def advance(self, t, p, y, dt):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return t, np.atleast_2d(np.asarray(y, dtype=float))
