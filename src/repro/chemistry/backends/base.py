"""The batched chemistry-backend contract.

A :class:`ChemistryBackend` advances the thermochemical state of a
*batch* of cells over one CFD step at constant pressure:

    ``advance(Y, T, p, dt) -> (Y_new, T_new, stats)``

with ``Y`` of shape ``(n, n_species)``, ``T`` and ``p`` of shape
``(n,)`` (``p`` may be scalar) and a scalar ``dt``.  Everything the
solver, the benchmarks and the imbalance metrics need is in
the returned :class:`BackendStats`: per-cell work, aggregate operation
counts, how the batch was split into sub-batches, and (for composite
backends) a per-backend breakdown.

This is the seam future scaling work (sharding, async dispatch,
multi-node backends) plugs into: the solver only ever sees this batch
API, never an integrator loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

__all__ = ["BackendStats", "ChemistryBackend"]


@dataclass
class BackendStats:
    """Work accounting for one ``advance`` call.

    ``work_per_cell`` is the backend's own work proxy (integration
    steps for ODE backends, 1.0 per cell for uniform-cost surrogate
    inference).  Its spread across cells is exactly the chemistry load
    imbalance the paper measures.
    """

    backend: str = ""
    n_cells: int = 0
    wall_time: float = 0.0
    work_per_cell: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rhs_evals: int = 0
    jac_evals: int = 0
    linear_solves: int = 0
    #: how the batch was partitioned: ``[(label, n_cells, steps), ...]``
    sub_batches: list[tuple[str, int, int]] = field(default_factory=list)
    #: per-child breakdown for composite backends: name -> BackendStats
    per_backend: dict[str, "BackendStats"] = field(default_factory=dict)
    #: trust-gate counters for this call (hybrid backend): surrogate /
    #: gated-out / audited / audit-failure cell counts
    gate: dict[str, int] = field(default_factory=dict)

    @property
    def total_work(self) -> float:
        """Sum of per-cell work over the batch (0 for an empty batch)."""
        return float(self.work_per_cell.sum()) if self.work_per_cell.size else 0.0

    @property
    def load_imbalance(self) -> float:
        """max/mean - 1 of per-cell work (0 when perfectly uniform)."""
        if self.work_per_cell.size == 0:
            return 0.0
        mean = self.work_per_cell.mean()
        if mean == 0:
            return 0.0
        return float(self.work_per_cell.max() / mean - 1.0)

    @property
    def cells_per_second(self) -> float:
        """Throughput of the advance (0 when no wall time was recorded)."""
        return self.n_cells / self.wall_time if self.wall_time > 0 else 0.0


class ChemistryBackend(ABC):
    """Advances batches of cells through one chemistry sub-step."""

    #: registry/display name; subclasses override
    name: str = "base"

    @abstractmethod
    def advance(
        self,
        y: np.ndarray,
        t: np.ndarray,
        p: np.ndarray | float,
        dt: float,
    ) -> tuple[np.ndarray, np.ndarray, BackendStats]:
        """Advance every cell by ``dt``; returns ``(Y_new, T_new, stats)``."""

    # ----------------------------------------------------------------
    @staticmethod
    def _as_batch(
        y: np.ndarray, t: np.ndarray, p: np.ndarray | float, dt: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normalize inputs to ``(n, ns)``, ``(n,)``, ``(n,)`` float arrays.

        Raises ``ValueError`` when the row counts of ``y``, ``t`` and
        ``p`` (scalar or per row) differ, or ``dt`` is negative or not
        finite; a zero ``dt`` is valid (every backend returns the input).
        """
        y = np.atleast_2d(np.asarray(y, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p = np.asarray(p, dtype=float)
        if y.ndim != 2 or t.shape != y.shape[:1] or p.ndim > 1 \
                or p.size not in (1, t.size):
            raise ValueError(f"chemistry batch rows differ: Y {y.shape}, "
                             f"T {t.shape}, p {p.shape}")
        if not (np.isfinite(dt) and dt >= 0.0):
            raise ValueError(
                f"chemistry dt must be finite and >= 0; got {dt!r}")
        return y, t, np.ascontiguousarray(np.broadcast_to(p, t.shape))
