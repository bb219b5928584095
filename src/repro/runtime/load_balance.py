"""Chemistry load-balance metrics fed by the backend work counters.

The batched chemistry backends report per-cell work
(:class:`~repro.chemistry.backends.base.BackendStats`); these helpers turn
that into the quantities the runtime layer prices:

* the cell-level imbalance (max/mean - 1) the paper attributes to
  stiff per-cell integration,
* the *rank-level* imbalance a static domain decomposition would see
  if cells were dealt round-robin to ranks,
* a per-backend work breakdown for hybrid DNN+ODE runs,
* a plug into :class:`~repro.runtime.perf_model.WorkloadSpec` so the
  scaling studies can price a measured chemistry split.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .perf_model import WorkloadSpec

__all__ = [
    "work_imbalance",
    "rank_imbalance",
    "per_rank_imbalance",
    "chemistry_balance_report",
    "workload_with_chemistry",
]


def work_imbalance(work_per_cell: np.ndarray) -> float:
    """max/mean - 1 of per-cell work (0 when perfectly uniform)."""
    w = np.asarray(work_per_cell, dtype=float)
    if w.size == 0 or w.mean() == 0:
        return 0.0
    return float(w.max() / w.mean() - 1.0)


def rank_imbalance(work_per_cell: np.ndarray, n_ranks: int,
                   owner: np.ndarray | None = None) -> float:
    """Imbalance across ``n_ranks`` after distributing cells.

    ``owner`` maps each cell to its rank; by default cells are dealt
    in contiguous blocks (the static decomposition a mesh partitioner
    produces).  Returns max/mean - 1 of per-rank work.
    """
    w = np.asarray(work_per_cell, dtype=float)
    if w.size == 0:
        return 0.0
    if owner is None:
        owner = (np.arange(w.size) * n_ranks) // w.size
    per_rank = np.bincount(np.asarray(owner), weights=w, minlength=n_ranks)
    mean = per_rank.mean()
    if mean == 0:
        return 0.0
    return float(per_rank.max() / mean - 1.0)


def per_rank_imbalance(work_per_rank: np.ndarray) -> float:
    """max/mean - 1 of already-aggregated per-rank work totals.

    The *executed* counterpart of :func:`rank_imbalance`: instead of
    predicting what a static ownership map would cost, it scores
    measured per-rank totals (a decomposed step's per-rank chemistry
    work, ``[st.total_work for st in solver.last_backend_stats]``).
    """
    per_rank = np.asarray(work_per_rank, dtype=float)
    if per_rank.size == 0 or per_rank.mean() <= 0:
        return 0.0
    return float(per_rank.max() / per_rank.mean() - 1.0)


def chemistry_balance_report(stats) -> dict:
    """Summarize a :class:`BackendStats` for the runtime layer.

    Returns cell counts, total work and work share per child backend
    (falling back to the whole backend when there is no split), plus
    the cell-level imbalance.
    """
    report: dict = {
        "backend": stats.backend,
        "n_cells": stats.n_cells,
        "total_work": stats.total_work,
        "cell_imbalance": work_imbalance(stats.work_per_cell),
        "per_backend": {},
    }
    children = stats.per_backend or {stats.backend: stats}
    total = sum(max(c.total_work, 0.0) for c in children.values()) or 1.0
    for name, child in children.items():
        report["per_backend"][name] = {
            "n_cells": child.n_cells,
            "total_work": child.total_work,
            "work_share": child.total_work / total,
            "cell_imbalance": work_imbalance(child.work_per_cell),
        }
    return report


def workload_with_chemistry(workload: WorkloadSpec, stats) -> WorkloadSpec:
    """A :class:`WorkloadSpec` carrying the measured chemistry imbalance.

    The perf model multiplies per-process compute time by
    ``1 + load_imbalance``; here that factor comes from the backend's
    actual per-cell work distribution instead of an assumed value.
    """
    return replace(workload,
                   load_imbalance=work_imbalance(stats.work_per_cell))
