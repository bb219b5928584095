"""Cell renumbering: Cuthill-McKee bandwidth reduction.

The paper's thread-level optimization (Sec. 3.2.1) combines SCOTCH
partitioning with Cuthill-McKee renumbering *within* each subdomain so
that non-zeros concentrate in cache-friendly diagonal blocks.  This
module provides the ordering (scipy's reverse Cuthill-McKee: reversal
changes neither the bandwidth nor the block structure) and the
combined partition-then-renumber permutation over the CSR cell graph
of :func:`~repro.mesh.graph.cell_graph_from_mesh`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = ["cuthill_mckee", "partition_renumbering", "bandwidth"]


def cuthill_mckee(adj: sp.csr_matrix) -> np.ndarray:
    """Reverse Cuthill-McKee ordering of a symmetric graph.

    Returns a permutation array ``perm`` with ``perm[old] = new``.
    """
    order = reverse_cuthill_mckee(adj, symmetric_mode=True)
    perm = np.empty(order.size, dtype=np.int64)
    perm[order] = np.arange(order.size)
    return perm


def partition_renumbering(adj: sp.csr_matrix,
                          membership: np.ndarray) -> np.ndarray:
    """Combined partition + Cuthill-McKee permutation (Sec. 3.2.1).

    Cells of partition 0 come first, then partition 1, etc.; within
    each partition cells are CM-ordered on the induced subgraph.  The
    result structures the matrix into ``t x t`` diagonal-dominant
    blocks with consecutive numbering inside each block.
    """
    membership = np.asarray(membership, dtype=np.int64)
    perm = np.empty(adj.shape[0], dtype=np.int64)
    offset = 0
    for part in range(int(membership.max()) + 1):
        cells = np.flatnonzero(membership == part)
        if cells.size == 0:
            continue
        perm[cells] = offset + cuthill_mckee(adj[cells][:, cells])
        offset += cells.size
    return perm


def bandwidth(adj: sp.csr_matrix, perm: np.ndarray | None = None) -> int:
    """Matrix bandwidth induced by an ordering (identity by default)."""
    rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
    cols = adj.indices
    if perm is not None:
        rows, cols = perm[rows], perm[cols]
    return int(np.abs(rows - cols).max(initial=0))
