"""SCOTCH-like facade over the multilevel partitioner.

Partitions a cell graph (the CSR adjacency of
:func:`~repro.mesh.graph.cell_graph_from_mesh`) into ``nparts``
balanced parts by multilevel recursive bisection with FM refinement.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .multilevel import partition_weighted

__all__ = ["partition_graph"]


def partition_graph(adj: sp.csr_matrix, nparts: int,
                    seed: int = 0) -> np.ndarray:
    """Partition a cell graph into ``nparts`` parts of equal cell count
    (unit vertex weights, face-multiplicity edge weights).

    Returns a membership array of length ``adj.shape[0]``.
    """
    n = adj.shape[0]
    if nparts <= 0:
        raise ValueError("nparts must be positive")
    if nparts == 1:
        return np.zeros(n, dtype=np.int64)
    if nparts > n:
        raise ValueError(f"nparts={nparts} exceeds n_vertices={n}")
    return partition_weighted(adj, np.ones(n), nparts,
                              np.random.default_rng(seed))
