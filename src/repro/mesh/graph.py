"""Cell-connectivity graphs.

Unstructured grids are represented as graphs (cells -> nodes, faces ->
edges) for partitioning and renumbering: this is the representation the
paper's two-level SCOTCH decomposition and sparse-matrix restructuring
operate on.  The one graph format is a symmetric
``scipy.sparse.csr_matrix`` adjacency; an induced subgraph on the cells
``c`` is ``adj[c][:, c]``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .unstructured import UnstructuredMesh

__all__ = ["cell_graph_from_mesh"]


def cell_graph_from_mesh(mesh: UnstructuredMesh) -> sp.csr_matrix:
    """Cell adjacency of a mesh: cells are vertices, internal faces are
    edges.  Symmetric CSR with sorted column indices; entry ``(u, v)``
    holds the number of faces ``u`` and ``v`` share (its weight in the
    edge cut)."""
    nif = mesh.n_internal_faces
    own, nb = mesh.owner[:nif], mesh.neighbour
    n = mesh.n_cells
    adj = sp.csr_matrix(
        (np.ones(2 * nif), (np.concatenate([own, nb]),
                            np.concatenate([nb, own]))), shape=(n, n))
    adj.sum_duplicates()
    return adj
