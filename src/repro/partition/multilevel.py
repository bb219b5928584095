"""Multilevel recursive-bisection graph partitioner (SCOTCH substitute).

The paper uses SCOTCH's multilevel recursive bisection for both levels
of its decomposition (Sec. 3.1-3.2).  This module implements the same
algorithm family from scratch:

1. **Coarsening** by heavy-edge matching until the graph is small,
2. **Initial bisection** by greedy region growth from a peripheral
   vertex (balanced by vertex weight); the coarsest graph is small, so
   the best of ``_INITIAL_TRIES`` refined growths from seeded random
   starts is kept,
3. **Uncoarsening with Fiduccia-Mattheyses (FM) refinement** of the
   boundary vertices only: gain-ordered moves under a balance
   constraint, each pass ending after ``_FM_STALL`` moves without a
   new best cut (as METIS does) and rolling back to its best prefix, so
   a level costs what its partition boundary costs, not its size,
4. **Recursion** to arbitrary part counts with proportional weight
   targets.

The objective -- minimize edge cut subject to balance -- is exactly
what makes the paper's block-sparse layout work: cut edges become
off-diagonal-block non-zeros.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp

__all__ = ["bisect_graph", "partition_weighted", "fm_refine"]

_COARSE_TARGET = 64
_FM_PASSES = 4
#: moves in a row without a new best prefix that end an FM pass.  A
#: wavy cut of a 32^3 periodic box needs long runs of zero-gain moves
#: to flatten: a limit of 100 left 7-8 % more cut faces there (2 and 4
#: parts, seeds 0-2) than 1000 does
_FM_STALL = 1000
#: initial bisections of the coarsest graph; the least cut one is kept
_INITIAL_TRIES = 4


def _matching(adj: sp.csr_matrix, rng: np.random.Generator) -> np.ndarray:
    """Heavy-edge matching: map each vertex to a coarse-vertex id."""
    n = adj.shape[0]
    match = -np.ones(n, dtype=np.int64)
    order = rng.permutation(n)
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    cid = 0
    for v in order:
        if match[v] >= 0:
            continue
        best, best_w = -1, -1.0
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            if match[u] < 0 and u != v and data[k] > best_w:
                best, best_w = u, data[k]
        match[v] = cid
        if best >= 0:
            match[best] = cid
        cid += 1
    return match


def _coarsen(adj: sp.csr_matrix, vwgt: np.ndarray, rng: np.random.Generator):
    """One coarsening level: returns (coarse_adj, coarse_vwgt, mapping)."""
    mapping = _matching(adj, rng)
    nc = int(mapping.max()) + 1
    n = adj.shape[0]
    p = sp.csr_matrix(
        (np.ones(n), (np.arange(n), mapping)), shape=(n, nc)
    )
    coarse = (p.T @ adj @ p).tocsr()
    coarse.setdiag(0.0)
    coarse.eliminate_zeros()
    cw = np.zeros(nc)
    np.add.at(cw, mapping, vwgt)
    return coarse, cw, mapping


def _initial_bisection(
    adj: sp.csr_matrix, vwgt: np.ndarray, target_frac: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy BFS region growth from a pseudo-peripheral vertex."""
    n = adj.shape[0]
    total = vwgt.sum()
    target = target_frac * total
    # Pseudo-peripheral start: two BFS sweeps from a random vertex.
    start = int(rng.integers(n))
    for _ in range(2):
        dist = _bfs_dist(adj, start)
        start = int(np.argmax(np.where(np.isfinite(dist), dist, -1)))
    side = np.ones(n, dtype=np.int64)
    grown = 0.0
    frontier = [(0.0, start)]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    while frontier and grown < target:
        _, v = heapq.heappop(frontier)
        if side[v] == 0:
            continue
        side[v] = 0
        grown += vwgt[v]
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            if not seen[u]:
                seen[u] = True
                # Prefer strongly-connected vertices (smaller key first).
                heapq.heappush(frontier, (-data[k], u))
    # Handle disconnected leftovers: dump them wherever balance needs.
    if grown < target:
        for v in np.flatnonzero(side == 1):
            if grown >= target:
                break
            side[v] = 0
            grown += vwgt[v]
    return side


def _bfs_dist(adj: sp.csr_matrix, start: int) -> np.ndarray:
    n = adj.shape[0]
    dist = np.full(n, np.inf)
    dist[start] = 0
    queue = [start]
    indptr, indices = adj.indptr, adj.indices
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            if not np.isfinite(dist[u]):
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def fm_refine(
    adj: sp.csr_matrix,
    vwgt: np.ndarray,
    side: np.ndarray,
    target_frac: float,
    imbalance: float = 0.02,
    passes: int = _FM_PASSES,
) -> np.ndarray:
    """Boundary Fiduccia-Mattheyses bisection refinement.

    Repeatedly moves the highest-gain movable vertex (gain = cut-weight
    reduction), keeping part weights within ``imbalance`` of their
    targets.  A pass starts from the boundary vertices only; a vertex
    joins the queue when a neighbour moves.  It ends once ``_FM_STALL``
    moves in a row found no new best prefix, and commits the best one.
    """
    total = vwgt.sum()
    targets = np.array([target_frac * total, (1 - target_frac) * total])
    lo = (targets * (1 - imbalance) - vwgt.max()).tolist()
    hi = (targets * (1 + imbalance) + vwgt.max()).tolist()
    degree = np.asarray(adj.sum(axis=1)).ravel()
    # the move loop runs on Python lists: numpy scalar access is slower
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    data, wgt = adj.data.tolist(), vwgt.tolist()
    side = np.array(side, dtype=np.int64)

    for _ in range(passes):
        # gain = external - internal connectivity = 2 external - degree
        to_one = adj @ (side == 1).astype(float)
        external = np.where(side == 1, degree - to_one, to_one)
        gains = 2.0 * external - degree
        boundary = np.flatnonzero(external > 0)
        heap = list(zip((-gains[boundary]).tolist(), boundary.tolist()))
        heapq.heapify(heap)
        gains = gains.tolist()
        weights = np.bincount(side, weights=vwgt, minlength=2).tolist()
        part = side.tolist()
        locked = bytearray(len(part))
        moves: list[int] = []
        cum_gain, best_gain, best_idx = 0.0, 0.0, -1

        while heap and len(moves) - best_idx <= _FM_STALL:
            g, v = heapq.heappop(heap)
            g = -g
            if locked[v] or g != gains[v]:
                continue
            locked[v] = 1
            s, w = part[v], wgt[v]
            if not (weights[s] - w >= lo[s] and weights[1 - s] + w <= hi[1 - s]):
                continue
            part[v] = 1 - s
            weights[s] -= w
            weights[1 - s] += w
            cum_gain += g
            moves.append(v)
            if cum_gain > best_gain + 1e-12:
                best_gain, best_idx = cum_gain, len(moves) - 1
            for k in range(indptr[v], indptr[v + 1]):
                u = indices[k]
                if locked[u]:
                    continue
                # v left side s: the (u, v) edge became external for
                # u on side s (gain +2w) and internal otherwise (-2w).
                gains[u] += 2 * data[k] if part[u] == s else -2 * data[k]
                heapq.heappush(heap, (-gains[u], u))
        # commit the best prefix: the moves after it roll back
        side = np.array(part, dtype=np.int64)
        side[moves[best_idx + 1:]] ^= 1
        if best_gain <= 1e-12:
            break
    return side


def _cut_weight(adj: sp.csr_matrix, side: np.ndarray) -> float:
    one = (side == 1).astype(float)
    return float((1.0 - one) @ (adj @ one))


def bisect_graph(
    adj: sp.csr_matrix,
    vwgt: np.ndarray,
    target_frac: float = 0.5,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Multilevel bisection of a weighted graph; returns 0/1 sides."""
    rng = rng or np.random.default_rng(0)
    n = adj.shape[0]
    if n <= 2:
        return (np.arange(n) >= max(1, round(n * target_frac))).astype(np.int64)
    levels: list[np.ndarray] = []
    adjs = [adj]
    wgts = [vwgt]
    while adjs[-1].shape[0] > _COARSE_TARGET:
        coarse, cw, mapping = _coarsen(adjs[-1], wgts[-1], rng)
        if coarse.shape[0] >= adjs[-1].shape[0] * 0.95:
            break  # matching stalled (e.g. star graphs)
        levels.append(mapping)
        adjs.append(coarse)
        wgts.append(cw)
    # best of a few refined region growths on the (small) coarsest graph
    coarse, cw = adjs[-1], wgts[-1]
    trials = [fm_refine(coarse, cw, _initial_bisection(
        coarse, cw, target_frac, rng), target_frac)
        for _ in range(_INITIAL_TRIES)]
    side = min(trials, key=lambda t: _cut_weight(coarse, t))
    for mapping, a, w in zip(reversed(levels), reversed(adjs[:-1]), reversed(wgts[:-1])):
        side = side[mapping]
        side = fm_refine(a, w, side, target_frac)
    return side


def partition_weighted(
    adj: sp.csr_matrix,
    vwgt: np.ndarray,
    nparts: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Recursive multilevel bisection into ``nparts`` parts.

    Handles arbitrary (non-power-of-two) part counts by splitting the
    target weight proportionally at every level.
    """
    rng = rng or np.random.default_rng(0)
    n = adj.shape[0]
    membership = np.zeros(n, dtype=np.int64)

    def recurse(vertices: np.ndarray, parts: int, first_part: int) -> None:
        if parts == 1:
            membership[vertices] = first_part
            return
        left = parts // 2
        frac = left / parts
        sub = adj[vertices][:, vertices].tocsr()
        side = bisect_graph(sub, vwgt[vertices], frac, rng)
        recurse(vertices[side == 0], left, first_part)
        recurse(vertices[side == 1], parts - left, first_part + left)

    recurse(np.arange(n), nparts, 0)
    return membership
