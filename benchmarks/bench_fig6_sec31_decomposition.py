"""Fig. 6 + Sec. 3.1/3.2.3: decomposition, renumbering and balance
statistics on the real (synthetic) rocket system.

Paper anchors: 36 % fewer non-zero blocks (106 -> 68), off-diagonal
non-zeros 16.24 % -> 1.63 % at t=16 threads; process load balance
mean 440k / max 459k / sigma 3222; 15 average neighbours; thread nnz
mean 241,634 / max 246,198.  We reproduce the *direction and relative
magnitude* of every statistic at bench scale."""

import numpy as np

from repro.mesh.graph import cell_graph_from_mesh
from repro.mesh.renumber import partition_renumbering
from repro.mesh.rocket import build_rocket_mesh
from repro.partition.hierarchical import decompose_two_level
from repro.partition.metrics import (
    balance_stats,
    block_occupancy,
    offdiag_fraction,
)
from repro.partition.partitioner import partition_graph
from repro.sparse.convert import build_block_converter
from tests.conftest import make_laplacian_ldu

from .conftest import emit


def test_fig6_renumbering_statistics(benchmark):
    mesh = build_rocket_mesh(nr=10, ntheta_per_sector=12, nz=36, n_sectors=2)
    graph = cell_graph_from_mesh(mesh)
    t = 16

    mem_ml = benchmark(partition_graph, graph, t)
    # "naive": strided blocks of a spatially-shuffled labelling (no
    # locality, which is what a generic unstructured numbering gives)
    rng = np.random.default_rng(0)
    perm = rng.permutation(graph.n_vertices)
    from repro.mesh.graph import CellGraph

    src = np.repeat(np.arange(graph.n_vertices), np.diff(graph.xadj))
    keep = src < graph.adjncy
    shuffled = CellGraph.from_edges(graph.n_vertices, perm[src[keep]],
                                    perm[graph.adjncy[keep]])
    mem_naive = partition_graph(shuffled, t, method="strided")

    f_ml = offdiag_fraction(graph, mem_ml)
    f_naive = offdiag_fraction(shuffled, mem_naive)
    occ_ml = block_occupancy(graph, mem_ml)
    occ_naive = block_occupancy(shuffled, mem_naive)

    lines = [
        f"threads t = {t}, cells = {graph.n_vertices}",
        f"off-diagonal nnz fraction: naive {f_naive*100:6.2f} %  ->  "
        f"SCOTCH-like+CM {f_ml*100:6.2f} %   (paper: 16.24 % -> 1.63 %)",
        f"non-zero blocks of {t}x{t}: naive {occ_naive}  ->  optimized "
        f"{occ_ml}   (paper: 106 -> 68)",
    ]
    assert f_ml < f_naive / 2
    assert occ_ml < occ_naive

    # Block-CSR nnz balance per thread (Sec. 3.2.3)
    perm2 = partition_renumbering(graph, mem_ml)
    mesh2 = mesh.renumbered(perm2)
    ldu = make_laplacian_ldu(mesh2)
    conv = build_block_converter(ldu, mem_ml[np.argsort(perm2)])
    blk = conv.convert(ldu)
    nnz = blk.nnz_per_thread()
    lines.append(f"nnz/thread: mean {nnz.mean():.0f} max {nnz.max()} "
                 f"std {nnz.std():.1f}   (paper: mean 241,634 max 246,198 "
                 f"std 3,303)")
    assert nnz.max() / nnz.mean() < 1.2
    emit("Fig. 6 + Sec. 3.2: renumbering statistics", lines)


def test_sec31_two_level_load_balance(benchmark):
    mesh = build_rocket_mesh(nr=8, ntheta_per_sector=10, nz=30, n_sectors=2)

    dec = benchmark(decompose_two_level, mesh, 8, 4)
    stats = balance_stats(dec.process_membership)
    lines = [
        f"cells/process: mean {stats.mean:.0f} max {stats.max:.0f} "
        f"std {stats.std:.1f}  (paper: 440k / 459k / 3222.8)",
        f"relative imbalance max/mean-1 = {stats.imbalance*100:.2f} %  "
        f"(paper: 4.3 %)",
        f"avg neighbours/process = {dec.avg_neighbours():.1f}  (paper: 15)",
        f"avg shared faces/pair  = {dec.avg_shared_faces_per_pair():.0f}  "
        f"(paper: 2855)",
    ]
    assert stats.imbalance < 0.10
    assert 3.0 <= dec.avg_neighbours() <= 16.0
    emit("Sec. 3.1: two-level decomposition balance", lines)
