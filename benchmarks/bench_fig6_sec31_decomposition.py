"""Fig. 6 + Sec. 3.1/3.2.3: decomposition, renumbering and balance
statistics on the real (synthetic) rocket system.

Paper anchors: 36 % fewer non-zero blocks (106 -> 68), off-diagonal
non-zeros 16.24 % -> 1.63 % at t=16 threads; process load balance
mean 440k / max 459k / sigma 3222; 15 average neighbours; thread nnz
mean 241,634 / max 246,198.  We reproduce the *direction and relative
magnitude* of every statistic at bench scale."""

import numpy as np

from repro.dist.decompose import Decomposition
from repro.mesh.graph import cell_graph_from_mesh
from repro.mesh.rocket import build_rocket_mesh
from repro.partition.partitioner import partition_graph
from tests.conftest import partitioned_blocks

from .conftest import emit


def test_fig6_renumbering_statistics(benchmark):
    mesh = build_rocket_mesh(nr=10, ntheta_per_sector=12, nz=36, n_sectors=2)
    graph = cell_graph_from_mesh(mesh)
    n = mesh.n_cells
    t = 16

    mem_ml = benchmark(partition_graph, graph, t)
    # "naive": strided blocks of a spatially-shuffled labelling (no
    # locality, which is what a generic unstructured numbering gives)
    shuffled = mesh.renumbered(np.random.default_rng(0).permutation(n))
    blk_naive = partitioned_blocks(shuffled, np.arange(n) * t // n)
    blk = partitioned_blocks(mesh, mem_ml)

    f_ml = blk.offdiag_nnz_fraction()
    f_naive = blk_naive.offdiag_nnz_fraction()
    occ_ml = blk.n_nonzero_blocks
    occ_naive = blk_naive.n_nonzero_blocks

    lines = [
        f"threads t = {t}, cells = {n}",
        f"off-diagonal nnz fraction: naive {f_naive*100:6.2f} %  ->  "
        f"SCOTCH-like+CM {f_ml*100:6.2f} %   (paper: 16.24 % -> 1.63 %)",
        f"non-zero blocks of {t}x{t}: naive {occ_naive}  ->  optimized "
        f"{occ_ml}   (paper: 106 -> 68)",
    ]
    assert f_ml < f_naive / 2
    assert occ_ml < occ_naive

    # Block-CSR nnz balance per thread (Sec. 3.2.3)
    nnz = blk.nnz_per_thread()
    lines.append(f"nnz/thread: mean {nnz.mean():.0f} max {nnz.max()} "
                 f"std {nnz.std():.1f}   (paper: mean 241,634 max 246,198 "
                 f"std 3,303)")
    assert nnz.max() / nnz.mean() < 1.2
    emit("Fig. 6 + Sec. 3.2: renumbering statistics", lines)


def test_sec31_two_level_load_balance(benchmark):
    mesh = build_rocket_mesh(nr=8, ntheta_per_sector=10, nz=30, n_sectors=2)

    stats = benchmark(Decomposition.from_mesh, mesh, 8).stats()
    counts = np.array(stats["cells_per_rank"])
    imbalance = counts.max() / counts.mean() - 1.0
    nbrs = stats["neighbour_counts"]
    avg_neighbours = float(np.mean(nbrs))
    lines = [
        f"cells/process: mean {counts.mean():.0f} max {counts.max()} "
        f"std {counts.std():.1f}  (paper: 440k / 459k / 3222.8)",
        f"relative imbalance max/mean-1 = {imbalance*100:.2f} %  "
        f"(paper: 4.3 %)",
        f"avg neighbours/process = {avg_neighbours:.1f}  (paper: 15)",
        f"avg shared faces/pair  = {2 * stats['cut_faces'] / sum(nbrs):.0f}  "
        f"(paper: 2855)",
    ]
    assert imbalance < 0.10
    assert 3.0 <= avg_neighbours <= 16.0
    emit("Sec. 3.1: two-level decomposition balance", lines)
