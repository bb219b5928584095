"""Ablation benches for the design choices DESIGN.md calls out.

* partitioner quality vs naive alternatives (edge cut / off-diagonal
  fraction driving the block format's value),
* thread-count sweep of the block structure (how off-diagonal leakage
  and nnz balance scale with t),
* GeLU-table interval sweep (accuracy/memory tradeoff around the
  paper's 0.01 choice),
* solver choice for the pressure system (GAMG vs PCG iterations)."""

import numpy as np

from repro.dist.decompose import Decomposition
from repro.dnn.gelu_table import GeLUTable
from repro.mesh.graph import cell_graph_from_mesh
from repro.mesh.rocket import build_rocket_mesh
from repro.partition.partitioner import partition_graph
from repro.solvers.blocked import LocalSystem, pcg_solve_multi
from repro.solvers.controls import SolverControls
from repro.solvers.gamg import GAMGSolver
from repro.solvers.preconditioners import DICPreconditioner
from tests.conftest import make_laplacian_ldu, partitioned_blocks

from .conftest import emit


def test_ablation_partitioner_methods(benchmark):
    mesh = build_rocket_mesh(nr=8, ntheta_per_sector=10, nz=28, n_sectors=2)
    graph = cell_graph_from_mesh(mesh)
    n = mesh.n_cells
    lines = [f"rocket graph: {n} cells, {mesh.n_internal_faces} faces"]
    mem_ml = benchmark(partition_graph, graph, 8)
    # the naive baselines: contiguous index blocks, balanced random labels
    mem_st = np.arange(n) * 8 // n
    mem_rd = np.random.default_rng(0).permutation(
        np.repeat(np.arange(8), -(-n // 8))[:n])
    cuts = {}
    for method, mem in (("multilevel", mem_ml), ("strided", mem_st),
                        ("random", mem_rd)):
        cuts[method] = Decomposition.from_mesh(
            mesh, 8, parts=mem).stats()["cut_faces"]
        frac = partitioned_blocks(mesh, mem).offdiag_nnz_fraction()
        lines.append(f"  {method:10s} cut {cuts[method]:6d}  "
                     f"offdiag {frac*100:6.2f} %")
    assert cuts["multilevel"] < cuts["random"] / 4
    emit("Ablation: partitioner method", lines)


def test_ablation_thread_count_sweep(benchmark):
    mesh = build_rocket_mesh(nr=8, ntheta_per_sector=10, nz=28, n_sectors=2)
    graph = cell_graph_from_mesh(mesh)
    lines = ["t    offdiag-nnz   nnz-balance (max/mean)"]

    def sweep():
        rows = []
        for t in (2, 4, 8, 16):
            blk = partitioned_blocks(mesh, partition_graph(graph, t))
            rows.append((t, blk.offdiag_nnz_fraction(),
                         blk.nnz_per_thread().max()
                         / blk.nnz_per_thread().mean()))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    fracs = []
    for t, frac, bal in rows:
        lines.append(f"{t:2d}   {frac*100:8.2f} %   {bal:8.3f}")
        fracs.append(frac)
    # more threads -> more cut surface -> larger off-diagonal share
    assert fracs[0] < fracs[-1]
    emit("Ablation: thread-count sweep of the block format", lines)


def test_ablation_gelu_interval(benchmark):
    lines = ["interval   entries   interior max err   table bytes"]
    errs = []
    for interval in (0.04, 0.02, 0.01, 0.005):
        tab = GeLUTable(interval=interval, precision="fp64")
        xs = np.linspace(-2.99, 2.99, 60_001)
        from repro.dnn.layers import gelu_exact

        err = np.abs(tab(xs) - gelu_exact(xs)).max()
        errs.append(err)
        lines.append(f"{interval:8.3f}   {tab.n_entries:7d}   {err:14.3e}"
                     f"   {tab.table_bytes():8d}")
    benchmark(GeLUTable, 0.01)
    # 2nd-order table: halving the interval cuts the error ~8x
    assert errs[0] / errs[2] > 16.0
    lines.append("(paper chooses 0.01: errors already below fp16 resolution)")
    emit("Ablation: GeLU table interval", lines)


def test_ablation_pressure_solver_choice(benchmark):
    from repro.mesh.structured import build_box_mesh

    mesh = build_box_mesh(12, 12, 12)
    ldu = make_laplacian_ldu(mesh, shift=0.01)
    b = np.random.default_rng(0).random(ldu.n)
    ctl = SolverControls(tolerance=1e-9, max_iterations=400)

    gamg = GAMGSolver(ldu)
    _, res_g = benchmark(gamg.solve, b, None, ctl)
    _, (res_p,) = pcg_solve_multi(
        LocalSystem(ldu), b[:, None], preconditioner=DICPreconditioner(ldu).apply_multi,
        controls=ctl)
    lines = [
        f"GAMG     : {res_g.iterations:4d} cycles, flops {res_g.flops:.2e}",
        f"PCG(DIC) : {res_p.iterations:4d} iters,  flops {res_p.flops:.2e}",
        "(OpenFOAM practice: GAMG for pressure at scale -- fewer, "
        "heavier iterations and fewer global reductions)",
    ]
    assert res_g.converged and res_p.converged
    assert res_g.iterations < res_p.iterations
    emit("Ablation: pressure solver choice", lines)
