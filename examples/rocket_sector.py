"""Rocket-engine sector: mesh, two-level decomposition and a few
solver steps -- the paper's real-world workflow at laptop scale.

Builds a 22.5-degree sector of the synthetic LOX/CH4 combustor
(injector plate, chamber, converging-diverging nozzle), decomposes it
over processes (the production :class:`Decomposition`) and one
process's cells over threads, reports the Sec. 3.1/3.2 statistics, and
advances the flow a few steps.

Run:  python examples/rocket_sector.py
"""

import numpy as np

from repro.core.cases import build_rocket_case
from repro.core.chemistry_source import NoChemistry
from repro.core.deepflame import DeepFlameSolver
from repro.core.properties import IdealGasProperties
from repro.core.settings import SolverSettings
from repro.dist.decompose import Decomposition
from repro.mesh.graph import cell_graph_from_mesh
from repro.mesh.renumber import partition_renumbering
from repro.partition.partitioner import partition_graph
from repro.solvers.controls import SolverControls
from repro.sparse.convert import build_block_converter
from repro.sparse.ldu import LDUMatrix


def laplacian_blocks(mesh, thread_of_row):
    """The ``t x t`` blocks of a graph Laplacian on ``mesh`` whose rows
    are grouped by ``thread_of_row``."""
    nif = mesh.n_internal_faces
    ldu = LDUMatrix(mesh.n_cells, mesh.owner[:nif], mesh.neighbour)
    ldu.upper[:] = -1.0
    ldu.lower[:] = -1.0
    deg = (np.bincount(mesh.owner[:nif], minlength=mesh.n_cells)
           + np.bincount(mesh.neighbour, minlength=mesh.n_cells))
    ldu.diag[:] = deg + 0.2
    return build_block_converter(ldu, thread_of_row).convert(ldu)


def main() -> None:
    print("Building one 22.5-degree combustor sector (20 MPa)...")
    case = build_rocket_case(n_sectors=1, nr=8, ntheta_per_sector=12, nz=32)
    mesh = case.mesh
    print(f"  {mesh.n_cells} cells, patches: "
          f"{[p.name for p in mesh.patches]}")
    print(f"  T range [{case.temperature.min():.0f}, "
          f"{case.temperature.max():.0f}] K (cryogenic injection, hot core)")

    print("\nTwo-level decomposition (8 processes x 4 threads):")
    dec = Decomposition.from_mesh(mesh, 8)
    stats = dec.stats()
    counts = np.array(stats["cells_per_rank"])
    nbrs = stats["neighbour_counts"]
    print(f"  cells/process: mean {counts.mean():.0f}, max {counts.max()}, "
          f"std {counts.std():.1f} "
          f"(imbalance {counts.max() / counts.mean() - 1:.2%})")
    print(f"  avg neighbours {np.mean(nbrs):.1f}, avg shared faces/pair "
          f"{2 * stats['cut_faces'] / sum(nbrs):.0f}")
    sub = dec.subdomains[0]
    owned = cell_graph_from_mesh(sub.mesh)[:sub.n_owned, :sub.n_owned]
    threads = partition_graph(owned, 4)
    print(f"  process 0's threads: {np.bincount(threads).tolist()} cells")

    print("\nThread-level block structure (Sec. 3.2):")
    n, t = mesh.n_cells, 16
    graph = cell_graph_from_mesh(mesh)
    mem = partition_graph(graph, t)
    perm = partition_renumbering(graph, mem)
    blk = laplacian_blocks(mesh.renumbered(perm), mem[np.argsort(perm)])
    naive = laplacian_blocks(mesh, np.arange(n) * t // n)
    print(f"  {t}x{t} blocks, non-empty / off-diagonal nnz: "
          f"partitioned + CM {blk.n_nonzero_blocks} / "
          f"{blk.offdiag_nnz_fraction():.2%}, naive ordering "
          f"{naive.n_nonzero_blocks} / {naive.offdiag_nnz_fraction():.2%}")

    print("\nAdvancing the sector flow 3 steps...")
    solver = DeepFlameSolver(
        case, SolverSettings(
            solve_momentum=False,
            scalar_controls=SolverControls(tolerance=1e-9, rel_tol=1e-4,
                                           max_iterations=300)),
        properties=IdealGasProperties(case.mech), chemistry=NoChemistry())
    for _ in range(3):
        d = solver.step(2e-8)
        print(f"  step {d.step}: mass {d.total_mass:.4e} kg, "
              f"T [{d.t_min:.0f}, {d.t_max:.0f}] K, "
              f"iters {d.solver_iterations}")
    print("\nFull-engine weak scaling sweeps sectors 1..16 "
          "(see benchmarks/bench_fig12_struct_vs_unstruct.py).")


if __name__ == "__main__":
    main()
