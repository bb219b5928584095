"""Rocket-engine sector: mesh, two-level decomposition and a few
solver steps -- the paper's real-world workflow at laptop scale.

Builds a 22.5-degree sector of the synthetic LOX/CH4 combustor
(injector plate, chamber, converging-diverging nozzle), decomposes it
with the two-level process x thread scheme, reports the Sec. 3.1/3.2
statistics, and advances the flow a few steps.

Run:  python examples/rocket_sector.py
"""

import numpy as np

from repro.core.cases import build_rocket_case
from repro.core.chemistry_source import NoChemistry
from repro.core.deepflame import DeepFlameSolver
from repro.core.properties import IdealGasProperties
from repro.core.settings import SolverSettings
from repro.mesh.graph import cell_graph_from_mesh
from repro.mesh.renumber import partition_renumbering
from repro.partition.hierarchical import decompose_two_level
from repro.partition.metrics import balance_stats, offdiag_fraction
from repro.sparse.convert import build_block_converter
from repro.solvers.controls import SolverControls


def main() -> None:
    print("Building one 22.5-degree combustor sector (20 MPa)...")
    case = build_rocket_case(n_sectors=1, nr=8, ntheta_per_sector=12, nz=32)
    mesh = case.mesh
    print(f"  {mesh.n_cells} cells, patches: "
          f"{[p.name for p in mesh.patches]}")
    print(f"  T range [{case.temperature.min():.0f}, "
          f"{case.temperature.max():.0f}] K (cryogenic injection, hot core)")

    print("\nTwo-level decomposition (8 processes x 4 threads):")
    dec = decompose_two_level(mesh, 8, 4)
    stats = balance_stats(dec.process_membership)
    print(f"  cells/process: mean {stats.mean:.0f}, max {stats.max:.0f}, "
          f"std {stats.std:.1f} (imbalance {stats.imbalance:.2%})")
    print(f"  avg neighbours {dec.avg_neighbours():.1f}, "
          f"avg shared faces/pair {dec.avg_shared_faces_per_pair():.0f}")

    print("\nThread-level block structure (Sec. 3.2):")
    graph = cell_graph_from_mesh(mesh)
    from repro.partition.partitioner import partition_graph

    mem = partition_graph(graph, 16)
    perm = partition_renumbering(graph, mem)
    mesh2 = mesh.renumbered(perm)
    from repro.sparse.ldu import LDUMatrix

    nif = mesh2.n_internal_faces
    ldu = LDUMatrix(mesh2.n_cells, mesh2.owner[:nif], mesh2.neighbour)
    ldu.upper[:] = -1.0
    ldu.lower[:] = -1.0
    deg = (np.bincount(mesh2.owner[:nif], minlength=mesh2.n_cells)
           + np.bincount(mesh2.neighbour, minlength=mesh2.n_cells))
    ldu.diag[:] = deg + 0.2
    blk = build_block_converter(ldu, mem[np.argsort(perm)]).convert(ldu)
    print(f"  16x16 blocks: {blk.n_nonzero_blocks} non-empty, "
          f"off-diagonal nnz {blk.offdiag_nnz_fraction():.2%} "
          f"(naive ordering: {offdiag_fraction(graph, np.arange(graph.n_vertices) * 16 // graph.n_vertices):.2%})")

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
