"""Fig. 12: structured (TGV) vs unstructured (rocket) meshes on Fugaku.

Paper anchors: optimized speedups 3.58x vs 3.50x; weak scaling 94.9 %
vs 93.1 %; strong scaling 82.5 % vs 79.0 % at 16x processes; the
unstructured penalty comes from mild load imbalance (561k/567k cells
per process vs uniform 524k) and 15-vs-6 halo neighbours.

The measured layer quantifies the actual decomposition difference on
real box vs rocket graphs; the modelled layer produces the figure's
three panels."""

import numpy as np

from repro.dist.decompose import Decomposition
from repro.mesh.rocket import build_rocket_mesh
from repro.mesh.structured import build_box_mesh
from repro.runtime.machine import FUGAKU
from repro.runtime.perf_model import (
    OptimizationConfig,
    PerfModel,
    tgv_workload,
)
from repro.runtime.scaling import strong_scaling, weak_scaling

from .conftest import emit


def test_fig12_measured_decomposition_gap(benchmark):
    box = build_box_mesh(16, 16, 12)
    rocket = build_rocket_mesh(nr=8, ntheta_per_sector=12, nz=32, n_sectors=2)

    sb = benchmark(Decomposition.from_mesh, box, 8).stats()
    sr = Decomposition.from_mesh(rocket, 8).stats()

    def imbalance(stats):
        counts = np.array(stats["cells_per_rank"])
        return counts.max() / counts.mean() - 1.0

    # neighbour counts per part
    nb_b = np.mean(sb["neighbour_counts"])
    nb_r = np.mean(sr["neighbour_counts"])
    lines = [
        f"structured   imbalance {imbalance(sb)*100:5.2f} %  avg nbrs {nb_b:.1f}",
        f"unstructured imbalance {imbalance(sr)*100:5.2f} %  avg nbrs {nb_r:.1f}",
        "(paper: uniform vs 561k/567k ~ 1 % imbalance; 6 vs 15 nbrs;",
        " our bench sector is geometrically thin, so neighbour counts",
        " are small for both -- the imbalance gap is the robust signal)",
    ]
    assert 1.0 <= nb_b <= 16.0 and 1.0 <= nb_r <= 16.0
    emit("Fig. 12 (measured): structured vs unstructured decomposition", lines)


def test_fig12_modelled_panels(benchmark):
    model = PerfModel(FUGAKU)
    wl_s = tgv_workload(25_165_824)
    wl_u = tgv_workload(25_165_824, unstructured=True, load_imbalance=0.011)

    lines = ["(a) step-by-step totals:"]
    speedups = {}
    for tag, wl in (("structured", wl_s), ("unstructured", wl_u)):
        t_base = model.report(wl, 48, OptimizationConfig.baseline()).loop_time
        t_opt = model.report(wl, 48, OptimizationConfig.optimized()).loop_time
        speedups[tag] = t_base / t_opt
        lines.append(f"  {tag:13s} {t_base:7.2f} -> {t_opt:7.2f} s  "
                     f"({speedups[tag]:.2f}x)")
    lines.append("  (paper: 3.58x vs 3.50x)")
    assert speedups["structured"] >= speedups["unstructured"] * 0.98

    nodes = [576, 1152, 2304, 4608, 9216]  # 16x span
    lines.append("(b) weak scaling efficiency at 16x:")
    effs = {}
    for tag, wl in (("structured", wl_s), ("unstructured", wl_u)):
        eff = weak_scaling(FUGAKU, wl, nodes).efficiencies()[-1]
        effs[tag] = eff
        lines.append(f"  {tag:13s} {eff*100:6.2f} %")
    lines.append("  (paper: 94.9 % vs 93.1 %)")
    # imbalance raises compute time, which *slightly* flatters the
    # rate-per-node efficiency metric; allow 1 % slack
    assert effs["structured"] >= effs["unstructured"] - 0.01

    lines.append("(c) strong scaling efficiency at 16x:")
    big_s = tgv_workload(2.4e9)
    big_u = tgv_workload(2.4e9, unstructured=True, load_imbalance=0.011)
    s_eff = {}
    for tag, wl in (("structured", big_s), ("unstructured", big_u)):
        eff = strong_scaling(FUGAKU, wl, nodes).efficiencies()[-1]
        s_eff[tag] = eff
        lines.append(f"  {tag:13s} {eff*100:6.2f} %")
    lines.append("  (paper: 82.5 % vs 79.0 %)")
    assert s_eff["structured"] >= s_eff["unstructured"] - 0.01
    assert 0.5 < s_eff["structured"] < 1.0

    benchmark(lambda: weak_scaling(FUGAKU, wl_s, nodes))
    emit("Fig. 12 (modelled): structured vs unstructured panels", lines)
