"""Fig. 14: weak scaling to the headline scales.

(a) Sunway: 19.3 B -> 618.5 B cells over 3,072 -> 98,304 nodes;
(b) Fugaku: 9.7 B -> 154.6 B cells over 4,608 -> 73,728 nodes.

Paper anchors: Sunway 1.18 EFlop/s (21.8 %) mixed / 438.9 PF (32.3 %)
fp32, efficiencies 92.74 % / 97.31 %; Fugaku 316.5 PF (31.8 %) /
186.5 PF (37.4 %), efficiencies 93.59 % / 96.2 %; best ToS
1.2e-9 s/DoF/cycle."""

import pytest

from repro.runtime.machine import FUGAKU, SUNWAY
from repro.runtime.perf_model import OptimizationConfig, tgv_workload
from repro.runtime.scaling import weak_scaling

from .conftest import emit


def test_fig14a_sunway_weak(benchmark):
    wl = tgv_workload(19_327_352_832)
    nodes = [3072, 6144, 12288, 24576, 49152, 98304]
    s16 = benchmark(weak_scaling, SUNWAY, wl, nodes)
    s32 = weak_scaling(SUNWAY, wl, nodes,
                       OptimizationConfig.optimized(mixed_precision=False))
    lines = ["Sunway weak scaling, mixed-FP16:"]
    for p in s16.points:
        lines.append(f"  {p.nodes:6d} nodes  {p.n_cells/1e9:7.1f} B cells  "
                     f"{p.pflops:8.1f} PF ({p.pct_peak*100:4.1f} %)  "
                     f"eff {p.efficiency*100:5.1f} %  ToS {p.time_to_solution:.2e}")
    last16, last32 = s16.points[-1], s32.points[-1]
    lines += [
        f"FP32 at 98,304 nodes: {last32.pflops:.1f} PF "
        f"({last32.pct_peak*100:.1f} %), eff {last32.efficiency*100:.2f} %",
        "(paper: 1186.9 PF / 21.8 % mixed, 438.9 PF / 32.3 % fp32;"
        " eff 92.74 % / 97.31 %; cells reach 618.5 B)",
    ]
    assert last16.n_cells == pytest.approx(618.5e9, rel=0.01)
    assert last16.efficiency == pytest.approx(0.9274, abs=0.04)
    assert last32.efficiency == pytest.approx(0.9731, abs=0.03)
    assert last16.pct_peak == pytest.approx(0.218, abs=0.05)
    assert last32.pct_peak == pytest.approx(0.323, abs=0.06)
    # ToS orders below the 2023 baseline's 1.3e-4 (Table 1); the
    # paper's 1.2e-9 anchor is ~17x lower than its own PFlop/s anchor
    # implies (see EXPERIMENTS.md) -- we match the PFlop/s side.
    assert 1e-10 < last16.time_to_solution < 1e-7
    emit("Fig. 14(a): Sunway weak scaling", lines)


def test_fig14b_fugaku_weak(benchmark):
    wl = tgv_workload(9_663_676_416)
    nodes = [4608, 9216, 18432, 36864, 73728]
    s16 = benchmark(weak_scaling, FUGAKU, wl, nodes)
    s32 = weak_scaling(FUGAKU, wl, nodes,
                       OptimizationConfig.optimized(mixed_precision=False))
    lines = ["Fugaku weak scaling, mixed-FP16:"]
    for p in s16.points:
        lines.append(f"  {p.nodes:6d} nodes  {p.n_cells/1e9:7.1f} B cells  "
                     f"{p.pflops:8.1f} PF ({p.pct_peak*100:4.1f} %)  "
                     f"eff {p.efficiency*100:5.1f} %")
    last16, last32 = s16.points[-1], s32.points[-1]
    lines += [
        f"FP32 at 73,728 nodes: {last32.pflops:.1f} PF "
        f"({last32.pct_peak*100:.1f} %), eff {last32.efficiency*100:.2f} %",
        "(paper: 316.5 PF / 31.8 % mixed, 186.5 PF / 37.4 % fp32;"
        " eff 93.59 % / 96.2 %; cells reach 154.6 B)",
    ]
    assert last16.n_cells == pytest.approx(154.6e9, rel=0.01)
    assert last16.efficiency == pytest.approx(0.9359, abs=0.03)
    assert last32.efficiency == pytest.approx(0.962, abs=0.03)
    assert last16.pct_peak == pytest.approx(0.318, abs=0.05)
    assert last32.pct_peak == pytest.approx(0.374, abs=0.05)
    emit("Fig. 14(b): Fugaku weak scaling", lines)
