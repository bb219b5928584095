"""Fig. 11: step-by-step optimization gains on Sunway / Fugaku / LS.

Two layers of reproduction:

1. **measured** -- the real optimization knobs on the real kernels at
   laptop scale: exact-GeLU fp32 inference vs tabulated fp16 on the
   true MLP shapes, and serial vs block-structured sparse kernels;
2. **modelled** -- the calibrated machine model's cumulative stage
   table (BL -> MP -> Tabulation -> Arch -> MDAR -> PS -> PC) for the
   25,165,824-cell TGV of the paper's figure, with component
   breakdowns (DNN / Construction / Solving / Other).

Paper totals to reproduce: 7.3x (Sunway), 3.6x (Fugaku), 8.8x (LS)."""

import numpy as np

from repro.dnn.inference import InferenceEngine
from repro.dnn.network import MLP
from repro.runtime.machine import FUGAKU, LS_PILOT, SUNWAY
from repro.runtime.perf_model import (
    OptimizationConfig,
    PerfModel,
    tgv_workload,
)

from .conftest import emit


def test_fig11_measured_dnn_knobs(benchmark):
    """Local measurement: optimized inference path beats the baseline
    path on the same hardware (here: this CPU)."""
    net = MLP((20, 256, 512, 256, 17), seed=0)  # scaled-down ODENet
    x = np.random.default_rng(0).normal(size=(4096, 20))

    base = InferenceEngine(net, precision="fp32", gelu="exact")
    opt = InferenceEngine(net, precision="fp32", gelu="table")

    benchmark(opt.run, x)
    t_opt = benchmark.stats["mean"]
    import time

    t0 = time.perf_counter()
    base.run(x)
    t_base = time.perf_counter() - t0
    lines = [
        f"measured on this host, batch 4096, net (20,256,512,256,17):",
        f"  fp32 + exact GeLU : {t_base*1e3:8.2f} ms",
        f"  fp32 + GeLU table : {t_opt*1e3:8.2f} ms  "
        f"(speedup {t_base/t_opt:.2f}x)",
    ]
    # The GeLU table must not be slower (transcendental elimination).
    assert t_opt < t_base * 1.15
    emit("Fig. 11 (measured): GeLU tabulation on host", lines)


def test_fig11_modelled_stage_table(benchmark):
    wl = tgv_workload(25_165_824)
    targets = {"Sunway": 7.3, "Fugaku": 3.6, "LS": 8.8}
    lines = []
    for machine in (SUNWAY, FUGAKU, LS_PILOT):
        model = PerfModel(machine)
        lines.append(f"{machine.name} (64 nodes, 25.2 M cells):")
        t0 = None
        for name, cfg in OptimizationConfig.optimized().stage_sequence():
            bd = model.loop_breakdown(wl, 64, cfg)
            t0 = t0 or bd.total
            lines.append(
                f"  {name:10s} loop {bd.total:8.3f} s  ({t0/bd.total:4.2f}x)"
                f"  DNN {bd.dnn:7.3f}  Constr {bd.construction:7.3f}"
                f"  Solve {bd.solving:7.3f}  Other {bd.other:7.3f}")
        speedup = t0 / bd.total
        lines.append(f"  total speedup {speedup:.2f}x "
                     f"(paper: {targets[machine.name]}x)")
        assert abs(speedup - targets[machine.name]) / targets[machine.name] < 0.3
        # post-optimization module shares (Sec. 5.2.3)
        dnn_share = bd.dnn / bd.total
        lines.append(f"  post-opt DNN share {dnn_share*100:.1f} % "
                     f"(paper: 64.9/87.4/68.9 %)")
    benchmark(lambda: PerfModel(SUNWAY).loop_breakdown(
        wl, 64, OptimizationConfig.optimized()))
    emit("Fig. 11 (modelled): step-by-step stages", lines)
