"""Table 1: state-of-the-art time-to-solution comparison.

Reproduces the *structure* of Table 1: the per-DoF-per-cycle cost of
each chemistry-integration family (explicit RK4 = DINO/S3D, implicit
BDF = CVODE codes, Rosenbrock = CharlesX, ODENet = DeepFlame), measured
on identical reactor states with our implementations, plus the
machine-model rows for the optimized code at the paper's scales.

The paper's ordering to reproduce: ODENet ≫ faster than conventional
integration; the optimized code reaches ~1e-9 s/DoF/cycle while the
2023 baseline sits at ~1e-4."""

import numpy as np

from repro.chemistry.ode import rodas3_batch
from repro.runtime.machine import FUGAKU, SUNWAY
from repro.runtime.perf_model import (
    OptimizationConfig,
    PerfModel,
    tgv_workload,
)
from tests.kinetics_oracle import rk4_batch

from .conftest import emit

DT_CFD = 1e-6
CYCLE = 1.2e-4  # TGV flow cycle at L=0.48 mm, u0=4 m/s
DOF_PER_CELL = 22.0


def _chemistry_cost_per_cell(mech, flame_manifold, method: str) -> float:
    """Wall seconds to advance one cell's chemistry by DT_CFD."""
    import time

    from repro.chemistry.backends.percell import PerCellBDFBackend

    t = flame_manifold["T"][8:40:4]
    y = flame_manifold["Y"][8:40:4]
    p = flame_manifold["p"]
    n = t.shape[0]
    chem = PerCellBDFBackend(mech, rtol=1e-6, atol=1e-9)
    # the RK4 and Rosenbrock families advance one cell at a time, as a
    # batch of one through the batched bodies (Rosenbrock at the direct
    # backend's 1e-3 relative tolerance)
    rhs, jac = chem.kernel.rhs, chem.kernel.jacobian
    p1 = np.array([p])
    t0 = time.perf_counter()
    if method == "bdf":
        chem.advance(y, t, p, DT_CFD)
    elif method == "rk4":
        for c in range(n):
            s = np.concatenate(([t[c]], y[c]))[None]
            rk4_batch(rhs, s, p1, rhs(s, p1), DT_CFD, 200)
    elif method == "rosenbrock":
        for c in range(n):
            s = np.concatenate(([t[c]], y[c]))[None]
            rodas3_batch(rhs, jac, s, p1, rhs(s, p1), DT_CFD, DT_CFD,
                         1e-3, 1e-9, 500)
    return (time.perf_counter() - t0) / n


def test_table1_chemistry_families(benchmark, mech, flame_manifold,
                                   trained_odenet):
    """Measured per-cell chemistry cost by integrator family +
    machine-model rows for the full code."""
    costs = {
        "E-RK4 (DINO/S3D)": _chemistry_cost_per_cell(mech, flame_manifold, "rk4"),
        "I-BDF/CVODE (YALES2/NEK5000/baseline)": _chemistry_cost_per_cell(
            mech, flame_manifold, "bdf"),
        "Rosenbrock (CharlesX)": _chemistry_cost_per_cell(
            mech, flame_manifold, "rosenbrock"),
    }

    # ODENet batched inference, benchmarked
    t = flame_manifold["T"]
    y = flame_manifold["Y"]
    p = flame_manifold["p"]
    eng = trained_odenet.make_engine(precision="fp32", gelu="table")

    def odenet_advance():
        return trained_odenet.advance(t, p, y, DT_CFD, engine=eng)

    benchmark(odenet_advance)
    costs["ODENet (DeepFlame)"] = benchmark.stats["mean"] / t.shape[0]

    lines = ["chemistry advance cost per cell per CFD step:"]
    for name, c in costs.items():
        tts = c / DOF_PER_CELL / (DT_CFD / CYCLE)
        lines.append(f"  {name:42s} {c:10.3e} s/cell  ->  {tts:9.3e} s/DoF/cycle")
    # paper shape: ODENet at least ~10x cheaper than stiff integration
    assert costs["ODENet (DeepFlame)"] < costs[
        "I-BDF/CVODE (YALES2/NEK5000/baseline)"] / 10

    # machine-model rows (the "our work" lines of Table 1)
    rows = [
        ("our work fp32,   Fugaku 73,728 nodes", FUGAKU, 73_728,
         tgv_workload(9_663_676_416).scaled(16), False, 8.5e-9),
        ("our work fp32,   Sunway 98,304 nodes", SUNWAY, 98_304,
         tgv_workload(19_327_352_832).scaled(32), False, 3.2e-9),
        ("our work mixed,  Fugaku 73,728 nodes", FUGAKU, 73_728,
         tgv_workload(9_663_676_416).scaled(16), True, 5.0e-9),
        ("our work mixed,  Sunway 98,304 nodes", SUNWAY, 98_304,
         tgv_workload(19_327_352_832).scaled(32), True, 1.2e-9),
    ]
    lines.append("machine-model rows (paper value in parentheses):")
    for name, machine, nodes, wl, mixed, paper in rows:
        rep = PerfModel(machine).report(
            wl, nodes, OptimizationConfig.optimized(mixed_precision=mixed))
        lines.append(f"  {name:40s} ToS {rep.time_to_solution:9.3e} "
                     f"(paper {paper:.1e})  {rep.flop_rate/1e15:7.1f} PF "
                     f"({rep.pct_peak(machine)*100:4.1f}% peak)")
        # Note: the paper's ToS and PFlop/s anchors are mutually
        # inconsistent by ~17x under the stated model architectures
        # (see EXPERIMENTS.md); we match the PFlop/s anchors and land
        # within ~20x on ToS, preserving the 4-5 orders-of-magnitude
        # gap to the 2023 baseline (1.3e-4).
        assert 0.05 * paper < rep.time_to_solution < 25 * paper
        assert rep.time_to_solution < 1.3e-4 / 100
    emit("Table 1: SOTA time-to-solution", lines)
