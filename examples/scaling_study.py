"""Scaling study: regenerate the paper's headline numbers from the
calibrated machine models (Figs. 13-14, Table 1 'our work' rows).

Run:  python examples/scaling_study.py
"""

from repro.runtime.machine import FUGAKU, SUNWAY
from repro.runtime.perf_model import OptimizationConfig, tgv_workload
from repro.runtime.scaling import strong_scaling, weak_scaling


def show(series, title):
    print(f"\n{title} [{series.machine}, {series.precision}]")
    print(f"{'nodes':>8} {'cells':>12} {'loop [s]':>10} {'PFlop/s':>9} "
          f"{'% peak':>7} {'eff':>6} {'s/DoF/cycle':>12}")
    for r in series.rows():
        print(f"{r['nodes']:8d} {r['cells']:12.3e} {r['loop_time_s']:10.3f} "
              f"{r['PFlop/s']:9.1f} {r['pct_peak']*100:6.1f}% "
              f"{r['efficiency']*100:5.1f}% {r['s/DoF/cycle']:12.2e}")


def main() -> None:
    sunway_nodes = [3072, 6144, 12288, 24576, 49152, 98304]
    fugaku_nodes = [4608, 9216, 18432, 36864, 73728]

    wl_s = tgv_workload(19_327_352_832)
    show(weak_scaling(SUNWAY, wl_s, sunway_nodes), "Weak scaling (Fig. 14a)")
    show(weak_scaling(SUNWAY, wl_s, sunway_nodes,
                      OptimizationConfig.optimized(mixed_precision=False)),
         "Weak scaling (Fig. 14a)")
    show(strong_scaling(SUNWAY, wl_s, sunway_nodes),
         "Strong scaling (Fig. 13a)")

    wl_f = tgv_workload(9_663_676_416)
    show(weak_scaling(FUGAKU, wl_f, fugaku_nodes), "Weak scaling (Fig. 14b)")
    show(strong_scaling(FUGAKU, wl_f, fugaku_nodes),
         "Strong scaling (Fig. 13b)")

    print("\nPaper anchors: Sunway 1186.9 PF (21.8 %) mixed / 438.9 PF "
          "(32.3 %) fp32 at 98,304 nodes;")
    print("Fugaku 316.5 PF (31.8 %) / 186.5 PF (37.4 %) at 73,728 nodes;")
    print("best time-to-solution 1.2e-9 s/DoF/cycle (mixed-FP16, Sunway).")


if __name__ == "__main__":
    main()
