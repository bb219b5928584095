"""Table 2 + Fig. 10: accuracy of Float and Mixed-FP16 inference vs.
the direct-integration reference.

The paper reports, over a 1-D temperature profile: Float avg/max
relative error 0.28 %/1.49 % (abs 1.91/62.2 K), Mixed-FP16
0.29 %/1.51 % (1.96/64.2 K).  We reproduce the experiment: every
profile state advanced one CFD step by (a) the stiff BDF reference
('Cantara'), (b) the ODENet at fp32 + fp32 GeLU table ('Float'),
(c) the ODENet at fp16 + fp16 table ('Mixed-FP16'), then temperatures
are recovered from the constant-(h,p) states and compared."""

import numpy as np

from repro.thermo.real_fluid import RealFluidMixture

from .conftest import emit


def _temperature_after(mech, rf, flame, y_new):
    """T from (h, p, Y_new) at constant enthalpy (operator splitting)."""
    h = rf.h_mass(flame["T"], flame["p"], flame["Y"])
    return rf.temperature_from_h(h, flame["p"], y_new, t_guess=flame["T"])


def test_table2_fig10_precision(benchmark, mech, flame_manifold,
                                reference_advance, trained_odenet):
    rf = RealFluidMixture(mech)
    flame = flame_manifold
    dt = reference_advance["dt"]
    t_ref = _temperature_after(mech, rf, flame, reference_advance["Y"])

    engines = {
        "Float": trained_odenet.make_engine(precision="fp32", gelu="table"),
        "Mixed-FP16": trained_odenet.make_engine(precision="fp16",
                                                 gelu="table"),
    }

    def run_float():
        return trained_odenet.advance(flame["T"], flame["p"], flame["Y"], dt,
                                      engine=engines["Float"])

    benchmark(run_float)

    lines = ["              rel.err avg   rel.err max   abs.err avg   abs.err max"]
    results = {}
    for name, eng in engines.items():
        y_new = trained_odenet.advance(flame["T"], flame["p"], flame["Y"],
                                       dt, engine=eng)
        t_pred = _temperature_after(mech, rf, flame, y_new)
        rel = np.abs(t_pred - t_ref) / t_ref
        abse = np.abs(t_pred - t_ref)
        results[name] = (rel, abse, t_pred)
        lines.append(f"  {name:12s} {rel.mean()*100:8.3f} %  {rel.max()*100:9.3f} %"
                     f"  {abse.mean():10.2f} K  {abse.max():10.2f} K")

    # Fig. 10: the temperature profile itself
    lines.append("Fig. 10 profile (x/L0, T_ref, T_float, T_fp16):")
    for i in range(0, flame["x"].size, 6):
        lines.append(f"  {flame['x'][i]:5.2f}  {t_ref[i]:8.1f}"
                     f"  {results['Float'][2][i]:8.1f}"
                     f"  {results['Mixed-FP16'][2][i]:8.1f}")
    emit("Table 2 + Fig. 10: precision accuracy", lines)

    # Paper shape: errors at the few-percent level; fp16 ~ fp32.
    for name, (rel, abse, _) in results.items():
        assert rel.mean() < 0.05, name
        assert rel.max() < 0.25, name
    assert results["Mixed-FP16"][0].mean() < results["Float"][0].mean() * 3 + 1e-3
