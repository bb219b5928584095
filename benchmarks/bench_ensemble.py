"""Ensemble orchestration bench: N solver instances, one process.

The orchestration layer's claims, measured:

* an 8-instance parameter sweep (per-instance setting overlays through
  one ``SolverSettings`` base) advances in a single process, each
  instance's fields matching an equivalently-configured standalone
  solver to <= 1e-12 (gated bitwise here),
* same-case instances share one mesh, mechanism, property evaluator
  and equation workspace by identity, and the deep-walked ensemble
  memory footprint stays under 0.5x of N independent solvers (gated),
* every exchanged byte is ledgered: the per-instance cost table
  aggregates step timings, chemistry backend work, conduit traffic
  (attributed to the sending instance) and a decomposed member's
  internal halo/allreduce totals, priced by the same alpha-beta model
  as the strong-scaling bench.

Run:  pytest benchmarks/bench_ensemble.py -q [--smoke]
"""

import numpy as np

from repro.core.cases import build_tgv_case
from repro.core.deepflame import DeepFlameSolver
from repro.core.settings import SolverSettings
from repro.orchestrate.ensemble import Ensemble
from repro.runtime.machine import SUNWAY

from .conftest import emit

N_INSTANCES = 8


def _build(n):
    return lambda: build_tgv_case(n=n)


def test_ensemble_sweep(smoke):
    """8-instance tolerance sweep: shared caches, standalone match,
    memory ratio and the ledgered cost table."""
    n = 6 if smoke else 12
    steps = 2 if smoke else 4
    dt = 1e-7
    base = SolverSettings(n_correctors=1)
    values = [10.0 ** -(6 + (i % 4)) for i in range(N_INSTANCES)]

    ens = Ensemble.sweep(_build(n), base, "scalar_controls.tolerance",
                         values, name="sw")
    ens.run(steps, dt)

    # -- shared-cache identity ----------------------------------------
    first = ens[0].solver
    for inst in list(ens)[1:]:
        assert inst.solver.mesh is first.mesh
        assert inst.solver.mech is first.mech
        assert inst.solver.properties is first.properties
        assert inst.solver._ws is first._ws

    # -- per-instance match vs an equivalent standalone solver --------
    worst = 0.0
    for pick in (0, N_INSTANCES - 1):
        solo = DeepFlameSolver(
            _build(n)(), base.overlay(
                **{"scalar_controls.tolerance": values[pick]}))
        solo.run(steps, dt)
        for name, expected in (("y", solo.y), ("h", solo.h),
                               ("p", solo.p.values), ("T",
                               solo.props.temperature)):
            diff = float(np.max(np.abs(ens[pick].field(name) - expected)))
            worst = max(worst, diff)
    assert worst <= 1e-12

    # -- memory: ensemble vs N independent solvers --------------------
    mem = ens.memory_report()
    assert mem["ratio"] < 0.5

    report = ens.cost_report()
    lines = [
        f"{N_INSTANCES} instances x {steps} steps, {n}^3 cells, "
        f"sweep over scalar tolerance {values[0]:g}..{values[3]:g}",
        f"standalone-solver match: max |delta| = {worst:.1e} "
        f"(gate 1e-12)",
        f"memory: {mem['ensemble_bytes']/1e6:.2f} MB ensemble vs "
        f"{mem['independent_bytes']/1e6:.2f} MB independent "
        f"(ratio {mem['ratio']:.2f}, gate 0.5)",
        "",
        *report.table(),
    ]
    emit("Ensemble orchestration: 8-instance sweep", lines)


def test_ensemble_coupled_pair(smoke):
    """Macro/micro coupled pair: port traffic through the ledgered
    fabric, a decomposed member's internal ledger, alpha-beta price."""
    n = 6 if smoke else 10
    steps = 2 if smoke else 4
    dt = 1e-7
    base = SolverSettings(n_correctors=1)

    ens = Ensemble(_build(n), base)
    macro = ens.add_instance("macro")
    micro = ens.add_instance(
        "micro", overrides={"ranks": 2, "chemistry": "direct"})
    ens.connect("macro.t_out", "micro.t_in")
    received = []
    macro.post_step.append(
        lambda i: i.send("t_out", [i.solver.props.temperature.max()]))
    micro.pre_step.append(lambda i: received.append(i.receive("t_in")))
    ens.run(steps, dt)

    # forward coupling arrives within the same superstep
    assert all(r is not None for r in received)

    report = ens.cost_report()
    by_name = {c.name: c for c in report.instances}
    assert by_name["macro"].port_messages == steps
    assert by_name["micro"].internal_comm["messages"] > 0
    assert by_name["micro"].chemistry_work > 0
    priced = report.price(SUNWAY)
    assert np.isfinite(priced["total_s"]) and priced["total_s"] > 0

    lines = [
        f"macro (serial) -> micro (2-rank decomposed, direct "
        f"chemistry), {steps} supersteps, {n}^3 cells",
        *report.table(),
        "",
        f"alpha-beta price on Sunway: fabric "
        f"{priced['fabric']['total_s']:.3e} s, internal(micro) "
        f"{priced['internal']['micro']['total_s']:.3e} s",
    ]
    emit("Ensemble orchestration: coupled macro/micro pair", lines)
