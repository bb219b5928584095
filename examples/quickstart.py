"""Quickstart: a small supercritical reactive Taylor-Green vortex.

Builds the paper's TGV case (10 MPa LOX/CH4, O2 at 150 K / CH4 at
300 K, Taylor-Green velocity at u0 = 4 m/s), runs a few time steps of
the DeepFlame solver with direct Peng-Robinson real-fluid properties,
and prints per-step diagnostics and the component time breakdown.

The chemistry path is selectable -- every option routes through the
batched backend subsystem (``repro.chemistry.backends``):

  --chemistry none            frozen chemistry (default; fastest)
  --chemistry percell         per-cell BDF reference loop
  --chemistry direct          vectorized Heun/RODAS3 batch integrator
  --chemistry surrogate       ODENet inference (trained on the fly)
  --chemistry hybrid          temperature-split DNN + direct
  --chemistry hybrid-trained  registered surrogate artifact with the
                              per-cell trust gate (``--trust-gate``);
                              ends with the gate hit/audit/fallback
                              counters

With ``--ranks N`` the same case is *also* advanced by the
domain-decomposed executor (``repro.dist.solver.DecomposedSolver``): N
partitioned subdomains with real halo exchanges and allreduce-based
Krylov reductions over an in-process message fabric.  The run prints
the serial-vs-decomposed max |delta| per step together with the
measured per-step message/byte ledger.

Every flag above sets one field of a single validated
``repro.core.settings.SolverSettings`` object -- the unified configuration the
solvers are built from (``DeepFlameSolver(case, settings)`` /
``DecomposedSolver(case, settings)``).  ``--sweep key=v1,v2,...`` runs
that settings object -- ``--chemistry``, ``--trust-gate`` and
``--ranks`` included -- once per value: a loop of
``build_solver(case, base.overlay(**{key: value}), properties=props)``
over one case and one property evaluator, printing each run's
diagnostics.  The key may be a dotted settings path, e.g.
``scalar_controls.tolerance``.

Run:  python examples/quickstart.py [--chemistry direct] [--steps 5]
      python examples/quickstart.py --ranks 4
      python examples/quickstart.py --sweep n_correctors=1,2,3
      python examples/quickstart.py --sweep scalar_controls.tolerance=1e-6,1e-9,1e-12
      python examples/quickstart.py --ranks 2 --sweep execution=serial,parallel
"""

import argparse

import numpy as np

from repro.core.cases import build_tgv_case
from repro.core.deepflame import DeepFlameSolver
from repro.core.properties import DirectRealFluidProperties
from repro.core.settings import SolverSettings, TRUST_GATE_MODES, build_solver
from repro.solvers.controls import SolverControls

CHOICES = ("none", "percell", "direct", "surrogate", "hybrid",
           "hybrid-trained")

def _quick_odenet(mech, case, dt):
    """Train a small ODENet on the case's own state manifold (labels
    from the batched direct backend) -- a few seconds, demo quality."""
    from repro.chemistry.backends.direct import DirectBatchBackend
    from repro.dnn.odenet import ODENet

    rng = np.random.default_rng(0)
    idx = rng.choice(case.mesh.n_cells, size=min(96, case.mesh.n_cells),
                     replace=False)
    t0 = case.temperature[idx]
    y0 = case.mass_fractions[idx]
    p = float(case.pressure.values[0])
    jt = t0 * (1 + rng.normal(0, 0.05, t0.shape))
    jy = np.clip(y0 * (1 + rng.normal(0, 0.05, y0.shape)), 0, None)
    jy /= jy.sum(axis=1, keepdims=True)
    t_all = np.concatenate([t0, jt])
    y_all = np.vstack([y0, jy])
    y_adv, _, _ = DirectBatchBackend(mech).advance(y_all, t_all, p, dt)
    net = ODENet(mech, hidden=(32, 32), seed=0)
    net.fit(t_all, np.full(t_all.shape, p), y_all, y_adv - y_all, dt=dt,
            epochs=120, lr=2e-3, batch_size=32)
    return net


def chemistry_settings(name: str, mech, case, dt,
                       trust_gate: str) -> SolverSettings:
    """The settings that select chemistry backend ``name``.

    ``none``/``percell``/``direct`` need nothing else; the
    ``hybrid-trained`` artifact, its fp32 fused-GeLU engine and the
    trust gate all come from the validated settings fields; the
    ``surrogate``/``hybrid`` demos carry a net trained here in
    ``chemistry_options``.
    """
    options = {}
    if name == "hybrid-trained":
        print("Loading the registered 'tgv-hotspot' surrogate artifact ...")
    elif name in ("surrogate", "hybrid"):
        print(f"Training a demo ODENet for the {name!r} backend ...")
        options["odenet"] = _quick_odenet(mech, case, dt)
        if name == "hybrid":
            # TGV cells start at 150-300 K: put the window over the cold
            # manifold the net was just trained on so the split is visible.
            options["t_window"] = (140.0, 250.0)
    return SolverSettings(chemistry=name, chemistry_options=options,
                          trust_gate=trust_gate)


def run_decomposed(args, mech, dt: float) -> None:
    """Serial-vs-decomposed comparison: same case, N ranks, tight
    solver tolerances so the only differences left are floating-point
    reduction order (and the block-local pressure preconditioner).

    The decomposition is *executed*, not analytic: every halo
    exchange and allreduce actually flows through the in-process
    fabric and lands in the ledger the summary prints.
    """
    from repro.dist.solver import DecomposedSolver

    settings = SolverSettings(
        ranks=args.ranks,
        scalar_controls=SolverControls(tolerance=1e-12, max_iterations=500),
        pressure_controls=SolverControls(tolerance=1e-12,
                                         max_iterations=1000),
    )
    print(f"\nDecomposed execution over {args.ranks} ranks "
          "(vs the serial solver, tight tolerances) ...")
    serial = DeepFlameSolver(build_tgv_case(n=args.n, mech=mech),
                             settings.overlay(ranks=0))
    dist = DecomposedSolver(build_tgv_case(n=args.n, mech=mech), settings)
    stats = dist.decomp.stats()
    print(f"  partition: cells/rank {stats['cells_per_rank']}, "
          f"{stats['cut_faces']} cut faces, "
          f"halo cells {stats['halo_cells']}")
    print("  step   max|dY|     max|dT|     max|dp|/p   "
          "msgs  halo KiB  allred  allred B")
    for _ in range(args.steps):
        serial.step(dt)
        dist.step(dt)
        c = dist.last_comm
        d_y = np.abs(dist.gather("y") - serial.y).max()
        d_t = np.abs(dist.gather("T") - serial.props.temperature).max()
        d_p = np.abs((dist.gather("p") - serial.p.values)
                     / serial.p.values).max()
        print(f"  {dist.step_count:4d}  {d_y:.3e}  {d_t:.3e}  {d_p:.3e}"
              f"  {c['messages']:5d} {c['bytes']/1024:9.1f}"
              f"  {c['allreduces']:6d} {c['allreduce_bytes']:9d}")
    led = dist.comm.ledger.totals()
    print(f"  cumulative ledger: {led['messages']} messages / "
          f"{led['bytes']/1024:.1f} KiB halo traffic, "
          f"{led['allreduces']} allreduces / {led['allreduce_bytes']} B")


def _coerce(text: str):
    """Parse one swept value: bool/int/float when it looks like one,
    else the raw string (e.g. a chemistry mode name)."""
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def run_sweep(args, dt: float) -> None:
    """Run the settings the other flags select (``--chemistry``,
    ``--trust-gate``, ``--ranks``) once per swept value.

    Every run is built from one case (a solver copies the initial state
    it evolves) and one property evaluator; only the overlaid field
    differs between runs.
    """
    key, _, raw = args.sweep.partition("=")
    if not raw:
        raise SystemExit("--sweep expects key=v1,v2,...")
    values = [_coerce(v) for v in raw.split(",")]
    case = build_tgv_case(n=args.n)
    base = chemistry_settings(args.chemistry, case.mech, case, dt,
                              args.trust_gate).overlay(ranks=args.ranks)
    print(f"\nSweeping {key!r} over {values} "
          f"({len(values)} runs of {args.steps} steps, one shared case) ...")
    props = DirectRealFluidProperties(case.mech)
    for value in values:
        settings = base.overlay(**{key: value})
        solver = build_solver(case, settings, properties=props)
        solver.run(args.steps, dt)
        d = solver.last_diag
        print(f"  {key}={value!r} ({settings.chemistry}, "
              f"gate {settings.trust_gate}, ranks {settings.ranks} "
              f"{settings.execution}): T [{d.t_min:.1f}, {d.t_max:.1f}] K, "
              f"|U|max {d.max_velocity:.2f} m/s, "
              f"iters {d.solver_iterations}, "
              f"last step {solver.last_timings.total * 1e3:.1f} ms")
        if settings.is_decomposed:
            solver.close()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--chemistry", choices=CHOICES, default="none",
                    help="chemistry backend (default: none)")
    ap.add_argument("--trust-gate", choices=TRUST_GATE_MODES,
                    default="domain+audit",
                    help="per-cell trust gate of the hybrid-trained "
                         "backend: scaled-space domain check against "
                         "the artifact's training manifold, optionally "
                         "plus direct-backend spot audits "
                         "(default: domain+audit)")
    ap.add_argument("--ranks", type=int, default=0,
                    help="also run the domain-decomposed executor over "
                         "N ranks -- executed halo exchanges and "
                         "allreduces through the in-process fabric, not "
                         "an analytic model -- and report the "
                         "serial-vs-decomposed max |delta| + the "
                         "measured message ledger (default: off)")
    ap.add_argument("--profile", action="store_true",
                    help="print the per-stage time + hot-path allocation "
                         "table from StepTimings after the run (a "
                         "warm step reports zero construction/solving "
                         "allocations)")
    ap.add_argument("--sweep", metavar="KEY=V1,V2,...", default=None,
                    help="instead of one run, run the settings the "
                         "other flags select (--chemistry, --trust-gate, "
                         "--ranks) once per value of the (possibly "
                         "dotted) settings field KEY over one shared "
                         "case; prints each run's diagnostics (e.g. "
                         "--sweep n_correctors=1,2,3)")
    ap.add_argument("--steps", type=int, default=5)
    ap.add_argument("--n", type=int, default=16, help="cells per side")
    args = ap.parse_args()

    dt = 1e-8  # the paper's 10 ns step

    if args.sweep:
        run_sweep(args, dt)
        return

    print(f"Building the supercritical TGV case ({args.n}^3 cells, 10 MPa)...")
    case = build_tgv_case(n=args.n)
    print(f"  mesh: {case.mesh.n_cells} cells, "
          f"{case.mesh.n_internal_faces} internal faces (triply periodic)")
    print(f"  T in [{case.temperature.min():.0f}, "
          f"{case.temperature.max():.0f}] K, p = "
          f"{case.pressure.values[0]/1e6:.0f} MPa")

    # Every flag lands in one validated settings object; the solver is
    # built from it.
    solver = DeepFlameSolver(case, chemistry_settings(
        args.chemistry, case.mech, case, dt, args.trust_gate))
    print(f"  initial density range: [{solver.rho.min():.1f}, "
          f"{solver.rho.max():.1f}] kg/m^3 (real-fluid Peng-Robinson)")

    print(f"\nRunning {args.steps} steps at dt = {dt:.0e} s "
          f"(chemistry: {args.chemistry}) ...")
    for _ in range(args.steps):
        d = solver.step(dt)
        print(f"  step {d.step}: mass {d.total_mass:.6e} kg, "
              f"T [{d.t_min:.1f}, {d.t_max:.1f}] K, "
              f"|U|max {d.max_velocity:.2f} m/s, "
              f"solver iters {d.solver_iterations}")

    tm = solver.last_timings
    total = tm.total
    if total > 0:
        print("\nComponent breakdown of the last step (the Fig. 11 "
              "categories):")
        for name, t in [("DNN/properties", tm.dnn),
                        ("Construction", tm.construction),
                        ("Solving", tm.solving), ("Other", tm.other)]:
            print(f"  {name:15s} {t*1e3:8.2f} ms  ({t/total*100:4.1f} %)")

    if args.profile:
        print("\nPer-stage profile of the last step "
              "(allocs = hot-path buffers materialized):")
        print(f"  {'stage':15s} {'time [ms]':>10s} {'allocs':>7s}")
        for name, secs, allocs in tm.rows():
            print(f"  {name:15s} {secs*1e3:10.2f} {allocs:7d}")
        print(f"  {'total':15s} {tm.total*1e3:10.2f} {tm.total_allocs:7d}")

    if args.ranks > 0:
        run_decomposed(args, case.mech, dt)

    stats = getattr(solver.chemistry, "last_backend_stats", None)
    if stats is not None:
        print(f"\nChemistry backend '{stats.backend}': "
              f"{stats.n_cells} cells at {stats.cells_per_second:.0f} "
              f"cells/s, work imbalance {stats.load_imbalance:.2f}")
        if stats.sub_batches:
            print("  sub-batches: " + ", ".join(
                f"{label}:{cells}" for label, cells, _ in stats.sub_batches))
        for child, st in stats.per_backend.items():
            print(f"  {child}: {st.n_cells} cells, work {st.total_work:.0f}")

    counters = getattr(getattr(solver.chemistry, "backend", None),
                       "counters", None)
    if counters:
        print("\nTrust-gate counters (cumulative over the run):")
        for key, val in counters.items():
            print(f"  {key:16s} {val}")


if __name__ == "__main__":
    main()
