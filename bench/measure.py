"""One workload measured in one child process.

Protocol (all workloads).  A *window* is ``WINDOW_STEPS`` consecutive
``step(dt)`` calls from the workload's initial state.  Set-up builds
the case and the solver and runs one untimed window (cold caches, CSR
pattern, DIC structure, Krylov pools, registry load, worker fork), then
resets.  Timed windows follow with tracing off; after each the state is
reset: ``state_snapshot()/restore_state()`` for the serial solver; for
the decomposed workloads, which have no restore (and none could reach
into worker processes), every window is a fresh ``build_solver`` + one
untimed warm step + the timed steps -- identically for the driver-
stepped and the parallel twin, so they differ only in ``execution``.
One sample is window wall / ``WINDOW_STEPS``.

Modes: ``measure`` runs timed windows and the per-window invariants
(the parent runs several such children, so set-up time is a median
over processes and the windows of one run are spread over them);
``trace`` runs a few untraced windows, one traced window, and derives
the per-layer metrics.  The cross-implementation reference checks run
in every ``trace`` child and in the one ``measure`` child asked to.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import checks as ck
from .layers import PER_LAYER, install, install_setup, layer_metrics
from .tracer import Tracer
from .workloads import WINDOW_STEPS, WORKLOADS, build_inputs

__all__ = ["MIN_WINDOWS", "run_child"]

#: fewest timed windows of one measuring child, whatever ``--seconds``
#: says (the parent runs ``run.CHILDREN`` of them per run)
MIN_WINDOWS = 2
#: untraced windows of a trace run (baseline for the tracing overhead)
UNTRACED_WINDOWS = 3
STABLE_STEPS_CAP = 32
FIELDS = ("y", "h", "p", "u", "rho", "T")


@dataclass
class Window:
    """What one window of steps produced."""

    wall: float = 0.0
    step_walls: list[float] = field(default_factory=list)
    diags: list = field(default_factory=list)
    timings: list = field(default_factory=list)
    comms: list = field(default_factory=list)
    fields: dict = field(default_factory=dict)
    mass0: float = 0.0
    ledger: dict | None = None
    decomp: dict | None = None
    error: str | None = None

    @property
    def step_ms(self) -> float:
        """The window's sample: wall per step, in ms."""
        return self.wall / WINDOW_STEPS * 1e3

    @property
    def failed_steps(self) -> int:
        """Steps that raised or returned a non-finite diagnostic."""
        bad = sum(not ck.diag_finite(d) for d in self.diags)
        return bad + (WINDOW_STEPS - len(self.diags))


class Session:
    """One workload's inputs, solver and window/reset protocol."""

    def __init__(self, name: str, seed: int, overlay: dict | None = None):
        self.name = name
        self.seed = seed
        self.inputs = build_inputs(name, seed)
        if overlay:
            self.inputs.settings = self.inputs.settings.overlay(**overlay)
        self.decomposed = self.inputs.settings.is_decomposed
        mesh = self.inputs.case.mesh
        self.n_cells = mesh.n_cells
        self.volumes = mesh.cell_volumes
        self.solver = None
        self.snap = None

    def build(self):
        """The solver the inputs describe."""
        from repro.core.settings import build_solver

        i = self.inputs
        return build_solver(i.case, i.settings, properties=i.properties)

    def setup(self) -> Window:
        """Build + one untimed window + reset."""
        if not self.decomposed:
            self.solver = self.build()
            self.snap = self.solver.state_snapshot()
        return self.window()

    def window(self, tracer: Tracer | None = None,
               capture: list | None = None) -> Window:
        """Run one window from the initial state, then reset.

        ``tracer`` wraps the layer entry points for the timed steps
        only; ``capture`` collects ``(T, p, Y, Y_new, T_new)`` of every
        chemistry advance (serial workloads).
        """
        gc.collect()
        if not self.decomposed:
            solver = self.solver
            mass0 = float((solver.rho * self.volumes).sum())
            win = self._steps(solver, tracer, capture)
            win.fields = {
                "y": solver.y.copy(), "h": solver.h.copy(),
                "p": solver.p.values.copy(), "u": solver.u.values.copy(),
                "rho": solver.rho.copy(),
                "T": solver.props.temperature.copy()}
            solver.restore_state(self.snap)
        else:
            solver = self.build()
            try:
                mass0 = float((solver.gather("rho") * self.volumes).sum())
                solver.step(self.inputs.dt)      # warm, untimed
                win = self._steps(solver, tracer, None)
                win.fields = {k: solver.gather(k) for k in FIELDS}
                win.ledger = solver.comm.ledger.totals()
                win.decomp = solver.decomp.stats()
            finally:
                solver.close()
        win.mass0 = mass0
        return win

    def _steps(self, solver, tracer, capture) -> Window:
        win = Window()
        dt = self.inputs.dt
        grabber = Tracer()
        if capture is not None:
            def grab(result, span, args, kwargs):
                t, p, y = (np.array(a, dtype=float) for a in args[:3])
                capture.append((t, np.broadcast_to(p, t.shape).copy(), y,
                                np.array(result[1]), np.array(result[0])))

            grabber.wrap(solver.chemistry, "advance", "capture", "bench",
                         after=grab)
        if tracer is not None:
            install(tracer, solver)
        try:
            t_start = time.perf_counter()
            for _ in range(WINDOW_STEPS):
                t0 = time.perf_counter()
                try:
                    diag = solver.step(dt)
                except Exception:
                    win.error = traceback.format_exc()
                    break
                win.step_walls.append(time.perf_counter() - t0)
                win.diags.append(diag)
                win.timings.append(solver.last_timings)
                win.comms.append(getattr(solver, "last_comm", None))
            win.wall = time.perf_counter() - t_start
        finally:
            if tracer is not None:
                tracer.unwrap_all()
            grabber.unwrap_all()
        return win


# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child
    (the forked rank workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class _Tally:
    """Operations attempted/failed and the checks behind them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.errors: list[str] = []

    def steps(self, win: Window) -> None:
        self.attempted += WINDOW_STEPS
        self.failed += win.failed_steps
        if win.error:
            self.errors.append(win.error)

    def add(self, found: list[ck.Check], label: str = "") -> None:
        for c in found:
            self.attempted += 1
            self.failed += not c.ok
            row = asdict(c)
            if label:
                row["name"] = f"{label}:{row['name']}"
            if not c.ok or not label:    # per-window rows only on failure
                self.checks.append(row)

    def window(self, win: Window, label: str) -> None:
        self.steps(win)
        if win.fields:
            self.add(ck.window_invariants(
                win.fields, [d.total_mass for d in win.diags] or [win.mass0],
                win.mass0), label)


def _reference_checks(sess: Session, tally: _Tally, win: Window) -> dict:
    """Cross-implementation checks against ``win``, the last timed
    window; returns values the per-layer table reports
    (``dist.max_err_vs_serial``, ...)."""
    from repro.core.settings import build_solver

    w = WORKLOADS[sess.name]
    dt = sess.inputs.dt
    extras: dict[str, float] = {}
    if w.decomposed:
        # the undecomposed solver on the same case (fresh inputs: a
        # serial solver steps the case's velocity/pressure in place)
        ref_in = build_inputs(sess.name, sess.seed)
        ref = build_solver(ref_in.case,
                           ref_in.settings.overlay(ranks=0,
                                                   execution="serial"),
                           properties=ref_in.properties)
        for _ in range(WINDOW_STEPS + 1):
            ref.step(dt)
        found = ck.fields_close(
            "vs_undecomposed", win.fields,
            {"y": ref.y, "h": ref.h, "p": ref.p.values, "u": ref.u.values})
        tally.add(found)
        extras["dist.max_err_vs_serial"] = max(c.value for c in found)
        if w.execution == "parallel":
            twin = Session(sess.name, sess.seed,
                           overlay={"execution": "serial"}).window()
            tally.steps(twin)
            tally.add([
                ck.fields_bitwise("parallel_vs_serial.fields", win.fields,
                                  twin.fields),
                ck.at_most("parallel_vs_serial.ledger",
                           sum(win.ledger[k] != twin.ledger[k]
                               for k in twin.ledger), 0.0)])
            extras["twin_step_ms"] = twin.step_ms
    elif w.chemistry != "none":
        captured: list = []
        tally.steps(sess.window(capture=captured))
        mech = sess.inputs.case.mech
        if w.chemistry == "hybrid-trained":
            found = [ck.hybrid_vs_direct(captured, mech, dt)]
            extras["dnn.max_dy_vs_direct"] = found[0].value
        else:
            found = ck.direct_vs_bdf(captured, mech, dt)
        tally.add(found)
    return extras


def _stable_steps(interface_width: float) -> int:
    """Steps the n=12 real-fluid TGV survives (capped): until the
    first non-finite diagnostic or ``max_velocity`` > 10x initial."""
    from repro.core.cases import build_tgv_case
    from repro.core.settings import SolverSettings, build_solver

    case = build_tgv_case(n=12, interface_width=interface_width)
    u0 = float(np.linalg.norm(case.velocity.values, axis=1).max())
    solver = build_solver(case, SolverSettings())
    with np.errstate(all="ignore"):      # blowing up is the point
        for k in range(STABLE_STEPS_CAP):
            try:
                diag = solver.step(1e-8)
            except Exception:
                return k
            if not ck.diag_finite(diag) or diag.max_velocity > 10.0 * u0:
                return k
    return STABLE_STEPS_CAP


def _shm_entries() -> int:
    """Shared-memory segments of this process still on ``/dev/shm``."""
    root = Path("/dev/shm")
    if not root.is_dir():
        return 0
    return sum(1 for p in root.iterdir()
               if p.name.startswith(f"repro{os.getpid():x}"))


def _host() -> dict:
    """Host fingerprint recorded next to every result."""
    import platform

    import scipy

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = f"{dep.get('name', 'unknown')} {dep.get('version', '')}".strip()
    except Exception:       # fingerprint only: never fail a run over it
        pass
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "platform": platform.platform(),
            "loadavg_start": list(os.getloadavg()),
            "threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")}}


# ----------------------------------------------------------------------
def run_child(mode: str, name: str, seed: int, seconds: float,
              windows: int | None, reference: bool, t_spawn: float,
              out_dir: Path) -> dict:
    """Run one mode of one workload; returns the child's JSON record."""
    host = _host()
    w = WORKLOADS[name]
    tally = _Tally()
    setup_tracer = Tracer()
    if mode == "trace":
        install_setup(setup_tracer)
    try:
        sess = Session(name, seed)
        sess.setup()
    finally:
        setup_tracer.unwrap_all()
    setup_s = time.time() - t_spawn
    out = {
        "workload": name, "seed": seed, "mode": mode, "why": w.why,
        "setup_s": setup_s, "n_cells": sess.n_cells, "dt": sess.inputs.dt,
        "window_steps": WINDOW_STEPS, "drawn": sess.inputs.drawn,
        "settings": sess.inputs.settings.to_dict(), "host": host,
    }
    # -- untraced timed windows ----------------------------------------
    wins: list[Window] = []
    if windows is None and mode == "trace":
        windows = UNTRACED_WINDOWS
    t_begin = time.perf_counter()

    def enough() -> bool:
        if windows is not None:
            return len(wins) >= windows
        return (len(wins) >= MIN_WINDOWS
                and time.perf_counter() - t_begin >= seconds)

    while not enough():
        wins.append(sess.window())
        tally.window(wins[-1], f"window{len(wins) - 1}")
    samples = [x.step_ms for x in wins]
    hashes = [ck.state_hash(x.fields) for x in wins if x.fields]
    out["samples_ms"] = samples
    out["state_hash"] = hashes[0] if hashes else None
    if w.repeatable_windows:
        tally.add([ck.at_most("bitwise_repeat_windows",
                              len(set(hashes)) - 1, 0.0)])

    # before the reference solvers below add to it
    out["peak_rss_mb"] = _peak_rss_mb()
    extras = {}
    if reference or mode == "trace":
        extras = _reference_checks(sess, tally, wins[-1])
    if mode == "measure":
        out.update(attempted=tally.attempted, failed=tally.failed,
                   checks=tally.checks, errors=tally.errors)
        return out

    # -- one traced window ----------------------------------------------
    tracer = Tracer()
    tracer.window = 1
    shm_before = _shm_entries()
    traced = sess.window(tracer=tracer)
    tally.window(traced, "traced")
    steps = max(len(traced.diags), 1)
    layers, breakdown = layer_metrics(
        tracer, 1, steps, traced.timings, [c for c in traced.comms if c])
    tally.add([ck.at_most("solvers.unconverged",
                          layers["solvers.unconverged"], 0.0)])
    median_ms = statistics.median(samples)
    setup_rows = setup_tracer.totals()
    imbalance = 0.0
    if traced.decomp:
        cells = traced.decomp["cells_per_rank"]
        imbalance = max(cells) / (sum(cells) / len(cells)) - 1.0
    driver_wait = 0.0
    if w.execution == "parallel":
        driver_wait = (sum(traced.step_walls)
                       - sum(t.total for t in traced.timings)) * 1e3 / steps
    layers.update({
        "core.cells_per_s": sess.n_cells / (median_ms / 1e3),
        "core.mass_drift_rel":
            max(abs(d.total_mass - traced.mass0) for d in traced.diags)
            / traced.mass0 if traced.diags else 0.0,
        "core.stable_steps":
            float(_stable_steps(sess.inputs.drawn["interface_width"])),
        "dnn.max_dy_vs_direct": extras.get("dnn.max_dy_vs_direct", 0.0),
        "dist.max_err_vs_serial": extras.get("dist.max_err_vs_serial", 0.0),
        "dist.rank_cells_imbalance": imbalance,
        "runtime.pool_start_s":
            setup_rows.get("runtime.pool_start", {}).get("total_s", 0.0),
        "runtime.driver_wait_ms": driver_wait,
        # base: the driver-stepped twin's window over this workload's
        # median untraced window, same process, same seed
        "runtime.parallel_speedup":
            extras["twin_step_ms"] / median_ms
            if "twin_step_ms" in extras else 0.0,
        "runtime.shm_leaked": float(_shm_entries() - shm_before),
        "mesh.build_s":
            setup_rows.get("mesh.build", {}).get("total_s", 0.0),
        "partition.decompose_s":
            setup_rows.get("partition.decompose", {}).get("total_s", 0.0),
        "partition.edge_cut":
            float(traced.decomp["cut_faces"]) if traced.decomp else 0.0,
        "bench.trace_overhead_frac": traced.step_ms / median_ms - 1.0,
        "bench.window_cv":
            statistics.stdev(samples) / statistics.mean(samples)
            if len(samples) > 1 else 0.0,
    })
    missing = set(PER_LAYER) - set(layers)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {missing}")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"trace_{name}_seed{seed}"
    tracer.write_jsonl(stem.with_suffix(".jsonl"))
    tracer.write_chrome(stem.with_suffix(".chrome.json"),
                        process=f"{name} seed {seed}")
    out.update(layers=layers, breakdown=breakdown,
               trace_files=[stem.with_suffix(".jsonl").name,
                            stem.with_suffix(".chrome.json").name],
               attempted=tally.attempted, failed=tally.failed,
               checks=tally.checks, errors=tally.errors)
    return out
