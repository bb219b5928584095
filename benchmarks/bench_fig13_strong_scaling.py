"""Fig. 13: strong scaling.

(a) 19.3-billion-cell TGV on Sunway, 3,072 -> 98,304 nodes;
(b) 9.7-billion-cell system on Fugaku, 4,608 -> 73,728 nodes;
both in FP32 and mixed-FP16.

Paper anchors at max scale: Sunway 40.7 % (mixed) / 66.0 % (fp32)
efficiency, 522.9 / 299.3 PFlop/s; Fugaku 60.5 % / 72.7 %, 208.6 /
143.8 PFlop/s; ToS 2.7e-9 (Sunway) and 7.7e-9 (Fugaku) s/DoF/cycle.

With ``--executed`` the analytic sweep is complemented by an
**executed** strong-scaling row: the DeepFlame step actually runs
domain-decomposed over P subdomains (``repro.dist``), and the table
reports the *measured* per-step halo-exchange and allreduce ledger
next to the alpha-beta times the cost model charges for exactly those
volumes -- the communication pattern is exercised, not assumed.  The
overlap-comparison bench additionally runs the same step with
``krylov_variant="overlapped"`` (which also posts the matvec ghost
refreshes nonblocking) and prices the two ledgers side by side: the
overlap-tagged traffic is charged ``max(t_compute, t_comm)``
(:func:`repro.runtime.overlapped_phase_time`) instead of the serial
sum, and the fused/pipelined solvers cut the per-step collective
count, so the modeled strong-scaling efficiency at 8+ ranks improves.
With ``--parallel`` (next to ``--executed``) the decomposed step
additionally runs under the *shared-memory parallel runtime*
(``execution="parallel"``): each rank becomes a real worker process
exchanging halos through a :class:`repro.runtime.shm.SharedArena`, and
the table reports **measured** wall-clock speedup and efficiency next
to the Amdahl prediction derived from the serial step's own stage
timings.  The parallel step's fields and communication ledger must
match the serial (driver-executed) step exactly -- the speedup row is
only meaningful because the answer is provably the same."""

import os
import time

import numpy as np
import pytest

from repro.runtime import (
    FUGAKU,
    SUNWAY,
    OptimizationConfig,
    allreduce_time,
    halo_exchange_time,
    overlapped_phase_time,
    strong_scaling,
    tgv_workload,
)

from .conftest import emit


def _series_lines(series, paper_last_eff):
    lines = []
    for p in series.points:
        lines.append(f"  {p.nodes:6d} nodes  loop {p.loop_time:8.3f} s  "
                     f"{p.pflops:7.1f} PF  eff {p.efficiency*100:5.1f} %  "
                     f"ToS {p.time_to_solution:.2e}")
    lines.append(f"  (paper efficiency at max scale: {paper_last_eff*100:.1f} %)")
    return lines


def test_fig13a_sunway_strong(benchmark):
    wl = tgv_workload(19_327_352_832)
    nodes = [3072, 6144, 12288, 24576, 49152, 98304]
    s16 = benchmark(strong_scaling, SUNWAY, wl, nodes)
    s32 = strong_scaling(SUNWAY, wl, nodes,
                         OptimizationConfig.optimized(mixed_precision=False))
    lines = ["Sunway, 19.3 B cells, mixed-FP16:"]
    lines += _series_lines(s16, 0.407)
    lines += ["Sunway, FP32:"]
    lines += _series_lines(s32, 0.660)
    assert abs(s16.efficiencies()[-1] - 0.407) < 0.08
    assert abs(s32.efficiencies()[-1] - 0.660) < 0.09
    # mixed precision remains faster despite lower efficiency
    assert s16.points[-1].loop_time < s32.points[-1].loop_time
    emit("Fig. 13(a): Sunway strong scaling", lines)


def test_fig13b_fugaku_strong(benchmark):
    wl = tgv_workload(9_663_676_416)
    nodes = [4608, 9216, 18432, 36864, 73728]
    s16 = benchmark(strong_scaling, FUGAKU, wl, nodes)
    s32 = strong_scaling(FUGAKU, wl, nodes,
                         OptimizationConfig.optimized(mixed_precision=False))
    lines = ["Fugaku, 9.7 B cells, mixed-FP16:"]
    lines += _series_lines(s16, 0.605)
    lines += ["Fugaku, FP32:"]
    lines += _series_lines(s32, 0.727)
    assert abs(s16.efficiencies()[-1] - 0.605) < 0.08
    assert abs(s32.efficiencies()[-1] - 0.727) < 0.08
    emit("Fig. 13(b): Fugaku strong scaling", lines)


def test_fig13_executed_ledger(executed, smoke, mech):
    """Executed strong scaling: measured message/byte ledgers of real
    decomposed steps, priced with the same alpha-beta model the
    analytic sweep uses."""
    if not executed:
        pytest.skip("pass --executed to run the decomposed-execution bench")
    from repro.core import (
        IdealGasProperties,
        NoChemistry,
        SolverSettings,
        build_tgv_case,
    )
    from repro.dist import DecomposedSolver

    n = 8 if smoke else 12
    rank_counts = [2, 4] if smoke else [2, 4, 8]
    dt = 1e-8
    lines = [f"TGV {n}^3 cells, 1 executed step per rank count "
             "(alpha-beta times on Sunway's fabric)",
             "   P  cut-faces  msgs  halo KiB  allred  allred B  "
             "t_halo [us]  t_allred [us]"]
    per_p = {}
    for nparts in rank_counts:
        solver = DecomposedSolver(
            build_tgv_case(n=n, mech=mech), SolverSettings(ranks=nparts),
            properties=IdealGasProperties(mech), chemistry=NoChemistry())
        solver.step(dt)   # warm-up: settle fields
        solver.step(dt)   # measured step
        comm = solver.last_comm
        stats = solver.decomp.stats()
        per_p[nparts] = comm

        # charge the *measured* volumes to the alpha-beta model
        msgs_per_rank = comm["messages"] / nparts
        bytes_per_msg = comm["bytes"] / comm["messages"]
        t_halo = halo_exchange_time(SUNWAY, msgs_per_rank, bytes_per_msg)
        t_ar = comm["allreduces"] * allreduce_time(
            SUNWAY, nparts, comm["allreduce_bytes"] / comm["allreduces"])
        lines.append(
            f"  {nparts:2d}  {stats['cut_faces']:9d}  "
            f"{comm['messages']:4d}  {comm['bytes']/1024:8.1f}  "
            f"{comm['allreduces']:6d}  {comm['allreduce_bytes']:8d}  "
            f"{t_halo*1e6:11.2f}  {t_ar*1e6:13.2f}")

        assert comm["messages"] > 0 and comm["bytes"] > 0
        assert comm["allreduces"] > 0 and comm["allreduce_bytes"] > 0
    # more ranks -> more part boundary -> more halo traffic
    halo_bytes = [per_p[p]["bytes"] for p in rank_counts]
    assert np.all(np.diff(halo_bytes) > 0)
    emit("Fig. 13 (executed): measured communication ledger", lines)


def test_fig13_parallel_measured(executed, parallel, smoke, mech):
    """Measured vs modeled strong scaling of the shared-memory runtime.

    Serial (driver-executed) and parallel (worker-process) runs of the
    same decomposed configuration with live direct chemistry; the
    modeled efficiency is the Amdahl bound from the serial step's own
    stage timings (chemistry + assembly + solving parallelize, the
    driver-side remainder does not).
    """
    if not (executed and parallel):
        pytest.skip("pass --executed --parallel to run the shared-memory "
                    "runtime bench")
    from repro.core import IdealGasProperties, SolverSettings, build_tgv_case
    from repro.dist import DecomposedSolver

    n = 6 if smoke else 8
    worker_counts = [2] if smoke else [2, 4]
    n_steps = 2 if smoke else 3
    dt = 1e-8
    cpus = len(os.sched_getaffinity(0))
    lines = [f"TGV {n}^3 cells, live direct chemistry, {n_steps} measured "
             f"steps per config ({cpus} CPUs visible)",
             "   W  t_serial/step  t_parallel/step  speedup  "
             "eff meas  eff model  worst |dT|"]
    for workers in worker_counts:
        settings = SolverSettings(ranks=workers, chemistry="direct")

        def build(execution):
            return DecomposedSolver(
                build_tgv_case(n=n, mech=mech),
                settings.overlay(execution=execution),
                properties=IdealGasProperties(mech))

        serial = build("serial")
        serial.step(dt)  # warm-up
        t0 = time.perf_counter()
        for _ in range(n_steps):
            serial.step(dt)
        t_serial = (time.perf_counter() - t0) / n_steps
        tm = serial.last_timings
        # Amdahl bound from the serial step's own stage split: rank
        # work (chemistry/properties, assembly, solves) parallelizes,
        # the driver remainder does not
        f_par = (tm.dnn + tm.construction + tm.solving) / tm.total
        modeled = 1.0 / ((1.0 - f_par) + f_par / workers)

        par = build("parallel")
        par.step(dt)  # warm-up (pool is already live from construction)
        t0 = time.perf_counter()
        for _ in range(n_steps):
            par.step(dt)
        t_parallel = (time.perf_counter() - t0) / n_steps

        # the speedup row is only meaningful because the answer is
        # provably the same: ledger and fields must match the serial run
        assert serial.last_comm == par.last_comm
        worst = float(np.abs(serial.gather("T") - par.gather("T")).max())
        assert worst <= 1e-8
        assert serial.comm.ledger.totals() == par.comm.ledger.totals()

        speedup = t_serial / t_parallel
        lines.append(
            f"  {workers:2d}  {t_serial*1e3:13.2f}  {t_parallel*1e3:15.2f}  "
            f"{speedup:7.2f}  {speedup/workers*100:7.1f} %  "
            f"{modeled/workers*100:8.1f} %  {worst:.2e}")
        if cpus >= workers:
            # the issue's wall-clock gate -- only enforceable when the
            # host actually has a core per worker
            if workers >= 4:
                assert speedup >= 2.0, (workers, speedup)
        else:
            lines.append(f"      (speedup gate skipped: {cpus} CPUs "
                         f"< {workers} workers)")
        par.close()
    emit("Fig. 13 (executed): shared-memory parallel runtime", lines)


def _price_step(comm: dict, flops: int, nparts: int,
                overlapped: bool) -> float:
    """Alpha-beta price of one measured step on Sunway's fabric.

    The overlap-tagged subset of the ledger (nonblocking halo posts,
    fused ``iallreduce``) hides behind the step's compute via
    :func:`overlapped_phase_time`; everything else is charged as the
    serial sum, exactly as the synchronous model does.
    """
    rate = SUNWAY.peak_fp64_node / SUNWAY.processes_per_node
    t_comp = flops / nparts / rate

    def halo_price(msgs: int, nbytes: int) -> float:
        if msgs == 0:
            return 0.0
        return halo_exchange_time(SUNWAY, msgs / nparts, nbytes / msgs)

    def allred_price(count: int) -> float:
        if count == 0:
            return 0.0
        payload = comm["allreduce_bytes"] / comm["allreduces"]
        return count * allreduce_time(SUNWAY, nparts, payload)

    t_halo_ovl = halo_price(comm["overlap_messages"], comm["overlap_bytes"])
    t_halo_blk = halo_price(comm["messages"] - comm["overlap_messages"],
                            comm["bytes"] - comm["overlap_bytes"])
    t_ar_ovl = allred_price(comm["overlap_allreduces"])
    t_ar_blk = allred_price(comm["allreduces"] - comm["overlap_allreduces"])
    if overlapped:
        return t_halo_blk + t_ar_blk + \
            overlapped_phase_time(t_comp, t_halo_ovl + t_ar_ovl)
    return t_comp + t_halo_blk + t_halo_ovl + t_ar_blk + t_ar_ovl


def test_fig13_overlap_comparison(executed, smoke, mech):
    """Synchronous vs communication-overlapped distributed Krylov:
    measured ledgers of both execution modes, priced side by side."""
    if not executed:
        pytest.skip("pass --executed to run the decomposed-execution bench")
    from repro.core import (
        IdealGasProperties,
        NoChemistry,
        SolverSettings,
        build_tgv_case,
    )
    from repro.dist import DecomposedSolver

    n = 8 if smoke else 12
    rank_counts = [2, 4, 8] if smoke else [2, 4, 8, 16]
    dt = 1e-8
    lines = [f"TGV {n}^3 cells, 1 measured step per rank count "
             "(alpha-beta times on Sunway's fabric)",
             "   P  variant       allred  allred/it  overlap-msgs  "
             "t_model [us]  efficiency"]
    eff = {"synchronous": [], "overlapped": []}
    per_it = {}
    for nparts in rank_counts:
        for variant in ("synchronous", "overlapped"):
            settings = SolverSettings(ranks=nparts, krylov_variant=variant)
            solver = DecomposedSolver(
                build_tgv_case(n=n, mech=mech), settings,
                properties=IdealGasProperties(mech),
                chemistry=NoChemistry())
            solver.step(dt)   # warm-up: settle fields
            solver.step(dt)   # measured step
            comm = solver.last_comm
            iters = max(solver.last_diag.solver_iterations, 1)
            t_model = _price_step(comm, solver.last_diag.solver_flops,
                                  nparts, overlapped=(variant == "overlapped"))
            series = eff[variant]
            series.append((nparts, t_model))
            p0, t0 = series[0]
            e = (t0 * p0) / (t_model * nparts)
            per_it[(nparts, variant)] = comm["allreduces"] / iters
            lines.append(
                f"  {nparts:2d}  {variant:12s}  {comm['allreduces']:5d}  "
                f"{comm['allreduces'] / iters:9.2f}  "
                f"{comm['overlap_messages']:12d}  {t_model*1e6:12.2f}  "
                f"{e*100:9.1f} %")

            if variant == "overlapped":
                # the nonblocking spellings actually ran, and the
                # fused/pipelined solvers cut the collective count
                assert comm["overlap_messages"] > 0
                assert comm["overlap_allreduces"] > 0
                assert per_it[(nparts, "overlapped")] \
                    < per_it[(nparts, "synchronous")]
            else:
                assert comm["overlap_messages"] == 0
                assert comm["overlap_allreduces"] == 0

    # at scale (8+ ranks), overlap + fewer collectives must translate
    # into better modeled strong-scaling efficiency
    for i, nparts in enumerate(rank_counts):
        if nparts < 8:
            continue
        p0, t0 = eff["synchronous"][0]
        e_sync = (t0 * p0) / (eff["synchronous"][i][1] * nparts)
        p0, t0 = eff["overlapped"][0]
        e_ovl = (t0 * p0) / (eff["overlapped"][i][1] * nparts)
        assert e_ovl > e_sync, (nparts, e_sync, e_ovl)
    emit("Fig. 13 (executed): synchronous vs overlapped Krylov", lines)
