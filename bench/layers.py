"""Where the tracer hooks into the program, layer by layer.

``install`` wraps the public entry points of one built solver (serial
``DeepFlameSolver`` or ``DecomposedSolver``); ``layer_metrics`` turns
the recorded spans and counts into the per-layer metrics of
``BENCHMARK.json``.  Layers are the packages under ``src/repro``:

==========  ==========================================================
layer       spans (entry point wrapped)
==========  ==========================================================
core        ``step`` and the solver's stage methods
thermo      ``properties.evaluate``, ``rf.psi_compressibility``
chemistry   ``solver.chemistry.advance``
dnn         ``SurrogateBackend.advance`` (child of chemistry)
fv          ``EquationWorkspace.transport`` / ``transport_multi``
sparse      ``LDUMatrix.to_csr`` / ``matvec*`` and the CSR products
solvers     ``FVMatrix.solve`` / ``CoupledTransportEquation.solve``,
            preconditioner refresh and apply
dist        ``solve_distributed``, ``HaloExchanger.refresh``,
            ``DistributedSystem.matvec_multi``
runtime     ``WorkerPool.broadcast`` (the driver's wait on its workers)
==========  ==========================================================

Class- and module-level wraps are process-wide while installed; the
traced window is the only code that runs in between.  Under
``execution="parallel"`` the wraps go in *after* the fork, so workers
run untouched and only what the public API returns from them (rank-0
``StepTimings``, merged ledger) is recorded.
"""

from __future__ import annotations

from .tracer import Tracer

__all__ = ["PER_LAYER", "install", "install_setup", "layer_metrics"]

_STAGES = ("stage_properties", "stage_chemistry", "assemble_species_eqn",
           "assemble_energy_eqn", "assemble_momentum_eqn",
           "assemble_pressure_eqn", "finish_species", "finish_pressure")

#: per-layer metrics of BENCHMARK.json: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "core.glue_ms": ("ms", "lower"),
    "core.bucket_dnn_ms": ("ms", "lower"),
    "core.bucket_construction_ms": ("ms", "lower"),
    "core.bucket_solving_ms": ("ms", "lower"),
    "core.bucket_other_ms": ("ms", "lower"),
    "core.cells_per_s": ("1/s", "higher"),
    "core.mass_drift_rel": ("1", "lower"),
    "core.stable_steps": ("count", "higher"),
    "thermo.evaluate_ms": ("ms", "lower"),
    "thermo.psi_ms": ("ms", "lower"),
    "thermo.newton_sweeps": ("count", "lower"),
    "thermo.eos_density_calls": ("count", "lower"),
    "thermo.cells_per_s": ("1/s", "higher"),
    "chemistry.advance_ms": ("ms", "lower"),
    "chemistry.cells_per_s": ("1/s", "higher"),
    "chemistry.rhs_evals": ("count", "lower"),
    "chemistry.jac_evals": ("count", "lower"),
    "chemistry.linear_solves": ("count", "lower"),
    "chemistry.work_imbalance": ("1", "lower"),
    "chemistry.cells_rk4": ("count", "higher"),
    "chemistry.cells_ros2": ("count", "lower"),
    "chemistry.cells_bdf": ("count", "lower"),
    "dnn.infer_ms": ("ms", "lower"),
    "dnn.surrogate_cells": ("count", "higher"),
    "dnn.gated_out_cells": ("count", "lower"),
    "dnn.audited_cells": ("count", "lower"),
    "dnn.audit_failures": ("count", "lower"),
    "dnn.surrogate_frac": ("1", "higher"),
    "dnn.max_dy_vs_direct": ("1", "lower"),
    "fv.assemble_ms": ("ms", "lower"),
    "fv.assemble_calls": ("count", "lower"),
    "fv.alloc_construction": ("count", "lower"),
    "sparse.to_csr_ms": ("ms", "lower"),
    "sparse.matvec_ms": ("ms", "lower"),
    "sparse.matvec_calls": ("count", "lower"),
    "solvers.solve_ms": ("ms", "lower"),
    "solvers.iterations": ("count", "lower"),
    "solvers.precond_refresh_ms": ("ms", "lower"),
    "solvers.precond_apply_ms": ("ms", "lower"),
    "solvers.flops": ("count", "lower"),
    "solvers.gflops_rate": ("GFLOP/s", "higher"),
    "solvers.unconverged": ("count", "lower"),
    "solvers.alloc_solving": ("count", "lower"),
    "dist.solve_ms": ("ms", "lower"),
    "dist.matvec_ms": ("ms", "lower"),
    "dist.halo_refresh_ms": ("ms", "lower"),
    "dist.halo_refreshes": ("count", "lower"),
    "dist.max_err_vs_serial": ("1", "lower"),
    "dist.rank_cells_imbalance": ("1", "lower"),
    "runtime.messages": ("count", "lower"),
    "runtime.halo_bytes": ("B", "lower"),
    "runtime.allreduces": ("count", "lower"),
    "runtime.allreduce_bytes": ("B", "lower"),
    "runtime.pool_start_s": ("s", "lower"),
    "runtime.driver_wait_ms": ("ms", "lower"),
    "runtime.parallel_speedup": ("x", "higher"),
    "runtime.shm_leaked": ("count", "lower"),
    "mesh.build_s": ("s", "lower"),
    "partition.decompose_s": ("s", "lower"),
    "partition.edge_cut": ("count", "lower"),
    "bench.trace_overhead_frac": ("1", "lower"),
    "bench.window_cv": ("1", "lower"),
}


class _TimedCSR:
    """Stands in for the CSR matrix a solve converts its operator to,
    so the sparse-times-dense products inside the Krylov loop (a
    closure the benchmark cannot reach) show up as ``sparse.matvec``."""

    def __init__(self, csr, tracer: Tracer):
        self._csr = csr
        self._tracer = tracer

    def __matmul__(self, x):
        span = self._tracer.begin("sparse.matvec", "sparse")
        try:
            return self._csr @ x
        finally:
            self._tracer.end(span)

    def __getattr__(self, name):
        return getattr(self._csr, name)


def _leaf_sub_batches(stats):
    """``(label, cells)`` of every integrator sub-batch in a (possibly
    composite) ``BackendStats``."""
    for label, cells, _ in stats.sub_batches:
        if label.startswith(("rk4", "ros2", "bdf")):
            yield label, cells
    for key, child in stats.per_backend.items():
        if key != "bdf-fallback":   # already listed as the "bdf" batch
            yield from _leaf_sub_batches(child)


def _rank_solvers(solver) -> list:
    """The ``DeepFlameSolver`` objects the driver process steps."""
    return [solver] if not hasattr(solver, "decomp") else list(solver.ranks)


def install(tracer: Tracer, solver) -> None:
    """Wrap every layer entry point reachable from ``solver``."""
    from repro.dist import krylov as dist_krylov
    from repro.dist import solver as dist_solver
    from repro.dist.halo import HaloExchanger
    from repro.fv.operators import CoupledTransportEquation, FVMatrix
    from repro.fv.workspace import EquationWorkspace
    from repro.runtime.executor import WorkerPool
    from repro.solvers.preconditioners import (CachedDICPreconditioner,
                                               DICPreconditioner,
                                               JacobiPreconditioner)
    from repro.sparse.ldu import LDUMatrix

    counts = tracer.counts
    tracer.wrap(solver, "step", "step", "core")

    # -- per rank: stages, thermo, chemistry, dnn -----------------------
    seen: set[int] = set()
    for r in _rank_solvers(solver):
        for stage in _STAGES:
            tracer.wrap(r, stage, f"core.{stage}", "core")
        props = r.properties
        if id(props) not in seen:       # ranks share one evaluator
            seen.add(id(props))

            def after_eval(result, span, args, kwargs):
                counts["thermo.cells"] += len(result.rho)

            tracer.wrap(props, "evaluate", "thermo.evaluate", "thermo",
                        after=after_eval)
            rf = getattr(props, "rf", None)
            if rf is not None:
                tracer.wrap(rf, "psi_compressibility", "thermo.psi", "thermo")
                tracer.count(rf, "h_mass", "thermo.h_mass_calls")
                tracer.count(rf.eos, "density", "thermo.eos_density_calls")
        chem = r.chemistry
        tracer.wrap(chem, "advance", "chemistry.advance", "chemistry",
                    after=_chemistry_hook(chem, counts))
        surrogate = getattr(getattr(chem, "backend", None), "surrogate", None)
        if surrogate is not None:
            tracer.wrap(surrogate, "advance", "dnn.infer", "dnn")

    # -- fv / sparse / solvers (class level: every workspace, matrix) ---
    def after_assemble(result, span, args, kwargs):
        counts["fv.assemble_calls"] += 1

    for attr in ("transport", "transport_multi"):
        tracer.wrap(EquationWorkspace, attr, "fv.assemble", "fv",
                    after=after_assemble)
    for attr in ("dic", "jacobi"):
        tracer.wrap(EquationWorkspace, attr, "solvers.precond_refresh",
                    "solvers")
    tracer.wrap(DICPreconditioner, "__init__", "solvers.precond_refresh",
                "solvers")
    for cls in (CachedDICPreconditioner, JacobiPreconditioner,
                DICPreconditioner):
        for attr in ("apply", "apply_multi"):
            tracer.wrap(cls, attr, "solvers.precond_apply", "solvers")
    tracer.wrap(LDUMatrix, "to_csr", "sparse.to_csr", "sparse",
                proxy=lambda csr: _TimedCSR(csr, tracer))
    for attr in ("matvec", "matvec_multi"):
        tracer.wrap(LDUMatrix, attr, "sparse.matvec", "sparse")

    def after_solve(result, span, args, kwargs):
        results = result[1]
        for res in results if isinstance(results, list) else [results]:
            counts["solvers.iterations"] += res.iterations
            counts["solvers.flops"] += res.flops
            counts["solvers.unconverged"] += int(not res.converged)
        counts["solvers.solves"] += 1

    tracer.wrap(FVMatrix, "solve", "solvers.solve", "solvers",
                after=after_solve)
    tracer.wrap(CoupledTransportEquation, "solve", "solvers.solve", "solvers",
                after=after_solve)

    # -- dist / runtime --------------------------------------------------
    tracer.wrap(dist_solver, "solve_distributed", "dist.solve", "dist",
                after=after_solve)
    tracer.wrap(dist_krylov.DistributedSystem, "matvec_multi", "dist.matvec",
                "dist")

    def after_refresh(result, span, args, kwargs):
        counts["dist.halo_refreshes"] += 1

    tracer.wrap(HaloExchanger, "refresh", "dist.halo_refresh", "dist",
                after=after_refresh)
    tracer.wrap(WorkerPool, "broadcast", "runtime.broadcast", "runtime")


def _chemistry_hook(chem, counts):
    def after(result, span, args, kwargs):
        stats = chem.last_backend_stats
        if stats is None:               # NoChemistry
            return
        counts["chemistry.calls"] += 1
        counts["chemistry.cells"] += stats.n_cells
        counts["chemistry.rhs_evals"] += stats.rhs_evals
        counts["chemistry.jac_evals"] += stats.jac_evals
        counts["chemistry.linear_solves"] += stats.linear_solves
        counts["chemistry.work_imbalance_sum"] += stats.load_imbalance
        for label, cells in _leaf_sub_batches(stats):
            kind = "rk4" if label.startswith("rk4") else \
                "ros2" if label.startswith("ros2") else "bdf"
            counts[f"chemistry.cells_{kind}"] += cells
        for key, val in stats.gate.items():
            counts[f"dnn.{key}"] += val

    return after


def install_setup(tracer: Tracer) -> None:
    """Wrap what set-up spends its time in (mesh, partition, pool)."""
    from repro.core import cases
    from repro.dist.decompose import Decomposition
    from repro.runtime.executor import WorkerPool

    tracer.wrap(cases, "build_box_mesh", "mesh.build", "mesh")
    tracer.wrap(Decomposition, "from_mesh", "partition.decompose",
                "partition", static=True)
    tracer.wrap(WorkerPool, "__init__", "runtime.pool_start", "runtime")


def layer_metrics(tracer: Tracer, window: int, steps: int,
                  timings: list, comms: list) -> tuple[dict, dict]:
    """Per-layer metrics of one traced window (``*_ms`` are per step).

    ``timings``/``comms`` are the program's own ``StepTimings`` and
    ``last_comm`` dicts of the window's steps.  Also returns the
    breakdown the metrics reconcile against: each layer's self time
    and the step span they add up to.
    """
    rows = tracer.totals(window)
    layer_self = tracer.layer_self(window)
    c = tracer.counts

    def ms(name: str, key: str = "total_s") -> float:
        return rows.get(name, {}).get(key, 0.0) * 1e3 / steps

    def per_step(key: str) -> float:
        return c[key] / steps

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    eval_s = rows.get("thermo.evaluate", {}).get("total_s", 0.0)
    eval_calls = rows.get("thermo.evaluate", {}).get("calls", 0)
    chem_s = rows.get("chemistry.advance", {}).get("total_s", 0.0)
    solve_s = (rows.get("solvers.solve", {}).get("total_s", 0.0)
               + rows.get("dist.solve", {}).get("total_s", 0.0))
    offered = c["dnn.surrogate_cells"] + c["dnn.gated_out_cells"]
    out = {
        "core.glue_ms": layer_self.get("core", 0.0) * 1e3 / steps,
        "core.bucket_dnn_ms": sum(t.dnn for t in timings) * 1e3 / steps,
        "core.bucket_construction_ms":
            sum(t.construction for t in timings) * 1e3 / steps,
        "core.bucket_solving_ms":
            sum(t.solving for t in timings) * 1e3 / steps,
        "core.bucket_other_ms": sum(t.other for t in timings) * 1e3 / steps,
        "thermo.evaluate_ms": ms("thermo.evaluate"),
        "thermo.psi_ms": ms("thermo.psi"),
        "thermo.newton_sweeps":
            c["thermo.h_mass_calls"] / eval_calls if eval_calls else 0.0,
        "thermo.eos_density_calls": per_step("thermo.eos_density_calls"),
        "thermo.cells_per_s": rate(c["thermo.cells"], eval_s),
        "chemistry.advance_ms": ms("chemistry.advance"),
        "chemistry.cells_per_s": rate(c["chemistry.cells"], chem_s),
        "chemistry.rhs_evals": per_step("chemistry.rhs_evals"),
        "chemistry.jac_evals": per_step("chemistry.jac_evals"),
        "chemistry.linear_solves": per_step("chemistry.linear_solves"),
        "chemistry.work_imbalance":
            c["chemistry.work_imbalance_sum"] / c["chemistry.calls"]
            if c["chemistry.calls"] else 0.0,
        "chemistry.cells_rk4": per_step("chemistry.cells_rk4"),
        "chemistry.cells_ros2": per_step("chemistry.cells_ros2"),
        "chemistry.cells_bdf": per_step("chemistry.cells_bdf"),
        "dnn.infer_ms": ms("dnn.infer"),
        "dnn.surrogate_cells": per_step("dnn.surrogate_cells"),
        "dnn.gated_out_cells": per_step("dnn.gated_out_cells"),
        "dnn.audited_cells": per_step("dnn.audited_cells"),
        "dnn.audit_failures": per_step("dnn.audit_failures"),
        "dnn.surrogate_frac":
            (c["dnn.surrogate_cells"] - c["dnn.audited_cells"]) / offered
            if offered else 0.0,
        "fv.assemble_ms": ms("fv.assemble"),
        "fv.assemble_calls": per_step("fv.assemble_calls"),
        "fv.alloc_construction":
            sum(t.alloc_construction for t in timings) / steps,
        "sparse.to_csr_ms": ms("sparse.to_csr"),
        "sparse.matvec_ms": ms("sparse.matvec"),
        "sparse.matvec_calls":
            rows.get("sparse.matvec", {}).get("calls", 0) / steps,
        "solvers.solve_ms": ms("solvers.solve"),
        "solvers.iterations": per_step("solvers.iterations"),
        "solvers.precond_refresh_ms": ms("solvers.precond_refresh"),
        "solvers.precond_apply_ms": ms("solvers.precond_apply"),
        "solvers.flops": per_step("solvers.flops"),
        # computed, not measured by a hardware counter: the solvers'
        # own flop accounting over the wall time of their solve spans
        "solvers.gflops_rate": rate(c["solvers.flops"], solve_s) / 1e9,
        "solvers.unconverged": float(c["solvers.unconverged"]),
        "solvers.alloc_solving":
            sum(t.alloc_solving for t in timings) / steps,
        "dist.solve_ms": ms("dist.solve"),
        "dist.matvec_ms": ms("dist.matvec"),
        "dist.halo_refresh_ms": ms("dist.halo_refresh"),
        "dist.halo_refreshes": per_step("dist.halo_refreshes"),
        "runtime.messages": sum(cm["messages"] for cm in comms) / steps,
        "runtime.halo_bytes": sum(cm["bytes"] for cm in comms) / steps,
        "runtime.allreduces": sum(cm["allreduces"] for cm in comms) / steps,
        "runtime.allreduce_bytes":
            sum(cm["allreduce_bytes"] for cm in comms) / steps,
    }
    breakdown = {
        "step_span_ms": ms("step"),
        "layer_self_ms": {k: v * 1e3 / steps for k, v in layer_self.items()},
        "spans": {name: {"layer": row["layer"], "calls": row["calls"] / steps,
                         "total_ms": row["total_s"] * 1e3 / steps,
                         "self_ms": row["self_s"] * 1e3 / steps}
                  for name, row in rows.items()},
    }
    return out, breakdown
