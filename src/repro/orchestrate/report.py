"""Ledgered cost reports for ensemble runs.

Everything an ensemble spends is already measured somewhere -- step
timings in each solver's :class:`~repro.core.deepflame.StepTimings`,
chemistry work in the backend stats, port traffic in the fabric's
:class:`~repro.runtime.comm.CommLedger` (attributed per sending
instance via ``by_src``), and a decomposed instance's internal
halo/allreduce traffic in its private sub-fabric ledger.  This module
aggregates those sources into one report: a per-instance cost table,
ensemble-level imbalance figures (max/mean - 1 over the instances),
and an alpha-beta price of all measured
traffic on any :class:`~repro.runtime.machine.MachineSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.deepflame import StepTimings
from ..runtime.load_balance import per_rank_imbalance, price_comm_totals

__all__ = ["EnsembleCostReport", "InstanceCost"]


@dataclass
class InstanceCost:
    """One instance's accumulated cost over an ensemble run.

    Attributes
    ----------
    name:
        Instance address (``"sweep[3]"``, ``"macro"``, ...).
    steps:
        Steps this instance has taken.
    n_cells:
        Cells of the instance's (global) mesh.
    ranks:
        Internal rank count (0 for a serial instance).
    timings:
        Accumulated per-component wall times (Fig. 11 categories).
    solver_flops, solver_iterations:
        Summed Krylov work over all steps.
    chemistry_work, chemistry_cells:
        Summed backend work counters (integration steps / surrogate
        inferences) and the cell-batches they covered.
    port_messages, port_bytes:
        Conduit traffic this instance *sent* through the ensemble
        fabric.
    internal_comm:
        Ledger totals of a decomposed instance's private sub-fabric
        (``None`` for serial instances).
    """

    name: str
    steps: int = 0
    n_cells: int = 0
    ranks: int = 0
    timings: StepTimings = field(default_factory=StepTimings)
    solver_flops: int = 0
    solver_iterations: int = 0
    chemistry_work: float = 0.0
    chemistry_cells: int = 0
    port_messages: int = 0
    port_bytes: int = 0
    internal_comm: dict | None = None

    @property
    def wall_time(self) -> float:
        """Total measured wall seconds across all components."""
        return self.timings.total


@dataclass
class EnsembleCostReport:
    """Aggregated cost of one ensemble run.

    Attributes
    ----------
    instances:
        One :class:`InstanceCost` per ensemble member.
    fabric:
        ``CommLedger.totals()`` of the ensemble's port fabric.
    """

    instances: list[InstanceCost]
    fabric: dict

    # -- ensemble-level aggregates -------------------------------------
    @property
    def total_wall(self) -> float:
        """Summed wall seconds over all instances."""
        return sum(c.wall_time for c in self.instances)

    @property
    def total_chemistry_work(self) -> float:
        """Summed chemistry backend work over all instances."""
        return sum(c.chemistry_work for c in self.instances)

    @property
    def wall_imbalance(self) -> float:
        """max/mean - 1 of per-instance wall time -- how unevenly the
        ensemble members cost, were each an MPI-style rank."""
        return per_rank_imbalance(
            np.array([c.wall_time for c in self.instances]))

    @property
    def chemistry_imbalance(self) -> float:
        """max/mean - 1 of per-instance chemistry work."""
        return per_rank_imbalance(
            np.array([c.chemistry_work for c in self.instances]))

    # -- pricing --------------------------------------------------------
    def price(self, machine) -> dict:
        """Alpha-beta price of every measured exchange on ``machine``.

        The ensemble fabric's port traffic is priced over the instance
        count; each decomposed instance's internal halo/allreduce
        traffic over its own rank count.  Returns ``{"fabric": {...},
        "internal": {name: {...}}, "total_s": float}``.
        """
        n = max(len(self.instances), 1)
        fabric = price_comm_totals(machine, self.fabric, n)
        internal = {
            c.name: price_comm_totals(machine, c.internal_comm,
                                      max(c.ranks, 1))
            for c in self.instances if c.internal_comm}
        total = fabric["total_s"] + sum(
            p["total_s"] for p in internal.values())
        return {"fabric": fabric, "internal": internal, "total_s": total}

    # -- presentation ---------------------------------------------------
    def rows(self) -> list[tuple]:
        """Per-instance ``(name, steps, wall_s, dnn_s, construction_s,
        solving_s, chem_work, iters, port_msgs, port_bytes,
        internal_msgs)`` tuples."""
        out = []
        for c in self.instances:
            internal_msgs = (c.internal_comm or {}).get("messages", 0)
            out.append((c.name, c.steps, c.wall_time, c.timings.dnn,
                        c.timings.construction, c.timings.solving,
                        c.chemistry_work, c.solver_iterations,
                        c.port_messages, c.port_bytes, internal_msgs))
        return out

    def table(self) -> list[str]:
        """The cost report as aligned text lines (header, one line per
        instance, and a totals/imbalance footer)."""
        hdr = (f"{'instance':<14} {'steps':>5} {'wall[s]':>9} "
               f"{'dnn[s]':>8} {'constr[s]':>9} {'solve[s]':>9} "
               f"{'chem work':>10} {'iters':>7} "
               f"{'msgs':>5} {'KiB':>8} {'int msgs':>8}")
        lines = [hdr, "-" * len(hdr)]
        for (name, steps, wall, dnn, cons, solv, work, iters,
             msgs, nbytes, internal) in self.rows():
            lines.append(
                f"{name:<14} {steps:>5d} {wall:>9.4f} {dnn:>8.4f} "
                f"{cons:>9.4f} {solv:>9.4f} {work:>10.1f} {iters:>7d} "
                f"{msgs:>5d} {nbytes / 1024:>8.1f} {internal:>8d}")
        lines.append("-" * len(hdr))
        lines.append(
            f"{'total':<14} {'':>5} {self.total_wall:>9.4f} "
            f"{'':>8} {'':>9} {'':>9} {self.total_chemistry_work:>10.1f} "
            f"{'':>7} {self.fabric['messages']:>5d} "
            f"{self.fabric['bytes'] / 1024:>8.1f} {'':>8}")
        lines.append(
            f"wall imbalance {self.wall_imbalance:.3f}   "
            f"chemistry imbalance {self.chemistry_imbalance:.3f}")
        return lines
