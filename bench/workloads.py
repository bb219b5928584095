"""The six step workloads: seeded inputs -> ``Case`` + ``SolverSettings``.

The seed is an argument of the benchmark, never of the program: it
draws the interface width and the hot-spot size/temperature and sets
the partition and audit seeds, and the program then sees only the
resulting :class:`~repro.core.cases.Case` and
:class:`~repro.core.settings.SolverSettings` (plus the property
evaluator, which ``SolverSettings`` has no field for).

Mesh sizes and time steps are fixed by the issue and must not be
changed to fit a time cap; only the window count may shrink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WINDOW_STEPS", "Workload", "WORKLOADS", "Inputs", "build_inputs"]

#: steps per timing window.  Three is the longest window that stays
#: finite on every case (``core.stable_steps``); do not lengthen it.
WINDOW_STEPS = 3


@dataclass(frozen=True)
class Workload:
    """Static description of one workload (the seed fills in the rest)."""

    name: str
    why: str
    n: int
    dt: float
    real_fluid: bool
    chemistry: str = "none"
    hotspot: tuple[float, float] | None = None   # (t_hot, radius)
    seed_radicals: bool = False
    ranks: int = 0
    execution: str = "serial"
    #: share of the seeded perturbation this workload receives
    perturbation: float = 1.0
    #: every window ends in a bitwise-identical state.  False only for
    #: the hybrid backend, whose audit sample advances with a per-call
    #: counter by design (fresh cells are audited every step).
    repeatable_windows: bool = True

    @property
    def decomposed(self) -> bool:
        """Stepped by ``DecomposedSolver`` (no state restore exists)."""
        return self.ranks >= 2


WORKLOADS: dict[str, Workload] = {w.name: w for w in [
    Workload(
        "tgv_realfluid",
        "thermo (Peng-Robinson evaluate + psi) is ~90% of the step: the "
        "step every real-fluid user pays for and the layer to take down "
        "first",
        n=20, dt=1e-8, real_fluid=True),
    Workload(
        "tgv_transport",
        "ideal gas, 32768 cells, ~30 Krylov iterations/step: the one "
        "workload where assembly, CSR refresh, preconditioner and SpMV "
        "changes show and a thermo change must show ~nothing",
        n=32, dt=1e-6, real_fluid=False),
    Workload(
        "hotspot_direct",
        "radical-seeded 2000 K kernel through the graded RK4/ROS2 "
        "integrators, analytic Jacobians and kinetics kernels: chemistry "
        "leads the step",
        n=12, dt=1e-8, real_fluid=True, chemistry="direct",
        hotspot=(2000.0, 0.45), seed_radicals=True),
    Workload(
        "hotspot_hybrid",
        "same chemistry seam used differently: fp32 fused-GeLU inference "
        "+ domain gate + ~2% direct audits on the manifold the committed "
        "artifact was trained on; thermo still leads",
        # n=12 and a twentieth of the perturbation: the artifact was trained
        # on the n=12 hot-spot, and is within its 1e-6 audit tolerance
        # only close to it (see README, observation (d))
        n=12, dt=1e-8, real_fluid=True, chemistry="hybrid-trained",
        hotspot=(1600.0, 0.35), repeatable_windows=False,
        perturbation=0.05),
    Workload(
        "tgv_ranks2",
        "2 ranks stepped by the driver: the distributed Krylov solves are "
        "~97% of the step, nearly all of it the block preconditioner's "
        "sequential DIC sweeps; ROADMAP item 3 must hold this within noise",
        n=16, dt=1e-6, real_fluid=False, ranks=2),
    Workload(
        "tgv_ranks2_parallel",
        "identical to tgv_ranks2 but 2 forked workers over SharedMemComm: "
        "isolates WorkerPool dispatch, arena staging and barrier wait",
        n=16, dt=1e-6, real_fluid=False, ranks=2, execution="parallel"),
]}


@dataclass
class Inputs:
    """What the program is handed: nothing here names a workload."""

    case: object
    settings: object
    properties: object
    dt: float
    drawn: dict


def _seed_radicals(case) -> None:
    """Partially burn the hot kernel so its cells integrate stiffly
    (same recipe as ``benchmarks/bench_step_hotpath._seed_radicals``)."""
    idx = case.mech.species_index
    hot = case.temperature > 1500.0
    y = case.mass_fractions
    for sp, val in [("OH", 1e-3), ("H", 1e-4), ("O", 1e-4),
                    ("CO", 2e-2), ("H2O", 5e-2), ("CO2", 3e-2)]:
        y[hot, idx[sp]] = val
    y[hot] /= y[hot].sum(axis=1, keepdims=True)


def build_inputs(name: str, seed: int) -> Inputs:
    """Generate one workload's inputs from ``seed``."""
    from repro.core.cases import build_hotspot_tgv_case, build_tgv_case
    from repro.core.properties import (DirectRealFluidProperties,
                                       IdealGasProperties)
    from repro.core.settings import SolverSettings

    w = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    # drawn in a fixed order, so a seed means the same interface on
    # every workload
    unit = rng.uniform(-1.0, 1.0, size=3) * w.perturbation
    drawn = {
        "interface_width": float(0.1 * (1.0 + 0.1 * unit[0])),
        "radius_scale": float(1.0 + 0.04 * unit[1]),
        "t_hot_scale": float(1.0 + 0.025 * unit[2]),
    }
    if w.hotspot is None:
        case = build_tgv_case(n=w.n, interface_width=drawn["interface_width"])
    else:
        t_hot, radius = w.hotspot
        case = build_hotspot_tgv_case(
            n=w.n, t_hot=t_hot * drawn["t_hot_scale"],
            radius=radius * drawn["radius_scale"],
            interface_width=drawn["interface_width"])
        if w.seed_radicals:
            _seed_radicals(case)
    options = {"audit_seed": seed} if w.chemistry == "hybrid-trained" else {}
    settings = SolverSettings(
        chemistry=w.chemistry, chemistry_options=options, ranks=w.ranks,
        execution=w.execution, partition_seed=seed)
    properties = (DirectRealFluidProperties(case.mech) if w.real_fluid
                  else IdealGasProperties(case.mech))
    return Inputs(case, settings, properties, w.dt, drawn)
