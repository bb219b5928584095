"""The Fig. 2 time step, written once.

:func:`advance_step` is the stage sequence -- properties -> chemistry
-> scalar transport (species + enthalpy, one block) -> momentum
predictor -> ``n_correctors`` x pressure -> diagnostics -- over the
``(rank solver, owned rows)`` pairs a driver *hosts*.  The per-cell
stages, the assemblies and the post-solve updates are methods of the
rank solvers (:class:`~repro.core.deepflame.DeepFlameSolver`); what a
decomposition changes is passed in:

* ``refresh(per_rank)`` -- fill the ghost rows of one array (or a list
  of arrays) per hosted rank from their owners,
* ``solve(eqns, solver, controls)`` -- solve the hosted ranks'
  equations as one system; returns one ``(n_owned, k)`` solution block
  per rank and one :class:`~repro.solvers.controls.SolverResult` per column,
* ``reduce(parts, op)`` -- combine a ``(hosted, m)`` array of per-rank
  partials over *all* ranks into ``(m,)``.

Chemistry needs no hook: each rank advances the cells it owns.

A serial solver hosts itself: one pair with ``cells=None`` (the branch
every per-cell stage already has), a no-op ``refresh``, its one
equation's own ``solve`` and numpy's axis-0 reductions.
:class:`~repro.dist.solver.DecomposedSolver` passes the halo exchanger, the
distributed Krylov solve and the communicator's allreduce.  Re-ordering
the stages is an edit to this function and nowhere else.

**Ghost rows.**  Per-cell stages are exact on owned rows only, and a
ghost row is read only through a face, so a decomposed step exchanges
just what a later face loop reads: the property set, ``[U, 1/A, grad
p, psi]`` after the predictor, and per corrector ``p``, then ``[U,
grad p]`` (``2 + 2 n_correctors`` exchanges).  No face loop reads Y or
h, so their ghost rows are never sent.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from ..fv.operators import fvc_grad
from ..runtime import alloc

__all__ = ["PROP_FIELDS", "StageTimer", "StepDiagnostics", "StepTimings",
           "advance_step"]

_log = logging.getLogger("repro.solvers")

#: property-set arrays whose ghost rows follow a per-cell evaluation
PROP_FIELDS = ("rho", "temperature", "mu", "alpha", "cp")


@dataclass
class StepTimings:
    """Wall time per component of one step (the Fig. 11 categories),
    plus per-stage *buffer allocation* counts (``alloc_*``): the number
    of fresh hot-path arrays (LDU coefficient sets, equation sources,
    CSR conversions, Krylov vectors, preconditioner state) the stage
    materialized.  A warm step reports zero construction/solving
    allocations; the profile reports print the counts per stage."""

    dnn: float = 0.0          # properties + chemistry (surrogate-able)
    construction: float = 0.0
    solving: float = 0.0
    other: float = 0.0
    alloc_dnn: int = 0
    alloc_construction: int = 0
    alloc_solving: int = 0
    alloc_other: int = 0

    @property
    def total(self) -> float:
        return self.dnn + self.construction + self.solving + self.other

    @property
    def total_allocs(self) -> int:
        return (self.alloc_dnn + self.alloc_construction
                + self.alloc_solving + self.alloc_other)

    def accumulate(self, other: "StepTimings") -> None:
        self.dnn += other.dnn
        self.construction += other.construction
        self.solving += other.solving
        self.other += other.other
        self.alloc_dnn += other.alloc_dnn
        self.alloc_construction += other.alloc_construction
        self.alloc_solving += other.alloc_solving
        self.alloc_other += other.alloc_other

    def rows(self) -> list[tuple[str, float, int]]:
        """``(stage, seconds, allocations)`` rows for profile tables."""
        return [("DNN/properties", self.dnn, self.alloc_dnn),
                ("Construction", self.construction, self.alloc_construction),
                ("Solving", self.solving, self.alloc_solving),
                ("Other", self.other, self.alloc_other)]


class StageTimer:
    """Times a block *and* attributes hot-path buffer allocations to
    one :class:`StepTimings` stage."""

    __slots__ = ("tm", "name", "t0", "a0")

    def __init__(self, tm: StepTimings, name: str):
        self.tm = tm
        self.name = name

    def __enter__(self) -> "StageTimer":
        self.t0 = time.perf_counter()
        self.a0 = alloc.snapshot()
        return self

    def __exit__(self, *exc) -> None:
        tm, name = self.tm, self.name
        setattr(tm, name, getattr(tm, name) + time.perf_counter() - self.t0)
        aname = "alloc_" + name
        setattr(tm, aname, getattr(tm, aname) + alloc.snapshot() - self.a0)


@dataclass
class StepDiagnostics:
    """Physical diagnostics after one step.

    ``solver_unconverged`` counts the columns, over every linear solve
    of the step, whose :class:`~repro.solvers.controls.SolverResult` came back
    ``converged=False`` (identical on every rank, since the results
    are); a non-zero count also logs one ``repro.solvers`` warning.
    """

    step: int
    time: float
    total_mass: float
    t_min: float
    t_max: float
    y_min: float
    y_max: float
    max_velocity: float
    solver_flops: int
    solver_iterations: int
    solver_unconverged: int = 0


def advance_step(hosted, dt: float, *, refresh, solve,
                 reduce) -> StepDiagnostics:
    """Advance the hosted rank solvers by one ``dt`` (collectively).

    ``hosted`` lists ``(rank solver, cells)`` pairs: ``cells`` is the
    slice of the solver's owned rows, or ``None`` when every row is
    owned.  See the module docstring for the three hooks.  Sets
    ``current_time`` / ``step_count`` / ``last_timings`` / ``last_diag``
    on every hosted solver and returns the (global) diagnostics.
    """
    tm = StepTimings()
    ranks = [r for r, _ in hosted]
    owned = [slice(None) if cells is None else cells for _, cells in hosted]
    lead = ranks[0]       # controls and clocks agree across the ranks
    solved: list[tuple[str, object]] = []

    def solve_for(labels, eqns, solver: str, controls) -> list:
        with StageTimer(tm, "solving"):
            xs, results = solve(eqns, solver, controls)
        solved.extend(zip(labels, results, strict=True))
        return xs

    # (1) properties on the owned rows, ghost rows by exchange
    for r, cells in hosted:
        r.stage_properties(tm, cells=cells)
    refresh([[getattr(r.props, f) for f in PROP_FIELDS] for r in ranks])
    rho_olds = [r.rho for r in ranks]
    for r in ranks:
        r.rho = r.props.rho.copy()

    # (2) chemistry on the owned rows only (never recomputed for ghosts)
    for r, cells in hosted:
        r.stage_chemistry(dt, tm, cells=cells)

    # (3) scalar transport: one blocked solve, Y then h (unity Lewis)
    eqns = [r.assemble_species_eqn(dt, rho_old, tm)
            for r, rho_old in zip(ranks, rho_olds)]
    xs = solve_for(["Y"] * lead.mech.n_species + ["h"], eqns, "PBiCGStab",
                   lead.scalar_controls)
    for r, rows, x in zip(ranks, owned, xs):
        r.finish_species(x, tm, cells=rows)

    # (4) momentum predictor + PISO pressure correctors
    if lead.solve_momentum:
        # psi = drho/dp at stage (1)'s T, the old p and the new Y
        psis = [r._psi_field(cells=rows) for r, rows in zip(ranks, owned)]
        grad_ps = [fvc_grad(r.p) for r in ranks]
        eqns, r_aus = zip(*(
            r.assemble_momentum_eqn(dt, rho_old, grad_p, tm)
            for r, rho_old, grad_p in zip(ranks, rho_olds, grad_ps)))
        xs = solve_for(["U"] * 3, eqns, "PBiCGStab", lead.scalar_controls)
        for r, rows, x in zip(ranks, owned, xs):
            r.u.values[rows] = x
        # ghost rows of U, 1/A, grad(p) and psi: a rank cannot form
        # them locally (ghost cells lack their full face sets)
        refresh([[r.u.values, r_au, grad_p, psi]
                 for r, r_au, grad_p, psi
                 in zip(ranks, r_aus, grad_ps, psis)])
        for _ in range(lead.n_correctors):
            eqns, auxs = zip(*(
                r.assemble_pressure_eqn(dt, rho_old, r_au, psi, grad_p, tm)
                for r, rho_old, r_au, psi, grad_p
                in zip(ranks, rho_olds, r_aus, psis, grad_ps)))
            xs = solve_for(["p"], eqns, "PCG", lead.pressure_controls)
            for r, rows, x in zip(ranks, owned, xs):
                r.p.values[rows] = x[:, 0]
            refresh([r.p.values for r in ranks])
            grad_ps = [r.finish_pressure(dt, r_au, psi, aux, tm)
                       for r, r_au, psi, aux
                       in zip(ranks, r_aus, psis, auxs)]
            refresh([[r.u.values, grad_p]
                     for r, grad_p in zip(ranks, grad_ps)])

    # diagnostics: three packed reductions over the owned rows
    sums = np.array([[(r.rho[rows] * r.mesh.cell_volumes[rows]).sum()]
                     for r, rows in zip(ranks, owned)])
    mins = np.array([[r.props.temperature[rows].min(), r.y[rows].min()]
                     for r, rows in zip(ranks, owned)])
    maxs = np.array([[r.props.temperature[rows].max(), r.y[rows].max(),
                      np.linalg.norm(r.u.values[rows], axis=1).max()]
                     for r, rows in zip(ranks, owned)])
    total_mass, = reduce(sums, "sum")
    t_min, y_min = reduce(mins, "min")
    t_max, y_max, u_max = reduce(maxs, "max")

    # fail loud: Krylov non-convergence is counted and named, once
    bad = [(name, res) for name, res in solved if not res.converged]
    if bad:
        name, worst = max(bad, key=lambda nr: nr[1].final_residual)
        _log.warning(
            "step %d: %d linear-solve column(s) did not converge; worst: "
            "%s equation, %s after %d iterations, final residual %.3e",
            lead.step_count + 1, len(bad), name, worst.solver,
            worst.iterations, worst.final_residual)

    diag = StepDiagnostics(
        step=lead.step_count + 1, time=lead.current_time + dt,
        total_mass=float(total_mass), t_min=float(t_min),
        t_max=float(t_max), y_min=float(y_min), y_max=float(y_max),
        max_velocity=float(u_max),
        solver_flops=sum(res.flops for _, res in solved),
        solver_iterations=sum(res.iterations for _, res in solved),
        solver_unconverged=len(bad))
    for r in ranks:
        r.current_time, r.step_count = diag.time, diag.step
        r.last_timings, r.last_diag = tm, diag
    return diag
