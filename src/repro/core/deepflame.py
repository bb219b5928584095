"""The DeepFlame solver: implicit FV transport + surrogate (or direct)
chemistry and real-fluid properties (Fig. 2's time-marching loop).

Per time step:

1. **Properties** -- ``(h, p, Y) -> rho, T, mu, alpha, cp`` via PRNet
   or the direct Peng-Robinson path ("DNN" component),
2. **Chemistry** -- advance Y over dt through a batched backend
   (``repro.chemistry.backends``: ODENet surrogate, per-cell BDF,
   batched direct, or hybrid; operator splitting at constant
   enthalpy; also "DNN"),
3. **Scalar transport** -- implicit ddt + div - laplacian for the
   n_species mass fractions and the enthalpy, which share one operator
   (unity Lewis number): one blocked (multi-RHS) Krylov solve, h the
   last column,
4. **Momentum + pressure** -- PISO-style predictor (the 3 components
   again share one operator and are solved blocked) + compressible
   pressure correction with the EoS compressibility
   psi = (drho/dp)_T.

Every equation is assembled in one fused pass into the persistent
buffers of an :class:`~repro.fv.workspace.EquationWorkspace` (LDU
coefficients, sources, CSR pattern, cached preconditioners, Krylov
vector pool), so a warm step allocates nothing on the hot path.

Every step records the paper's component timings (DNN / Construction /
Solving / Other) plus solver flop counts -- this instrumented breakdown
is what the Fig. 11 bench measures at laptop scale.

The step is split into reusable **physics stages** -- per-cell updates
(``stage_properties`` / ``stage_chemistry``), equation assemblies
(``assemble_*_eqn``) and post-solve updates (``finish_*``) -- and the
order they run in is written once, in :func:`repro.core.step.advance_step`.
:meth:`DeepFlameSolver.step` hosts itself through it (every row owned,
nothing to exchange, each equation solved locally); the
domain-decomposed driver (:class:`repro.dist.solver.DecomposedSolver`) runs
one instance of this class per subdomain through the same sequence
with halo exchanges and distributed Krylov solves plugged in.
"""

from __future__ import annotations

import numpy as np

from ..chemistry.backends.base import ChemistryBackend
from ..fv.fields import MultiVolField, SurfaceField, VolField
from ..fv.operators import (
    CoupledTransportEquation,
    FVMatrix,
    fvc_grad,
    fvc_surface_integral,
)
from ..fv.workspace import EquationWorkspace
from .cases import Case
from .chemistry_source import BackendChemistry
from .properties import DirectRealFluidProperties
from .settings import SolverSettings, build_chemistry
from .step import (
    PROP_FIELDS,
    StageTimer,
    StepDiagnostics,
    StepTimings,
    advance_step,
)

__all__ = ["FIELDS", "STATE_ATTRS", "StepTimings", "StepDiagnostics",
           "DeepFlameSolver", "check_state"]

#: The flow state's live cell arrays by name (``p`` / ``u`` are the
#: fields' values, ``T`` is ``props.temperature``): the one table every
#: snapshot, restore and gather reads.
FIELDS = {
    "y": lambda s: s.y,
    "h": lambda s: s.h,
    "p": lambda s: s.p.values,
    "u": lambda s: s.u.values,
    "rho": lambda s: s.rho,
    "T": lambda s: s.props.temperature,
}


#: a snapshot's non-array entries, kept by reference (a step builds new
#: timings and diagnostics and never mutates old ones)
STATE_ATTRS = ("current_time", "step_count", "last_timings", "last_diag")


def check_state(shapes: dict[str, tuple], snap: dict) -> None:
    """Raise ``ValueError`` unless ``snap`` holds the
    :data:`STATE_ATTRS` and an array of each of ``shapes`` under its
    key: a restore must neither broadcast nor apply part of a
    snapshot."""
    bad = [k for k in STATE_ATTRS if k not in snap] + [
        k for k, shape in shapes.items() if np.shape(snap.get(k)) != shape]
    if bad:
        raise ValueError(
            f"snapshot does not fit this solver's mesh or layout "
            f"(entries {', '.join(bad)})")


class DeepFlameSolver:
    """Compressible low-Mach reactive solver over a :class:`Case`.

    ``settings`` is the whole configuration (the defaults when
    ``None``).  ``properties`` and ``chemistry`` are injected objects:
    the property evaluator (direct Peng-Robinson by default) and a
    chemistry backend or adapter replacing the one
    ``settings.chemistry`` describes.
    """

    def __init__(
        self,
        case: Case,
        settings: SolverSettings | None = None,
        *,
        properties=None,
        chemistry=None,
    ):
        if settings is None:
            settings = SolverSettings()
        if settings.is_decomposed:
            raise ValueError(
                f"settings.ranks = {settings.ranks}: use DecomposedSolver "
                f"(or repro.core.settings.build_solver) for decomposed runs")
        self.settings = settings
        self.case = case
        self.mesh = case.mesh
        self.mech = case.mech
        self.properties = properties or DirectRealFluidProperties(case.mech)
        if chemistry is None:
            chemistry = build_chemistry(settings, case.mech)
        # Each solver holds its own stats adapter, so ranks handed one
        # shared raw backend keep separate statistics.
        if isinstance(chemistry, ChemistryBackend):
            chemistry = BackendChemistry(chemistry)
        self.chemistry = chemistry
        self.scalar_controls = settings.scalar_controls
        self.pressure_controls = settings.pressure_controls
        self.n_correctors = settings.n_correctors
        self.solve_momentum = settings.solve_momentum
        # One workspace owns the persistent LDU/source buffers, the CSR
        # pattern, cached preconditioners and the Krylov vector pool.
        self._ws = EquationWorkspace(self.mesh)

        # the solver owns its state: stepping never writes into `case`
        self.u = case.velocity.copy()
        self.p = case.pressure.copy()
        self.y = np.array(case.mass_fractions, dtype=float)
        # Initialize enthalpy/properties consistently.
        t0 = np.array(case.temperature, dtype=float)
        self.h = self.properties.h_from_t(t0, self.p.values, self.y)
        self.props = self.properties.evaluate(
            self.h, self.p.values, self.y, t_guess=t0)
        self.rho = self.props.rho.copy()
        self.phi = self._face_mass_flux()
        self.current_time = 0.0
        self.step_count = 0
        self.last_timings = StepTimings()
        self.last_diag: StepDiagnostics | None = None

    # -- helpers --------------------------------------------------------
    @property
    def temperature(self) -> np.ndarray:
        """The current temperature field (``props.temperature``)."""
        return self.props.temperature

    def _face_mass_flux(self) -> SurfaceField:
        mesh = self.mesh
        rho_f = VolField("rho", mesh, self.rho).face_values()
        u_f = VolField("U", mesh, self.u.values,
                       boundary=self.u.boundary).face_values()
        flux = rho_f * np.einsum("fi,fi->f", u_f, mesh.face_areas)
        return SurfaceField("phi", mesh, flux)

    def _psi_field(self, cells=slice(None)) -> np.ndarray:
        """Compressibility psi = drho/dp at the current state, on the
        ``cells`` rows of a full-length array (the rest await exchange)."""
        psi = np.empty(self.mesh.n_cells)
        psi[cells] = np.maximum(self.properties.psi(
            self.props.temperature[cells], self.p.values[cells],
            self.y[cells]), 1e-9)
        return psi

    # -- per-cell stages ---------------------------------------------------
    def stage_properties(self, tm: StepTimings, cells=None) -> None:
        """Property evaluation ("DNN" component) into ``self.props``;
        the step sequence adopts ``props.rho`` as the new density once
        the ghost rows are in.

        With ``cells``, only those rows are recomputed: the decomposed
        driver evaluates the owned rows and exchanges the ghost rows, as
        only the owner's value keeps a cut face bitwise-consistent.
        """
        with StageTimer(tm, "dnn"):
            if cells is None:
                self.props = self.properties.evaluate(
                    self.h, self.p.values, self.y,
                    t_guess=self.props.temperature)
            else:
                part = self.properties.evaluate(
                    self.h[cells], self.p.values[cells], self.y[cells],
                    t_guess=self.props.temperature[cells])
                for name in PROP_FIELDS:
                    getattr(self.props, name)[cells] = getattr(part, name)

    def stage_chemistry(self, dt: float, tm: StepTimings,
                        cells=None) -> None:
        """Chemistry at constant (h, p) on ``cells`` (all by default);
        the decomposed driver passes the owned rows, and no later stage
        reads the ghost rows of Y."""
        with StageTimer(tm, "dnn"):
            if cells is None:
                _, y_new = self.chemistry.advance(
                    self.props.temperature, self.p.values, self.y, dt)
                self.y = np.asarray(y_new, dtype=float)
            else:
                _, y_new = self.chemistry.advance(
                    self.props.temperature[cells], self.p.values[cells],
                    self.y[cells], dt)
                self.y[cells] = np.asarray(y_new, dtype=float)

    # -- assembly / finish stages ------------------------------------------
    def assemble_species_eqn(self, dt: float, rho_old: np.ndarray,
                             tm: StepTimings) -> CoupledTransportEquation:
        """The n_species mass fractions, then the enthalpy (column
        ``ns``), as one blocked equation: unity Lewis number gives every
        column the diffusivity ``rho * alpha``, so all share one operator."""
        ns = self.mech.n_species
        with StageTimer(tm, "construction"):
            block = self._ws.values(ns + 1)
            block[:, :ns] = self.y
            block[:, ns] = self.h
            yh = MultiVolField(
                [*(f"Y_{s}" for s in self.mech.species_names), "h"],
                self.mesh, block)
            return self._ws.transport_multi(
                yh, self.rho, dt, phi=self.phi,
                gamma=self.rho * self.props.alpha, rho_old=rho_old,
                scheme="upwind")

    def finish_species(self, yh: np.ndarray, tm: StepTimings,
                       cells=slice(None)) -> None:
        """Adopt a solved (Y, h) block: column ``ns`` is the enthalpy,
        taken as solved; the mass fractions are clipped + renormalized."""
        ns = self.mech.n_species
        with StageTimer(tm, "other"):
            self.h[cells] = yh[:, ns]
            y = np.clip(yh[:, :ns], 0.0, 1.0)
            y /= y.sum(axis=1, keepdims=True)
            self.y[cells] = y

    def assemble_energy_eqn(self, dt: float, rho_old: np.ndarray,
                            tm: StepTimings) -> FVMatrix:
        """The enthalpy column of :meth:`assemble_species_eqn` alone.

        On no step path; kept while ``bench/layers.py`` wraps it by name."""
        h_field = VolField("h", self.mesh, self.h)
        with StageTimer(tm, "construction"):
            eqn = self._ws.transport(
                h_field, self.rho, dt, phi=self.phi,
                gamma=self.rho * self.props.alpha, rho_old=rho_old,
                scheme="upwind")
        return eqn

    def assemble_momentum_eqn(
            self, dt: float, rho_old: np.ndarray, grad_p: np.ndarray,
            tm: StepTimings) -> tuple[CoupledTransportEquation, np.ndarray]:
        """The 3 momentum components as one blocked equation; returns
        ``(eqn, r_au)`` with ``r_au = V / diag(A)`` (the PISO 1/A)."""
        mesh = self.mesh
        with StageTimer(tm, "construction"):
            uf = MultiVolField.from_vector(self.u)
            eqn = self._ws.transport_multi(
                uf, self.rho, dt, phi=self.phi, gamma=self.props.mu,
                rho_old=rho_old, scheme="upwind")
            eqn.source -= grad_p * mesh.cell_volumes[:, None]
            r_au = mesh.cell_volumes / eqn.a.diag
        return eqn, r_au

    def assemble_pressure_eqn(
            self, dt: float, rho_old: np.ndarray, r_au: np.ndarray,
            psi: np.ndarray, grad_p: np.ndarray,
            tm: StepTimings) -> tuple[FVMatrix, dict]:
        """One PISO corrector's pressure equation.

        Returns ``(p_eqn, aux)``; ``aux`` carries the face fields and
        the pre-solve pressure that :meth:`finish_pressure` consumes.
        """
        mesh = self.mesh
        with StageTimer(tm, "construction"):
            hby_a = self.u.values + r_au[:, None] * grad_p
            rho_f = VolField("rho", mesh, self.rho).face_values()
            hby_a_f = VolField("HbyA", mesh, hby_a,
                               boundary=self.u.boundary).face_values()
            phi_hby_a = rho_f * np.einsum("fi,fi->f", hby_a_f,
                                          mesh.face_areas)
            r_au_f = VolField("rAU", mesh, r_au).face_values()
            # ddt(psi, p) is the implicit psi/dt diagonal plus the
            # explicit psi*p*V/dt source term in one fused pass.
            p_eqn = self._ws.transport(self.p, psi, dt,
                                       gamma=rho_f * r_au_f)
            p_eqn.source += (
                -(self.rho - rho_old) * mesh.cell_volumes / dt
                - fvc_surface_integral(mesh, phi_hby_a))
            aux = {"hby_a": hby_a, "rho_f": rho_f, "r_au_f": r_au_f,
                   "phi_hby_a": phi_hby_a, "p_old": self.p.values.copy()}
        return p_eqn, aux

    def finish_pressure(self, dt: float, r_au: np.ndarray, psi: np.ndarray,
                        aux: dict, tm: StepTimings) -> np.ndarray:
        """Post-solve corrector updates: conservative face flux,
        velocity and density corrections.  Returns the new pressure
        gradient (input to the next corrector)."""
        mesh = self.mesh
        with StageTimer(tm, "other"):
            nif = mesh.n_internal_faces
            coeff = (aux["rho_f"] * aux["r_au_f"])[:nif] \
                * mesh.face_area_mags()[:nif] * mesh.face_delta_coeffs()
            dp_f = self.p.values[mesh.neighbour] \
                - self.p.values[mesh.owner[:nif]]
            new_flux = aux["phi_hby_a"].copy()
            new_flux[:nif] -= coeff * dp_f
            self.phi = SurfaceField("phi", mesh, new_flux)
            grad_p = fvc_grad(self.p)
            self.u.values[:] = aux["hby_a"] - r_au[:, None] * grad_p
            self.rho = self.rho + psi * (self.p.values - aux["p_old"])
        return grad_p

    # -- one time step ---------------------------------------------------
    def step(self, dt: float) -> StepDiagnostics:
        """One time step: the shared sequence over this solver alone."""
        return advance_step(
            [(self, None)], dt, refresh=lambda per_rank: None,
            solve=self._solve,
            reduce=lambda parts, op: getattr(parts, op)(axis=0))

    def _solve(self, eqns, solver: str, controls) -> tuple[list, list]:
        """The serial solve hook: the one hosted equation's own solve,
        as ``([(n, k) block], [per-column results])``.  The block is a
        pooled workspace buffer, valid until the next solve."""
        x, results = eqns[0].solve(solver=solver, controls=controls,
                                   update=False)
        if x.ndim == 1:
            x, results = x[:, None], [results]
        return [x], results

    # -- flow state ------------------------------------------------------
    def gather(self, name: str, out: np.ndarray | None = None) -> np.ndarray:
        """A copy of one :data:`FIELDS` array (a serial solver owns
        every row), written into ``out`` when given."""
        a = FIELDS[name](self)
        if out is None:
            return a.copy()
        np.copyto(out, a)
        return out

    def _state_arrays(self) -> dict[str, np.ndarray]:
        """Every live array a snapshot copies, by snapshot key."""
        arrays = {name: get(self) for name, get in FIELDS.items()}
        arrays["phi"] = self.phi.values
        for f in PROP_FIELDS:
            if f != "temperature":      # the table's ``T``
                arrays[f"props.{f}"] = getattr(self.props, f)
        return arrays

    def _state_shapes(self) -> dict[str, tuple]:
        """The snapshot keys and the array shape each must carry."""
        return {k: a.shape for k, a in self._state_arrays().items()}

    def state_snapshot(self) -> dict:
        """The flow state as a plain dict of copies.

        Holds a copy of every :data:`FIELDS` array, of ``phi`` and of the
        property set (keys ``props.<name>``), plus the
        :data:`STATE_ATTRS` (clocks, last timings and diagnostics).  Not
        captured: the chemistry backend's counters
        (``last_backend_stats``, work statistics, the hybrid backend's
        audit counter ``_audit_calls``), so restore + step is bitwise
        only while none of them feeds the step (chemistry ``none`` or
        ``direct``).
        """
        snap = {k: a.copy() for k, a in self._state_arrays().items()}
        snap.update((k, getattr(self, k)) for k in STATE_ATTRS)
        return snap

    def restore_state(self, snap: dict) -> None:
        """Put a :meth:`state_snapshot` back, in place.

        Every live array is overwritten (``np.copyto``) and keeps its
        identity; nothing is allocated and the snapshot stays valid.  A
        snapshot of another mesh or layout raises ``ValueError`` before
        anything is written.
        """
        check_state(self._state_shapes(), snap)
        for k, a in self._state_arrays().items():
            np.copyto(a, snap[k])
        for k in STATE_ATTRS:
            setattr(self, k, snap[k])

    # -- multi-step driver ------------------------------------------------
    def run(self, n_steps: int, dt: float) -> list[StepDiagnostics]:
        return [self.step(dt) for _ in range(n_steps)]

    def measure_workload(self, dt: float) -> dict:
        """One instrumented step -> per-cell workload numbers for the
        performance model (pde flops, solver iterations, ...).

        The probe step runs against a snapshot and the pre-call state
        is restored afterwards, so calibrating a solver does not
        perturb a subsequent :meth:`run`.
        """
        snap = self.state_snapshot()
        try:
            diag = self.step(dt)
            n = self.mesh.n_cells
            workload = {
                "pde_flops_per_cell": diag.solver_flops / n,
                "solver_iterations": diag.solver_iterations,
                "timings": self.last_timings,
                "n_cells": n,
            }
        finally:
            self.restore_state(snap)
        return workload
