"""Reference implementation of the transport stages of one time step.

:class:`OracleSolver` steps the same Fig.-2 loop as
:class:`repro.core.DeepFlameSolver` but takes the *other* branch of
every fork the production step once carried: each equation is composed
from the allocating public operators of :mod:`repro.fv`
(``fvm_ddt + fvm_div - fvm_laplacian``, ``fvm_sp``) instead of one
fused pass into :class:`~repro.fv.workspace.EquationWorkspace`
buffers, and nothing it solves borrows a workspace, so every solve
allocates its own preconditioner, CSR conversion and Krylov vectors.

Two solve orders:

* ``column_solves=False`` -- the (Y, h) block and the three momentum
  components each share one operator, so the per-column chains are
  stacked into one :class:`~repro.fv.CoupledTransportEquation` and
  solved blocked (no workspace).  The production step matches this to
  <= 1e-12 (frozen chemistry) / <= 1e-8 (live chemistry).
* ``column_solves=True`` -- every species, the enthalpy and every
  momentum component is solved on its own with ``FVMatrix.solve`` (its
  column of the stacked sources over the operator the stacking verified
  the columns share), the sequential order the blocked solve replaced.
  The production step matches this to solver accuracy (<= 1e-10 at a
  1e-12 tolerance).

The per-cell stages (properties, chemistry), the post-solve updates
(``finish_species`` / ``finish_pressure``) and the stage sequence
(:func:`repro.core.step.advance_step`) are the production ones: they
never forked, and the oracle plugs in by overriding the serial solve
hook.  It is slow on purpose:
``tests/test_hotpath.py`` and ``tests/test_core_solver.py`` compare the
production step against it.
"""

from __future__ import annotations

import numpy as np

from repro.core import DeepFlameSolver
from repro.fv import (
    CoupledTransportEquation,
    FVMatrix,
    MultiVolField,
    VolField,
    fvc_surface_integral,
    fvm_ddt,
    fvm_div,
    fvm_laplacian,
    fvm_sp,
)

__all__ = ["OracleSolver"]


class OracleSolver(DeepFlameSolver):
    """The production step over operator-chain assemblies."""

    def __init__(self, case, settings=None, *, column_solves=False,
                 **injected):
        super().__init__(case, settings, **injected)
        self.column_solves = column_solves
        self._ws = None     # an accidental fused assembly fails loudly

    # -- the operator chain ------------------------------------------------
    def _transport_chain(self, field: VolField, dt, rho_old, gamma):
        return (fvm_ddt(self.rho, field, dt, rho_old=rho_old)
                + fvm_div(self.phi, field, scheme="upwind")
                - fvm_laplacian(gamma, field))

    def _stacked(self, field: MultiVolField, dt, rho_old, gamma):
        """The k per-column chains as one blocked equation: the columns
        share the implicit operator, only their sources differ."""
        eqns = [self._transport_chain(field.column(j), dt, rho_old, gamma)
                for j in range(field.k)]
        for e in eqns[1:]:
            for part in ("diag", "lower", "upper"):
                assert np.array_equal(getattr(e.a, part),
                                      getattr(eqns[0].a, part))
        return CoupledTransportEquation(
            field, eqns[0].a, np.stack([e.source for e in eqns], axis=1))

    # -- assemblies ----------------------------------------------------------
    def assemble_species_eqn(self, dt, rho_old, tm):
        """The ns species chains and the enthalpy chain, stacked: the
        stacking asserts that h shares the species operator."""
        yh = MultiVolField(
            [f"Y_{s}" for s in self.mech.species_names] + ["h"], self.mesh,
            np.column_stack([self.y, self.h]))
        return self._stacked(yh, dt, rho_old, self.rho * self.props.alpha)

    def assemble_momentum_eqn(self, dt, rho_old, grad_p, tm):
        eqn = self._stacked(MultiVolField.from_vector(self.u), dt, rho_old,
                            self.props.mu)
        eqn.source -= grad_p * self.mesh.cell_volumes[:, None]
        return eqn, self.mesh.cell_volumes / eqn.a.diag

    def assemble_pressure_eqn(self, dt, rho_old, r_au, psi, grad_p, tm):
        mesh = self.mesh
        hby_a = self.u.values + r_au[:, None] * grad_p
        rho_f = VolField("rho", mesh, self.rho).face_values()
        hby_a_f = VolField("HbyA", mesh, hby_a,
                           boundary=self.u.boundary).face_values()
        phi_hby_a = rho_f * np.einsum("fi,fi->f", hby_a_f, mesh.face_areas)
        r_au_f = VolField("rAU", mesh, r_au).face_values()
        p_eqn = (fvm_sp(psi / dt, self.p)
                 - fvm_laplacian(rho_f * r_au_f, self.p))
        p_eqn.source += (psi * self.p.values * mesh.cell_volumes / dt
                         - (self.rho - rho_old) * mesh.cell_volumes / dt
                         - fvc_surface_integral(mesh, phi_hby_a))
        aux = {"hby_a": hby_a, "rho_f": rho_f, "r_au_f": r_au_f,
               "phi_hby_a": phi_hby_a, "p_old": self.p.values.copy()}
        return p_eqn, aux

    # -- column-by-column solves ---------------------------------------------
    def _solve(self, eqns, solver, controls):
        """The serial solve hook; with ``column_solves`` a blocked
        equation is solved one column at a time, each as its own scalar
        equation over the shared operator."""
        eqn = eqns[0]
        if not (self.column_solves
                and isinstance(eqn, CoupledTransportEquation)):
            return super()._solve(eqns, solver, controls)
        xs, results = [], []
        for j in range(eqn.field.k):
            column = FVMatrix(eqn.field.column(j), eqn.a, eqn.source[:, j])
            x, res = column.solve(solver=solver, controls=controls,
                                  update=False)
            xs.append(x)
            results.append(res)
        return [np.stack(xs, axis=1)], results
