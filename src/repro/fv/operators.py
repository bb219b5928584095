"""Implicit (fvm) and explicit (fvc) finite-volume operators.

Implicit operators return an :class:`FVMatrix` (LDU matrix + source)
discretizing the named term; a transport equation is assembled by
summing operators, mirroring OpenFOAM:

    eqn = fvm_ddt(rho, psi, dt) + fvm_div(phi, psi) - fvm_laplacian(gamma, psi)
    eqn.source += explicit_terms * V
    psi_new, result = eqn.solve(...)

Sign convention: the equation is ``A psi = b`` with every term moved to
the left-hand side, i.e. ``fvm_laplacian`` carries the discretization
of ``div(gamma grad psi)`` and is *subtracted* when it appears as
``- laplacian`` in the PDE (use the ``-`` operator).
"""

from __future__ import annotations

import numpy as np

from ..runtime import alloc
from ..solvers.blocked import LocalSystem, krylov_solve
from ..solvers.controls import SolverControls, SolverResult
from ..sparse.ldu import LDUMatrix
from .fields import MultiVolField, SurfaceField, VolField

__all__ = [
    "CoupledTransportEquation",
    "FVMatrix",
    "assemble_transport",
    "fvm_ddt",
    "fvm_div",
    "fvm_laplacian",
    "fvm_sp",
    "fvc_div",
    "fvc_grad",
    "fvc_laplacian",
    "fvc_surface_integral",
]

_DEFAULT_CONTROLS = SolverControls(tolerance=1e-7, rel_tol=1e-3,
                                   max_iterations=500)


class FVMatrix:
    """An implicit FV equation: ``A psi = source``.

    ``workspace`` (an :class:`~repro.fv.workspace.EquationWorkspace`)
    marks an equation assembled into persistent buffers: its solve
    reuses the workspace's cached preconditioners and Krylov vector
    pool instead of allocating per call.
    """

    def __init__(self, field: VolField, a: LDUMatrix, source: np.ndarray,
                 workspace=None):
        self.field = field
        self.a = a
        self.source = np.asarray(source, dtype=float)
        self.workspace = workspace

    # -- algebra ------------------------------------------------------
    def __add__(self, other: "FVMatrix") -> "FVMatrix":
        if other.field is not self.field:
            raise ValueError("operands discretize different fields")
        alloc.count()
        return FVMatrix(self.field, self.a + other.a, self.source + other.source)

    def __sub__(self, other: "FVMatrix") -> "FVMatrix":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "FVMatrix":
        m = self.a.copy()
        m.diag *= scalar
        m.lower *= scalar
        m.upper *= scalar
        alloc.count()
        return FVMatrix(self.field, m, self.source * scalar)

    __rmul__ = __mul__

    # -- under-relaxation (OpenFOAM's relax()) -------------------------
    def relax(self, factor: float) -> None:
        """Implicit under-relaxation: strengthen the diagonal and
        compensate the source with the current field values."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("relaxation factor in (0, 1]")
        d_old = self.a.diag.copy()
        self.a.diag /= factor
        self.source += (self.a.diag - d_old) * self.field.values

    def residual(self, x: np.ndarray | None = None) -> np.ndarray:
        x = self.field.values if x is None else x
        return self.source - self.a.matvec(x)

    # -- solve ----------------------------------------------------------
    def solve(
        self,
        solver: str = "auto",
        controls: SolverControls = _DEFAULT_CONTROLS,
        update: bool = True,
    ) -> tuple[np.ndarray, SolverResult]:
        """Solve the system; optionally write back into the field."""
        # a scalar equation is a blocked solve with one column
        x, results = _solve_local(
            self.a, self.source[:, None], self.field.values[:, None],
            solver, controls, self.workspace)
        x, res = x[:, 0], results[0]
        if update:
            self.field.values[:] = x
        return x, res


class CoupledTransportEquation:
    """k transport equations sharing one implicit operator.

    The species equations (and the momentum components) of the
    DeepFlame step discretize the same ``ddt + div(phi, .) -
    laplacian(gamma, .)`` operator — only right-hand sides and boundary
    *sources* differ.  This class assembles that LDU operator **once**
    for a :class:`MultiVolField` and carries an ``(n, k)`` source
    block, so the whole group is solved with one blocked Krylov solve
    (:func:`~repro.solvers.blocked.krylov_solve`) instead of k
    sequential assemble+solve passes.

    Columns must share the implicit part of their boundary conditions
    (same BC type per patch); :class:`MultiVolField` verifies this at
    assembly time and raises otherwise.

    ``workspace`` (an :class:`~repro.fv.workspace.EquationWorkspace`)
    makes the per-solve LDU->CSR conversion an O(nnz) value scatter
    into cached buffers and reuses preconditioners and the Krylov
    vector pool across solves.
    """

    def __init__(self, field: MultiVolField, a: LDUMatrix,
                 source: np.ndarray, workspace=None):
        self.field = field
        self.a = a
        self.source = np.asarray(source, dtype=float)
        self.workspace = workspace
        if self.source.shape != field.values.shape:
            raise ValueError("source block must match the field block")

    # -- assembly ------------------------------------------------------
    @classmethod
    def transport(
        cls,
        field: MultiVolField,
        rho: np.ndarray | float,
        dt: float,
        phi: SurfaceField | None = None,
        gamma: np.ndarray | float | None = None,
        rho_old: np.ndarray | float | None = None,
        old_values: np.ndarray | None = None,
        scheme: str = "upwind",
    ) -> "CoupledTransportEquation":
        """Assemble ``ddt(rho, .) + div(phi, .) - laplacian(gamma, .)``
        once for all k columns.

        Term for term this reproduces ``fvm_ddt + fvm_div -
        fvm_laplacian`` (same coefficients, same sign convention); the
        boundary contributions enter the shared diagonal once and the
        per-column sources as an ``(n, k)`` block.
        """
        mesh = field.mesh
        n, k = field.values.shape
        a = LDUMatrix.from_mesh(mesh)
        b = np.zeros((n, k), order="F")   # its (k, n) transpose is a view
        alloc.count()
        assemble_transport(a, b, field, rho, dt, phi=phi, gamma=gamma,
                           rho_old=rho_old, old_values=old_values,
                           scheme=scheme)
        return cls(field, a, b)

    # -- solve ---------------------------------------------------------
    def residual(self, x: np.ndarray | None = None) -> np.ndarray:
        x = self.field.values if x is None else x
        return self.source - self.a.matvec_multi(x)

    def solve(
        self,
        solver: str = "auto",
        controls: SolverControls = _DEFAULT_CONTROLS,
        update: bool = True,
    ) -> tuple[np.ndarray, list[SolverResult]]:
        """One blocked Krylov solve for all k columns.

        Returns the ``(n, k)`` solution block and one per-column
        :class:`SolverResult`.  The operator is converted to CSR once
        so every iteration applies it to the whole block with a single
        sparse-times-dense product.
        """
        x, results = _solve_local(self.a, self.source, self.field.values,
                                  solver, controls, self.workspace)
        if update:
            self.field.values[:] = x
        return x, results


def _solve_local(a: LDUMatrix, source: np.ndarray, x0: np.ndarray,
                 solver: str, controls: SolverControls,
                 ws) -> tuple[np.ndarray, list[SolverResult]]:
    """What :meth:`FVMatrix.solve` (``k = 1``) and
    :meth:`CoupledTransportEquation.solve` hand
    :func:`~repro.solvers.blocked.krylov_solve`: the operator as a
    :class:`~repro.solvers.blocked.LocalSystem` on the workspace ``ws``
    (cached CSR pattern, preconditioners, solution-block pool).

    ``"auto"`` picks PCG for an exactly symmetric operator -- the test
    PCG itself applies -- and PBiCGStab otherwise (cached: correctors
    re-solve the same :class:`LDUMatrix` instance, whose off-diagonal
    symmetry does not change between solves).
    """
    if solver == "auto":
        solver = "PCG" if a.is_symmetric_cached(tol=0.0) else "PBiCGStab"
    return krylov_solve(LocalSystem(a, ws), source, x0, solver, controls,
                        ws.krylov if ws else None)


# ----------------------------------------------------------------------
def assemble_transport(
    a: LDUMatrix,
    b: np.ndarray,
    field: VolField | MultiVolField,
    rho: np.ndarray | float,
    dt: float,
    phi: SurfaceField | None = None,
    gamma: np.ndarray | float | None = None,
    rho_old: np.ndarray | float | None = None,
    old_values: np.ndarray | None = None,
    scheme: str = "upwind",
) -> None:
    """Fused single-pass assembly of ``ddt + div - laplacian`` into
    preallocated, zeroed ``(a, b)`` buffers, written in place.

    This is the one implementation behind both assembly paths: the
    allocating :meth:`CoupledTransportEquation.transport` hands it
    fresh buffers, the zero-reassembly
    :class:`~repro.fv.workspace.EquationWorkspace` hands it persistent
    ones -- so the two paths are *bitwise* identical by construction.
    ``field`` may be a :class:`MultiVolField` with ``b`` of shape
    ``(n, k)`` (the k columns share the operator; only their boundary
    sources differ) or a scalar :class:`VolField` with ``b`` of shape
    ``(n,)`` -- the scalar case fuses what ``fvm_ddt + fvm_div -
    fvm_laplacian`` builds through three temporaries and an add chain.

    Every face -> cell reduction is one product with
    :meth:`~repro.mesh.unstructured.UnstructuredMesh.face_operators`;
    the boundary faces' contributions are collected per face and
    reduced once.
    """
    mesh = field.mesh
    n = mesh.n_cells
    nif = mesh.n_internal_faces
    v = mesh.cell_volumes
    multi = b.ndim == 2
    dd, du, dl = a.diag, a.upper, a.lower

    # per-face contributions of both terms to the owner's / neighbour's
    # diagonal and (boundary faces) to the sources, reduced once at the end
    to_own = np.zeros(nif)
    to_nb = np.zeros(nif)
    diag_b = np.zeros(mesh.n_boundary_faces)
    src_b = np.zeros((mesh.n_boundary_faces,) + b.shape[1:])

    # ddt
    rho_b = np.broadcast_to(np.asarray(rho, float), (n,))
    rho_old_b = rho_b if rho_old is None else np.broadcast_to(
        np.asarray(rho_old, float), (n,))
    old = field.values if old_values is None else \
        np.asarray(old_values, float)
    dd += rho_b * v / dt
    ddt_old = rho_old_b * v / dt
    b += (ddt_old[:, None] if multi else ddt_old) * old

    deltas = mesh.boundary_delta_coeffs()

    # div (convection)
    if phi is not None:
        if scheme == "upwind":
            pos = np.maximum(phi.internal, 0.0)
            neg = np.minimum(phi.internal, 0.0)
        elif scheme == "linear":
            w = mesh.face_interpolation_weights()
            pos, neg = phi.internal * w, phi.internal * (1.0 - w)
        else:
            raise ValueError(f"unknown div scheme {scheme!r}")
        to_own += pos
        du += neg
        to_nb -= neg
        dl -= pos
        for p in mesh.patches:
            sl = slice(p.start - nif, p.start - nif + p.size)
            if multi:
                vi, vb = field.patch_value_coeffs(p.name, deltas[sl])
            else:
                vi, vb = field.boundary[p.name].value_coeffs(deltas[sl])
            phib = phi.boundary[sl]
            diag_b[sl] += phib * vi
            src_b[sl] -= phib[:, None] * vb if multi else phib * vb

    # - laplacian (diffusion), subtracted as in the PDE
    if gamma is not None:
        gamma_f = _face_gamma(mesh, gamma)
        coeff = _laplacian_coeff(mesh, gamma_f)
        du -= coeff
        dl -= coeff
        to_own += coeff
        to_nb += coeff
        mag_sf_b = mesh.face_area_mags()[nif:]
        for p in mesh.patches:
            sl = slice(p.start - nif, p.start - nif + p.size)
            if multi:
                gi, gb = field.patch_gradient_coeffs(p.name, deltas[sl])
            else:
                gi, gb = field.boundary[p.name].gradient_coeffs(deltas[sl])
            gsf = gamma_f[p.slice] * mag_sf_b[sl]
            diag_b[sl] -= gsf * gi
            src_b[sl] += gsf[:, None] * gb if multi else gsf * gb

    ops = mesh.face_operators()
    dd += ops.owner_sum(to_own) + ops.neighbour_sum(to_nb)
    if mesh.n_boundary_faces:
        dd += ops.boundary_sum(diag_b)
        b += ops.boundary_sum(src_b)


def fvm_ddt(rho: np.ndarray | float, field: VolField, dt: float,
            rho_old: np.ndarray | float | None = None,
            old_values: np.ndarray | None = None) -> FVMatrix:
    """Implicit Euler time derivative: ``d(rho psi)/dt``."""
    mesh = field.mesh
    v = mesh.cell_volumes
    rho = np.broadcast_to(np.asarray(rho, float), (mesh.n_cells,))
    rho_old_b = rho if rho_old is None else np.broadcast_to(
        np.asarray(rho_old, float), (mesh.n_cells,))
    old = field.values if old_values is None else old_values
    a = LDUMatrix.from_mesh(mesh)
    a.diag[:] = rho * v / dt
    alloc.count()
    return FVMatrix(field, a, rho_old_b * v / dt * old)


def _laplacian_coeff(mesh, gamma_f: np.ndarray) -> np.ndarray:
    """Internal-face diffusion coefficient gamma |Sf| / delta.

    The geometric factors (|Sf| and the delta coefficients) are
    memoized on the mesh, so repeated laplacian assemblies on the same
    mesh only pay the gamma product.
    """
    nif = mesh.n_internal_faces
    return gamma_f[:nif] * mesh.face_area_mags()[:nif] \
        * mesh.face_delta_coeffs()


def fvm_div(phi: SurfaceField, field: VolField, scheme: str = "upwind") -> FVMatrix:
    """Implicit divergence of ``phi * psi`` (``phi`` = face mass flux).

    ``scheme``: "upwind" (stable, the large-scale runs' choice) or
    "linear" (2nd order central).
    """
    mesh = field.mesh
    nif = mesh.n_internal_faces
    ops = mesh.face_operators()
    a = LDUMatrix.from_mesh(mesh)
    alloc.count()
    if scheme == "upwind":
        to_own, to_nb = np.maximum(phi.internal, 0.0), \
            np.minimum(phi.internal, 0.0)
    elif scheme == "linear":
        w = mesh.face_interpolation_weights()
        to_own, to_nb = phi.internal * w, phi.internal * (1.0 - w)
    else:
        raise ValueError(f"unknown div scheme {scheme!r}")
    # owner row: +phi * psi_f ; neighbour row: -phi * psi_f
    a.diag += ops.owner_sum(to_own) - ops.neighbour_sum(to_nb)
    a.upper += to_nb
    a.lower -= to_own

    # Boundary faces: psi_f from the BC, flux from phi.
    deltas = mesh.boundary_delta_coeffs()
    vi, vb = np.empty(mesh.n_boundary_faces), np.empty(mesh.n_boundary_faces)
    for p in mesh.patches:
        sl = slice(p.start - nif, p.start - nif + p.size)
        vi[sl], vb[sl] = field.boundary[p.name].value_coeffs(deltas[sl])
    a.diag += ops.boundary_sum(phi.boundary * vi)
    return FVMatrix(field, a, -ops.boundary_sum(phi.boundary * vb))


def fvm_laplacian(gamma: np.ndarray | float, field: VolField) -> FVMatrix:
    """Implicit Laplacian ``div(gamma grad psi)``.

    ``gamma`` may be a scalar, a cell array (interpolated to faces) or
    a face array of length ``n_faces``.
    """
    mesh = field.mesh
    nif = mesh.n_internal_faces
    ops = mesh.face_operators()
    gamma_f = _face_gamma(mesh, gamma)
    a = LDUMatrix.from_mesh(mesh)
    alloc.count()

    coeff = _laplacian_coeff(mesh, gamma_f)
    a.upper[:] = coeff
    a.lower[:] = coeff
    a.diag -= ops.owner_sum(coeff) + ops.neighbour_sum(coeff)

    deltas = mesh.boundary_delta_coeffs()
    gi, gb = np.empty(mesh.n_boundary_faces), np.empty(mesh.n_boundary_faces)
    for p in mesh.patches:
        sl = slice(p.start - nif, p.start - nif + p.size)
        gi[sl], gb[sl] = field.boundary[p.name].gradient_coeffs(deltas[sl])
    gsf = gamma_f[nif:] * mesh.face_area_mags()[nif:]
    a.diag += ops.boundary_sum(gsf * gi)
    return FVMatrix(field, a, -ops.boundary_sum(gsf * gb))


def fvm_sp(coeff: np.ndarray | float, field: VolField) -> FVMatrix:
    """Implicit volumetric source ``coeff * psi`` (OpenFOAM fvm::Sp)."""
    mesh = field.mesh
    a = LDUMatrix.from_mesh(mesh)
    a.diag[:] = np.broadcast_to(np.asarray(coeff, float), (mesh.n_cells,)) \
        * mesh.cell_volumes
    alloc.count()
    return FVMatrix(field, a, np.zeros(mesh.n_cells))


def _face_gamma(mesh, gamma) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim == 0:
        return np.full(mesh.n_faces, float(gamma))
    if gamma.shape[0] == mesh.n_faces:
        return gamma
    if gamma.shape[0] == mesh.n_cells:
        return mesh.face_operators().interpolate(gamma)
    raise ValueError("gamma must be scalar, per-cell or per-face")


# -- explicit operators -------------------------------------------------
def fvc_surface_integral(mesh, face_values: np.ndarray) -> np.ndarray:
    """Sum of signed face values into cells (divergence building block)."""
    return mesh.face_operators().surface_sum(face_values)


def fvc_div(phi: SurfaceField, field: VolField | None = None,
            scheme: str = "linear") -> np.ndarray:
    """Explicit divergence per unit volume.

    With ``field=None``: div(phi) itself.  With a field: div(phi psi)
    using the requested face interpolation.
    """
    mesh = phi.mesh
    if field is None:
        face_vals = phi.values
    else:
        nif = mesh.n_internal_faces
        if scheme == "upwind":
            up = np.where(phi.internal >= 0.0,
                          field.values[mesh.owner[:nif]],
                          field.values[mesh.neighbour])
            face_psi = np.concatenate([up, field.boundary_face_values()])
        else:
            face_psi = field.face_values()
        face_vals = phi.values * face_psi if face_psi.ndim == 1 \
            else phi.values[:, None] * face_psi
    out = fvc_surface_integral(mesh, face_vals)
    out /= mesh.cell_volumes[:, None] if face_vals.ndim == 2 \
        else mesh.cell_volumes
    return out


def fvc_grad(field: VolField) -> np.ndarray:
    """Green-Gauss cell gradient: shape ``(n_cells, 3)`` for scalars,
    ``(n_cells, 3, 3)`` for vectors (gradient of each component)."""
    mesh = field.mesh
    fv = field.face_values()
    if field.is_vector:
        face_t = mesh.face_areas[:, :, None] * fv[:, None, :]
    else:
        face_t = mesh.face_areas * fv[:, None]
    acc = fvc_surface_integral(mesh, face_t)
    vol = mesh.cell_volumes
    acc /= vol[:, None, None] if field.is_vector else vol[:, None]
    return acc


def fvc_laplacian(gamma, field: VolField) -> np.ndarray:
    """Explicit Laplacian div(gamma grad psi) per unit volume."""
    mesh = field.mesh
    nif = mesh.n_internal_faces
    gamma_f = _face_gamma(mesh, gamma)
    grad_n = (field.values[mesh.neighbour] - field.values[mesh.owner[:nif]]) \
        * mesh.face_delta_coeffs()
    mag_sf = mesh.face_area_mags()
    deltas = mesh.boundary_delta_coeffs()
    flux = np.empty(mesh.n_faces)
    flux[:nif] = gamma_f[:nif] * mag_sf[:nif] * grad_n
    for p in mesh.patches:
        sl = slice(p.start - nif, p.start - nif + p.size)
        cells = mesh.owner[p.slice]
        gi, gb = field.boundary[p.name].gradient_coeffs(deltas[sl])
        flux[p.slice] = gamma_f[p.slice] * mag_sf[p.slice] * (
            gi * field.values[cells] + gb)
    return fvc_surface_integral(mesh, flux) / mesh.cell_volumes
