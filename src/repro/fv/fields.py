"""Volume and surface fields over an unstructured mesh."""

from __future__ import annotations

import numpy as np

from ..mesh.unstructured import UnstructuredMesh
from .boundary import BoundaryCondition, ZeroGradient

__all__ = ["VolField", "MultiVolField", "SurfaceField"]


class VolField:
    """A cell-centred field (scalar or 3-vector).

    Parameters
    ----------
    name:
        Field name (diagnostics).
    mesh:
        The mesh the field lives on.
    values:
        Cell values: shape ``(n_cells,)`` or ``(n_cells, 3)``.
    boundary:
        Patch name -> :class:`BoundaryCondition`; patches not listed
        default to zero-gradient.  Periodic wrap faces are internal
        faces and never appear here.
    """

    def __init__(
        self,
        name: str,
        mesh: UnstructuredMesh,
        values: np.ndarray,
        boundary: dict[str, BoundaryCondition] | None = None,
    ):
        self.name = name
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        if self.values.shape[0] != mesh.n_cells:
            raise ValueError(
                f"{name}: {self.values.shape[0]} values for {mesh.n_cells} cells"
            )
        boundary = dict(boundary or {})
        self.boundary: dict[str, BoundaryCondition] = {}
        for p in mesh.patches:
            self.boundary[p.name] = boundary.pop(p.name, ZeroGradient())
        if boundary:
            raise KeyError(f"unknown patches in BCs: {sorted(boundary)}")

    # ----------------------------------------------------------------
    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 2

    def copy(self, name: str | None = None) -> "VolField":
        f = VolField(name or self.name, self.mesh, self.values.copy())
        f.boundary = dict(self.boundary)
        return f

    def component(self, k: int) -> "VolField":
        """Extract one component of a vector field (shares BCs by
        projecting FixedValue vectors)."""
        from .boundary import FixedValue

        comp = VolField(f"{self.name}{'xyz'[k]}", self.mesh, self.values[:, k].copy())
        for pname, bc in self.boundary.items():
            if isinstance(bc, FixedValue) and np.asarray(bc.value).ndim >= 1:
                comp.boundary[pname] = FixedValue(np.asarray(bc.value, float)[..., k])
            else:
                comp.boundary[pname] = bc
        return comp

    # ----------------------------------------------------------------
    def boundary_face_values(self) -> np.ndarray:
        """Values on all boundary faces (patch order)."""
        mesh = self.mesh
        deltas = mesh.boundary_delta_coeffs()
        nif = mesh.n_internal_faces
        shape = (mesh.n_boundary_faces,) + self.values.shape[1:]
        out = np.empty(shape)
        for p in mesh.patches:
            sl = slice(p.start - nif, p.start - nif + p.size)
            cells = mesh.owner[p.slice]
            out[sl] = self.boundary[p.name].face_values(
                self.values[cells], deltas[sl]
            )
        return out

    def face_values(self) -> np.ndarray:
        """Linear interpolation to all faces (internal + boundary)."""
        out = self.mesh.face_operators().interpolate(self.values)
        out[self.mesh.n_internal_faces:] = self.boundary_face_values()
        return out

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def volume_integral(self) -> float | np.ndarray:
        v = self.mesh.cell_volumes
        if self.is_vector:
            return (self.values * v[:, None]).sum(axis=0)
        return float((self.values * v).sum())

    def volume_average(self):
        return self.volume_integral() / self.mesh.cell_volumes.sum()


class MultiVolField:
    """k scalar cell fields on one mesh, sharing the boundary machinery.

    The storage is a single ``(n_cells, k)`` array — column ``j`` is
    one scalar field (a species mass fraction, a velocity component).
    All columns share the mesh, the patch layout and — crucially for
    the shared-operator transport path — the *type* of boundary
    condition on each patch, so one implicit LDU operator serves every
    column and only the boundary *sources* differ per column
    (:class:`~repro.fv.operators.CoupledTransportEquation`).

    Parameters
    ----------
    names:
        One name per column (diagnostics).
    mesh:
        The shared mesh.
    values:
        Cell values, shape ``(n_cells, k)``.  The array is referenced,
        not copied, so solver write-backs update the caller's storage.
    boundary:
        One ``patch -> BoundaryCondition`` dict per column (or None for
        all-zero-gradient, the transported-scalar default).
    """

    def __init__(
        self,
        names: list[str],
        mesh: UnstructuredMesh,
        values: np.ndarray,
        boundary: list[dict[str, BoundaryCondition] | None] | None = None,
    ):
        self.names = list(names)
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("MultiVolField needs values of shape (n_cells, k)")
        if self.values.shape[0] != mesh.n_cells:
            raise ValueError(
                f"{self.values.shape[0]} rows for {mesh.n_cells} cells")
        if len(self.names) != self.values.shape[1]:
            raise ValueError(
                f"{len(self.names)} names for {self.values.shape[1]} columns")
        if boundary is None:
            boundary = [None] * self.k
        if len(boundary) != self.k:
            raise ValueError(f"{len(boundary)} boundary dicts for {self.k} "
                             "columns")
        self.boundary: list[dict[str, BoundaryCondition]] = []
        for bdict in boundary:
            bdict = dict(bdict or {})
            col: dict[str, BoundaryCondition] = {}
            for p in mesh.patches:
                col[p.name] = bdict.pop(p.name, ZeroGradient())
            if bdict:
                raise KeyError(f"unknown patches in BCs: {sorted(bdict)}")
            self.boundary.append(col)

    # ----------------------------------------------------------------
    @property
    def k(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_fields(cls, fields: list[VolField]) -> "MultiVolField":
        """Bundle scalar fields defined on the same mesh (values are
        copied into the packed ``(n, k)`` layout)."""
        if not fields:
            raise ValueError("need at least one field")
        mesh = fields[0].mesh
        if any(f.mesh is not mesh for f in fields):
            raise ValueError("all fields must share one mesh")
        if any(f.is_vector for f in fields):
            raise ValueError("only scalar fields can be bundled")
        packed = cls([f.name for f in fields], mesh,
                     np.stack([f.values for f in fields], axis=1))
        packed.boundary = [dict(f.boundary) for f in fields]
        return packed

    @classmethod
    def from_vector(cls, field: VolField) -> "MultiVolField":
        """The 3 components of a vector field as one multi-field
        (FixedValue vector BCs are projected per component)."""
        if not field.is_vector:
            raise ValueError(f"{field.name} is not a vector field")
        return cls.from_fields([field.component(c) for c in range(3)])

    def column(self, j: int) -> VolField:
        """Column ``j`` as a stand-alone :class:`VolField` (copy)."""
        f = VolField(self.names[j], self.mesh, self.values[:, j].copy())
        f.boundary = dict(self.boundary[j])
        return f

    def copy(self) -> "MultiVolField":
        f = MultiVolField(self.names, self.mesh, self.values.copy())
        f.boundary = [dict(b) for b in self.boundary]
        return f

    # -- shared-operator boundary coefficients -------------------------
    def patch_value_coeffs(self, patch_name: str, deltas: np.ndarray):
        """``(vi, vb)`` with the internal coefficient shared across
        columns: ``vi`` has shape ``(m,)``, ``vb`` shape ``(m, k)``.

        Raises if the columns' BCs disagree on the internal (implicit)
        coefficient — then they do not share an operator and must be
        solved per field.
        """
        vis, vbs = [], []
        for bdict in self.boundary:
            vi, vb = bdict[patch_name].value_coeffs(deltas)
            vis.append(vi)
            vbs.append(vb)
        return self._shared(patch_name, vis), np.stack(vbs, axis=1)

    def patch_gradient_coeffs(self, patch_name: str, deltas: np.ndarray):
        """Gradient analogue of :meth:`patch_value_coeffs`."""
        gis, gbs = [], []
        for bdict in self.boundary:
            gi, gb = bdict[patch_name].gradient_coeffs(deltas)
            gis.append(gi)
            gbs.append(gb)
        return self._shared(patch_name, gis), np.stack(gbs, axis=1)

    @staticmethod
    def _shared(patch_name: str, coeffs: list[np.ndarray]) -> np.ndarray:
        first = coeffs[0]
        for c in coeffs[1:]:
            if not np.array_equal(c, first):
                raise ValueError(
                    f"patch {patch_name!r}: boundary conditions differ in "
                    "their implicit coefficient across columns — the fields "
                    "do not share an operator")
        return first


class SurfaceField:
    """A face-centred field (e.g. the mass flux ``phi``)."""

    def __init__(self, name: str, mesh: UnstructuredMesh, values: np.ndarray):
        self.name = name
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        if self.values.shape[0] != mesh.n_faces:
            raise ValueError(
                f"{name}: {self.values.shape[0]} values for {mesh.n_faces} faces"
            )

    @property
    def internal(self) -> np.ndarray:
        return self.values[: self.mesh.n_internal_faces]

    @property
    def boundary(self) -> np.ndarray:
        return self.values[self.mesh.n_internal_faces:]
