"""Unstructured mesh with OpenFOAM-style face addressing.

The mesh is a collection of cells bounded by quadrilateral faces.
Faces are stored in the OpenFOAM convention:

* internal faces first (indices ``[0, n_internal)``), each with an
  ``owner`` and a ``neighbour`` cell (owner < neighbour is *not*
  required, but owner-to-neighbour defines the positive face normal);
* boundary faces after, grouped into named patches, each with an
  ``owner`` only.

This addressing is exactly what induces the LDU sparse-matrix layout
(:mod:`repro.sparse.ldu`) that the paper's solver optimizations act on.
Only quad-faced (hexahedral) cells are supported -- both the TGV box
and the synthetic rocket mesh are hex meshes, as are the vast majority
of production rocket-combustor meshes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .face_operators import FaceCellOperators

__all__ = ["Patch", "UnstructuredMesh"]


@dataclass(frozen=True)
class Patch:
    """A named boundary patch: faces ``[start, start+size)``."""

    name: str
    start: int
    size: int

    @property
    def slice(self) -> slice:
        return slice(self.start, self.start + self.size)


class UnstructuredMesh:
    """Polyhedral (hex) mesh with owner/neighbour face connectivity.

    Parameters
    ----------
    points:
        Vertex coordinates, shape ``(n_points, 3)``.
    face_nodes:
        Quad vertex indices per face, shape ``(n_faces, 4)``; internal
        faces first.
    owner:
        Owner cell of every face, shape ``(n_faces,)``.
    neighbour:
        Neighbour cell of each *internal* face, shape
        ``(n_internal,)``.
    patches:
        Boundary patches covering faces ``[n_internal, n_faces)``.
    geometry:
        Optional precomputed ``(face_centres, face_areas, cell_centres,
        cell_volumes)``; computed from the points otherwise.
    n_cells:
        Explicit cell count.  Needed when the highest-numbered cell may
        not own any face (e.g. halo cells of a subdomain mesh, which
        only touch their cut faces); inferred from ``owner`` otherwise.
    """

    def __init__(
        self,
        points: np.ndarray,
        face_nodes: np.ndarray,
        owner: np.ndarray,
        neighbour: np.ndarray,
        patches: list[Patch],
        geometry: tuple | None = None,
        n_cells: int | None = None,
    ):
        self.points = np.asarray(points, dtype=float)
        self.face_nodes = np.asarray(face_nodes, dtype=np.int64)
        self.owner = np.asarray(owner, dtype=np.int64)
        self.neighbour = np.asarray(neighbour, dtype=np.int64)
        self.patches = list(patches)
        self.n_faces = self.face_nodes.shape[0]
        self.n_internal_faces = self.neighbour.shape[0]
        if n_cells is not None:
            self.n_cells = int(n_cells)
        else:
            self.n_cells = int(self.owner.max()) + 1 if self.owner.size else 0
        self._check_patches()
        if geometry is not None:
            (self.face_centres, self.face_areas,
             self.cell_centres, self.cell_volumes) = geometry
        else:
            self._compute_geometry()

    # ----------------------------------------------------------------
    def _check_patches(self) -> None:
        covered = sum(p.size for p in self.patches)
        if covered != self.n_faces - self.n_internal_faces:
            raise ValueError(
                f"patches cover {covered} faces, expected "
                f"{self.n_faces - self.n_internal_faces} boundary faces"
            )
        pos = self.n_internal_faces
        for p in self.patches:
            if p.start != pos:
                raise ValueError(f"patch {p.name!r} not contiguous at {pos}")
            pos += p.size

    def _compute_geometry(self) -> None:
        """Face centres/areas and cell centres/volumes.

        Faces are decomposed into triangles around the vertex
        centroid; cells into pyramids from an estimated cell centre
        (OpenFOAM's algorithm).
        """
        pts = self.points[self.face_nodes]  # (nf, 4, 3)
        centre0 = pts.mean(axis=1)  # (nf, 3)
        area_vec = np.zeros((self.n_faces, 3))
        ctr_acc = np.zeros((self.n_faces, 3))
        mag_acc = np.zeros(self.n_faces)
        for k in range(4):
            a = pts[:, k]
            b = pts[:, (k + 1) % 4]
            tri_area = 0.5 * np.cross(b - a, centre0 - a)
            tri_ctr = (a + b + centre0) / 3.0
            mag = np.linalg.norm(tri_area, axis=1)
            area_vec += tri_area
            ctr_acc += tri_ctr * mag[:, None]
            mag_acc += mag
        self.face_areas = area_vec
        self.face_centres = np.where(
            mag_acc[:, None] > 1e-300, ctr_acc / np.maximum(mag_acc, 1e-300)[:, None],
            centre0,
        )

        # Estimated cell centres: average of face centres.
        est = np.zeros((self.n_cells, 3))
        cnt = np.zeros(self.n_cells)
        np.add.at(est, self.owner, self.face_centres)
        np.add.at(cnt, self.owner, 1.0)
        nb = self.neighbour
        np.add.at(est, nb, self.face_centres[: self.n_internal_faces])
        np.add.at(cnt, nb, 1.0)
        est /= np.maximum(cnt, 1.0)[:, None]

        # Pyramid decomposition: V_pyr = Sf . (Cf - Cc) / 3 (signed).
        d_own = self.face_centres - est[self.owner]
        pyr_own = np.einsum("ij,ij->i", self.face_areas, d_own) / 3.0
        ctr_pyr_own = 0.75 * self.face_centres + 0.25 * est[self.owner]
        vol = np.zeros(self.n_cells)
        ctr = np.zeros((self.n_cells, 3))
        np.add.at(vol, self.owner, pyr_own)
        np.add.at(ctr, self.owner, ctr_pyr_own * pyr_own[:, None])
        d_nb = self.face_centres[: self.n_internal_faces] - est[nb]
        pyr_nb = -np.einsum(
            "ij,ij->i", self.face_areas[: self.n_internal_faces], d_nb
        ) / 3.0
        ctr_pyr_nb = (
            0.75 * self.face_centres[: self.n_internal_faces] + 0.25 * est[nb]
        )
        np.add.at(vol, nb, pyr_nb)
        np.add.at(ctr, nb, ctr_pyr_nb * pyr_nb[:, None])
        self.cell_volumes = vol
        self.cell_centres = ctr / np.maximum(vol, 1e-300)[:, None]

    # ----------------------------------------------------------------
    @property
    def n_boundary_faces(self) -> int:
        return self.n_faces - self.n_internal_faces

    def patch(self, name: str) -> Patch:
        for p in self.patches:
            if p.name == name:
                return p
        raise KeyError(name)

    def face_interpolation_weights(self) -> np.ndarray:
        """Linear interpolation weight of the *owner* cell per internal
        face: ``w = |Cf - Cn| / (|Cf - Co| + |Cf - Cn|)``.

        Generators of meshes with periodic wrap faces set the
        ``_face_weights`` override (centre-to-centre distances across a
        wrap face are not meaningful).
        """
        if getattr(self, "_face_weights", None) is not None:
            return self._face_weights
        cached = getattr(self, "_memo_face_weights", None)
        if cached is None:
            cf = self.face_centres[: self.n_internal_faces]
            d_o = np.linalg.norm(
                cf - self.cell_centres[self.owner[: self.n_internal_faces]],
                axis=1)
            d_n = np.linalg.norm(cf - self.cell_centres[self.neighbour],
                                 axis=1)
            cached = d_n / np.maximum(d_o + d_n, 1e-300)
            self._memo_face_weights = cached
        return cached

    def face_delta_coeffs(self) -> np.ndarray:
        """1/|d| between owner and neighbour centres per internal face.

        Honors the ``_face_deltas`` override for periodic meshes.
        """
        if getattr(self, "_face_deltas", None) is not None:
            return self._face_deltas
        cached = getattr(self, "_memo_face_deltas", None)
        if cached is None:
            d = (
                self.cell_centres[self.neighbour]
                - self.cell_centres[self.owner[: self.n_internal_faces]]
            )
            cached = 1.0 / np.maximum(np.linalg.norm(d, axis=1), 1e-300)
            self._memo_face_deltas = cached
        return cached

    def boundary_delta_coeffs(self) -> np.ndarray:
        """1/|d| between owner centre and face centre for boundary faces."""
        if getattr(self, "_boundary_deltas", None) is not None:
            return self._boundary_deltas
        cached = getattr(self, "_memo_boundary_deltas", None)
        if cached is None:
            nif = self.n_internal_faces
            d = self.face_centres[nif:] - self.cell_centres[self.owner[nif:]]
            cached = 1.0 / np.maximum(np.linalg.norm(d, axis=1), 1e-300)
            self._memo_boundary_deltas = cached
        return cached

    def face_area_mags(self) -> np.ndarray:
        """|Sf| for every face, memoized (geometry is static)."""
        cached = getattr(self, "_memo_face_area_mags", None)
        if cached is None:
            cached = np.linalg.norm(self.face_areas, axis=1)
            self._memo_face_area_mags = cached
        return cached

    def face_operators(self) -> FaceCellOperators:
        """The structural face <-> cell operators, memoized likewise."""
        cached = getattr(self, "_memo_face_operators", None)
        if cached is None:
            cached = self._memo_face_operators = FaceCellOperators(self)
        return cached

    def renumbered(self, perm: np.ndarray) -> "UnstructuredMesh":
        """Return a mesh with cells relabelled by ``perm``.

        ``perm[old] = new``: cell ``old`` becomes cell ``new``.  Face
        order is preserved; owner/neighbour labels are remapped (with
        the owner/neighbour swap and face flip where needed to keep
        owner < neighbour ordering conventions out of the picture we
        simply relabel -- the LDU assembly handles either orientation).
        """
        perm = np.asarray(perm, dtype=np.int64)
        owner = perm[self.owner]
        neighbour = perm[self.neighbour]
        return UnstructuredMesh(
            self.points,
            self.face_nodes,
            owner,
            neighbour,
            self.patches,
            geometry=(
                self.face_centres,
                self.face_areas,
                self.cell_centres[np.argsort(perm)],
                self.cell_volumes[np.argsort(perm)],
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"UnstructuredMesh(cells={self.n_cells}, faces={self.n_faces}, "
            f"internal={self.n_internal_faces}, patches={[p.name for p in self.patches]})"
        )
