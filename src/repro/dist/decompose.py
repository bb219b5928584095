"""Mesh decomposition into per-rank subdomains with halo layers.

From a partition of the cell graph (``repro.partition``), each rank
gets a **local mesh**: its owned cells first (ascending global id),
then the halo (ghost) cells -- every off-rank cell sharing a face with
an owned cell -- grouped by owning rank.  The local face list keeps
the global owner/neighbour *orientation*, so face-based quantities
(mass fluxes, face areas) carry over unchanged, and cut faces (global
internal faces crossing the part boundary) become local internal
faces between an owned and a halo cell.  Assembling an FV operator on
this mesh therefore reproduces the *owned rows* of the global matrix
exactly, with the halo coupling sitting in the cut faces' off-diagonal
coefficients -- the same layout OpenFOAM's processor boundaries induce.

The exchange maps are symmetric by construction: both sides of a rank
pair order the transferred cells by ascending global id, so
``send[q]`` on rank ``r`` lines up slot-for-slot with ``recv[r]`` on
rank ``q``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mesh.graph import cell_graph_from_mesh
from ..mesh.unstructured import Patch, UnstructuredMesh
from ..partition.partitioner import partition_graph

__all__ = ["Subdomain", "Decomposition"]

#: per-internal-face geometry overrides a generator may have set
#: (periodic wrap faces have no meaningful centre-to-centre distance)
_FACE_OVERRIDES = ("_face_weights", "_face_deltas")


@dataclass
class Subdomain:
    """One rank's share of the mesh.

    Attributes
    ----------
    mesh:
        Local mesh over ``n_owned`` owned + ``n_halo`` halo cells.
        Cell ``i < n_owned`` is owned; the rest are ghost copies.
    owned_global, halo_global:
        Global cell ids of the local cells (owned ascending; halo
        grouped by owning rank, ascending within each group).
    send:
        ``neighbour rank -> local indices of owned cells`` whose values
        the neighbour needs for its ghost layer.
    recv:
        ``neighbour rank -> local indices of halo cells`` filled from
        that neighbour's matching ``send``.
    internal_faces_global, boundary_faces_global:
        Global face ids realizing the local faces (internal then
        boundary, in local face order).
    cut_mask:
        Per local internal face: True where the face crosses the part
        boundary (one side owned, one side halo).
    """

    rank: int
    mesh: UnstructuredMesh
    n_owned: int
    owned_global: np.ndarray
    halo_global: np.ndarray
    halo_owner_rank: np.ndarray
    send: dict[int, np.ndarray] = field(default_factory=dict)
    recv: dict[int, np.ndarray] = field(default_factory=dict)
    internal_faces_global: np.ndarray = None
    boundary_faces_global: np.ndarray = None
    cut_mask: np.ndarray = None

    @property
    def n_halo(self) -> int:
        """Number of ghost cells in this rank's halo layer."""
        return self.halo_global.size

    @property
    def n_local(self) -> int:
        """Total local cells (owned + halo)."""
        return self.n_owned + self.n_halo

    @property
    def neighbours(self) -> list[int]:
        """Ranks this subdomain exchanges halo data with (ascending)."""
        return sorted(self.send)

    @property
    def owned(self) -> slice:
        """Slice selecting the owned rows of a local cell array."""
        return slice(0, self.n_owned)


class Decomposition:
    """A mesh split into ``nparts`` subdomains with halo layers."""

    def __init__(self, mesh: UnstructuredMesh, parts: np.ndarray,
                 subdomains: list[Subdomain]):
        self.mesh = mesh
        self.parts = np.asarray(parts, dtype=np.int64)
        self.subdomains = subdomains
        self.nparts = len(subdomains)
        counts = np.array([s.n_owned for s in subdomains])
        self.offsets = np.concatenate([[0], np.cumsum(counts)])

    # ------------------------------------------------------------------
    @classmethod
    def from_mesh(
        cls,
        mesh: UnstructuredMesh,
        nparts: int,
        seed: int = 0,
        parts: np.ndarray | None = None,
    ) -> "Decomposition":
        """Partition ``mesh`` (with the multilevel
        :func:`repro.partition.partitioner.partition_graph` unless explicit
        ``parts`` labels are given) and extract the per-rank
        subdomains."""
        if parts is None:
            parts = partition_graph(cell_graph_from_mesh(mesh), nparts,
                                    seed=seed)
        parts = np.asarray(parts, dtype=np.int64)
        if parts.shape != (mesh.n_cells,):
            raise ValueError("need one part label per cell")
        counts = np.bincount(parts, minlength=nparts)
        if (counts == 0).any():
            empty = np.nonzero(counts == 0)[0]
            raise ValueError(f"empty parts {empty.tolist()}")

        nif = mesh.n_internal_faces
        own_f = mesh.owner[:nif]
        nb_f = mesh.neighbour
        po, pn = parts[own_f], parts[nb_f]

        subdomains = []
        for r in range(nparts):
            subdomains.append(cls._build_subdomain(
                mesh, parts, r, own_f, nb_f, po, pn))
        return cls(mesh, parts, subdomains)

    @staticmethod
    def _build_subdomain(mesh, parts, r, own_f, nb_f, po, pn) -> Subdomain:
        nif = mesh.n_internal_faces
        owned = np.nonzero(parts == r)[0]
        g2l = np.full(mesh.n_cells, -1, dtype=np.int64)
        g2l[owned] = np.arange(owned.size)

        # Local internal faces: every global internal face touching an
        # owned cell (ascending global id keeps orientation stable).
        fsel = np.nonzero((po == r) | (pn == r))[0]
        cut_mask = po[fsel] != pn[fsel]

        # Halo cells: the off-rank side of the cut faces, grouped by
        # owning rank and ascending within each group.
        cells_on = np.concatenate([own_f[fsel], nb_f[fsel]])
        halo = np.unique(cells_on[parts[cells_on] != r])
        halo = halo[np.lexsort((halo, parts[halo]))]
        g2l[halo] = owned.size + np.arange(halo.size)
        halo_rank = parts[halo]

        # Symmetric exchange maps (both sides sort by global cell id).
        send: dict[int, np.ndarray] = {}
        recv: dict[int, np.ndarray] = {}
        cut = fsel[cut_mask]
        own_side = np.where(po[cut] == r, own_f[cut], nb_f[cut])
        far_side = np.where(po[cut] == r, nb_f[cut], own_f[cut])
        for q in np.unique(halo_rank):
            send[int(q)] = g2l[np.unique(own_side[parts[far_side] == q])]
            recv[int(q)] = g2l[halo[halo_rank == q]]

        # Boundary faces owned by this rank, patch layout preserved
        # (patches keep their names; absent ones become size 0).
        patches = []
        b_global = []
        pos = fsel.size
        for p in mesh.patches:
            sel = p.start + np.nonzero(parts[mesh.owner[p.slice]] == r)[0]
            b_global.append(sel)
            patches.append(Patch(p.name, pos, sel.size))
            pos += sel.size
        b_global = np.concatenate(b_global) if b_global else \
            np.empty(0, np.int64)

        faces_global = np.concatenate([fsel, b_global])
        cells_global = np.concatenate([owned, halo])
        sub_mesh = UnstructuredMesh(
            mesh.points,
            mesh.face_nodes[faces_global],
            g2l[mesh.owner[faces_global]],
            g2l[nb_f[fsel]],
            patches,
            geometry=(mesh.face_centres[faces_global],
                      mesh.face_areas[faces_global],
                      mesh.cell_centres[cells_global],
                      mesh.cell_volumes[cells_global]),
            n_cells=cells_global.size,
        )
        for name in _FACE_OVERRIDES:
            override = getattr(mesh, name, None)
            if override is not None:
                setattr(sub_mesh, name, override[fsel])
        b_deltas = getattr(mesh, "_boundary_deltas", None)
        if b_deltas is not None:
            sub_mesh._boundary_deltas = b_deltas[b_global - nif]

        return Subdomain(
            rank=r, mesh=sub_mesh, n_owned=owned.size, owned_global=owned,
            halo_global=halo, halo_owner_rank=halo_rank, send=send,
            recv=recv, internal_faces_global=fsel,
            boundary_faces_global=b_global, cut_mask=cut_mask)

    # -- global <-> per-rank layout ------------------------------------
    def rank_slice(self, r: int) -> slice:
        """Rows of rank ``r`` in the stacked (rank-blocked) vector."""
        return slice(int(self.offsets[r]), int(self.offsets[r + 1]))

    def gather_cells(self, per_rank: list[np.ndarray]) -> np.ndarray:
        """Owned rows of per-rank local arrays -> one array in global
        cell order."""
        first = np.asarray(per_rank[0])
        out = np.empty((self.mesh.n_cells,) + first.shape[1:], first.dtype)
        for a, s in zip(per_rank, self.subdomains):
            out[s.owned_global] = np.asarray(a)[:s.n_owned]
        return out

    def scatter_cells(self, global_arr: np.ndarray) -> list[np.ndarray]:
        """Global cell array -> per-rank local arrays (halos filled)."""
        global_arr = np.asarray(global_arr)
        return [
            global_arr[np.concatenate([s.owned_global, s.halo_global])].copy()
            for s in self.subdomains
        ]

    # -- statistics ----------------------------------------------------
    def stats(self) -> dict:
        """Communication-relevant decomposition statistics (Sec. 3.1):
        owned and halo cells per rank, faces cut by the partition and
        neighbour ranks per rank.  Shared faces per neighbour pair
        average ``2 * cut_faces / sum(neighbour_counts)``."""
        cut_faces = int(sum(s.cut_mask.sum() for s in self.subdomains)) // 2
        return {
            "nparts": self.nparts,
            "cells_per_rank": [s.n_owned for s in self.subdomains],
            "halo_cells": [s.n_halo for s in self.subdomains],
            "cut_faces": cut_faces,
            "neighbour_counts": [len(s.send) for s in self.subdomains],
        }
