"""Face <-> cell transfers of a mesh as structural sparse operators.

The face addressing is static (Sec. 3.2.2), so every face -> cell
reduction and cell -> face interpolation of the step is one compiled
product with a matrix built once per mesh -- not a Python-level
``np.add.at`` scatter or a pair of fancy gathers.
"""

import math

import numpy as np
import scipy.sparse as sp

__all__ = ["FaceCellOperators", "structural_csr"]


def structural_csr(rows, cols, vals, shape):
    """``(csr, order)``: the CSR of the triplets with each row's entries
    in input order (``csr.data == vals[order]``, duplicates kept apart).
    scipy accumulates a row in storage order, so the input order *is*
    the association order of every product with the matrix."""
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    csr = sp.csr_matrix(
        (np.asarray(vals, dtype=float)[order],
         np.asarray(cols)[order].astype(np.int32), indptr), shape=shape)
    return csr, order


class FaceCellOperators:
    """The memoised operators behind :meth:`UnstructuredMesh.face_operators`.

    Each maps an ``(n, ...)`` array to one of the same dtype.  A
    reduction adds a cell's faces in the order of the face loop it
    replaces: in fp64 it equals the ``np.add.at`` spelling bit for bit.
    Operators of one structure share index arrays (184 bytes per cell
    in all at 32^3, and every byte is peak RSS).
    """

    def __init__(self, mesh):
        nc, nf, nif = mesh.n_cells, mesh.n_faces, mesh.n_internal_faces
        own, nb = mesh.owner, mesh.neighbour
        f, one = np.arange(nf), np.ones(nf)
        w = mesh.face_interpolation_weights()
        # cell -> its faces: owned faces in face order, then neighboured
        self._surface, order = structural_csr(
            np.r_[own, nb], np.r_[f, f[:nif]], np.r_[one, -one[:nif]],
            (nc, nf))
        # face -> its cells is the transpose structure: a CSC view of
        # the same index arrays
        self._interpolate = sp.csc_matrix(
            (np.r_[w, one[nif:], 1 - w][order], self._surface.indices,
             self._surface.indptr), shape=(nf, nc))
        # one +1 per column; a CSC product scatters in column order
        ptr = np.arange(nf + 1, dtype=np.int32)
        self._owner, self._neighbour, self._boundary = (
            sp.csc_matrix((one[:c.size], c.astype(np.int32),
                           ptr[:c.size + 1]), shape=(nc, c.size))
            for c in (own[:nif], nb, own[nif:]))

    def surface_sum(self, face_values):
        """All faces: ``+`` into owners, ``-`` into neighbours."""
        return self._product(self._surface, face_values)

    def owner_sum(self, internal_values):
        """Internal-face values summed into their owner cells."""
        return self._product(self._owner, internal_values)

    def neighbour_sum(self, internal_values):
        """Internal-face values summed into their neighbour cells."""
        return self._product(self._neighbour, internal_values)

    def boundary_sum(self, boundary_values):
        """Boundary-face values (patch order) summed into their cells."""
        return self._product(self._boundary, boundary_values)

    def interpolate(self, cell_values):
        """Cell values on all faces: ``w owner + (1 - w) neighbour`` on
        internal faces, the owner's value (zero gradient) on boundary ones."""
        return self._product(self._interpolate, cell_values)

    def _product(self, a, x):
        y = a.astype(x.dtype, copy=False) @ x.reshape(len(x), math.prod(x.shape[1:]))
        return y.reshape(a.shape[:1] + x.shape[1:])
