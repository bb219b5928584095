"""Persistent CSR sparsity pattern for LDU matrices.

Every solve in the step loop used to rebuild a scipy CSR from the LDU
face arrays -- a sort plus several allocations per conversion even
though the sparsity pattern *is* the mesh connectivity and never
changes between steps (Sec. 3.2.2).  :class:`CSRPattern` is built once
per mesh: it precomputes the face -> nnz-slot map (and its inverse
gather permutation) so refreshing the CSR is an O(nnz) value gather
into a preallocated ``data`` array, with no sorting, no duplicate
summation pass and no new matrix object.

The pattern also caches the lower/upper triangle *views* used by the
Gauss-Seidel smoother and the symmetric-GS preconditioner: the triangle
matrices are built once and refreshed value-only on each fill.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..runtime import alloc

__all__ = ["CSRPattern"]


class CSRPattern:
    """Precomputed CSR structure (+ scatter map) of an LDU matrix.

    Parameters
    ----------
    n:
        Number of rows (cells).
    owner, neighbour:
        Internal-face addressing, exactly as stored on the
        :class:`~repro.sparse.ldu.LDUMatrix` / the mesh.

    Notes
    -----
    The source entries are ``concat(diag, upper, lower)`` with
    coordinates ``(i, i)``, ``(owner, neighbour)`` and
    ``(neighbour, owner)``.  Duplicate coordinates (possible on tiny
    periodic meshes where two faces connect the same cell pair) are
    summed, matching ``scipy``'s COO->CSR conversion, so
    :meth:`csr` reproduces ``LDUMatrix.to_csr()`` exactly.
    """

    def __init__(self, n: int, owner: np.ndarray, neighbour: np.ndarray):
        self.n = int(n)
        self.owner = np.asarray(owner, dtype=np.int64)
        self.neighbour = np.asarray(neighbour, dtype=np.int64)

        diag_idx = np.arange(self.n, dtype=np.int64)
        rows = np.concatenate([diag_idx, self.owner, self.neighbour])
        cols = np.concatenate([diag_idx, self.neighbour, self.owner])
        order = np.lexsort((cols, rows))
        r_sorted = rows[order]
        c_sorted = cols[order]

        # Collapse duplicate (row, col) coordinates into one slot each.
        new_entry = np.ones(order.size, dtype=bool)
        new_entry[1:] = (r_sorted[1:] != r_sorted[:-1]) | \
            (c_sorted[1:] != c_sorted[:-1])
        slot_of_sorted = np.cumsum(new_entry) - 1
        self.nnz = int(slot_of_sorted[-1]) + 1
        self.has_duplicates = self.nnz != order.size

        #: duplicates: slot in ``data`` of each source entry (diag, upper,
        #: lower order) for the accumulating scatter.  None: ``data =
        #: vals[gather_src]``, a pure ``take`` gather, and the
        #: sort order *is* that permutation -- one index array, not three
        if self.has_duplicates:
            self.slots = np.empty(order.size, dtype=np.int64)
            self.slots[order] = slot_of_sorted
            self.gather_src = None
        else:
            self.slots, self.gather_src = None, order
            alloc.count(1)

        self.indices = c_sorted[new_entry].astype(np.int32)
        row_counts = np.bincount(r_sorted[new_entry], minlength=self.n)
        self.indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(row_counts, out=self.indptr[1:])

        # Persistent buffer the cached CSR matrix views as its ``data``;
        # it lives as long as the pattern.
        self._data = np.zeros(self.nnz)
        self._csr: sp.csr_matrix | None = None
        self._tri: tuple[sp.csr_matrix, sp.csr_matrix] | None = None
        alloc.count(3)

    # ----------------------------------------------------------------
    @classmethod
    def from_ldu(cls, ldu) -> "CSRPattern":
        return cls(ldu.n, ldu.owner, ldu.neighbour)

    @classmethod
    def from_mesh(cls, mesh) -> "CSRPattern":
        nif = mesh.n_internal_faces
        return cls(mesh.n_cells, mesh.owner[:nif], mesh.neighbour)

    def matches(self, ldu) -> bool:
        """Cheap structural compatibility check (shape only -- the
        caller owns the invariant that the addressing is the same)."""
        return ldu.n == self.n and ldu.owner.size == self.owner.size

    # ----------------------------------------------------------------
    def fill(self, ldu) -> np.ndarray:
        """Refresh the pattern's ``data`` buffer from the LDU values
        (:meth:`fill_values`, copied into the persistent buffer the
        cached CSR matrix views).

        O(nnz); returns the buffer (owned by the pattern -- treat as
        read-only).
        """
        if not self.matches(ldu):
            raise ValueError("LDU matrix does not match this pattern")
        self._data[:] = self.fill_values(ldu.diag, ldu.upper, ldu.lower)
        return self._data

    def fill_values(self, diag, upper, lower):
        """CSR values from raw coefficient arrays.

        On patterns without duplicate coordinates the precomputed
        :attr:`gather_src` permutation makes the refresh a pure ``take``
        gather; patterns *with* duplicates accumulate through
        ``np.add.at``.

        Computes in the dtype of ``diag`` (``upper``/``lower`` are cast
        to it) and returns a freshly allocated ``data`` array, so fp32
        inputs yield fp32 output.
        """
        diag = np.asarray(diag)
        dt = diag.dtype
        vals = np.concatenate([diag, np.asarray(upper, dtype=dt),
                               np.asarray(lower, dtype=dt)])
        if self.gather_src is not None:
            return vals.take(self.gather_src, axis=0)
        data = np.zeros(self.nnz, dtype=dt)
        np.add.at(data, self.slots, vals)
        return data

    def csr(self, ldu) -> sp.csr_matrix:
        """Value-refresh the cached CSR matrix and return it.

        The returned matrix object is reused across calls (its ``data``
        array is the pattern's buffer); callers must not mutate it and
        must not hold it across a later :meth:`fill`/:meth:`csr` of a
        different matrix.
        """
        data = self.fill(ldu)
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (data, self.indices, self.indptr), shape=(self.n, self.n))
        return self._csr

    # ----------------------------------------------------------------
    def tri_split(self, ldu=None) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """``(D+L, strict U)`` triangle views of the patterned CSR.

        Built once; later calls only refresh the triangle values from
        the current ``data`` buffer (call after :meth:`csr`/:meth:`fill`
        -- or pass ``ldu`` to refresh in one go).  Same contract as
        ``repro.sparse.gauss_seidel._tri_split``.
        """
        if ldu is not None:
            self.fill(ldu)
        if self._tri is None:
            if self._csr is None:
                self._csr = sp.csr_matrix(
                    (self._data, self.indices, self.indptr),
                    shape=(self.n, self.n))
            self._tri = (sp.tril(self._csr, 0, format="csr"),
                         sp.triu(self._csr, 1, format="csr"))
            lower = self.indices <= np.repeat(np.arange(self.n),
                                              np.diff(self.indptr))
            self._lower_slots = np.flatnonzero(lower)
            self._upper_slots = np.flatnonzero(~lower)
            alloc.count(2)
        else:
            dl, u = self._tri
            dl.data[:] = self._data[self._lower_slots]
            u.data[:] = self._data[self._upper_slots]
        return self._tri
