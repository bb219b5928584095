"""OpenFOAM's LDU sparse-matrix format.

OpenFOAM stores FV matrices as three arrays addressed by the mesh:
``diag`` (one entry per cell), ``upper`` (one per internal face,
coefficient of the *neighbour* in the owner's row) and ``lower`` (one
per internal face, coefficient of the *owner* in the neighbour's row).
The sparsity pattern *is* the mesh connectivity, which is why the
paper's optimizations start from mesh decomposition rather than from a
generic sparse library.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..runtime import alloc
from .spmv import spmv_faces

__all__ = ["LDUMatrix"]


class LDUMatrix:
    """Square sparse matrix in LDU (owner/neighbour) form.

    Parameters
    ----------
    n:
        Number of rows (cells).
    owner, neighbour:
        Internal-face addressing (both length ``n_internal_faces``).
    diag, lower, upper:
        Coefficient arrays; may be updated in place between time steps
        (the sparsity pattern is static, Sec. 3.2.2).
    """

    def __init__(self, n, owner, neighbour, diag=None, lower=None, upper=None):
        self.n = int(n)
        self.owner = np.asarray(owner, dtype=np.int64)
        self.neighbour = np.asarray(neighbour, dtype=np.int64)
        nif = self.owner.size
        if self.neighbour.size != nif:
            raise ValueError("owner and neighbour must have equal length")
        if diag is None or lower is None or upper is None:
            alloc.count((diag is None) + (lower is None) + (upper is None))
        self.diag = np.zeros(self.n) if diag is None else np.asarray(diag, float)
        self.lower = np.zeros(nif) if lower is None else np.asarray(lower, float)
        self.upper = np.zeros(nif) if upper is None else np.asarray(upper, float)

    @property
    def n_faces(self) -> int:
        return self.owner.size

    @property
    def nnz(self) -> int:
        return self.n + 2 * self.owner.size

    def copy(self) -> "LDUMatrix":
        alloc.count(3)
        return LDUMatrix(self.n, self.owner, self.neighbour,
                         self.diag.copy(), self.lower.copy(), self.upper.copy())

    # ----------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A x through the LDU face loop (2 flops per nnz):
        :func:`~repro.sparse.spmv.spmv_faces` in fp64 like the
        coefficient arrays.  ``x`` may be an ``(n, k)``
        multi-vector: column ``j`` of the result equals
        ``matvec(x[:, j])`` bit for bit.  (The Sec. 3.2 reference
        kernel: solves apply the patterned CSR of :meth:`to_csr`.)
        """
        return spmv_faces(self.diag, self.lower, self.upper, self.owner,
                          self.neighbour, np.asarray(x, dtype=float))

    matvec_multi = matvec

    def residual(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.asarray(b, float) - self.matvec(x)

    # ----------------------------------------------------------------
    def to_csr(self, pattern=None) -> sp.csr_matrix:
        """Convert to scipy CSR.

        With ``pattern`` (a :class:`~repro.sparse.pattern.CSRPattern`
        built once for this sparsity) the conversion is an O(nnz) value
        scatter into the pattern's preallocated buffers -- no sorting,
        no allocation.  Without it, the fresh scipy conversion below is
        the reference path for validation.
        """
        if pattern is not None:
            return pattern.csr(self)
        alloc.count(4)
        rows = np.concatenate([np.arange(self.n), self.owner, self.neighbour])
        cols = np.concatenate([np.arange(self.n), self.neighbour, self.owner])
        vals = np.concatenate([self.diag, self.upper, self.lower])
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))

    @classmethod
    def from_mesh(cls, mesh) -> "LDUMatrix":
        """Zero matrix with the sparsity pattern of a mesh."""
        nif = mesh.n_internal_faces
        return cls(mesh.n_cells, mesh.owner[:nif], mesh.neighbour)

    def is_symmetric(self, tol: float = 0.0) -> bool:
        """O(nnz) symmetry check (always recomputed)."""
        return bool(np.all(np.abs(self.lower - self.upper) <= tol))

    def is_symmetric_cached(self, tol: float = 0.0) -> bool:
        """Symmetry check memoized per ``tol``.

        FV matrices are solved repeatedly (pressure correctors, outer
        iterations) without their off-diagonal structure changing, so
        ``solve("auto")`` uses this cached variant instead of paying
        O(nnz) per solve.  After mutating ``lower``/``upper`` in place,
        call :meth:`invalidate_symmetry_cache`.
        """
        cache = getattr(self, "_sym_cache", None)
        if cache is None:
            cache = self._sym_cache = {}
        if tol not in cache:
            cache[tol] = self.is_symmetric(tol)
        return cache[tol]

    def invalidate_symmetry_cache(self) -> None:
        self._sym_cache = {}

    def __add__(self, other: "LDUMatrix") -> "LDUMatrix":
        if other.n != self.n or other.n_faces != self.n_faces:
            raise ValueError("incompatible LDU shapes")
        alloc.count(3)
        return LDUMatrix(self.n, self.owner, self.neighbour,
                         self.diag + other.diag,
                         self.lower + other.lower,
                         self.upper + other.upper)

    def __repr__(self) -> str:  # pragma: no cover
        return f"LDUMatrix(n={self.n}, faces={self.n_faces})"
