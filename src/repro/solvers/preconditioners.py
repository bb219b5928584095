"""Preconditioners for the Krylov solvers.

* :class:`JacobiPreconditioner` -- reciprocal diagonal (OpenFOAM
  "diagonal"), the one preconditioner of every Krylov solve.
* :class:`DICPreconditioner` -- diagonal-based incomplete Cholesky on
  the LDU pattern, OpenFOAM's standard PCG preconditioner; a faithful
  port of its face-loop formulation.  It and its cached twin are on no
  step path (bodies take them through ``preconditioner=``).
* :class:`SymGaussSeidelPreconditioner` -- one symmetric GS sweep,
  serial or block-parallel (the paper's thread-parallel smoother).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from ..runtime import alloc
from ..sparse.ldu import LDUMatrix

if TYPE_CHECKING:
    from ..sparse.block_csr import BlockCSRMatrix

__all__ = [
    "JacobiPreconditioner",
    "DICPreconditioner",
    "DICStructure",
    "CachedDICPreconditioner",
    "SymGaussSeidelPreconditioner",
]


class JacobiPreconditioner:
    """w = r / diag(A)."""

    def __init__(self, ldu: LDUMatrix):
        alloc.count()
        self.r_diag = 1.0 / ldu.diag

    def refresh(self, ldu: LDUMatrix) -> "JacobiPreconditioner":
        """Value-only update into the existing reciprocal buffer (for
        workspace reuse across solves of in-place-updated matrices)."""
        np.divide(1.0, ldu.diag, out=self.r_diag)
        return self

    def apply(self, r):
        """Scale a 1-D residual by the inverse diagonal."""
        return self._apply(r)

    def apply_multi(self, r):
        """Scale a ``(k, n)`` residual block (row ``j`` is column ``j``)
        by the inverse diagonal."""
        return self._apply(r)

    def _apply(self, r):
        """The one body of :meth:`apply` / :meth:`apply_multi` (neither
        calls the other: a tracer wraps both names): the reciprocal
        diagonal, cast to the residual's dtype (never the other way --
        no silent fp32 upcast), broadcast along the last (cell) axis."""
        r = np.asarray(r)
        return r * self.r_diag.astype(r.dtype, copy=False)


class DICPreconditioner:
    """Diagonal-based Incomplete Cholesky on the LDU pattern.

    Requires a symmetric matrix.  Faces are canonicalized to
    owner < neighbour (periodic wrap faces may violate it) and
    processed in ascending-owner order, which guarantees each row's
    modified diagonal is final before it is used.

    This sequential face-loop port is the **reference oracle** for
    tests and ablation benches only (O(faces) Python iterations per
    factorization and per sweep); :class:`CachedDICPreconditioner` is
    its bitwise-identical vectorized form.

    On no step path; kept while ``bench/layers.py`` wraps it by name.
    """

    def __init__(self, ldu: LDUMatrix):
        if not ldu.is_symmetric(tol=0.0):
            raise ValueError("DIC requires a symmetric LDU matrix")
        own = ldu.owner.copy()
        nb = ldu.neighbour.copy()
        flip = own > nb
        own[flip], nb[flip] = nb[flip], own[flip]
        order = np.lexsort((nb, own))
        self.own = own[order]
        self.nb = nb[order]
        self.upper = ldu.upper[order]
        r_d = ldu.diag.copy()
        for f in range(self.own.size):
            r_d[self.nb[f]] -= self.upper[f] ** 2 / r_d[self.own[f]]
        self.r_d = 1.0 / r_d

    def _sweeps(self, w: np.ndarray) -> np.ndarray:
        """Forward/backward face sweeps along the last (cell) axis;
        each cell update broadcasts over the leading one, so one pass
        serves a 1-D vector or a ``(k, n)`` block alike."""
        own, nb, up, rd = self.own, self.nb, self.upper, self.r_d
        for f in range(own.size):
            w[..., nb[f]] -= rd[nb[f]] * up[f] * w[..., own[f]]
        for f in range(own.size - 1, -1, -1):
            w[..., own[f]] -= rd[own[f]] * up[f] * w[..., nb[f]]
        return w

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Apply the DIC factor to a 1-D residual."""
        return self._sweeps(r * self.r_d)

    def apply_multi(self, r: np.ndarray) -> np.ndarray:
        """Apply to a ``(k, n)`` block (row ``j`` is column ``j``): one
        pair of face sweeps covers all k columns, amortizing the
        sequential-sweep cost k-fold."""
        return self._sweeps(r * self.r_d)


class DICStructure:
    """Value-independent part of the DIC factorization, built once.

    Holds the canonicalized (owner < neighbour) ascending-owner face
    ordering of :class:`DICPreconditioner` *plus* a wavefront level
    schedule of both face sweeps: faces are grouped into levels such
    that within a level no face reads a cell another face of the level
    writes, and no two faces write the same cell.  Processing the
    levels in order with one vectorized fancy-indexed update each is
    then **bitwise identical** to the sequential face loop -- but costs
    O(n_levels) numpy calls instead of O(n_faces) Python iterations
    (~50 levels vs ~17k faces on the 18^3 TGV mesh).

    The structure depends only on the sparsity pattern, so one instance
    per mesh serves every matrix refresh (the "value-only refresh of
    cached factor structure" of the zero-reassembly hot path).

    On no step path; kept while ``bench/layers.py`` wraps the DIC
    classes by name.
    """

    def __init__(self, owner: np.ndarray, neighbour: np.ndarray, n: int):
        self.n = int(n)
        own = np.asarray(owner, dtype=np.int64).copy()
        nb = np.asarray(neighbour, dtype=np.int64).copy()
        flip = own > nb
        own[flip], nb[flip] = nb[flip], own[flip]
        order = np.lexsort((nb, own))
        self.order = order
        self.own = own[order]
        self.nb = nb[order]
        m = order.size

        # Forward schedule (factor loop + forward sweep): face f reads
        # own[f], read-modify-writes nb[f], in ascending face order.
        lev = np.zeros(m, dtype=np.int64)
        written = np.zeros(self.n, dtype=np.int64)
        for f in range(m):
            level = max(written[self.own[f]], written[self.nb[f]]) + 1
            lev[f] = level
            written[self.nb[f]] = level
        self.fwd_sort = np.argsort(lev, kind="stable")
        self.fwd_own = self.own[self.fwd_sort]
        self.fwd_nb = self.nb[self.fwd_sort]
        self.fwd_levels = self._levels(lev[self.fwd_sort])

        # Backward schedule (backward sweep): descending face order,
        # face f reads nb[f], read-modify-writes own[f].
        levb = np.zeros(m, dtype=np.int64)
        written[:] = 0
        for f in range(m - 1, -1, -1):
            level = max(written[self.own[f]], written[self.nb[f]]) + 1
            levb[f] = level
            written[self.own[f]] = level
        self.bwd_sort = np.argsort(levb, kind="stable")
        self.bwd_own = self.own[self.bwd_sort]
        self.bwd_nb = self.nb[self.bwd_sort]
        self.bwd_levels = self._levels(levb[self.bwd_sort])

    @staticmethod
    def _levels(sorted_levels: np.ndarray) -> list[slice]:
        """One slice of the level-sorted face arrays per wavefront
        level (plain ints, built once: the sweeps walk this list
        hundreds of times per solve)."""
        edges = np.concatenate(
            ([0], np.cumsum(np.bincount(sorted_levels)[1:]))).tolist()
        return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]

    @classmethod
    def from_ldu(cls, ldu: LDUMatrix) -> "DICStructure":
        """The structure of an LDU matrix's sparsity."""
        return cls(ldu.owner, ldu.neighbour, ldu.n)


class CachedDICPreconditioner:
    """DIC with a cached structure and value-only refresh.

    Produces bitwise-identical results to :class:`DICPreconditioner`
    (the faces are processed in the same canonical order with the same
    per-face arithmetic) while replacing both the O(n_faces) Python
    factor loop and the per-application sweep loops with vectorized
    wavefront-level updates.  Reuse one instance across solves of
    matrices sharing a sparsity pattern and call :meth:`refresh` after
    the values change.

    On no step path; kept while ``bench/layers.py`` wraps it by name.
    """

    def __init__(self, ldu: LDUMatrix, structure: DICStructure | None = None):
        self.struct = structure if structure is not None \
            else DICStructure.from_ldu(ldu)
        m = self.struct.order.size
        self._upper = np.empty(m)
        self._fwd_up = np.empty(m)
        self._bwd_up = np.empty(m)
        self._dfac = np.empty(self.struct.n)
        self.r_d = np.empty(self.struct.n)
        self._fwd_coef = np.empty(m)
        self._bwd_coef = np.empty(m)
        alloc.count(7)
        self.refresh(ldu)

    def refresh(self, ldu: LDUMatrix) -> "CachedDICPreconditioner":
        """Recompute the modified diagonal from the current values."""
        if not ldu.is_symmetric(tol=0.0):
            raise ValueError("DIC requires a symmetric LDU matrix")
        s = self.struct
        np.take(ldu.upper, s.order, out=self._upper)
        np.take(self._upper, s.fwd_sort, out=self._fwd_up)
        np.take(self._upper, s.bwd_sort, out=self._bwd_up)
        dfac = self._dfac
        dfac[:] = ldu.diag
        for sl in s.fwd_levels:
            dfac[s.fwd_nb[sl]] -= self._fwd_up[sl] ** 2 / dfac[s.fwd_own[sl]]
        np.divide(1.0, dfac, out=self.r_d)
        # rd[target] * up fused once per refresh; the sweeps below then
        # evaluate (rd*up)*w exactly as the sequential reference does.
        np.multiply(self.r_d[s.fwd_nb], self._fwd_up, out=self._fwd_coef)
        np.multiply(self.r_d[s.bwd_own], self._bwd_up, out=self._bwd_coef)
        return self

    def _sweeps(self, w):
        """Forward then backward wavefront sweeps over ``w`` (1-D or
        ``(k, n)``) along its last (cell) axis, in place.  Targets are
        unique within a level, so each level is one fancy-indexed
        update."""
        if w.ndim == 2 and w.shape[0] == 1:
            # one column (every scalar equation): sweep its 1-D view --
            # same arithmetic, without the 2-D fancy-indexing price
            self._sweeps(w[0])
            return w
        s = self.struct
        fwd = self._fwd_coef.astype(w.dtype, copy=False)
        bwd = self._bwd_coef.astype(w.dtype, copy=False)
        own, nb = s.fwd_own, s.fwd_nb
        for sl in s.fwd_levels:
            w[..., nb[sl]] -= fwd[sl] * w.take(own[sl], axis=-1)
        own, nb = s.bwd_own, s.bwd_nb
        for sl in s.bwd_levels:
            w[..., own[sl]] -= bwd[sl] * w.take(nb[sl], axis=-1)
        return w

    def apply(self, r):
        """Apply the DIC factor to a 1-D residual."""
        return self._apply(r, None)

    def apply_multi(self, r, out=None):
        """Apply to a ``(k, n)`` block (row ``j`` is column ``j``): one
        sweep pair covers all columns.

        ``out`` (same shape as ``r``; may be a view, e.g. one rank's
        cell slice of a stacked block) receives the scaled residual and
        is swept in place, so no temporary is allocated.
        """
        return self._apply(r, out)

    def _apply(self, r, out):
        """The one body of :meth:`apply` / :meth:`apply_multi` (neither
        calls the other: a tracer wraps both names): diagonal scaling
        then the sweeps, in the residual's dtype."""
        r = np.asarray(r)
        rd = self.r_d.astype(r.dtype, copy=False)
        if out is None:
            return self._sweeps(r * rd)
        out[...] = r
        out *= rd
        return self._sweeps(out)


class SymGaussSeidelPreconditioner:
    """One symmetric Gauss-Seidel sweep as a preconditioner.

    ``mode="serial"`` uses exact forward+backward sweeps on the global
    CSR; ``mode="block"`` uses the paper's block-parallel variant on a
    :class:`BlockCSRMatrix` (off-block couplings lagged).
    """

    def __init__(self, ldu: LDUMatrix, block: BlockCSRMatrix | None = None,
                 mode: str = "serial"):
        self.mode = mode
        if mode == "serial":
            a = ldu.to_csr()
            self._dl = sp.tril(a, 0, format="csr")
            self._du = sp.triu(a, 0, format="csr")
            self._d = ldu.diag.copy()
        elif mode == "block":
            if block is None:
                raise ValueError("block mode needs a BlockCSRMatrix")
            self.block = block
            self._tri = []
            for i in range(block.t):
                bb = block.blocks[i][i]
                self._tri.append(
                    (sp.tril(bb, 0, format="csr"), sp.triu(bb, 0, format="csr"),
                     bb.diagonal())
                )
        else:
            raise ValueError(f"unknown mode {mode!r}")

    def apply(self, r: np.ndarray) -> np.ndarray:
        """One symmetric Gauss-Seidel sweep on the residual."""
        from scipy.sparse.linalg import spsolve_triangular

        if self.mode == "serial":
            # (D+L) D^{-1} (D+U) w = r  (symmetric GS splitting)
            y = spsolve_triangular(self._dl, r, lower=True)
            return spsolve_triangular(self._du, self._d * y, lower=False)
        w = np.empty_like(r)
        for i in range(self.block.t):
            r0, r1 = self.block.row_ranges[i]
            dl, du, d = self._tri[i]
            y = spsolve_triangular(dl, r[r0:r1], lower=True)
            w[r0:r1] = spsolve_triangular(du, d * y, lower=False)
        return w

    def apply_multi(self, r: np.ndarray) -> np.ndarray:
        """Apply to a ``(k, n)`` block (row ``j`` is column ``j``): the
        triangular solves take the whole multi-vector at once."""
        if r.ndim == 1:
            return self.apply(r)
        from scipy.sparse.linalg import spsolve_triangular

        r = r.T
        if self.mode == "serial":
            y = spsolve_triangular(self._dl, r, lower=True)
            w = spsolve_triangular(self._du, self._d[:, None] * y,
                                   lower=False)
            return np.ascontiguousarray(w.T)
        w = np.empty_like(r)
        for i in range(self.block.t):
            r0, r1 = self.block.row_ranges[i]
            dl, du, d = self._tri[i]
            y = spsolve_triangular(dl, r[r0:r1], lower=True)
            w[r0:r1] = spsolve_triangular(du, d[:, None] * y, lower=False)
        return np.ascontiguousarray(w.T)
