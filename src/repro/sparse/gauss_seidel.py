"""Gauss-Seidel smoothing: serial reference and block-parallel variant.

The paper's thread-parallel Gauss-Seidel exploits the block structure:
each thread sweeps its diagonal block exactly, while the (rare,
~1.6 % of non-zeros after renumbering) inter-thread couplings use the
previous iterate -- a hybrid Gauss-Seidel/Jacobi whose convergence
penalty the paper measures at <0.1 % residual increase per iteration.
Both variants are provided so that penalty can be reproduced.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from .block_csr import BlockCSRMatrix
from .ldu import LDUMatrix
from .pattern import CSRPattern

__all__ = ["GaussSeidelSmoother", "gauss_seidel_csr", "gauss_seidel_block",
           "SmootherStats"]


def _tri_split(a: sp.csr_matrix):
    lower = sp.tril(a, 0, format="csr")  # D + L
    upper = sp.triu(a, 1, format="csr")  # strict U
    return lower, upper


def gauss_seidel_csr(
    a: sp.csr_matrix, b: np.ndarray, x: np.ndarray, sweeps: int = 1,
    tri=None,
) -> np.ndarray:
    """Exact forward Gauss-Seidel sweeps on a CSR matrix.

    ``x_{k+1} = (D+L)^{-1} (b - U x_k)`` -- the fully sequential
    reference the paper's parallel variant is compared against.
    ``tri`` takes a precomputed ``_tri_split(a)`` so repeated calls on
    the same matrix (smoother statistics, MG cycles) skip the O(nnz)
    triangle extraction.
    """
    dl, u = _tri_split(a) if tri is None else tri
    x = np.asarray(x, dtype=float).copy()
    for _ in range(sweeps):
        x = spsolve_triangular(dl, b - u @ x, lower=True)
    return x


def gauss_seidel_block(
    block: BlockCSRMatrix, b: np.ndarray, x: np.ndarray, sweeps: int = 1,
    tri=None,
) -> np.ndarray:
    """Block-parallel Gauss-Seidel (the paper's Sec. 3.2.3 smoother).

    Every thread performs an exact GS sweep on its diagonal block; all
    off-diagonal-block couplings are lagged to the previous iterate.
    The outer loop over threads is order-independent (each iteration
    reads only ``x_old`` off-block), i.e. safely parallel.
    """
    x = np.asarray(x, dtype=float).copy()
    b = np.asarray(b, dtype=float)
    if tri is None:
        tri = [
            _tri_split(block.blocks[i][i])
            if block.blocks[i][i] is not None else None
            for i in range(block.t)
        ]
    for _ in range(sweeps):
        x_old = x.copy()
        for i in range(block.t):
            r0, r1 = block.row_ranges[i]
            rhs = b[r0:r1].copy()
            for j in range(block.t):
                if i == j or block.blocks[i][j] is None:
                    continue
                c0, c1 = block.row_ranges[j]
                rhs -= block.blocks[i][j] @ x_old[c0:c1]
            if tri[i] is None:
                x[r0:r1] = rhs
                continue
            dl, u = tri[i]
            x[r0:r1] = spsolve_triangular(dl, rhs - u @ x_old[r0:r1], lower=True)
    return x


class GaussSeidelSmoother:
    """Serial GS sweeps over a persistent CSR + triangle-view cache.

    Constructing the smoother used to rebuild the scipy CSR *and*
    re-extract its tril/triu triangle factors from scratch; this class
    instead owns a :class:`~repro.sparse.pattern.CSRPattern` (built
    once per sparsity, shareable between smoothers, stat collectors and
    the GAMG fine level) and refreshes matrix + triangle *values* in
    O(nnz) with no sorting or allocation.  Call :meth:`refresh` after
    the LDU coefficients change in place.
    """

    def __init__(self, ldu: LDUMatrix, pattern: CSRPattern | None = None):
        self.pattern = pattern if pattern is not None \
            else CSRPattern.from_ldu(ldu)
        self.refresh(ldu)

    def refresh(self, ldu: LDUMatrix) -> "GaussSeidelSmoother":
        """Value-only update of the cached CSR and triangle views."""
        self.csr = self.pattern.csr(ldu)
        self.tri = self.pattern.tri_split()
        return self

    def sweep(self, b: np.ndarray, x: np.ndarray, sweeps: int = 1,
              ) -> np.ndarray:
        """``sweeps`` exact forward GS sweeps from ``x``."""
        return gauss_seidel_csr(self.csr, b, x, sweeps, tri=self.tri)


class SmootherStats:
    """Compare residual decay of serial vs block-parallel GS."""

    def __init__(self, ldu: LDUMatrix, block: BlockCSRMatrix,
                 pattern: CSRPattern | None = None):
        # The serial sweeps run through a pattern-cached smoother: the
        # CSR and its triangle factors are built once and value-only
        # refreshed, instead of re-extracted per construction.
        self._smoother = GaussSeidelSmoother(ldu, pattern=pattern)
        self.csr = self._smoother.csr
        self.block = block
        self._tri_csr = self._smoother.tri
        self._tri_block = [
            _tri_split(block.blocks[i][i])
            if block.blocks[i][i] is not None else None
            for i in range(block.t)
        ]

    def residual_histories(
        self, b: np.ndarray, x0: np.ndarray, sweeps: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residual 2-norms after each sweep for (serial, block), as
        pairwise sums (a 1-D ``np.linalg.norm`` is a BLAS dot whose bits
        follow the thread count on long vectors)."""
        hist_s, hist_b = [], []
        xs = np.asarray(x0, float).copy()
        xb = xs.copy()
        for _ in range(sweeps):
            xs = gauss_seidel_csr(self.csr, b, xs, 1, tri=self._tri_csr)
            xb = gauss_seidel_block(self.block, b, xb, 1, tri=self._tri_block)
            hist_s.append(np.sqrt(np.square(b - self.csr @ xs).sum()))
            hist_b.append(np.sqrt(np.square(b - self.csr @ xb).sum()))
        return np.array(hist_s), np.array(hist_b)
