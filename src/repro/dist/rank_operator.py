"""The rank-local operator kernel of the distributed system.

:class:`RankOperator` is everything one rank does to its *own* rows of
a distributed system without talking to anybody: the interior/boundary
row split, the two halves of the matvec and the restriction to the
owned diagonal block (PCG's rank-local symmetry check runs on it).
:class:`~repro.dist.krylov.DistributedSystem` holds one per rank its
communicator hosts -- ``P`` when the driver steps every rank, one in
each worker of a parallel run.

What depends only on the decomposition's sparsity (the split, the
local and interior-block buffers, the interior block's CSR pattern) is
built once and lives, with the operator, in the solver's persistent
system; a solve only rebinds the coefficient arrays
(:meth:`RankOperator.bind`).
"""

from __future__ import annotations

import numpy as np

from ..mesh.face_operators import structural_csr
from ..runtime import alloc
from ..sparse.ldu import LDUMatrix
from ..sparse.pattern import CSRPattern
from ..sparse.spmv import csr_rows_product

__all__ = ["RankOperator", "scratch_buffer"]


def scratch_buffer(scratch: dict, key, shape: tuple) -> np.ndarray:
    """A view of the persistent buffer ``scratch[key]``.

    The backing buffer is sized to the largest shape requested so far
    (column blocks *shrink* as converged columns retire, so in practice
    the first solve of each kind allocates the final size) and
    alloc-counted only when (re)grown.
    """
    buf = scratch.get(key)
    if buf is None or any(b < s for b, s in zip(buf.shape, shape)):
        alloc.count()
        grown = shape if buf is None else tuple(
            max(b, s) for b, s in zip(buf.shape, shape))
        buf = scratch[key] = np.empty(grown)
    return buf[tuple(slice(0, s) for s in shape)]


class RankOperator:
    """One rank's owned rows of a distributed LDU operator.

    The row split is cached at construction (the sparsity is the
    decomposition's, shared by every operator assembled on it):
    *interior* faces couple two owned cells; each *cut* face
    contributes ``coeff * x[ghost]`` to exactly one owned row --
    ``upper`` into the owner's row when the owner is the owned side,
    ``lower`` into the neighbour's row otherwise.
    """

    def __init__(self, sub, mat: LDUMatrix):
        self.sub = sub
        self.mat = mat
        own, nb = mat.owner, mat.neighbour
        no = sub.n_owned
        self.interior = np.nonzero((own < no) & (nb < no))[0]
        self.own_i = own[self.interior]
        self.nb_i = nb[self.interior]
        cut_own = np.nonzero((own < no) & (nb >= no))[0]
        cut_nb = np.nonzero((nb < no) & (own >= no))[0]
        # owned rows x local (ghost) columns, value-refreshed per bind from
        # the cut faces' ``upper`` (owner owned) / ``lower`` coefficients
        self._cut_faces = (cut_own, cut_nb)
        self._cut, self._cut_order = structural_csr(
            np.r_[own[cut_own], nb[cut_nb]], np.r_[nb[cut_own], own[cut_nb]],
            np.zeros(cut_own.size + cut_nb.size), (no, sub.n_local))
        #: stored entries of the owned rows; summed over all ranks this
        #: is the undecomposed operator's ``n_cells + 2 n_internal_faces``
        self.nnz = (no + 2 * self.interior.size
                    + cut_own.size + cut_nb.size)
        self._bufs: dict = {}
        alloc.count(3)
        m = self.interior.size
        self._block = LDUMatrix(no, self.own_i, self.nb_i,
                                np.empty(no), np.empty(m), np.empty(m))
        self._pattern = CSRPattern.from_ldu(self._block)
        self.bind(mat)

    def bind(self, mat: LDUMatrix) -> None:
        """Adopt the coefficients ``mat`` holds *now*, gathered once per
        solve into the CSR buffers the matvec halves multiply with."""
        self.mat = mat
        self._csr = self._pattern.csr(self.interior_block())
        cut_own, cut_nb = self._cut_faces
        self._cut.data[:] = np.r_[mat.upper[cut_own],
                                  mat.lower[cut_nb]][self._cut_order]

    # -- matvec halves ---------------------------------------------------
    def load(self, x: np.ndarray) -> np.ndarray:
        """Copy the owned cells of a ``(k, n_owned)`` block ``x`` into
        the persistent ``(k, n_local)`` local (owned + ghost) block and
        return it; the ghost cells await a refresh."""
        loc = scratch_buffer(self._bufs, "loc",
                             (x.shape[0], self.sub.n_local))
        loc[:, :self.sub.n_owned] = x
        return loc

    def apply_interior(self, loc: np.ndarray, out: np.ndarray) -> None:
        """Owned cells of the product from owned data only (``(k, n)``
        blocks, like :meth:`load`'s)."""
        csr_rows_product(self._csr, loc[:, :self.sub.n_owned], out)

    def apply_boundary(self, loc: np.ndarray, out: np.ndarray) -> None:
        """Add the cut-face (ghost-reading) contributions."""
        csr_rows_product(self._cut, loc, out, add=True)

    # -- the owned diagonal block --------------------------------------
    def interior_block(self) -> LDUMatrix:
        """The owned diagonal block (faces with both cells owned) of
        the bound matrix, restricted into persistent buffers."""
        blk = self._block
        blk.diag[:] = self.mat.diag[:blk.n]
        np.take(self.mat.lower, self.interior, out=blk.lower)
        np.take(self.mat.upper, self.interior, out=blk.upper)
        return blk

    def is_symmetric(self) -> bool:
        """Whether the owned interior block of the bound matrix is
        exactly symmetric (restricted anew: the values it holds *now*)."""
        return self.interior_block().is_symmetric(tol=0.0)
