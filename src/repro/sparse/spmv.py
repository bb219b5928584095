"""SpMV kernels and operation accounting.

Three equivalent SpMV paths -- LDU face-loop, global CSR and block-CSR
-- plus flop/byte accounting used by the roofline-style performance
model (the PDE solver is bandwidth-bound on all three paper machines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # ldu.py imports this module for its matvec body
    from .ldu import LDUMatrix

__all__ = ["spmv_ldu", "spmv_ldu_multi", "spmv_faces", "csr_rows_product",
           "ROWWISE_MAX", "SpmvCost", "spmv_cost"]


def spmv_faces(diag, lower, upper, owner, neighbour, x):
    """The LDU face-loop SpMV (``x`` 1-D or ``(n, k)``).

    The one body behind :meth:`LDUMatrix.matvec` /
    :meth:`~LDUMatrix.matvec_multi` and :func:`spmv_ldu`: gather ``x``
    at the face endpoints, form the face products, and accumulate them
    onto the owner/neighbour rows with ``np.add.at``.  Each triangle is
    accumulated into its own zero buffer in face order and then added
    to the diagonal product, which fixes the association order -- and
    with it every bit of the result.

    Computes in the dtype of ``x`` (coefficients are cast to it, never
    the other way -- no silent fp32 -> fp64 upcasts).
    """
    x = np.asarray(x)
    dt = x.dtype
    col = (slice(None), None) if x.ndim == 2 else slice(None)
    own = np.asarray(owner, dtype=np.int64)
    nb = np.asarray(neighbour, dtype=np.int64)
    y = np.asarray(diag, dtype=dt)[col] * x
    for coef, rows, cols in ((upper, own, nb), (lower, nb, own)):
        acc = np.zeros(y.shape, dtype=dt)
        np.add.at(acc, rows, np.asarray(coef, dtype=dt)[col] * x.take(cols, axis=0))
        y += acc
    return y


def spmv_ldu(ldu: LDUMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x via the LDU face loop (:func:`spmv_faces` on the
    matrix's arrays, in the dtype of ``x``)."""
    return spmv_faces(ldu.diag, ldu.lower, ldu.upper,
                      ldu.owner, ldu.neighbour, x)


#: ``Y = A X`` for ``X`` of shape ``(n, k)`` is the same kernel: column
#: ``j`` equals ``spmv_ldu(ldu, X[:, j])`` bitwise.  This is the
#: validation path; blocked solves use a one-off CSR conversion +
#: sparse-dense product (~15x at 5k cells, k=17), which is what
#: ``CoupledTransportEquation.solve`` hands the blocked Krylov solvers.
spmv_ldu_multi = spmv_ldu

#: the widest block :func:`csr_rows_product` multiplies one row at a
#: time; a wider one takes one compiled product over a transposed copy,
#: because scipy's per-call overhead then dominates (periodic-box
#: Laplacian, one thread of a 2-vCPU x86 host: 3 rows of 32 768 cells
#: took 716 us row by row and 1 106 us as one product, 18 rows of 1728
#: cells 305 and 166 us)
ROWWISE_MAX = 4


def csr_rows_product(csr, x: np.ndarray, out: np.ndarray,
                     add: bool = False) -> None:
    """``out = A X`` (``out += A X`` with ``add``) on column-major blocks.

    ``x`` is ``(k, n)`` and ``out`` ``(k, m)``: row ``j`` of each is
    column ``j`` of the multi-vector (the layout of every Krylov
    block).  Row ``j`` of the product is ``csr @ x[j]`` bit for bit
    whatever ``k`` -- scipy's one-vector and multi-vector kernels add a
    row's entries in the same order -- so a column's product does not
    depend on the block it rides in.
    """
    if x.shape[0] <= ROWWISE_MAX:
        for xj, oj in zip(x, out):
            if add:
                oj += csr @ xj
            else:
                oj[...] = csr @ xj
        return
    y = (csr @ x.T).T
    if add:
        out += y
    else:
        out[...] = y


@dataclass(frozen=True)
class SpmvCost:
    """Operation counts of one SpMV."""

    flops: int
    bytes_moved: int

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte -- ~0.1 for CSR SpMV, firmly bandwidth-bound."""
        return self.flops / self.bytes_moved if self.bytes_moved else 0.0


def spmv_cost(nnz: int, n: int, value_bytes: int = 8, index_bytes: int = 4) -> SpmvCost:
    """Cost model of one CSR SpMV.

    flops = 2 nnz; bytes = values + column indices + row pointers +
    input/output vectors (each vector element read/written once --
    cache-friendly orderings like the paper's CM renumbering make the
    gather on x approach this lower bound).
    """
    flops = 2 * nnz
    data = nnz * (value_bytes + index_bytes)
    ptrs = (n + 1) * index_bytes
    vecs = 2 * n * value_bytes + n * value_bytes
    return SpmvCost(flops, data + ptrs + vecs)
