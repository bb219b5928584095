"""Sparse linear algebra substrate.

OpenFOAM's LDU matrix format, the paper's t x t block-CSR format with
precomputed LDU->block conversion, SpMV kernels with cost accounting
and serial/block-parallel Gauss-Seidel smoothing.
"""

from .block_csr import BlockCSRMatrix
from .convert import (
    BlockConverter,
    build_block_converter,
    row_ranges_from_membership,
)
from .gauss_seidel import (
    GaussSeidelSmoother,
    SmootherStats,
    gauss_seidel_block,
    gauss_seidel_csr,
)
from .ldu import LDUMatrix
from .pattern import CSRPattern
from .spmv import (
    SpmvCost,
    spmv_cost,
    spmv_faces,
    spmv_ldu,
    spmv_ldu_multi,
)

__all__ = [
    "BlockCSRMatrix",
    "BlockConverter",
    "CSRPattern",
    "GaussSeidelSmoother",
    "LDUMatrix",
    "SmootherStats",
    "SpmvCost",
    "build_block_converter",
    "gauss_seidel_block",
    "gauss_seidel_csr",
    "row_ranges_from_membership",
    "spmv_cost",
    "spmv_faces",
    "spmv_ldu",
    "spmv_ldu_multi",
]
