"""Sparse linear algebra substrate.

OpenFOAM's LDU matrix format, the paper's t x t block-CSR format with
precomputed LDU->block conversion, SpMV kernels with cost accounting
and serial/block-parallel Gauss-Seidel smoothing.
"""

__all__ = []
