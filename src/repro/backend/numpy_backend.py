"""The NumPy reference backend (always available, always the default).

NumPy is both the default execution backend and the *validation
reference*: every other backend's kernel output is compared against
this one by the conformance suite.  The helper kernels here are the
exact pre-shim spellings (``np.add.at`` scatter, einsum column dots),
so routing a kernel through this backend is bitwise-identical to the
legacy code path and adds no allocations.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend, BackendCapabilities

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Host numpy: full capabilities, zero transfer cost."""

    name = "numpy"
    xp = np
    capabilities = BackendCapabilities(
        scatter_add=True, inplace_buffers=True, einsum=True)

    def to_device(self, x, dtype=None):
        """No-op transfer (``np.asarray``)."""
        if dtype is not None:
            dtype = self.dtype_of(dtype)
        return np.asarray(x, dtype=dtype)

    def from_device(self, x) -> np.ndarray:
        """Already host data."""
        return np.asarray(x)

    def scatter_add(self, target, idx, vals):
        """Native duplicate-accumulating scatter (``np.add.at``)."""
        np.add.at(target, idx, vals)
        return target

    def take(self, x, idx, axis=None):
        """Native gather (``np.take``)."""
        return np.take(x, idx, axis=axis)

    def coldot(self, a, b):
        """The blocked solvers' einsum fast path (pre-shim spelling)."""
        return np.einsum("ij,ij->j", a, b)

    def colsum_abs(self, r):
        """The blocked solvers' pre-shim L1 spelling."""
        return np.abs(r).sum(axis=0)


def make_backend() -> NumpyBackend:
    """Entry-point factory."""
    return NumpyBackend()
