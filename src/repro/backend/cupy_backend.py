"""Optional CuPy (CUDA) backend adapter.

Imports lazily: constructing the backend raises ``ImportError`` on
hosts without CuPy, and the registry reports it as *registered but
unavailable* -- selection fails with a clear message instead of a
silent numpy fallback.  CuPy's namespace is numpy-compatible well
beyond the Array API subset, so every capability is advertised:
kernels run fully on device with no host round-trips (except where a
kernel documents a host fallback independent of the backend, e.g. the
per-reaction falloff closures in :mod:`repro.chemistry.kinetics`).
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend, BackendCapabilities

__all__ = ["CupyBackend"]


class CupyBackend(ArrayBackend):
    """CUDA device arrays through CuPy's numpy-compatible namespace."""

    name = "cupy"
    capabilities = BackendCapabilities(
        scatter_add=True, inplace_buffers=True, einsum=True)

    def __init__(self):
        import cupy

        self.xp = cupy
        self._cupyx = __import__("cupyx")

    def from_device(self, x) -> np.ndarray:
        """Device -> host copy (``cupy.asnumpy``)."""
        return self.xp.asnumpy(x)

    def scatter_add(self, target, idx, vals):
        """Native device scatter (``cupyx.scatter_add``)."""
        self._cupyx.scatter_add(target, idx, vals)
        return target

    def coldot(self, a, b):
        """Device einsum column dots."""
        return self.xp.einsum("ij,ij->j", a, b)

    def colsum_abs(self, r):
        """Device per-column L1 norms."""
        return self.xp.abs(r).sum(axis=0)


def make_backend() -> CupyBackend:
    """Entry-point factory (raises ImportError without CuPy)."""
    return CupyBackend()
