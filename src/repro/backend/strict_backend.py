"""The ``array-api-strict`` compliance backend (CI conformance leg).

``array_api_strict`` is a minimal, deliberately restrictive
implementation of the Array API standard: it rejects every numpy-ism
outside the spec (integer-array fancy indexing, ``out=`` kwargs,
dtype-promoting scalars, ...).  Running the kernel inventory through
this backend in CI proves the generic kernel bodies stay inside the
portable subset -- the property that makes the CuPy/torch adapters
work without per-backend kernel forks.

Data lives in host memory (the module wraps numpy), so
:meth:`from_device` is a cheap unwrap; the value of the backend is
*API* strictness, not device placement.  None of the beyond-spec
capabilities are advertised, which exercises every host-fallback path
(scatter-add) exactly as a real accelerator without that primitive
would.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend, BackendCapabilities

__all__ = ["ArrayApiStrictBackend"]


class ArrayApiStrictBackend(ArrayBackend):
    """Array API standard compliance backend (host data, strict API)."""

    name = "array-api-strict"
    capabilities = BackendCapabilities(
        scatter_add=False, inplace_buffers=False, einsum=False)

    def __init__(self):
        import array_api_strict

        self.xp = array_api_strict

    def from_device(self, x) -> np.ndarray:
        """Unwrap to the underlying host numpy array."""
        if hasattr(x, "__array_namespace__"):
            # np.asarray on a strict array goes through the buffer
            # protocol / __array__ and yields the host data
            return np.asarray(x)
        return np.asarray(x)


def make_backend() -> ArrayApiStrictBackend:
    """Entry-point factory (raises ImportError when not installed)."""
    return ArrayApiStrictBackend()
