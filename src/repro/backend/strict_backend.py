"""The ``array-api-strict`` compliance backend (CI conformance leg).

``array_api_strict`` is a minimal, deliberately restrictive
implementation of the Array API standard: it rejects every numpy-ism
outside the spec (integer-array fancy indexing, ``out=`` kwargs,
dtype-promoting scalars, ...).  Running the kernel inventory through
this backend in CI proves the kernel bodies stay inside the portable
subset -- the property that lets a third-party accelerator adapter
work without per-backend kernel forks.

Data lives in host memory (the module wraps numpy), so the inherited
:meth:`from_device` (``np.asarray``, through the buffer protocol) is a
cheap unwrap; the value of the backend is *API* strictness, not
device placement.  None of the beyond-spec capabilities are
advertised, which exercises every host-fallback path (scatter-add)
exactly as a real accelerator without that primitive would.
"""

from __future__ import annotations

from .base import ArrayBackend, BackendCapabilities

__all__ = ["ArrayApiStrictBackend"]


class ArrayApiStrictBackend(ArrayBackend):
    """Array API standard compliance backend (host data, strict API)."""

    name = "array-api-strict"
    capabilities = BackendCapabilities(scatter_add=False)

    def __init__(self):
        import array_api_strict

        self.xp = array_api_strict

