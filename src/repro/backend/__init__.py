"""Pluggable array backends for the hot-path kernels.

``repro.backend`` is the thin array-namespace shim that lets the
allocation-free, batch-shaped kernels (CSR scatter/gather, blocked
Krylov reductions, fused assembly, vectorized kinetics, batched EoS
roots, the DNN matmul/GeLU stack) run on any Array-API-compatible
namespace.  Each kernel has **one body**, written against
:class:`ArrayBackend`; NumPy is the default backend *and* the
validation reference, ``array-api-strict`` is the CI compliance
backend, and accelerator adapters (CuPy, torch, ...) are third-party
packages registered through the ``repro.array_backends`` entry-point
group or :func:`register_backend`.

Select a backend per solver via ``SolverSettings.backend`` or per
kernel call via the ``backend=`` parameter; ``backend=None`` means
``get_backend("numpy")`` everywhere -- the same body on the default
backend, never a different function.
"""

from .base import ArrayBackend, BackendCapabilities
from .registry import backend_names, get_backend, register_backend

__all__ = [
    "ArrayBackend",
    "BackendCapabilities",
    "backend_names",
    "get_backend",
    "register_backend",
]
