"""Optional PyTorch backend adapter.

Imports lazily (``ImportError`` without torch).  The adapter prefers
the ``array_api_compat.torch`` namespace when that shim is installed
-- it spells torch in standard Array API form, so the generic kernel
bodies run unmodified -- and falls back to raw ``torch`` (whose
namespace covers the subset the kernels use: elementwise math,
``sum``/``abs`` with ``axis`` via the compat ``dim`` aliasing is NOT
assumed -- helpers below bridge the few spelling gaps).  Device
selection follows torch's current default device; pass tensors through
:meth:`to_device` to place them.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend, BackendCapabilities

__all__ = ["TorchBackend"]


class TorchBackend(ArrayBackend):
    """Torch tensors (CPU or CUDA) behind the array-namespace shim."""

    name = "torch"
    capabilities = BackendCapabilities(
        scatter_add=True, inplace_buffers=True, einsum=True)

    def __init__(self):
        import torch

        self._torch = torch
        try:  # the spec-conformant spelling when available
            from array_api_compat import torch as xp  # type: ignore
        except ImportError:
            xp = torch
        self.xp = xp

    def dtype_of(self, spec):
        """Torch dtype policy (``torch.float32`` / ``torch.float64``)."""
        if spec == "fp32":
            return self._torch.float32
        if spec == "fp64":
            return self._torch.float64
        return spec

    def to_device(self, x, dtype=None):
        """Host data -> tensor on torch's default device."""
        if dtype is not None:
            dtype = self.dtype_of(dtype)
        if isinstance(x, np.ndarray):
            # torch refuses read-only views; copy defensively
            x = np.ascontiguousarray(x)
        return self._torch.as_tensor(x, dtype=dtype)

    def from_device(self, x) -> np.ndarray:
        """Tensor -> host numpy array."""
        if hasattr(x, "detach"):
            return x.detach().cpu().numpy()
        return np.asarray(x)

    def scatter_add(self, target, idx, vals):
        """Native duplicate-accumulating scatter (``index_add_``)."""
        flat_idx = self._torch.as_tensor(idx, dtype=self._torch.int64)
        target.index_add_(0, flat_idx, vals)
        return target

    def take(self, x, idx, axis=None):
        """Gather along ``axis`` (``index_select``)."""
        idx = self._torch.as_tensor(idx, dtype=self._torch.int64)
        if axis is None:
            return self._torch.take(x, idx)
        return self._torch.index_select(x, axis, idx)

    def coldot(self, a, b):
        """Device einsum column dots."""
        return self._torch.einsum("ij,ij->j", a, b)

    def colsum_abs(self, r):
        """Device per-column L1 norms."""
        return self._torch.sum(self._torch.abs(r), dim=0)


def make_backend() -> TorchBackend:
    """Entry-point factory (raises ImportError without torch)."""
    return TorchBackend()
