"""The NumPy reference backend (always available, always the default).

NumPy is both the default execution backend and the *validation
reference*: ``backend=None`` resolves here, and every other backend's
kernel output is compared against this one by the conformance suite.
The helpers below are the fast native spellings of the generic ones
in :class:`~repro.backend.base.ArrayBackend` (``np.add.at`` scatter,
``ndarray.take`` gather, einsum column dots) -- the place a kernel's
numpy-specific speed lives, so the kernel body itself stays generic.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend, BackendCapabilities

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Host numpy: full capabilities, zero transfer cost (the
    inherited ``to_device`` / ``from_device`` are ``np.asarray``)."""

    name = "numpy"
    xp = np
    capabilities = BackendCapabilities(scatter_add=True)

    def scatter_add(self, target, idx, vals):
        """Native duplicate-accumulating scatter (``np.add.at``)."""
        np.add.at(target, idx, vals)
        return target

    def take(self, x, idx, axis=None):
        """Native gather.  Rows go through the ``ndarray.take`` method
        (it skips the ``np.take`` dispatch wrapper, which is what the
        DIC sweeps' hundreds of short per-level gathers pay for);
        columns of a matrix through a fancy index, which ``take`` along
        the strided axis loses to by ~1.5x on the kinetics' ``(n, ns)``
        concentration gathers."""
        if axis == 1 and x.ndim == 2:
            return x[:, idx]
        return x.take(idx, axis=axis)

    def coldot(self, a, b):
        """Per-column dots through einsum (no ``(n, k)`` temporary)."""
        return np.einsum("ij,ij->j", a, b)
