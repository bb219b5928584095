"""The :class:`ArrayBackend` shim: one array namespace per device.

Every hot-path kernel in this reproduction is written against the
`Python Array API standard <https://data-apis.org/array-api/>`_ subset
plus a handful of named helper operations that the standard does not
cover (scatter-add, fused reductions).  An :class:`ArrayBackend`
bundles

* ``xp`` -- the array namespace itself (``numpy``,
  ``array_api_strict``, or whatever a third-party adapter binds),
* a **dtype policy** (:meth:`dtype_of` maps the ``"fp32"``/``"fp64"``
  spellings used throughout the repo onto namespace dtypes; kernels
  must *preserve* the input dtype -- no silent fp32 -> fp64 upcasts),
* **device transfer** (:meth:`to_device` / :meth:`from_device`), and
* **capability flags** (:class:`BackendCapabilities`) that gate the
  operations outside the standard: kernels consult the flags and fall
  back to a documented host (NumPy) round-trip when a capability is
  missing, so the *same* kernel code runs -- and computes the same
  answer -- on every backend.

NumPy is the default backend and the validation reference: every
kernel has one body, ``backend=None`` runs it on the NumPy backend,
and ``tests/test_backend_conformance.py`` compares every other
backend against that run over the full kernel inventory (reductions
may differ by documented ulps where the generic spelling
reassociates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BackendCapabilities", "ArrayBackend"]

#: canonical dtype spellings accepted by :meth:`ArrayBackend.dtype_of`
DTYPE_NAMES = ("fp32", "fp64")


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do beyond the Array API standard subset.

    Kernels branch on these flags; a ``False`` flag routes the
    affected operation through the documented host fallback (see
    ``docs/API.md`` for the per-kernel fallback inventory).
    """

    #: ``x[idx] op= v`` with an integer index array (np.add.at-style
    #: duplicate-accumulating scatter).  Without it, scatter_add and
    #: the DIC wavefront sweeps run on the host.
    scatter_add: bool = False


class ArrayBackend:
    """Base array-namespace adapter (subclasses bind a namespace).

    Subclasses must set :attr:`name`, :attr:`xp` and
    :attr:`capabilities`, and override the device-transfer hooks when
    the namespace holds data off-host.  All helper kernels below are
    written once against the Array API subset; backends override them
    only to install a *faster* native spelling (never a different
    contract).
    """

    #: registry name (``"numpy"``, ``"array-api-strict"``, ...)
    name: str = "abstract"
    #: the array namespace
    xp = None
    #: capability flags consulted by the kernels
    capabilities = BackendCapabilities()

    # -- dtype policy --------------------------------------------------
    def dtype_of(self, spec):
        """Map ``"fp32"``/``"fp64"`` (or a dtype) to a namespace dtype."""
        # strings only: comparing a numpy dtype with "fp32" makes numpy
        # try (and fail) to parse the string as a dtype, ~10x the cost
        # of the whole no-op transfer this sits in
        if isinstance(spec, str):
            if spec == "fp32":
                return self.xp.float32
            if spec == "fp64":
                return self.xp.float64
        return spec

    # -- device transfer -----------------------------------------------
    def to_device(self, x, dtype=None):
        """Host (or device) data -> backend array, optionally cast."""
        if dtype is not None:
            dtype = self.dtype_of(dtype)
        return self.xp.asarray(x, dtype=dtype)

    def from_device(self, x) -> np.ndarray:
        """Backend array -> host numpy array (no copy when possible)."""
        return np.asarray(x)

    # -- helper kernels outside the standard subset --------------------
    def scatter_add(self, target, idx, vals):
        """``target[idx] += vals`` with duplicate accumulation.

        ``target`` is mutated and returned.  Host fallback: round-trip
        through numpy's ``np.add.at`` and write back with a basic-index
        assignment (capability flag :attr:`BackendCapabilities.scatter_add`).
        """
        host = self.from_device(target).copy()
        np.add.at(host, self.from_device(idx),
                  self.from_device(vals))
        target[...] = self.to_device(host, dtype=target.dtype)
        return target

    def sparse_matmul(self, a, x):
        """``a @ x`` in the dtype of ``x`` (shape ``(m, ...)``) for a host
        scipy sparse ``a`` (a structural operator: mesh incidence,
        interpolation).  One body: a host round trip through the compiled
        scipy product -- free where transfers are no-ops (numpy); a
        device backend overrides it with its native sparse product."""
        host = self.from_device(x)
        y = a.astype(host.dtype, copy=False) @ host.reshape(
            (host.shape[0], math.prod(host.shape[1:])))
        return self.to_device(y.reshape(a.shape[:1] + host.shape[1:]),
                              dtype=x.dtype)

    def take(self, x, idx, axis=None):
        """Gather ``x`` at integer indices ``idx`` (1-D) along ``axis``."""
        if axis is None:
            return self.xp.take(self.xp.reshape(x, (-1,)), idx)
        return self.xp.take(x, idx, axis=axis)

    def coldot(self, a, b):
        """Per-column dot products of two ``(n, k)`` blocks.

        Generic spelling ``sum(a * b, axis=0)``; the NumPy backend
        overrides with the einsum fast path.  Reduction order may
        differ between the two by a few ulps (documented -- the
        conformance suite compares reductions with an ulp budget).
        """
        return self.xp.sum(a * b, axis=0)

    def colsum_abs(self, r):
        """Per-column L1 norms of an ``(n, k)`` block."""
        return self.xp.sum(self.xp.abs(r), axis=0)

    def matmul(self, a, b):
        """Matrix product (namespace ``matmul``)."""
        return self.xp.matmul(a, b)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ArrayBackend {self.name}>"
