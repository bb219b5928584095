"""Persistent Krylov vector workspace.

A Krylov solve that allocates its solution block per call costs a
tracked allocation per solve times ~10 solves per DeepFlame step.
:class:`KrylovWorkspace` is a tiny named-buffer pool: a solver asks
for ``("pcgm.x", (k, n))`` and gets the *same* array every call, so a
warm step performs zero tracked solver-vector allocations.

The pooled paths are arranged to be **bitwise identical** to the cold
paths: buffers are refilled with the exact values the cold code would
have constructed, and in-place updates preserve the original
elementwise operation order (IEEE addition/multiplication are
commutative, so ``np.add(p, r, out=p)`` reproduces ``r + p`` exactly).
"""

from __future__ import annotations

import numpy as np

from ..runtime import alloc

__all__ = ["KrylovWorkspace"]


class KrylovWorkspace:
    """Named, shape-keyed pool of persistent solver vectors."""

    def __init__(self):
        self._bufs: dict[tuple, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The persistent buffer for ``(name, shape)`` (contents are
        whatever the previous user left -- callers must overwrite)."""
        key = (name,) + tuple(shape)
        buf = self._bufs.get(key)
        if buf is None:
            buf = self._bufs[key] = np.empty(shape)
            alloc.count()
        return buf

    def zeros(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A pooled buffer cleared to zero."""
        buf = self.get(name, shape)
        buf[:] = 0.0
        return buf
