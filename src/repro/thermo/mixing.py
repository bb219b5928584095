"""Van der Waals one-fluid mixing rules for cubic equations of state.

    a_mix = sum_ij x_i x_j sqrt(a_i a_j) (1 - k_ij)
    b_mix = sum_i x_i b_i

Binary interaction coefficients ``k_ij`` default to zero (the standard
choice for LOX/CH4 supercritical simulations when no regression data
is available).  With every ``k_ij = 0`` the form is rank-1, ``a_mix =
(sum_i r_i)^2`` with ``r_i = x_i sqrt(a_i)``: one row sum per cell, not
an ``(ns, ns)`` product.  ``k_ij`` selects the form, no option does;
:meth:`VanDerWaalsMixing.attraction` is the one evaluation of either.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VanDerWaalsMixing"]


class VanDerWaalsMixing:
    """Quadratic (vdW one-fluid) mixing rules with optional k_ij."""

    def __init__(self, n_species: int, k_ij: np.ndarray | None = None):
        self.n_species = n_species
        if k_ij is None:
            k_ij = np.zeros((n_species, n_species))
        k_ij = np.asarray(k_ij, dtype=float)
        if k_ij.shape != (n_species, n_species):
            raise ValueError("k_ij must be (ns, ns)")
        if not np.allclose(k_ij, k_ij.T):
            raise ValueError("k_ij must be symmetric")
        self.k_ij = k_ij
        #: ``1 - k_ij`` of the quadratic form; ``None`` when no pair
        #: interacts and the rule is rank-1
        self.one_minus_k = 1.0 - k_ij if k_ij.any() else None

    @staticmethod
    def rank_one(s, ds=None, d2s=None):
        """``(a, a', a'')`` of ``a = s^2`` from ``s = sum_i r_i`` and its
        temperature derivatives (``None`` in, ``None`` out)."""
        return (s * s, None if ds is None else 2.0 * s * ds,
                None if d2s is None else 2.0 * (ds * ds + s * d2s))

    def attraction(self, r: np.ndarray, dr: np.ndarray | None = None,
                   d2r: np.ndarray | None = None):
        """``(a_mix, da_mix/dT, d2a_mix/dT2)`` from ``r_i = x_i sqrt(a_i)``.

        ``r``, ``dr = dr/dT`` and ``d2r = d2r/dT2`` have shape
        ``(..., ns)``; a derivative whose input is ``None`` comes back
        ``None``.  With ``K = 1 - k_ij`` (symmetric)::

            a   = r K r
            a'  = 2 r K r'
            a'' = 2 (r' K r' + r K r'')

        so the three share the two products ``r K`` and ``r' K``; with
        ``K`` all ones they are :meth:`rank_one` of the row sums.  The
        products are spelled as einsums, not ``@``: a BLAS product of a
        row subset is not bitwise the subset of the full product, and
        every cell's result must be independent of what else shares
        its batch.
        """
        if self.one_minus_k is None:
            return self.rank_one(*(None if v is None else v.sum(axis=-1)
                                   for v in (r, dr, d2r)))
        rk = np.einsum("...i,ij->...j", r, self.one_minus_k)
        a = (rk * r).sum(axis=-1)
        if dr is None:
            return a, None, None
        da = 2.0 * (rk * dr).sum(axis=-1)
        if d2r is None:
            return a, da, None
        drk = np.einsum("...i,ij->...j", dr, self.one_minus_k)
        d2a = 2.0 * ((drk * dr).sum(axis=-1) + (rk * d2r).sum(axis=-1))
        return a, da, d2a
