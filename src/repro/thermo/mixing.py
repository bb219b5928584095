"""Van der Waals one-fluid mixing rules for cubic equations of state.

    a_mix = sum_ij x_i x_j sqrt(a_i a_j) (1 - k_ij)
    b_mix = sum_i x_i b_i

Binary interaction coefficients ``k_ij`` default to zero (the standard
choice for LOX/CH4 supercritical simulations when no regression data
is available).

The quadratic form is evaluated in exactly one place,
:meth:`VanDerWaalsMixing.attraction`, from ``r_i = x_i sqrt(a_i)`` and
its temperature derivatives; :meth:`mix` and :meth:`mix_derivative`
are the per-species-``a_i`` spellings of the same call.
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

    def attraction(self, r: np.ndarray, dr: np.ndarray | None = None,
                   d2r: np.ndarray | None = None):
        """``(a_mix, da_mix/dT, d2a_mix/dT2)`` from ``r_i = x_i sqrt(a_i)``.

        ``r``, ``dr = dr/dT`` and ``d2r = d2r/dT2`` have shape
        ``(..., ns)``; a derivative whose input is ``None`` comes back
        ``None``.  With ``K = 1 - k_ij`` (symmetric)::

            a   = r K r
            a'  = 2 r K r'
            a'' = 2 (r' K r' + r K r'')

        so the three share the two products ``r K`` and ``r' K``.  The
        products are spelled as einsums, not ``@``: a BLAS product of a
        row subset is not bitwise the subset of the full product, and
        every cell's result must be independent of what else shares
        its batch.
        """
        one_minus_k = 1.0 - self.k_ij
        rk = np.einsum("...i,ij->...j", r, one_minus_k)
        a = (rk * r).sum(axis=-1)
        if dr is None:
            return a, None, None
        da = 2.0 * (rk * dr).sum(axis=-1)
        if d2r is None:
            return a, da, None
        drk = np.einsum("...i,ij->...j", dr, one_minus_k)
        d2a = 2.0 * ((drk * dr).sum(axis=-1) + (rk * d2r).sum(axis=-1))
        return a, da, d2a

    def mix(self, a_i: np.ndarray, b_i: np.ndarray, x: np.ndarray):
        """Mixture a and b.

        Parameters
        ----------
        a_i:
            Per-species attraction parameters, shape ``(..., ns)``.
        b_i:
            Per-species covolumes, shape ``(ns,)``.
        x:
            Mole fractions, shape ``(..., ns)``.
        """
        a_mix, _, _ = self.attraction(x * np.sqrt(np.maximum(a_i, 0.0)))
        return a_mix, (x * b_i).sum(axis=-1)

    def mix_derivative(self, a_i: np.ndarray, da_i: np.ndarray, x: np.ndarray):
        """d(a_mix)/dT given per-species a_i and da_i/dT.

        Uses d sqrt(a_i)/dT = da_i / (2 sqrt(a_i)).
        """
        sqrt_a = np.sqrt(np.maximum(a_i, 1e-300))
        _, da_dt, _ = self.attraction(x * sqrt_a, x * (da_i / (2.0 * sqrt_a)))
        return da_dt
