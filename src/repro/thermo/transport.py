"""High-pressure transport properties.

Dilute-gas viscosity and thermal conductivity come from Chapman-Enskog
kinetic theory with the Neufeld collision-integral fit and Wilke
mixture averaging.  The dense-fluid (supercritical) corrections use the
Jossi-Stiel-Thodos residual-viscosity and Stiel-Thodos residual-
conductivity correlations, which capture the order-of-magnitude
viscosity rise near and above the critical density.

The paper's DeepFlame uses Chung's method; JST/ST is the same class of
corresponding-states residual correlation (see DESIGN.md) and provides
the same qualitative real-fluid behaviour PRNet must learn: strong
density dependence on top of a sqrt(T) dilute limit.

Viscosity and conductivity share the species viscosities ``mu_i(T)``
and the composition's Kay's-rule pseudo-critical point;
:meth:`TransportModel.viscosity_conductivity` evaluates both once.  No
``(n, ns, ns)`` array is formed anywhere: the Wilke sum is three
``(n, ns) x (ns, ns)`` products against constant matrices.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..constants import K_BOLTZMANN, N_AVOGADRO, R_UNIVERSAL
from ..chemistry.mechanism import Mechanism

__all__ = ["TransportModel"]


def _omega22(t_star: np.ndarray) -> np.ndarray:
    """Neufeld fit of the (2,2) reduced collision integral."""
    t_star = np.maximum(t_star, 1e-3)
    return (
        1.16145 * t_star**-0.14874
        + 0.52487 * np.exp(-0.77320 * t_star)
        + 2.16178 * np.exp(-2.43787 * t_star)
    )


class _PseudoCritical(NamedTuple):
    """Mole fractions and Kay's-rule pseudo-critical point of a mixture."""

    x: np.ndarray
    tc: np.ndarray
    pc: np.ndarray
    vc: np.ndarray
    w_mix: np.ndarray


class TransportModel:
    """Mixture viscosity, thermal conductivity and species diffusivity."""

    def __init__(self, mech: Mechanism):
        self.mech = mech
        self.sigma = np.array([s.lj_sigma for s in mech.species])
        self.eps_kb = np.array([s.lj_eps_kb for s in mech.species])
        self.weights = mech.molecular_weights
        self.t_crit = np.array([s.t_crit for s in mech.species])
        self.p_crit = np.array([s.p_crit for s in mech.species])
        # Wilke: phi_ij = (1 + sqrt(mu_i/mu_j) A_ij)^2 C_ij with
        # A_ij = (W_j/W_i)^(1/4), C_ij = 1/sqrt(8 (1 + W_i/W_j)), expands to
        # C_ij + 2 (s_i/s_j) A_ij C_ij + (mu_i/mu_j) A_ij^2 C_ij, s = sqrt(mu).
        # Stored transposed ([j, i]) for the sum over j in _wilke.
        w = self.weights
        quarter = (w[:, None] / w[None, :]) ** 0.25           # A_ij at [j, i]
        c = 1.0 / np.sqrt(8.0 * (1.0 + w[None, :] / w[:, None]))
        self._wilke_terms = (c, 2.0 * quarter * c, quarter**2 * c)

    # -- dilute-gas properties ----------------------------------------
    def species_viscosity(self, t: np.ndarray) -> np.ndarray:
        """Dilute-gas viscosities [Pa s], shape ``t.shape + (ns,)``."""
        t = np.asarray(t, dtype=float)[..., None]
        t_star = t / self.eps_kb
        m_kg = self.weights / N_AVOGADRO
        return (
            5.0
            / 16.0
            * np.sqrt(np.pi * m_kg * K_BOLTZMANN * t)
            / (np.pi * self.sigma**2 * _omega22(t_star))
        )

    def species_conductivity(self, t: np.ndarray) -> np.ndarray:
        """Dilute-gas thermal conductivities [W/(m K)], modified Eucken."""
        t = np.asarray(t, dtype=float)
        return self._eucken(t, self.species_viscosity(t))

    def _eucken(self, t: np.ndarray, mu_i: np.ndarray) -> np.ndarray:
        cv_mole = self.mech.cp_r_all(t) * R_UNIVERSAL - R_UNIVERSAL
        f_int = 1.32 * cv_mole / R_UNIVERSAL + 1.77  # Eucken-style factor
        return mu_i / self.weights * R_UNIVERSAL * f_int

    def mixture_viscosity_dilute(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Wilke mixture-averaged dilute viscosity [Pa s]."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = self.mech.mole_fractions(np.atleast_2d(y))
        return self._wilke(self.species_viscosity(t), x)

    def _wilke(self, mu_i: np.ndarray, x: np.ndarray) -> np.ndarray:
        """sum_i x_i mu_i / sum_j x_j phi_ij as three row-independent
        products (einsum, not ``@``: see VanDerWaalsMixing.attraction)."""
        c0, c1, c2 = self._wilke_terms
        mu_safe = np.maximum(mu_i, 1e-300)
        s = np.sqrt(mu_safe)
        denom = (
            np.einsum("nj,ji->ni", x, c0)
            + s * np.einsum("nj,ji->ni", x / s, c1)
            + mu_i * np.einsum("nj,ji->ni", x / mu_safe, c2)
        )
        return (x * mu_i / np.maximum(denom, 1e-300)).sum(axis=-1)

    def mixture_conductivity_dilute(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mixture conductivity [W/(m K)] via the Mathur combination rule."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = self.mech.mole_fractions(np.atleast_2d(y))
        return self._mathur(self.species_conductivity(t), x)

    @staticmethod
    def _mathur(lam_i: np.ndarray, x: np.ndarray) -> np.ndarray:
        avg = (x * lam_i).sum(axis=-1)
        inv = (x / np.maximum(lam_i, 1e-300)).sum(axis=-1)
        return 0.5 * (avg + 1.0 / np.maximum(inv, 1e-300))

    # -- dense-fluid corrections --------------------------------------
    def _pseudo_critical(self, y: np.ndarray) -> _PseudoCritical:
        """Kay's-rule pseudo-critical properties of the mixture."""
        x = self.mech.mole_fractions(np.atleast_2d(y))
        tc = (x * self.t_crit).sum(axis=-1)
        pc = (x * self.p_crit).sum(axis=-1)
        w_mix = (x * self.weights).sum(axis=-1)
        # critical molar volume estimate from Zc ~ 0.27
        vc = 0.27 * R_UNIVERSAL * tc / pc
        return _PseudoCritical(x, tc, pc, vc, w_mix)

    def _viscosity(self, mu_i, rho, mix: _PseudoCritical) -> np.ndarray:
        """Wilke dilute value of ``mu_i`` + the JST residual at ``rho``."""
        tc, pc, vc, w_mix = mix.tc, mix.pc, mix.vc, mix.w_mix
        rho_r = rho * vc / w_mix  # reduced density
        # JST inverse viscosity parameter xi (SI form).
        xi = tc ** (1.0 / 6.0) / (
            np.sqrt(w_mix * 1e3) * (pc / 101325.0) ** (2.0 / 3.0)
        )
        poly = (
            0.1023
            + 0.023364 * rho_r
            + 0.058533 * rho_r**2
            - 0.040758 * rho_r**3
            + 0.0093324 * rho_r**4
        )
        # JST is formulated in centipoise: (mu - mu0) xi = poly^4 - 1e-4
        residual_cp = (np.maximum(poly, 0.0) ** 4 - 1e-4) / xi
        return (self._wilke(mu_i, mix.x)
                + np.maximum(residual_cp, 0.0) * 1e-3)  # cP -> Pa s

    def _conductivity(self, t, mu_i, rho, mix: _PseudoCritical) -> np.ndarray:
        """Mathur dilute value from ``mu_i`` + the ST residual at ``rho``."""
        tc, pc, vc, w_mix = mix.tc, mix.pc, mix.vc, mix.w_mix
        rho_r = np.minimum(rho * vc / w_mix, 2.8)
        zc = 0.27
        gamma = tc ** (1.0 / 6.0) * np.sqrt(w_mix * 1e3) / (
            (pc / 101325.0) ** (2.0 / 3.0)
        )
        # Stiel-Thodos piecewise residual (in W/(m K) after unit fold-in).
        res = np.where(
            rho_r < 0.5,
            1.22e-2 * (np.exp(0.535 * rho_r) - 1.0),
            np.where(
                rho_r < 2.0,
                1.14e-2 * (np.exp(0.67 * rho_r) - 1.069),
                2.60e-3 * (np.exp(1.155 * rho_r) + 2.016),
            ),
        )
        residual = res / (gamma * zc**5) * 4.184e-4
        return (self._mathur(self._eucken(t, mu_i), mix.x)
                + np.maximum(residual, 0.0))

    def _shared(self, t, rho, y):
        """Normalized ``t``/``rho`` plus what both properties are built
        from: the species viscosities and the pseudo-critical point."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        return t, rho, self.species_viscosity(t), self._pseudo_critical(y)

    def viscosity_conductivity(self, t, rho, y):
        """``(mu [Pa s], lambda [W/(m K)])`` at high pressure, sharing the
        species viscosities and the pseudo-critical point."""
        t, rho, mu_i, mix = self._shared(t, rho, y)
        return (self._viscosity(mu_i, rho, mix),
                self._conductivity(t, mu_i, rho, mix))

    def viscosity(self, t, rho, y) -> np.ndarray:
        """High-pressure mixture viscosity [Pa s] (dilute + JST residual)."""
        _, rho, mu_i, mix = self._shared(t, rho, y)
        return self._viscosity(mu_i, rho, mix)

    def thermal_conductivity(self, t, rho, y) -> np.ndarray:
        """High-pressure conductivity [W/(m K)] (dilute + ST residual)."""
        t, rho, mu_i, mix = self._shared(t, rho, y)
        return self._conductivity(t, mu_i, rho, mix)

    def thermal_diffusivity(self, t, rho, y, cp_mass) -> np.ndarray:
        """alpha = lambda / (rho cp) [m^2/s] -- a PRNet output."""
        lam = self.thermal_conductivity(t, rho, y)
        return lam / (np.atleast_1d(rho) * np.atleast_1d(cp_mass))

    def species_diffusivity(self, t, rho, y, lewis: float = 1.0) -> np.ndarray:
        """Effective species mass diffusivity via unity-Lewis assumption.

        DeepFlame's supercritical solver uses a constant-Lewis closure;
        ``D = alpha / Le``.
        """
        cp = self.mech.cp_mass_mixture(np.atleast_1d(t), np.atleast_2d(y))
        return self.thermal_diffusivity(t, rho, y, cp) / lewis
