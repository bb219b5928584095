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

Data flow.  :meth:`TransportModel.from_mole_fractions` takes the mole
fractions and mixture weight of the EoS
:class:`~repro.thermo.cubic_eos.Composition`, so the step converts
``y`` once for both; the ``y``-taking methods convert it themselves.
Viscosity and conductivity share the species viscosities and the
Kay's-rule pseudo-critical point.

Cost.  The ``(n, ns)`` quantities are species-major, ``(ns, n)``, and
evaluated in cache-sized blocks of cells, with the temperature-only
factors hoisted: ``T*^-0.14874 = eps_i^0.14874 T^-0.14874``,
``sqrt(pi m_i k T) = sqrt(pi m_i k) sqrt(T)``, and Eucken's ``(R/W_i)
(1.32 cp_i/R + 0.45)`` is one Horner pass in ``T``.  The Wilke sum is
three ``(ns, ns) x (ns, n)`` products against constant matrices; no
``(n, ns, ns)`` array is formed.  Sums over species run in one fixed
order per cell -- never a BLAS product or a numpy reduction over the
species axis, which pick their summation order by batch shape -- so a
cell's result never depends on what else shares its batch.
"""

from __future__ import annotations

import numpy as np

from ..constants import K_BOLTZMANN, N_AVOGADRO, R_UNIVERSAL
from ..chemistry.mechanism import Mechanism

__all__ = ["TransportModel"]

#: cells per block: ten ``(17, 1024)`` temporaries fit a 2 MiB L2
_BLOCK = 1024


def _blocks(n: int):
    return (slice(i, i + _BLOCK) for i in range(0, n, _BLOCK))


def _products(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``out[i, n] = sum_j c[j, i] v[j, n]``: an un-optimised einsum
    whose inner loop runs over cells (``c`` is strided along ``j``)."""
    return np.einsum("ji,jn->in", c, v, optimize=False)


def _species_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_i a[i] b[i]`` per cell, species by species.  Not a numpy
    reduction: a one-cell batch makes axis 0 contiguous, and numpy
    then sums it pairwise."""
    out = a[0] * b[0]
    for i in range(1, len(b)):
        out += a[i] * b[i]
    return out


class TransportModel:
    """Mixture viscosity and thermal conductivity."""

    def __init__(self, mech: Mechanism):
        self.mech = mech
        self.sigma = np.array([s.lj_sigma for s in mech.species])
        self.eps_kb = np.array([s.lj_eps_kb for s in mech.species])
        self.weights = w = mech.molecular_weights
        self.t_crit = np.array([s.t_crit for s in mech.species])
        self.p_crit = np.array([s.p_crit for s in mech.species])
        # (ns, 1) columns of mu_i = 5/16 sqrt(pi m_i k T) / (pi sigma_i^2
        # Omega22(T/eps_i)), Omega22(t*) = 1.16145 t*^-0.14874 + 0.52487
        # exp(-0.77320 t*) + 2.16178 exp(-2.43787 t*) (Neufeld)
        eps, w1 = self.eps_kb[:, None], w[:, None]
        self._mu_coeff = 5.0 / 16.0 * np.sqrt(np.pi * w1 / N_AVOGADRO
                                              * K_BOLTZMANN) / (
            np.pi * self.sigma[:, None] ** 2)
        self._omega_pow = 1.16145 * eps**0.14874
        self._omega_exp = (-0.77320 / eps, -2.43787 / eps)
        # the fit's t* >= 1e-3 floor, at the largest eps: one T per cell
        self._t_floor = 1e-3 * self.eps_kb.max()
        # Eucken: lambda_i = mu_i (R/W_i) (1.32 cp_i/R + 0.45), a
        # polynomial in T (0.45 joins its constant term) when cp_i/R is
        # NASA-7
        a = mech._thermo_coeffs
        self._eucken_coeffs = None if a is None else (
            1.32 * a[:, :5].T + 0.45 * np.eye(5, 1))[:, :, None] * (
                R_UNIVERSAL / w1)
        self._kay = (self.t_crit[:, None], self.p_crit[:, None])
        # Wilke: phi_ij = (1 + sqrt(mu_i/mu_j) A_ij)^2 C_ij with
        # A_ij = (W_j/W_i)^(1/4), C_ij = 1/sqrt(8 (1 + W_i/W_j)), expands to
        # C_ij + 2 (s_i/s_j) A_ij C_ij + (mu_i/mu_j) A_ij^2 C_ij, s = sqrt(mu).
        # Stored transposed ([j, i]) for the sum over j in _wilke.
        quarter = (w[:, None] / w[None, :]) ** 0.25           # A_ij at [j, i]
        c = 1.0 / np.sqrt(8.0 * (1.0 + w[None, :] / w[:, None]))
        self._wilke_terms = (c, 2.0 * quarter * c, quarter**2 * c)

    # -- dilute-gas properties ----------------------------------------
    def _species_viscosity(self, t: np.ndarray) -> np.ndarray:
        """Species viscosities at 1-D ``t``, species-major ``(ns, n)``."""
        tf = np.maximum(t, self._t_floor)
        omega = self._omega_pow * tf ** -0.14874
        for e, f in zip(self._omega_exp, (0.52487, 2.16178)):
            term = np.exp(e * tf)
            term *= f
            omega += term
        mu = self._mu_coeff * np.sqrt(t)
        mu /= omega
        return mu

    def species_viscosity(self, t: np.ndarray) -> np.ndarray:
        """Dilute-gas viscosities [Pa s], ``(n, ns)`` (the transpose of
        a species-major array)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        mu = np.empty((len(self.weights), t.size))
        for b in _blocks(t.size):
            mu[:, b] = self._species_viscosity(t[b])
        return mu.T

    def _eucken(self, t: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Species conductivities from species-major ``mu``."""
        e = self._eucken_coeffs
        if e is None:
            return mu * (R_UNIVERSAL / self.weights[:, None]) * (
                1.32 * self.mech.cp_r_all(t).T + 0.45)
        f = e[4] * t
        for k in (3, 2, 1):
            f += e[k]
            f *= t
        f += e[0]
        f *= mu
        return f

    def _wilke(self, mu: np.ndarray, x: np.ndarray) -> np.ndarray:
        """sum_i x_i mu_i / sum_j x_j phi_ij, species-major."""
        c0, c1, c2 = self._wilke_terms
        mu_safe = np.maximum(mu, 1e-300)
        s = np.sqrt(mu_safe)
        # a species absent from the block adds exact zeros to every
        # cell's sum over j: leaving it out changes no bit
        act = np.flatnonzero(x.any(axis=1))
        denom = _products(c0[act], x[act])
        for c, v, f in ((c1, x / s, s), (c2, x / mu_safe, mu)):
            term = _products(c[act], v[act])
            term *= f
            denom += term
        np.maximum(denom, 1e-300, out=denom)
        return _species_sum(x, np.divide(mu, denom, out=denom))

    def _mole_fractions(self, y) -> tuple[np.ndarray, np.ndarray]:
        x = self.mech.mole_fractions(np.atleast_2d(y))
        return x, (x * self.weights).sum(axis=-1)

    def mixture_viscosity_dilute(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Wilke mixture-averaged dilute viscosity [Pa s]."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x, _ = self._mole_fractions(y)
        return self._wilke(self._species_viscosity(t), np.ascontiguousarray(x.T))

    # -- dense-fluid corrections --------------------------------------
    def _block(self, t, mu, rho, x, w_mix):
        """``(mu, lambda)`` of one block: the Wilke / Mathur dilute
        values of species-major ``mu`` plus the JST / ST residuals at
        ``rho`` from Kay's-rule pseudo-critical point of ``x``."""
        x = np.ascontiguousarray(x.T)
        tc, pc = (_species_sum(k, x) for k in self._kay)
        vc = 0.27 * R_UNIVERSAL * tc / pc   # critical volume from Zc ~ 0.27
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
        visc = self._wilke(mu, x) + np.maximum(residual_cp, 0.0) * 1e-3
        rho_r = np.minimum(rho_r, 2.8)
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
        # Mathur combination of the Eucken species conductivities
        lam = self._eucken(t, mu)
        inv = _species_sum(x, 1.0 / np.maximum(lam, 1e-300))
        lam0 = 0.5 * (_species_sum(x, lam) + 1.0 / np.maximum(inv, 1e-300))
        return visc, lam0 + np.maximum(residual, 0.0)

    def from_mole_fractions(self, t, rho, x, w_mix):
        """``(mu [Pa s], lambda [W/(m K)])`` at high pressure for mole
        fractions ``x`` ``(n, ns)`` of mixture weight ``w_mix`` [kg/mol]
        -- in the real-fluid step the EoS composition's.  One
        :meth:`species_viscosity` call; then blocks of ``_BLOCK`` cells,
        whose ``(ns, B)`` temporaries stay in cache (half the cost at
        n = 8000), and no cell's result depends on its block."""
        n, = np.broadcast_shapes(np.shape(t), np.shape(rho), x.shape[:1])
        t, rho, w_mix = (np.broadcast_to(np.asarray(v, dtype=float), (n,))
                         for v in (t, rho, w_mix))
        x = np.broadcast_to(x, (n, x.shape[1]))
        mu = self.species_viscosity(t).T
        out = np.empty((2, n))
        for b in _blocks(n):
            out[:, b] = self._block(t[b], mu[:, b], rho[b], x[b], w_mix[b])
        return out[0], out[1]

    def viscosity_conductivity(self, t, rho, y):
        """``(mu [Pa s], lambda [W/(m K)])`` at high pressure from mass
        fractions ``y``."""
        return self.from_mole_fractions(t, rho, *self._mole_fractions(y))

    def viscosity(self, t, rho, y) -> np.ndarray:
        """High-pressure mixture viscosity [Pa s] (dilute + JST residual)."""
        return self.viscosity_conductivity(t, rho, y)[0]

    def thermal_conductivity(self, t, rho, y) -> np.ndarray:
        """High-pressure conductivity [W/(m K)] (dilute + ST residual)."""
        return self.viscosity_conductivity(t, rho, y)[1]

    def thermal_diffusivity(self, t, rho, y, cp_mass) -> np.ndarray:
        """alpha = lambda / (rho cp) [m^2/s] -- a PRNet output."""
        lam = self.thermal_conductivity(t, rho, y)
        return lam / (np.atleast_1d(rho) * np.atleast_1d(cp_mass))
