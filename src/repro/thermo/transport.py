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

Present species only.  :meth:`TransportModel.from_mole_fractions`
evaluates the species with a non-zero mole fraction somewhere in its
batch and no other: viscosities, conductivities, Kay's rule, the
Mathur and Wilke sums, all over that set (the Wilke sum over ``j``
narrows again to the species of each block), with the per-species
constants and Wilke matrices sliced to it and blocks of ~``_BLOCK``
species-cells.  An absent species only adds exact zeros, and adding
``+0`` to a partial sum changes no bit *because each sum runs in one
fixed order*: a skipped term leaves the order of the others as it
was.  A numpy reduction or BLAS product over the species axis has no
such order (its association depends on the species count), so the
rule holds only for the fixed-order sums used here -- and a cell's
result still does not depend on its batch.  The non-reacting
``tgv_realfluid`` holds 2 of 17 species, so this is ~5x less work
there.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..constants import K_BOLTZMANN, N_AVOGADRO, R_UNIVERSAL
from ..chemistry.mechanism import Mechanism, present_species

__all__ = ["TransportModel"]

#: species-cells per block: ten ``(17, 1024)`` temporaries fit a 2 MiB L2
_BLOCK = 17 * 1024


def _blocks(n: int, size: int):
    return (slice(i, i + size) for i in range(0, n, size))


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


class _SpeciesSet(NamedTuple):
    """The per-species constants of the species ``idx``: ``(k, 1)``
    columns, the ``(5, k, 1)`` Eucken polynomial and the ``(k, k)``
    Wilke matrices."""

    idx: np.ndarray
    mu_coeff: np.ndarray
    omega_pow: np.ndarray
    omega_exp: tuple
    eucken: np.ndarray | None
    kay: tuple
    wilke: tuple


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
        mu_coeff = 5.0 / 16.0 * np.sqrt(np.pi * w1 / N_AVOGADRO
                                        * K_BOLTZMANN) / (
            np.pi * self.sigma[:, None] ** 2)
        # the fit's t* >= 1e-3 floor, at the largest eps: one T per cell.
        # Of all species, not of those present, so that a cell's floor
        # does not depend on what its batch holds
        self._t_floor = 1e-3 * self.eps_kb.max()
        # Eucken: lambda_i = mu_i (R/W_i) (1.32 cp_i/R + 0.45), a
        # polynomial in T (0.45 joins its constant term) when cp_i/R is
        # NASA-7
        a = mech._thermo_coeffs
        eucken = None if a is None else (
            1.32 * a[:, :5].T + 0.45 * np.eye(5, 1))[:, :, None] * (
                R_UNIVERSAL / w1)
        # Wilke: phi_ij = (1 + sqrt(mu_i/mu_j) A_ij)^2 C_ij with
        # A_ij = (W_j/W_i)^(1/4), C_ij = 1/sqrt(8 (1 + W_i/W_j)), expands to
        # C_ij + 2 (s_i/s_j) A_ij C_ij + (mu_i/mu_j) A_ij^2 C_ij, s = sqrt(mu).
        # Stored transposed ([j, i]) for the sum over j in _wilke.
        quarter = (w[:, None] / w[None, :]) ** 0.25           # A_ij at [j, i]
        c = 1.0 / np.sqrt(8.0 * (1.0 + w[None, :] / w[:, None]))
        self._all = _SpeciesSet(
            np.arange(len(w)), mu_coeff, 1.16145 * eps**0.14874,
            (-0.77320 / eps, -2.43787 / eps), eucken,
            (self.t_crit[:, None], self.p_crit[:, None]),
            (c, 2.0 * quarter * c, quarter**2 * c))
        self._subset: _SpeciesSet | None = None

    def _species_set(self, idx: np.ndarray | None) -> _SpeciesSet:
        """The constants of the species ``idx`` (all of them for
        ``None``).  The last subset is kept: the calls of a step hold
        the same species."""
        if idx is None:
            return self._all
        last = self._subset
        if last is not None and np.array_equal(last.idx, idx):
            return last
        every, wilke = self._all, np.ix_(idx, idx)
        self._subset = _SpeciesSet(
            idx, every.mu_coeff[idx], every.omega_pow[idx],
            tuple(e[idx] for e in every.omega_exp),
            None if every.eucken is None else every.eucken[:, idx],
            tuple(k[idx] for k in every.kay),
            tuple(c[wilke] for c in every.wilke))
        return self._subset

    # -- dilute-gas properties ----------------------------------------
    def _species_viscosity(self, t: np.ndarray, sp: _SpeciesSet) -> np.ndarray:
        """Viscosities of the species ``sp`` at 1-D ``t``, species-major
        ``(k, n)``."""
        tf = np.maximum(t, self._t_floor)
        omega = sp.omega_pow * tf ** -0.14874
        for e, f in zip(sp.omega_exp, (0.52487, 2.16178)):
            term = np.exp(e * tf)
            term *= f
            omega += term
        mu = sp.mu_coeff * np.sqrt(t)
        mu /= omega
        return mu

    def species_viscosity(self, t: np.ndarray, species=None) -> np.ndarray:
        """Dilute-gas viscosities [Pa s] of the species indexed by
        ``species`` (all by default), ``(n, k)`` (the transpose of a
        species-major array)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        sp = self._species_set(species)
        mu = np.empty((len(sp.idx), t.size))
        for b in _blocks(t.size, _BLOCK // len(sp.idx)):
            mu[:, b] = self._species_viscosity(t[b], sp)
        return mu.T

    def _eucken(self, t: np.ndarray, mu: np.ndarray,
                sp: _SpeciesSet) -> np.ndarray:
        """Conductivities of the species ``sp`` from species-major
        ``mu``."""
        e = sp.eucken
        if e is None:
            return mu * (R_UNIVERSAL / self.weights[sp.idx, None]) * (
                1.32 * self.mech.cp_r_all(t).T[sp.idx] + 0.45)
        f = e[4] * t
        for k in (3, 2, 1):
            f += e[k]
            f *= t
        f += e[0]
        f *= mu
        return f

    def _wilke(self, mu: np.ndarray, x: np.ndarray,
               sp: _SpeciesSet) -> np.ndarray:
        """sum_i x_i mu_i / sum_j x_j phi_ij over the species ``sp``,
        species-major."""
        c0, c1, c2 = sp.wilke
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
        return self._wilke(self._species_viscosity(t, self._all),
                           np.ascontiguousarray(x.T), self._all)

    # -- dense-fluid corrections --------------------------------------
    def _block(self, t, mu, rho, x, w_mix, sp: _SpeciesSet):
        """``(mu, lambda)`` of one block: the Wilke / Mathur dilute
        values of species-major ``mu`` over the species ``sp`` (``x``
        holds their columns) plus the JST / ST residuals at ``rho`` from
        Kay's-rule pseudo-critical point of ``x``."""
        x = np.ascontiguousarray(x.T)
        tc, pc = (_species_sum(k, x) for k in sp.kay)
        vc = 0.27 * R_UNIVERSAL * tc / pc   # critical volume from Zc ~ 0.27
        rho_r = rho * vc / w_mix  # reduced density
        # JST inverse viscosity parameter xi (SI form) and the ST gamma
        # below are ratios of the same three factors
        tc6 = tc ** (1.0 / 6.0)
        w_sqrt = np.sqrt(w_mix * 1e3)
        pc23 = (pc / 101325.0) ** (2.0 / 3.0)
        xi = tc6 / (w_sqrt * pc23)
        poly = (
            0.1023
            + 0.023364 * rho_r
            + 0.058533 * rho_r**2
            - 0.040758 * rho_r**3
            + 0.0093324 * rho_r**4
        )
        # JST is formulated in centipoise: (mu - mu0) xi = poly^4 - 1e-4
        residual_cp = (np.maximum(poly, 0.0) ** 4 - 1e-4) / xi
        visc = self._wilke(mu, x, sp) + np.maximum(residual_cp, 0.0) * 1e-3
        rho_r = np.minimum(rho_r, 2.8)
        zc = 0.27
        gamma = tc6 * w_sqrt / pc23
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
        lam = self._eucken(t, mu, sp)
        inv = _species_sum(x, 1.0 / np.maximum(lam, 1e-300))
        lam0 = 0.5 * (_species_sum(x, lam) + 1.0 / np.maximum(inv, 1e-300))
        return visc, lam0 + np.maximum(residual, 0.0)

    def from_mole_fractions(self, t, rho, x, w_mix):
        """``(mu [Pa s], lambda [W/(m K)])`` at high pressure for mole
        fractions ``x`` ``(n, ns)`` of mixture weight ``w_mix`` [kg/mol]
        -- in the real-fluid step the EoS composition's.  The ``k``
        species present in the batch are selected once; one
        :meth:`species_viscosity` call for them, then blocks of
        ``_BLOCK`` species-cells, whose ``(k, B)`` temporaries stay in
        cache (half the cost at n = 8000).  No cell's result depends on
        its block or on which other species the batch holds."""
        n, = np.broadcast_shapes(np.shape(t), np.shape(rho), x.shape[:1])
        t, rho, w_mix = (np.broadcast_to(np.asarray(v, dtype=float), (n,))
                         for v in (t, rho, w_mix))
        x = np.broadcast_to(x, (n, x.shape[1]))
        on = present_species(x)
        idx = None if on.all() or not on.any() else np.flatnonzero(on)
        sp = self._species_set(idx)
        if idx is not None:
            x = x[:, idx]
        mu = self.species_viscosity(t, idx).T
        out = np.empty((2, n))
        for b in _blocks(n, _BLOCK // len(sp.idx)):
            out[:, b] = self._block(t[b], mu[:, b], rho[b], x[b], w_mix[b],
                                    sp)
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
