"""Reference implementation of the real-fluid property path.

This is the *composed* Peng-Robinson evaluation that the state-taking
kernels of ``repro.thermo`` replaced, kept verbatim apart from class
names and constructor plumbing: every call rebuilds the mole fractions
and the mixture ``a(T)`` / ``da/dT`` from scratch through two
three-operand quadratic forms, the cp departure is a centred difference
of two perturbed enthalpy departures, psi is a centred difference of
two density solves, ``properties_tp`` re-solves the cubic the Newton
loop just solved, the Wilke rule allocates ``(n, ns, ns)`` arrays and
the cubic goes through the per-cell ``np.roots`` loop.  It is slow on
purpose: ``tests/test_thermo.py`` compares the production
kernels against it.

The constants (critical data, ``a_crit``, ``b_pure``, ``m(omega)``,
``k_ij``, the (u, w) pair) are read from the production objects; every
formula is this module's own.

The module also keeps the ``(t, rho, y)`` spellings of the production
kernels that only tests call (:func:`pressure`, :func:`dp_dt_const_v`,
:func:`dp_dv_const_t`, :func:`enthalpy_departure`,
:func:`cp_departure`): each builds one production ``CubicState`` at
``(t, rho)`` and reads the quantity off it.
"""

from __future__ import annotations

import numpy as np

from repro.constants import K_BOLTZMANN, N_AVOGADRO, R_UNIVERSAL
from repro.thermo.departure import (state_cp_departure,
                                   state_enthalpy_departure)
from repro.thermo.real_fluid import RealFluidProperties

__all__ = ["pressure", "dp_dt_const_v", "dp_dv_const_t",
           "enthalpy_departure", "cp_departure",
           "OracleEos", "OracleMixture", "OracleTransport",
           "oracle_enthalpy_departure", "oracle_cp_departure",
           "oracle_solve_cubic", "oracle_h_mass_mixture",
           "oracle_cp_mass_mixture", "oracle_ideal_gas_temperature"]


def _state(eos, t, rho, y, order):
    return eos.state(t, eos.composition(y), rho, order=order)


def pressure(eos, t, rho, y):
    """Pressure [Pa] of production ``eos`` at T, mass density and mass
    fractions."""
    return _state(eos, t, rho, y, 0).pressure()


def dp_dt_const_v(eos, t, rho, y):
    """(dp/dT)_v,x of production ``eos``."""
    return _state(eos, t, rho, y, 1).dp_dt()


def dp_dv_const_t(eos, t, rho, y):
    """(dp/dv)_T,x per mole of production ``eos``; negative for
    mechanically stable states."""
    return _state(eos, t, rho, y, 0).dp_dv()


def enthalpy_departure(eos, t, rho, y):
    """Molar enthalpy departure h - h_ig [J/mol] of production ``eos``
    (``t`` [K], ``rho`` mass density [kg/m^3], ``y`` mass fractions)."""
    return state_enthalpy_departure(_state(eos, t, rho, y, 1))


def cp_departure(eos, t, rho, y):
    """Molar cp departure cp - cp_ig [J/(mol K)] of production ``eos``."""
    return state_cp_departure(_state(eos, t, rho, y, 2))


def oracle_h_mass_mixture(mech, t, y):
    """Ideal-gas mixture enthalpy [J/kg] through the per-species path:
    all ``h_i/(RT)`` at ``t``, then the mass-weighted sum (what
    ``Mechanism.h_mass_mixture`` did before the mixture coefficients)."""
    t = np.asarray(t, dtype=float)
    h_moles = mech.h_rt_all(t) * R_UNIVERSAL * t[..., None]
    return ((y / mech.molecular_weights) * h_moles).sum(axis=-1)


def oracle_cp_mass_mixture(mech, t, y):
    """Per-species-path twin of ``Mechanism.cp_mass_mixture``."""
    cp_moles = mech.cp_r_all(np.asarray(t, dtype=float)) * R_UNIVERSAL
    return ((y / mech.molecular_weights) * cp_moles).sum(axis=-1)


def oracle_ideal_gas_temperature(mech, h, y, t_guess, sweeps=40):
    """The ``IdealGasProperties`` T(h) Newton as it was: per-cell
    freeze at ``1e-13 (|h| + 1e3)``, the ``(n, n_species)`` species
    sums rebuilt every sweep."""
    t = np.array(t_guess, dtype=float)
    for _ in range(sweeps):
        resid = oracle_h_mass_mixture(mech, t, y) - h
        done = np.abs(resid) <= 1e-13 * (np.abs(h) + 1e3)
        if done.all():
            break
        t = np.where(done, t, np.clip(
            t - resid / oracle_cp_mass_mixture(mech, t, y), 60.0, 5000.0))
    return t


def _mix(k_ij, a_i, b_i, x):
    sqrt_a = np.sqrt(np.maximum(a_i, 0.0))
    one_minus_k = 1.0 - k_ij
    xs = x * sqrt_a
    a_mix = np.einsum("...i,ij,...j->...", xs, one_minus_k, xs)
    b_mix = (x * b_i).sum(axis=-1)
    return a_mix, b_mix


def _mix_derivative(k_ij, a_i, da_i, x):
    sqrt_a = np.sqrt(np.maximum(a_i, 1e-300))
    dsqrt = da_i / (2.0 * sqrt_a)
    one_minus_k = 1.0 - k_ij
    xs = x * sqrt_a
    xds = x * dsqrt
    return 2.0 * np.einsum("...i,ij,...j->...", xs, one_minus_k, xds)


def oracle_solve_cubic(eos, t, p, a_mix, b_mix, root="vapor"):
    """Z at ``(t, p)`` for given mixture parameters through the per-cell
    ``np.roots`` loop (companion-matrix eigenvalues) -- the reference of
    the closed-form root kernel, with ``CubicEos._solve_cubic``'s
    signature so a test can swap it in.  ``eos`` supplies ``u`` and
    ``w`` (a production ``CubicEos`` or an :class:`OracleEos`).
    """
    rt = R_UNIVERSAL * t
    big_a = a_mix * p / rt**2
    big_b = b_mix * p / rt
    u, w = eos.u, eos.w
    c2 = -(1.0 + big_b - u * big_b)
    c1 = big_a + w * big_b**2 - u * big_b - u * big_b**2
    c0 = -(big_a * big_b + w * big_b**2 + w * big_b**3)
    z = np.empty_like(t)
    for k in range(t.size):
        roots = np.roots([1.0, c2[k], c1[k], c0[k]])
        real = roots[np.abs(roots.imag) < 1e-9].real
        real = real[real > big_b[k]]
        if real.size == 0:
            z[k] = max(roots.real.max(), big_b[k] * 1.001)
        elif real.size == 1 or root == "vapor":
            z[k] = real.max()
        elif root == "liquid":
            z[k] = real.min()
        else:
            z[k] = _gibbs_root(eos.u, eos.w, real, big_a[k], big_b[k])
    return z


def _gibbs_root(u, w, zs, big_a, big_b):
    d = np.sqrt(u * u - 4.0 * w)
    best, best_g = zs[0], np.inf
    for z in zs:
        lo = np.log((2 * z + big_b * (u - d)) / (2 * z + big_b * (u + d)))
        g = z - 1.0 - np.log(max(z - big_b, 1e-300)) + big_a / (big_b * d) * lo
        if g < best_g:
            best, best_g = z, g
    return float(best)


class OracleEos:
    """The parent commit's ``CubicEos`` over a production EoS's constants."""

    def __init__(self, eos):
        self.u, self.w = eos.u, eos.w
        self.t_crit = eos.t_crit
        self.mol_weights = eos.mol_weights
        self.a_crit = eos.a_crit
        self.b_pure = eos.b_pure
        self.m = eos.m_factor(eos.omega)
        self.k_ij = eos.mixing.k_ij

    def alpha(self, t):
        tr = np.asarray(t, dtype=float)[..., None] / self.t_crit
        return (1.0 + self.m * (1.0 - np.sqrt(tr))) ** 2

    def dalpha_dt(self, t):
        t = np.asarray(t, dtype=float)
        tr = t[..., None] / self.t_crit
        sq = np.sqrt(tr)
        return -(1.0 + self.m * (1.0 - sq)) * self.m / (sq * self.t_crit)

    def mixture_ab(self, t, x):
        a_i = self.a_crit * self.alpha(t)
        a_mix, b_mix = _mix(self.k_ij, a_i, self.b_pure, x)
        da_i = self.a_crit * self.dalpha_dt(t)
        da_dt = _mix_derivative(self.k_ij, a_i, da_i, x)
        return a_mix, b_mix, da_dt

    def compressibility(self, t, p, x, root="vapor"):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p = np.broadcast_to(np.asarray(p, dtype=float), t.shape)
        x = np.atleast_2d(x)
        a_mix, b_mix, _ = self.mixture_ab(t, x)
        return oracle_solve_cubic(self, t, p, a_mix, b_mix, root)

    def density(self, t, p, y, root="vapor"):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        y = np.atleast_2d(y)
        x = self._mole_from_mass(y)
        w_mix = (x * self.mol_weights).sum(axis=-1)
        z = self.compressibility(t, p, x, root=root)
        p_arr = np.broadcast_to(np.asarray(p, dtype=float), t.shape)
        return p_arr * w_mix / (z * R_UNIVERSAL * t)

    def pressure(self, t, rho, y):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        y = np.atleast_2d(y)
        x = self._mole_from_mass(y)
        w_mix = (x * self.mol_weights).sum(axis=-1)
        v = w_mix / rho
        a_mix, b_mix, _ = self.mixture_ab(t, x)
        return (
            R_UNIVERSAL * t / (v - b_mix)
            - a_mix / (v * v + self.u * b_mix * v + self.w * b_mix**2)
        )

    def dp_dt_const_v(self, t, rho, y):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        y = np.atleast_2d(y)
        x = self._mole_from_mass(y)
        w_mix = (x * self.mol_weights).sum(axis=-1)
        v = w_mix / rho
        _, b_mix, da_dt = self.mixture_ab(t, x)
        return R_UNIVERSAL / (v - b_mix) - da_dt / (
            v * v + self.u * b_mix * v + self.w * b_mix**2
        )

    def dp_dv_const_t(self, t, rho, y):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        y = np.atleast_2d(y)
        x = self._mole_from_mass(y)
        w_mix = (x * self.mol_weights).sum(axis=-1)
        v = w_mix / rho
        a_mix, b_mix, _ = self.mixture_ab(t, x)
        denom = v * v + self.u * b_mix * v + self.w * b_mix**2
        return -R_UNIVERSAL * t / (v - b_mix) ** 2 + a_mix * (
            2.0 * v + self.u * b_mix
        ) / denom**2

    def _mole_from_mass(self, y):
        moles = y / self.mol_weights
        return moles / np.maximum(moles.sum(axis=-1, keepdims=True), 1e-300)


def oracle_enthalpy_departure(eos: OracleEos, t, rho, y):
    """Molar enthalpy departure, one ``mixture_ab`` + one ``pressure``."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    y = np.atleast_2d(y)
    x = eos._mole_from_mass(y)
    w_mix = (x * eos.mol_weights).sum(axis=-1)
    v = w_mix / rho
    a_mix, b_mix, da_dt = eos.mixture_ab(t, x)
    u, d = eos.u, np.sqrt(eos.u * eos.u - 4.0 * eos.w)
    p = eos.pressure(t, rho, y)
    log_term = np.log(
        np.maximum(2.0 * v + b_mix * (u + d), 1e-300)
        / np.maximum(2.0 * v + b_mix * (u - d), 1e-300)
    )
    return p * v - R_UNIVERSAL * t + (t * da_dt - a_mix) / (b_mix * d) * log_term


def oracle_cp_departure(eos: OracleEos, t, rho, y, dt: float = 1e-3):
    """Molar cp departure as a centred difference of ``h_dep`` along
    the isobar (density moved with the analytic ``drho/dT|p``)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    y = np.atleast_2d(y)
    x = eos._mole_from_mass(y)
    w_mix = (x * eos.mol_weights).sum(axis=-1)
    dp_dt = eos.dp_dt_const_v(t, rho, y)
    dp_dv = eos.dp_dv_const_t(t, rho, y)
    dv_drho = -w_mix / rho**2
    dp_drho = dp_dv * dv_drho
    drho_dt = -dp_dt / dp_drho
    h_plus = oracle_enthalpy_departure(eos, t + dt, rho + drho_dt * dt, y)
    h_minus = oracle_enthalpy_departure(eos, t - dt, rho - drho_dt * dt, y)
    return (h_plus - h_minus) / (2.0 * dt)


def _omega22(t_star):
    t_star = np.maximum(t_star, 1e-3)
    return (
        1.16145 * t_star**-0.14874
        + 0.52487 * np.exp(-0.77320 * t_star)
        + 2.16178 * np.exp(-2.43787 * t_star)
    )


class OracleTransport:
    """The parent commit's ``TransportModel`` (explicit Wilke ``phi_ij``)."""

    def __init__(self, mech):
        self.mech = mech
        self.sigma = np.array([s.lj_sigma for s in mech.species])
        self.eps_kb = np.array([s.lj_eps_kb for s in mech.species])
        self.weights = mech.molecular_weights
        self.t_crit = np.array([s.t_crit for s in mech.species])
        self.p_crit = np.array([s.p_crit for s in mech.species])

    def species_viscosity(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        t_star = t / self.eps_kb
        m_kg = self.weights / N_AVOGADRO
        return (
            5.0
            / 16.0
            * np.sqrt(np.pi * m_kg * K_BOLTZMANN * t)
            / (np.pi * self.sigma**2 * _omega22(t_star))
        )

    def species_conductivity(self, t):
        t = np.asarray(t, dtype=float)
        mu = self.species_viscosity(t)
        cv_mole = self.mech.cp_r_all(t) * R_UNIVERSAL - R_UNIVERSAL
        f_int = 1.32 * cv_mole / R_UNIVERSAL + 1.77
        return mu / self.weights * R_UNIVERSAL * f_int

    def mixture_viscosity_dilute(self, t, y):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        y = np.atleast_2d(y)
        x = self.mech.mole_fractions(y)
        mu = self.species_viscosity(t)
        w = self.weights
        mu_ratio = mu[..., :, None] / np.maximum(mu[..., None, :], 1e-300)
        w_ratio = w[None, :] / w[:, None]
        phi = (1.0 + np.sqrt(mu_ratio) * w_ratio[None] ** 0.25) ** 2 / np.sqrt(
            8.0 * (1.0 + 1.0 / w_ratio[None])
        )
        denom = np.einsum("nj,nij->ni", x, phi)
        return (x * mu / np.maximum(denom, 1e-300)).sum(axis=-1)

    def mixture_conductivity_dilute(self, t, y):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        y = np.atleast_2d(y)
        x = self.mech.mole_fractions(y)
        lam = self.species_conductivity(t)
        avg = (x * lam).sum(axis=-1)
        inv = (x / np.maximum(lam, 1e-300)).sum(axis=-1)
        return 0.5 * (avg + 1.0 / np.maximum(inv, 1e-300))

    def _pseudo_critical(self, y):
        x = self.mech.mole_fractions(np.atleast_2d(y))
        tc = (x * self.t_crit).sum(axis=-1)
        pc = (x * self.p_crit).sum(axis=-1)
        w_mix = (x * self.weights).sum(axis=-1)
        vc = 0.27 * R_UNIVERSAL * tc / pc
        return tc, pc, vc, w_mix

    def viscosity(self, t, rho, y):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        y = np.atleast_2d(y)
        mu0 = self.mixture_viscosity_dilute(t, y)
        tc, pc, vc, w_mix = self._pseudo_critical(y)
        rho_r = rho * vc / w_mix
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
        residual_cp = (np.maximum(poly, 0.0) ** 4 - 1e-4) / xi
        return mu0 + np.maximum(residual_cp, 0.0) * 1e-3

    def thermal_conductivity(self, t, rho, y):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        y = np.atleast_2d(y)
        lam0 = self.mixture_conductivity_dilute(t, y)
        tc, pc, vc, w_mix = self._pseudo_critical(y)
        rho_r = np.minimum(rho * vc / w_mix, 2.8)
        zc = 0.27
        gamma = tc ** (1.0 / 6.0) * np.sqrt(w_mix * 1e3) / (
            (pc / 101325.0) ** (2.0 / 3.0)
        )
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
        return lam0 + np.maximum(residual, 0.0)

    def thermal_diffusivity(self, t, rho, y, cp_mass):
        lam = self.thermal_conductivity(t, rho, y)
        return lam / (np.atleast_1d(rho) * np.atleast_1d(cp_mass))


class OracleMixture:
    """The parent commit's ``RealFluidMixture`` state solves."""

    def __init__(self, rf):
        self.mech = rf.mech
        self.eos = OracleEos(rf.eos)
        self.transport = OracleTransport(rf.mech)

    def h_mass(self, t, p, y):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        y = np.atleast_2d(y)
        rho = self.eos.density(t, p, y)
        h_ig = self.mech.h_mass_mixture(t, y)
        w_mix = self.mech.mean_molecular_weight(y)
        return h_ig + oracle_enthalpy_departure(self.eos, t, rho, y) / w_mix

    def cp_mass(self, t, p, y):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        y = np.atleast_2d(y)
        rho = self.eos.density(t, p, y)
        cp_ig = self.mech.cp_mass_mixture(t, y)
        w_mix = self.mech.mean_molecular_weight(y)
        return cp_ig + oracle_cp_departure(self.eos, t, rho, y) / w_mix

    def properties_tp(self, t, p, y):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        y = np.atleast_2d(y)
        rho = self.eos.density(t, p, y)
        w_mix = self.mech.mean_molecular_weight(y)
        h = self.mech.h_mass_mixture(t, y) + oracle_enthalpy_departure(
            self.eos, t, rho, y) / w_mix
        cp = self.mech.cp_mass_mixture(t, y) + oracle_cp_departure(
            self.eos, t, rho, y) / w_mix
        mu = self.transport.viscosity(t, rho, y)
        alpha = self.transport.thermal_diffusivity(t, rho, y, cp)
        return RealFluidProperties(rho, t, cp, h, mu, alpha)

    def temperature_from_h(self, h_target, p, y, t_guess=None,
                           tol=1e-8, max_iter=50):
        h_target = np.atleast_1d(np.asarray(h_target, dtype=float))
        y = np.atleast_2d(y)
        t = (
            np.full(h_target.shape, 1000.0)
            if t_guess is None
            else np.array(np.broadcast_to(t_guess, h_target.shape), dtype=float)
        )
        t_lo = np.full_like(t, 60.0)
        t_hi = np.full_like(t, 5000.0)
        for _ in range(max_iter):
            h = self.h_mass(t, p, y)
            resid = h - h_target
            done = np.abs(resid) <= tol * np.maximum(np.abs(h_target), 1e3)
            if done.all():
                break
            cp = np.maximum(self.cp_mass(t, p, y), 50.0)
            above = resid > 0
            t_hi = np.where(above & ~done, np.minimum(t_hi, t), t_hi)
            t_lo = np.where(~above & ~done, np.maximum(t_lo, t), t_lo)
            t_new = t - resid / cp
            bad = (t_new <= t_lo) | (t_new >= t_hi)
            t_new = np.where(bad, 0.5 * (t_lo + t_hi), t_new)
            t = np.where(done, t, t_new)
        return t

    def properties_hp(self, h, p, y, t_guess=None):
        t = self.temperature_from_h(h, p, y, t_guess=t_guess)
        return self.properties_tp(t, p, y)

    def psi_compressibility(self, t, p, y, dp: float = 100.0):
        rho_p = self.eos.density(t, np.asarray(p) + dp, y)
        rho_m = self.eos.density(t, np.asarray(p) - dp, y)
        return (rho_p - rho_m) / (2.0 * dp)
