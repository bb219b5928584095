"""Cubic equations of state: Peng-Robinson and Soave-Redlich-Kwong.

The paper's real-fluid accuracy rests on the Peng-Robinson (PR)
equation of state; PRNet is trained to reproduce PR-derived mixture
properties.  SRK is included because the SiTCom-B comparison code in
Table 1 uses it.

Both are expressed in the generalized two-parameter cubic form

    p = R T / (v - b) - a(T) / (v^2 + u b v + w b^2)

with (u, w) = (2, -1) for PR and (1, 0) for SRK.  Mixture parameters
come from van der Waals one-fluid mixing rules
(:mod:`repro.thermo.mixing`); with ``k_ij = 0`` a temperature sweep
costs O(n) below the first ``g_i = 0`` (:meth:`CubicEos.attraction`).

Data flow.  Everything the pressure-explicit relations share is
evaluated once and handed down as a :class:`CubicState`:

    y --composition--> (x, W_mix, b, s_const, s_slope)    once per call
    T --attraction---> a(T), a'(T), a''(T)                once per T
    (T, p, a, b) --solve_density--> Z --> rho             once per (T, p)
    state --> p, (dp/dT)_v, (dp/dv)_T, (drho/dp)_T, departures

``Z`` is the closed-form (Cardano / Viete) root of the cubic, polished
by Newton on the original polynomial: one elementwise kernel,
:func:`cubic_real_roots`, for every root mode.

The ``(t, p, y)``-taking ``density`` and ``compressibility`` build a
state and call the same kernels, so a caller that evaluates several
quantities at one point should build the state itself.  Every kernel
is row-independent: a cell's result never depends on what else shares
its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..constants import R_UNIVERSAL
from ..chemistry.species import Species
from .mixing import VanDerWaalsMixing

__all__ = ["Composition", "CubicState", "CubicEos", "PengRobinson",
           "SoaveRedlichKwong", "ROOT_MODES", "cubic_real_roots"]

#: the ``root=`` selections of the cubic solve
ROOT_MODES = ("vapor", "liquid", "gibbs")


def cubic_real_roots(c2, c1, c0, lower: bool = True):
    """Real roots of ``Z^3 + c2 Z^2 + c1 Z + c0`` in closed form, polished.

    Returns ``(z0, [z1, z2], three)``: ``z0`` is the largest real
    root; where ``three`` holds the cubic has three real roots and
    ``z0 >= z1 >= z2`` (elsewhere ``z1``, ``z2`` are meaningless).  The
    list is empty when ``lower`` is false.

    The depressed cubic ``y^3 + P y + Q`` (``Z = y - c2/3``) is solved
    per row by the sign of its discriminant: one real root through the
    cancellation-free Cardano form, three through Viete's cosines.
    Each root is then polished by two Newton sweeps on the *original*
    polynomial, a sweep being kept only where it lowers ``|f|``.
    Two roots closer than ~1e-8 of ``sqrt(-P/3)`` (the spread of the
    three) are below the resolution of the cosine form and come back
    as their midpoint; for EoS coefficients with ``A, B >= 1e-6`` that
    only happens at a true double root.  Without ``lower``, a batch in
    which every row has one real root (every supercritical cell) skips
    the cosine branch, whose values the selection would discard.
    Elementwise: a row's roots never depend on what shares its batch.
    """
    ones, zeros = np.ones_like(c2), np.zeros_like(c2)
    shift = c2 / 3.0
    p3 = c1 / 3.0 - shift * shift                         # P / 3
    q2 = (shift * shift - 0.5 * c1) * shift + 0.5 * c0    # Q / 2
    disc = q2 * q2 + p3 * p3 * p3
    one = disc > 0.0
    # one real root: y = v - P / (3 v), v^3 = -Q/2 - sgn(Q) sqrt(disc)
    s = np.sqrt(np.where(one, disc, zeros))
    v3 = -(q2 + np.where(q2 < 0.0, -s, s))
    v = np.sign(v3) * np.abs(v3) ** (1.0 / 3.0)
    y_one = v - p3 / np.where(v == 0.0, ones, v)

    def polished(z):
        f = ((z + c2) * z + c1) * z + c0
        for _ in range(2):
            df = (3.0 * z + 2.0 * c2) * z + c1
            cand = z - f / np.where(df == 0.0, ones, df)
            f_cand = ((cand + c2) * cand + c1) * cand + c0
            better = np.abs(f_cand) < np.abs(f)
            z, f = np.where(better, cand, z), np.where(better, f_cand, f)
        return z

    if not lower and one.all():
        # every row takes the Cardano root: the cosine branch below
        # would be evaluated only to be discarded by the where
        return polished(y_one - shift), [], ~one
    # three: y_k = 2 sqrt(-P/3) cos((theta - 2 pi k) / 3), k = 0, 1, 2
    m = np.sqrt(np.where(one, zeros, -p3))
    m3 = m * m * m
    theta = np.arccos(np.clip(-q2 / np.where(m3 > 0.0, m3, ones), -1.0, 1.0))
    z0 = polished(
        np.where(one, y_one, 2.0 * m * np.cos(theta / 3.0)) - shift)
    rest = [polished(2.0 * m * np.cos((theta - 2.0 * np.pi * k) / 3.0)
                     - shift) for k in (1, 2)] if lower else []
    return z0, rest, ~one


class Composition(NamedTuple):
    """The temperature-independent part of a mixture state."""

    x: np.ndarray       #: mole fractions, ``(n, ns)``
    w_mix: np.ndarray   #: mixture molecular weight [kg/mol], ``(n,)``
    b: np.ndarray       #: mixture covolume [m^3/mol], ``(n,)``
    #: ``sum_i x_i sqrt(a_crit_i) g_i(T) = s_const - s_slope sqrt(T)``
    s_const: np.ndarray
    s_slope: np.ndarray


@dataclass
class CubicState:
    """A batch of cells at ``(T, x[, rho])`` with its mixture parameters.

    Built by :meth:`CubicEos.state`; ``rho`` is either given or filled
    in by :meth:`CubicEos.solve_density`.  ``da_dt`` / ``d2a_dt2`` are
    ``None`` when the state was built at a lower ``order``.
    """

    eos: "CubicEos"
    t: np.ndarray
    comp: Composition
    a: np.ndarray
    da_dt: np.ndarray | None
    d2a_dt2: np.ndarray | None
    rho: np.ndarray | None = None

    @property
    def v(self) -> np.ndarray:
        """Molar volume [m^3/mol]."""
        return self.comp.w_mix / self.rho

    def _attraction_volume(self, v: np.ndarray) -> np.ndarray:
        b = self.comp.b
        return v * v + self.eos.u * b * v + self.eos.w * b**2

    def pressure(self) -> np.ndarray:
        """Pressure [Pa]."""
        v = self.v
        return (R_UNIVERSAL * self.t / (v - self.comp.b)
                - self.a / self._attraction_volume(v))

    def dp_dt(self) -> np.ndarray:
        """(dp/dT)_v,x."""
        v = self.v
        return (R_UNIVERSAL / (v - self.comp.b)
                - self.da_dt / self._attraction_volume(v))

    def dp_dv(self) -> np.ndarray:
        """(dp/dv)_T,x per mole; negative for mechanically stable states."""
        v, b = self.v, self.comp.b
        return -R_UNIVERSAL * self.t / (v - b) ** 2 + self.a * (
            2.0 * v + self.eos.u * b
        ) / self._attraction_volume(v) ** 2

    def drho_dp(self) -> np.ndarray:
        """(drho/dp)_T,x [s^2/m^2] = 1 / [(dp/dv)_T (dv/drho)]."""
        return 1.0 / (self.dp_dv() * (-self.comp.w_mix / self.rho**2))

    @cached_property
    def log_term_over_bd(self) -> np.ndarray:
        """``L / (b d)``, ``L = ln[(2v + b(u+d)) / (2v + b(u-d))]`` and
        ``d = sqrt(u^2 - 4 w)``: the volume integral of ``1/(v^2 + u b v
        + w b^2)``, which the h and cp departures share -- evaluated
        once per state."""
        u, w = self.eos.u, self.eos.w
        d = np.sqrt(u * u - 4.0 * w)
        v, b = self.v, self.comp.b
        log_term = np.log(
            np.maximum(2.0 * v + b * (u + d), 1e-300)
            / np.maximum(2.0 * v + b * (u - d), 1e-300)
        )
        return log_term / (b * d)


@dataclass
class CubicEos:
    """Generalized two-parameter cubic EoS over a species set.

    Subclasses set the (u, w) volume-polynomial constants and the
    alpha-function slope ``m(omega)``.
    """

    species: list[Species]
    u: float = 2.0
    w: float = -1.0
    omega_a: float = 0.45724
    omega_b: float = 0.07780

    def __post_init__(self) -> None:
        """Derive the per-species constants from the critical data."""
        self.t_crit = np.array([s.t_crit for s in self.species])
        self.p_crit = np.array([s.p_crit for s in self.species])
        self.omega = np.array([s.omega for s in self.species])
        self.mol_weights = np.array([s.molecular_weight for s in self.species])
        r2 = R_UNIVERSAL**2
        self.a_crit = self.omega_a * r2 * self.t_crit**2 / self.p_crit
        self.b_pure = self.omega_b * R_UNIVERSAL * self.t_crit / self.p_crit
        self.mixing = VanDerWaalsMixing(len(self.species))
        # sqrt(alpha_i) = |g_i|, g_i = (1 + m_i) - (m_i / sqrt(Tc_i)) sqrt(T)
        m = self.m_factor(self.omega)
        self._g_const = 1.0 + m
        self._g_slope = m / np.sqrt(self.t_crit)
        self._sqrt_a_crit = np.sqrt(self.a_crit)
        self._composition_weights = np.stack([    # w_mix, s_const, s_slope
            self.mol_weights, self._sqrt_a_crit * self._g_const,
            self._sqrt_a_crit * self._g_slope])
        # below this sqrt(T) every g_i keeps >= 10 % of its T = 0 value,
        # so s_const - s_slope sqrt(T) is sum_i r_i to a few ulps (1114 K
        # under PR, set by CO)
        rising = self._g_slope > 0.0
        self._sqrt_t_linear = 0.9 * np.min(
            self._g_const[rising] / self._g_slope[rising], initial=np.inf)

    # -- subclass hooks ----------------------------------------------
    def m_factor(self, omega: np.ndarray) -> np.ndarray:
        """Alpha-function slope ``m(omega)`` of the concrete EoS."""
        raise NotImplementedError

    # -- the state and its kernels ------------------------------------
    def composition(self, y) -> Composition:
        """Mole fractions, mixture weight, covolume and the attraction
        sums of :meth:`attraction` from *mass* fractions."""
        return self._composition(self._mole_from_mass(np.atleast_2d(y)))

    def _composition(self, x) -> Composition:
        # un-optimised einsum: one fixed loop over species per cell (a
        # BLAS product picks its kernel, and last bit, by batch size)
        w_mix, s_const, s_slope = np.einsum(
            "...i,ki->k...", x, self._composition_weights, optimize=False)
        return Composition(x, w_mix, self._covolume(x), s_const, s_slope)

    def attraction(self, t, x, order: int = 2):
        """Mixture ``(a, da/dT, d2a/dT2)`` at ``t`` for mole fractions
        ``x`` ``(..., ns)`` or a prebuilt :class:`Composition`.

        ``sqrt(a_i(T)) = sqrt(a_crit_i) |g_i|`` with ``g_i`` linear in
        ``sqrt(T)``, so one square root of ``t`` gives ``r_i = x_i
        sqrt(a_i)`` and both of its temperature derivatives in closed
        form; :meth:`VanDerWaalsMixing.attraction` turns them into the
        mixture values.  Derivatives above ``order`` are ``None``.

        The sign of ``g_i`` is kept: above ``Tc_i ((1 + m_i)/m_i)^2``
        (1836 K for O2 under PR) ``g_i`` is negative and ``sqrt(a_i)``
        grows again.  Exactly at ``g_i = 0`` species ``i`` contributes
        nothing to ``a`` or its derivatives.

        With ``k_ij = 0`` the rule is rank-1 in ``s = sum_i r_i``, and
        ``s'``, ``s''`` are per-cell multiples of ``sum_i c_i``
        (:meth:`_r_c`); below ``_sqrt_t_linear`` both sums are the
        composition's, O(n) per call.  Hotter cells, and every cell of
        a quadratic rule, build ``r`` and ``c``.
        """
        comp = (x if isinstance(x, Composition)
                else self._composition(np.asarray(x)))
        shape = np.broadcast_shapes(np.shape(t), comp.s_const.shape)
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        x = np.broadcast_to(comp.x, shape + comp.x.shape[-1:])
        sqrt_t = np.sqrt(t)
        ds = (-0.5 / sqrt_t, 0.25 / (t * sqrt_t))[:order]   # r_i^(k) / c_i
        if self.mixing.one_minus_k is not None:
            r, c = self._r_c(sqrt_t, x)
            return self.mixing.attraction(r, *(c * f[..., None] for f in ds))
        s = np.array(comp.s_const - comp.s_slope * sqrt_t)
        sc = np.array(np.broadcast_to(comp.s_slope, shape))
        hot = sqrt_t >= self._sqrt_t_linear
        if hot.any():
            r, c = self._r_c(sqrt_t[hot], x[hot])
            s[hot], sc[hot] = r.sum(axis=-1), c.sum(axis=-1)
        return self.mixing.rank_one(s, *(sc * f for f in ds))

    def _r_c(self, sqrt_t, x):
        """``r_i = x_i sqrt(a_i)`` and ``c_i``, with ``r_i' = -c_i / (2
        sqrt T)`` and ``r_i'' = c_i / (4 T sqrt T)``."""
        g = self._g_const - self._g_slope * sqrt_t[..., None]
        return (x * (self._sqrt_a_crit * np.abs(g)),
                x * (self._sqrt_a_crit * self._g_slope * np.sign(g)))

    def state(self, t, comp: Composition, rho=None,
              order: int = 2) -> CubicState:
        """The :class:`CubicState` at ``t`` for a prebuilt composition."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if rho is not None:
            rho = np.atleast_1d(np.asarray(rho, dtype=float))
        a, da_dt, d2a_dt2 = self.attraction(t, comp, order)
        return CubicState(self, t, comp, a, da_dt, d2a_dt2, rho)

    def solve_density(self, state: CubicState, p,
                      root: str = "vapor") -> np.ndarray:
        """Solve the cubic at ``(state.t, p)``; stores and returns ``rho``.

        Raises :class:`FloatingPointError` naming the offending rows
        when a cell has ``T <= 0``, ``p <= 0`` or a non-finite state.
        """
        p = np.broadcast_to(np.asarray(p, dtype=float), state.t.shape)
        z = self._solve_cubic(state.t, p, state.a, state.comp.b, root)
        bad = np.flatnonzero(~((state.t > 0.0) & (p > 0.0) & np.isfinite(z)))
        if bad.size:
            raise FloatingPointError(
                f"{bad.size} of {z.size} cells have a non-positive or "
                f"non-finite temperature, pressure or compressibility "
                f"factor; first cells: {bad[:5].tolist()}")
        state.rho = p * state.comp.w_mix / (z * R_UNIVERSAL * state.t)
        state.__dict__.pop("log_term_over_bd", None)    # read at the old rho
        return state.rho

    # ----------------------------------------------------------------
    def compressibility(self, t, p, x, root: str = "vapor"):
        """Compressibility factor Z from the cubic, vectorized.

        ``root`` selects ``"vapor"`` (largest real root), ``"liquid"``
        (smallest valid root) or ``"gibbs"`` (minimum Gibbs energy).
        At supercritical conditions the cubic generally has a single
        real root and the choice is moot.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p = np.broadcast_to(np.asarray(p, dtype=float), t.shape)
        comp = self._composition(np.atleast_2d(x))
        a_mix, _, _ = self.attraction(t, comp, order=0)
        return self._solve_cubic(t, p, a_mix, comp.b, root)

    def _solve_cubic(self, t, p, a_mix, b_mix, root: str) -> np.ndarray:
        """Z at ``(t, p)`` for given mixture parameters (all ``(n,)``):
        :func:`cubic_real_roots` of the cubic in Z, then the root
        ``root`` names, elementwise.

        Since ``f(B) = -(1 + u + w) B^2 < 0`` the largest real root
        exceeds ``B``, so ``"vapor"`` asks for that one root alone;
        the other modes pick among the roots ``> B``.  A largest root
        rounded to ``<= B`` becomes ``max(Z, 1.001 B)``.
        """
        if root not in ROOT_MODES:
            raise ValueError(
                f"root must be one of {ROOT_MODES}, got {root!r}")
        rt = R_UNIVERSAL * t
        big_a = a_mix * p / rt**2
        big_b = b_mix * p / rt
        u, w = self.u, self.w
        # Z^3 + c2 Z^2 + c1 Z + c0 = 0
        c2 = -(1.0 + big_b - u * big_b)
        c1 = big_a + w * big_b**2 - u * big_b - u * big_b**2
        c0 = -(big_a * big_b + w * big_b**2 + w * big_b**3)
        z0, lower, three = cubic_real_roots(c2, c1, c0,
                                            lower=root != "vapor")
        z = z0
        valid = [three & (zk > big_b) for zk in lower]
        if root == "liquid":
            for zk, ok in zip(lower, valid):
                z = np.where(ok, zk, z)
        elif root == "gibbs":
            d = float(np.sqrt(u * u - 4.0 * w))
            inf = np.full_like(z0, float("inf"))

            def gibbs(zk, ok):
                zk = np.where(ok, zk, big_b + 1.0)
                lo = np.log((2.0 * zk + big_b * (u - d))
                            / (2.0 * zk + big_b * (u + d)))
                return np.where(ok, zk - 1.0 - np.log(zk - big_b)
                                + big_a / (big_b * d) * lo, inf)

            g = gibbs(z0, z0 > big_b)
            for zk, ok in zip(lower, valid):
                gk = gibbs(zk, ok)
                z, g = np.where(gk < g, zk, z), np.where(gk < g, gk, g)
        return np.where(z0 > big_b, z, np.maximum(z0, 1.001 * big_b))

    def density(self, t, p, y, root: str = "vapor") -> np.ndarray:
        """Mass density [kg/m^3] from T, p and *mass* fractions ``y``."""
        state = self.state(t, self.composition(y), order=0)
        return self.solve_density(state, p, root)

    def _covolume(self, x: np.ndarray) -> np.ndarray:
        return (x * self.b_pure).sum(axis=-1)

    def _mole_from_mass(self, y: np.ndarray) -> np.ndarray:
        moles = y / self.mol_weights
        moles /= np.maximum(moles.sum(axis=-1, keepdims=True), 1e-300)
        return moles


class PengRobinson(CubicEos):
    """Peng-Robinson EoS -- the paper's real-fluid model (PRNet target)."""

    def __init__(self, species: list[Species]):
        super().__init__(species, u=2.0, w=-1.0, omega_a=0.45724, omega_b=0.07780)

    def m_factor(self, omega: np.ndarray) -> np.ndarray:
        """Peng-Robinson (1976) ``m(omega)``."""
        return 0.37464 + 1.54226 * omega - 0.26992 * omega**2


class SoaveRedlichKwong(CubicEos):
    """SRK EoS (used by the SiTCom-B comparison code in Table 1)."""

    def __init__(self, species: list[Species]):
        super().__init__(species, u=1.0, w=0.0, omega_a=0.42748, omega_b=0.08664)

    def m_factor(self, omega: np.ndarray) -> np.ndarray:
        """Soave (1972) ``m(omega)``."""
        return 0.480 + 1.574 * omega - 0.176 * omega**2
