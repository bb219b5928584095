"""Vectorized chemical kinetics: production rates over batches of cells.

This is the "conventional" (non-DNN) chemistry path: the exact
evaluation of species net production rates that the stiff ODE
integrator and the reference solutions use, and the ground truth the
ODENet surrogate is trained against.

Everything that depends on temperature alone -- ``ln k_f``, the
low-pressure limits, ``-dg/RT``, ``dn ln(p_ref/RT)`` and ``dh/RT`` per
reaction, ``h/RT`` and ``cp/R`` per species -- is one row of a *rate
table*: the basis ``[1, ln T, 1/T, T, T^2, T^3, T^4]`` times constants
folded once from the NASA-7 coefficients, the stoichiometry and the
Arrhenius parameters.  A state batch costs one ``(n, 7) @ (7, k)``
product and one ``exp`` each for ``k_f`` and ``K_c``: no ``pow``, and
the thermo is evaluated once per right-hand side.
"""

from __future__ import annotations

import numpy as np

from ..constants import P_REF, R_UNIVERSAL
from .mechanism import Mechanism

__all__ = ["KineticsEvaluator"]

#: rows per block of the row-wise kernels: keeps a block's rate table and
#: ``(n, nr)`` temporaries cache-resident (a 1700-row RHS runs ~1.5x faster)
_CHUNK = 512
_LN10 = np.log(10.0)
#: floor of the rate constants, equilibrium constants and falloff ratios
_TINY = 1e-300


class KineticsEvaluator:
    """Evaluates net production rates for batches of thermochemical states.

    All public methods are vectorized over a leading batch axis so a
    whole mesh block can be evaluated in a handful of numpy kernels.
    """

    def __init__(self, mechanism: Mechanism):
        self.mech = mechanism
        # Per-reaction sparse stoichiometry for fast concentration
        # products: lists of (species_index, power) tuples.
        self._fwd_terms = [
            [(i, p) for i, p in enumerate(row) if p > 0]
            for row in mechanism.nu_forward
        ]
        self._rev_terms = [
            [(i, p) for i, p in enumerate(row) if p > 0]
            for row in mechanism.nu_reverse
        ]
        nr, ns = mechanism.n_reactions, mechanism.n_species
        self._falloff_idx = np.flatnonzero(
            [r.is_falloff for r in mechanism.reactions])
        self._rev = mechanism.reversible_mask.astype(float)  # 0: irreversible

        # Integer stoichiometric powers are expanded into repeated
        # linear slots (a power-2 term becomes two gathers of the same
        # species), with a sentinel column of ones for padding -- the
        # concentration product is then pure gathers + multiplies with
        # no pow and no masking.  Mechanisms with non-integer orders
        # (or thermo that is not single-range NASA-7) fall back to the
        # reference loop.
        def _expand(term_lists):
            orders = [sum(p for _, p in terms) for terms in term_lists]
            if any(abs(o - round(o)) > 1e-12 for o in orders) or any(
                    abs(p - round(p)) > 1e-12
                    for terms in term_lists for _, p in terms):
                return None
            width = max(1, max((int(round(o)) for o in orders), default=1))
            idx = np.full((nr, width), ns, dtype=np.int64)
            for j, terms in enumerate(term_lists):
                k = 0
                for i, p in terms:
                    for _ in range(int(round(p))):
                        idx[j, k] = i
                        k += 1
            return idx

        self._fwd_slots = _expand(self._fwd_terms)
        self._rev_slots = _expand(self._rev_terms)
        self._vector_ok = self._fwd_slots is not None \
            and self._rev_slots is not None \
            and mechanism._thermo_coeffs is not None
        if self._vector_ok:
            # one contiguous species-index array per slot column
            self._fwd_cols, self._rev_cols = (
                [np.ascontiguousarray(col) for col in slots.T]
                for slots in (self._fwd_slots, self._rev_slots))
            self._build_table()

    def _build_table(self) -> None:
        """Fold the T-only constants into ``_table`` ``(7, k)``; column
        blocks ``_cols``: ``ln|k_inf|`` per reaction then ``ln|k_0|`` per
        falloff reaction, ``-dg/RT``, ``dn ln(p_ref/RT)``, ``h/RT`` and
        ``cp/R`` per species, ``dh/RT`` per reaction.  The sign of ``A``
        stays outside the exponential."""
        mech, nr = self.mech, self.mech.n_reactions
        falloff = [mech.reactions[j] for j in self._falloff_idx]
        a = mech._thermo_coeffs.T  # (7, ns)
        zero = np.zeros(mech.n_species)
        h_rt = np.array([a[0], zero, a[5], a[1] / 2, a[2] / 3, a[3] / 4,
                         a[4] / 5])
        s_r = np.array([a[6], a[0], zero, a[1], a[2] / 2, a[3] / 3, a[4] / 4])
        cp_r = np.array([a[0], zero, zero, a[1], a[2], a[3], a[4]])
        ln_c_ref = np.array([np.log(P_REF / R_UNIVERSAL), -1.0, 0, 0, 0, 0, 0])
        rates = [r.rate for r in mech.reactions] + [r.low_rate for r in falloff]
        pre = np.array([r.a for r in rates])
        ln_k = np.zeros((7, pre.size))
        ln_k[0] = np.log(np.where(pre != 0.0, np.abs(pre), 1.0))
        ln_k[1] = [r.b for r in rates]
        ln_k[2] = [-r.ea / R_UNIVERSAL for r in rates]
        self._k_sign = np.sign(pre)  # 0 for A = 0
        blocks = [ln_k, (s_r - h_rt) @ mech.nu_net.T,
                  np.outer(ln_c_ref, mech.nu_net.sum(axis=1)), h_rt, cp_r,
                  h_rt @ mech.nu_net.T]
        self._table = np.concatenate(blocks, axis=1)
        edges = np.cumsum([0] + [b.shape[1] for b in blocks]).tolist()
        self._cols = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
        # (alpha, T3, T1, T2) per falloff reaction; Lindemann is Troe
        # with F_cent = 1 (alpha = 0, T3 = inf), a missing T2 is inf
        troe = [(tr.alpha, tr.t3, tr.t1, np.inf if tr.t2 is None else tr.t2)
                if tr else (0.0, np.inf, 1.0, np.inf)
                for tr in (r.troe for r in falloff)]
        self._troe = tuple(np.array(troe, dtype=float).reshape(-1, 4).T)
        # conc_ext @ _m_ext: [M] where it multiplies the rate of progress (1
        # elsewhere, from the ones column), then [M] per falloff reaction
        third = np.array([r.third_body for r in mech.reactions], dtype=bool)
        self._m_ext = np.zeros((mech.n_species + 1, pre.size))
        self._m_ext[:-1, :nr] = (mech.efficiencies * third[:, None]).T
        self._m_ext[-1, :nr] = ~third
        self._m_ext[:-1, nr:] = mech.efficiencies[self._falloff_idx].T

    # ----------------------------------------------------------------
    def concentrations(self, rho: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Molar concentrations [mol/m^3] from density and mass fractions."""
        rho = np.asarray(rho, dtype=float)
        return rho[..., None] * y / self.mech.molecular_weights

    def density_ideal(self, t: np.ndarray, p: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Ideal-gas density [kg/m^3]."""
        w = self.mech.mean_molecular_weight(y)
        return np.asarray(p) * w / (R_UNIVERSAL * np.asarray(t))

    # ----------------------------------------------------------------
    @staticmethod
    def _blocks(kernel, *rows):
        """Apply a row-wise ``kernel`` in blocks of ``_CHUNK`` rows."""
        n = rows[0].shape[0]
        if n <= _CHUNK:
            return kernel(*rows)
        parts = [kernel(*(r[s:s + _CHUNK] for r in rows))
                 for s in range(0, n, _CHUNK)]
        return tuple(np.concatenate(col) for col in zip(*parts))

    def _rate_table(self, t, deriv: bool = False):
        """The ``(n, k)`` rate table at ``t`` ``(n,)``; with ``deriv``
        also its T-derivative (the constants times the differentiated
        basis)."""
        tc = t[:, None]
        one, inv, t2 = np.ones_like(tc), 1.0 / tc, tc * tc
        tab = np.matmul(np.concatenate(
            [one, np.log(tc), inv, tc, t2, t2 * tc, t2 * t2], axis=1),
            self._table)
        if not deriv:
            return tab
        return tab, np.matmul(np.concatenate(
            [0.0 * one, inv, -inv * inv, one, 2.0 * tc, 3.0 * t2,
             4.0 * t2 * tc], axis=1), self._table)

    @staticmethod
    def _falloff_blend(troe, tc, k_inf, k_0, m):
        """Troe/Lindemann-blended ``k_f`` over the falloff subset:
        ``(n, n_falloff)`` arrays, ``tc`` the ``(n, 1)`` temperatures."""
        alpha, t3, t1, t2 = troe
        pr = np.maximum(k_0 * m / np.maximum(k_inf, _TINY), _TINY)
        f_cent = (1.0 - alpha) * np.exp(-tc / t3) \
            + alpha * np.exp(-tc / t1) + np.exp(-t2 / tc)
        log_fc = np.log10(np.maximum(f_cent, _TINY))
        u = np.log10(pr) - 0.4 - 0.67 * log_fc
        f1 = u / (0.75 - 1.27 * log_fc - 0.14 * u)
        return k_inf * (pr / (1.0 + pr)) \
            * np.exp(_LN10 * log_fc / (1.0 + f1 * f1))

    def rates_of_progress(self, t, conc):
        """Forward and net rates of progress, shape ``(n, n_reactions)``.

        Reaction-vectorized: rate constants from the rate table, the
        falloff blend over the falloff subset as ``(n, n_falloff)``
        arrays, concentration products from padded gather-product
        tables -- a few dozen array kernels per call, which the stiff
        integrators make hundreds of times per step.  Agrees with the
        per-reaction loop (:meth:`rates_of_progress_reference`, taken
        by mechanisms with non-integer orders) to rounding of the
        exponent (< 1e-13 relative at 150 K).

        Parameters
        ----------
        t:
            Temperature [K], shape ``(n,)``.
        conc:
            Concentrations [mol/m^3], shape ``(n, n_species)``.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        conc = np.atleast_2d(np.asarray(conc, dtype=float))
        if not self._vector_ok:
            return self.rates_of_progress_reference(t, conc)
        return self._blocks(self._rates_block, t, conc)

    def _rate_inputs(self, conc, tab):
        """``(conc_ext, [M], k, K_c)`` of one block: the clipped
        concentrations with their ones column, the third-body sums
        ``conc_ext @ _m_ext``, the signed ``k_inf``/``k_0`` and the
        equilibrium constants, from the block's rate table."""
        conc_ext = np.concatenate(
            [np.maximum(conc, 0.0), np.ones((conc.shape[0], 1))], axis=1)
        k = np.exp(tab[:, self._cols[0]])
        k *= self._k_sign
        kc = np.exp(np.clip(tab[:, self._cols[1]], -300.0, 300.0)
                    + tab[:, self._cols[2]])
        return conc_ext, np.matmul(conc_ext, self._m_ext), k, kc

    def _rates_block(self, t, conc, tab=None):
        """One block of :meth:`rates_of_progress`: ``t`` ``(n,)`` and
        ``conc`` ``(n, ns)`` (``tab``: the block's rate table, when the
        caller already has it)."""
        if tab is None:
            tab = self._rate_table(t)
        nr, fall = self.mech.n_reactions, self._falloff_idx
        conc_ext, m, k, kc = self._rate_inputs(conc, tab)
        kf = k[:, :nr]
        if fall.size:
            kf[:, fall] = self._falloff_blend(
                self._troe, t[:, None], kf[:, fall], k[:, nr:], m[:, nr:])
        q_fwd = kf * self._conc_products(conc_ext, self._fwd_cols)
        q_fwd *= m[:, :nr]
        q_rev = kf * self._rev / np.maximum(kc, _TINY)
        q_rev *= self._conc_products(conc_ext, self._rev_cols)
        q_rev *= m[:, :nr]
        return q_fwd, q_fwd - q_rev

    @staticmethod
    def _conc_products(conc_ext, slots):
        """``prod_i c_i^p_i`` per reaction via expanded linear slots
        (``slots``: one species-index array per slot column): one
        gather along the species axis + one multiply per slot column,
        shape ``(n, nr)``."""
        prod = conc_ext[:, slots[0]]
        for idx in slots[1:]:
            prod = prod * conc_ext[:, idx]
        return prod

    def rates_of_progress_reference(
        self, t: np.ndarray, conc: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-reaction reference loop (validation baseline for the
        vectorized :meth:`rates_of_progress`)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        conc = np.atleast_2d(np.asarray(conc, dtype=float))
        conc_pos = np.maximum(conc, 0.0)
        n = t.shape[0]
        mech = self.mech
        nr = mech.n_reactions

        kc = mech.equilibrium_constants(t)  # (n, nr)
        q_fwd = np.empty((n, nr))
        q_net = np.empty((n, nr))
        m_eff = conc_pos @ mech.efficiencies.T  # (n, nr); zero rows unused

        for j, rxn in enumerate(mech.reactions):
            m_j = m_eff[:, j] if (rxn.third_body or rxn.is_falloff) else None
            kf = rxn.forward_rate_constant(t, m_j)
            prod_f = np.ones(n)
            for i, p in self._fwd_terms[j]:
                prod_f = prod_f * (conc_pos[:, i] if p == 1 else conc_pos[:, i] ** p)
            qf = kf * prod_f
            if rxn.third_body:
                qf = qf * m_j
            if rxn.reversible:
                kr = kf / np.maximum(kc[:, j], 1e-300)
                prod_r = np.ones(n)
                for i, p in self._rev_terms[j]:
                    prod_r = prod_r * (
                        conc_pos[:, i] if p == 1 else conc_pos[:, i] ** p
                    )
                qr = kr * prod_r
                if rxn.third_body:
                    qr = qr * m_j
            else:
                qr = 0.0
            q_fwd[:, j] = qf
            q_net[:, j] = qf - qr
        return q_fwd, q_net

    def wdot(self, t: np.ndarray, conc: np.ndarray) -> np.ndarray:
        """Net molar production rates [mol/(m^3 s)], shape ``(n, ns)``."""
        _, q_net = self.rates_of_progress(t, conc)
        return q_net @ self.mech.nu_net

    def mass_production_rates(self, t, rho, y) -> np.ndarray:
        """Net mass production rates [kg/(m^3 s)]: ``wdot_i * W_i``.

        These sum to zero across species (mass conservation).
        """
        conc = self.concentrations(rho, y)
        return self.wdot(t, conc) * self.mech.molecular_weights

    def heat_release_rate(self, t, rho, y) -> np.ndarray:
        """Volumetric heat release rate [W/m^3]: ``-sum_i h_i wdot_i``."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        conc = self.concentrations(rho, y)
        wdot = self.wdot(t, conc)
        h_mole = self.mech.h_rt_all(t) * R_UNIVERSAL * t[..., None]
        return -(wdot * h_mole).sum(axis=-1)

    # ----------------------------------------------------------------
    def constant_pressure_rhs(
        self, t: np.ndarray, p: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Right-hand side of the constant-pressure reactor equations.

        Returns ``(dT/dt, dY/dt)`` for a homogeneous ideal-gas reactor:

            dY_i/dt = wdot_i W_i / rho
            dT/dt   = -sum_i h_i wdot_i / (rho cp)
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        p = np.broadcast_to(np.asarray(p, dtype=float), t.shape)
        return self._blocks(self._rhs_block, t, p, y)

    def _molar_state(self, t, p, y):
        """``(Y/W [mol/kg], Wbar, rho, c)`` of ideal-gas state rows."""
        yw = y / self.mech.molecular_weights
        wbar = 1.0 / np.maximum(yw.sum(axis=1), 1e-300)
        rho = p * wbar / (R_UNIVERSAL * t)
        return yw, wbar, rho, rho[:, None] * yw

    def _rhs_block(self, t, p, y):
        """One block of :meth:`constant_pressure_rhs`: rates and thermo
        from one rate table."""
        mech = self.mech
        yw, _, rho, conc = self._molar_state(t, p, y)
        if self._vector_ok:
            tab = self._rate_table(t)
            q_net = self._rates_block(t, conc, tab)[1]
            dh_rt, cp_r = tab[:, self._cols[5]], tab[:, self._cols[4]]
        else:
            q_net = self.rates_of_progress_reference(t, conc)[1]
            dh_rt, cp_r = mech.h_rt_all(t) @ mech.nu_net.T, mech.cp_r_all(t)
        wdot = q_net @ mech.nu_net
        dydt = wdot * mech.molecular_weights / rho[:, None]
        # Heat release per reaction, sum_j q_j dh_j: the species form
        # sum_i h_i wdot_i cancels formation enthalpies ~25x on a burning
        # state, with that much more rounding noise.  (R cancels.)
        dtdt = -(q_net * dh_rt).sum(axis=1) * t \
            / (rho * (yw * cp_r).sum(axis=1))
        return dtdt, dydt
