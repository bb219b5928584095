"""Analytic constant-pressure reactor Jacobians.

The stiff BDF/RODAS3 chemistry integrators spend most of their time on
Jacobians: the finite-difference path evaluates the full kinetics RHS
once per state component -- ``1 + n_species`` vectorized sweeps --
every refresh.  This module assembles the same Jacobian *analytically*
with no loop over reactions: ``k_f``, ``K_c`` and their temperature
derivatives come from the kinetics rate table and its differentiated
twin (``d ln k_f/dT = b/T + E_a/RT^2`` costs no second exponential),
the falloff/Troe derivatives are evaluated over the falloff subset,
the slot-wise concentration-product gradients are scattered into
``dq/dc`` and ``d(wdot)/dc = nu_net^T dq/dc`` is one matrix product;
the chain rule then maps to the packed ``(T, Y)`` state.

The Jacobian differentiates exactly the RHS the integrators use
(:meth:`~repro.chemistry.kinetics.KineticsEvaluator.constant_pressure_rhs`
wrapped in the backends' ``T``-floor / ``Y``-clip conventions): where a
clip is pinned (``T`` below the floor, ``Y`` at the upper bound) the
corresponding column is zero, matching the one-sided finite
difference.  Agreement with the FD reference is ~1e-8 relative
(FD truncation error); the test suite gates 1e-6.
"""

from __future__ import annotations

import numpy as np

from ..constants import R_UNIVERSAL
from .kinetics import _LN10, KineticsEvaluator
from .mechanism import Mechanism

__all__ = ["AnalyticJacobian"]


class AnalyticJacobian:
    """Batched analytic Jacobian of the constant-pressure reactor RHS.

    Parameters
    ----------
    mech:
        Reaction mechanism (stoichiometry is precomputed once here).
        Needs what the rate table needs -- integer reaction orders and
        single-range NASA-7 thermo; other mechanisms raise
        ``ValueError`` and take the finite-difference Jacobian.
    t_floor:
        Temperature floor of the calling integrator's RHS wrapper; the
        state is evaluated at ``max(T, t_floor)`` and the temperature
        column is zeroed where the floor pins it.
    """

    def __init__(self, mech: Mechanism, t_floor: float = 200.0):
        self.mech = mech
        self.t_floor = float(t_floor)
        self._kin = kin = KineticsEvaluator(mech)
        if not kin._vector_ok:
            raise ValueError(
                "the analytic Jacobian needs integer reaction orders and "
                "NASA-7 thermo; use the finite-difference Jacobian")
        # dq/dc is assembled species-major, (n, ns + 1, nr) flattened:
        # flat scatter target of every product slot (row ns collects
        # the padding slots and is dropped).
        nr = mech.n_reactions
        rows = np.arange(nr)[:, None]
        self._fwd_flat = kin._fwd_slots * nr + rows
        self._rev_flat = kin._rev_slots * nr + rows
        # reactions whose rate sees [M] (third body and/or falloff), and
        # the 0/1 mask of those where [M] multiplies the rate of progress
        self._m_rows = np.flatnonzero(mech.efficiencies.any(axis=1))
        self._third = 1.0 - kin._m_ext[-1, :nr]

    # ------------------------------------------------------------------
    def _falloff(self, tc, kinf, dkinf, k0, dk0, m):
        """``(kf, dkf/dT, dkf/dM)`` of the Troe/Lindemann blend over the
        falloff subset, ``(n, n_falloff)`` arrays; ``m`` is the
        effective third-body concentration, ``tc`` the ``(n, 1)``
        temperature column."""
        alpha, t3, t1, t2 = self._kin._troe
        kinf_s = np.maximum(kinf, 1e-300)
        pr_raw = k0 * m / kinf_s
        pr = np.maximum(pr_raw, 1e-300)
        live = pr_raw > 1e-300
        # Logarithmic derivatives of pr (zero where the clip pins it).
        dpr_dt = np.where(live, pr * (dk0 / np.maximum(k0, 1e-300)
                                      - dkinf / kinf_s), 0.0)
        dpr_dm = np.where(live, k0 / kinf_s, 0.0)
        blend = pr / (1.0 + pr)
        dblend_dpr = 1.0 / (1.0 + pr) ** 2
        e3, e1, e2 = np.exp(-tc / t3), np.exp(-tc / t1), np.exp(-t2 / tc)
        fc = np.maximum((1.0 - alpha) * e3 + alpha * e1 + e2, 1e-300)
        lfc = np.log10(fc)
        nn = 0.75 - 1.27 * lfc
        u = np.log10(pr) - 0.4 - 0.67 * lfc
        den = nn - 0.14 * u
        f1 = u / den
        one_f1 = 1.0 + f1 * f1
        f = np.exp(_LN10 * lfc / one_f1)
        dlnf_df1 = -_LN10 * lfc * 2.0 * f1 / one_f1 ** 2
        # u and den both move with lfc: du/dlfc = -0.67,
        # dden/dlfc = -1.27 + 0.14 * 0.67.
        df1_dlfc = (-0.67 * den - u * (-1.27 + 0.14 * 0.67)) / den ** 2
        dlnf_dlfc = _LN10 / one_f1 + dlnf_df1 * df1_dlfc
        # a missing T2 (inf) contributes exp(-inf) = 0 and no slope
        dfc_dt = -(1.0 - alpha) / t3 * e3 - alpha / t1 * e1 \
            + np.where(np.isfinite(t2), t2, 0.0) / (tc * tc) * e2
        df_dpr = f * dlnf_df1 * (nn / den ** 2) / (pr * _LN10)
        df_dt_partial = f * dlnf_dlfc * dfc_dt / (fc * _LN10)
        kf = kinf * blend * f
        dkf_dpr = kinf * (dblend_dpr * f + blend * df_dpr)
        dkf_dt = dkinf * blend * f + dkf_dpr * dpr_dt \
            + kinf * blend * df_dt_partial
        return kf, dkf_dt, dkf_dpr * dpr_dm

    @staticmethod
    def _slot_products(conc_ext, slots):
        """``(prod, grads)`` of the slot-expanded concentration
        products: ``grads[s]`` is the derivative w.r.t. the species in
        slot column ``s`` (the product of the other slots), ``(n, nr)``
        each; a species filling two slots collects both."""
        cols = [conc_ext[:, slots[:, s]] for s in range(slots.shape[1])]
        grads = []
        for s in range(len(cols)):
            g = np.ones_like(cols[0])
            for s2, col in enumerate(cols):
                if s2 != s:
                    g = g * col
            grads.append(g)
        return grads[0] * cols[0], grads

    # ------------------------------------------------------------------
    def wdot_derivatives(self, t, conc):
        """``(wdot, dwdot_dc, dwdot_dt)`` at fixed concentrations.

        Shapes ``(n, ns)``, ``(n, ns, ns)``, ``(n, ns)``; ``dwdot_dt``
        holds the concentration axis fixed (the caller chains in the
        ``c(T)`` dependence).
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        conc = np.atleast_2d(np.asarray(conc, dtype=float))
        wdot, dwdot_dc, dwdot_dt = self._wdot_derivatives(
            t, conc, *self._kin._rate_table(t, deriv=True))
        return wdot, dwdot_dc.transpose(0, 2, 1), dwdot_dt

    def _wdot_derivatives(self, t, conc, tab, dtab):
        """:meth:`wdot_derivatives` given the rate table and its
        temperature derivative at ``t``; ``dwdot_dc`` comes back
        concentration-major, ``[n, k, i] = d wdot_i / d c_k``."""
        kin, mech = self._kin, self.mech
        nr, ns, n = mech.n_reactions, mech.n_species, t.shape[0]
        cols, fall = kin._cols, kin._falloff_idx
        conc_ext, m, k, kc = kin._rate_inputs(conc, tab)
        mfac = m[:, :nr]  # [M] where it multiplies q, 1 elsewhere
        dk = k * dtab[:, cols[0]]
        kf, dkf_dt = k[:, :nr], dk[:, :nr]
        if fall.size:
            kf[:, fall], dkf_dt[:, fall], dkf_dm = self._falloff(
                t[:, None], kf[:, fall], dkf_dt[:, fall], k[:, nr:],
                dk[:, nr:], m[:, nr:])
        # d ln Kc/dT = (sum_i nu_i h_i/RT - dn) / T; where the -dg clip
        # saturates, only the c_ref^dn factor still moves with T.
        dkc_dt = kc * (np.where(np.abs(tab[:, cols[1]]) < 300.0,
                                dtab[:, cols[1]], 0.0) + dtab[:, cols[2]])
        inv_kc = kin._rev / np.maximum(kc, 1e-300)  # 0: irreversible
        kr = kf * inv_kc
        dkr_dt = (dkf_dt - kr * dkc_dt) * inv_kc

        pf, grads_f = self._slot_products(conc_ext, kin._fwd_slots)
        pr, grads_r = self._slot_products(conc_ext, kin._rev_slots)
        body = kf * pf - kr * pr  # q / mfac
        q = mfac * body
        dq_dt = mfac * (dkf_dt * pf - dkr_dt * pr)

        dq_dc = np.zeros((n, (ns + 1) * nr))
        mkf, mkr = mfac * kf, mfac * kr
        for s, grad in enumerate(grads_f):
            dq_dc[:, self._fwd_flat[:, s]] += mkf * grad
        for s, grad in enumerate(grads_r):
            dq_dc[:, self._rev_flat[:, s]] -= mkr * grad
        dq_dc = dq_dc.reshape(n, ns + 1, nr)
        # d[M]/dc_k = eff_jk enters via the third-body factor and/or
        # the falloff blending of kf (and kr = kf/Kc).
        rows = self._m_rows
        dq_dm = body * self._third
        if fall.size:
            dq_dm[:, fall] += mfac[:, fall] * dkf_dm * (
                pf[:, fall] - inv_kc[:, fall] * pr[:, fall])
        dq_dc[:, :ns, rows] += dq_dm[:, None, rows] * mech.efficiencies[rows].T

        dwdot_dc = (dq_dc.reshape(n * (ns + 1), nr) @ mech.nu_net).reshape(
            n, ns + 1, ns)[:, :ns]
        return q @ mech.nu_net, dwdot_dc, dq_dt @ mech.nu_net

    # ------------------------------------------------------------------
    def jacobian(self, t, p, y):
        """Jacobian of the packed constant-pressure reactor RHS.

        Parameters: ``t`` (n,), ``p`` (n,), ``y`` (n, ns) -- the *state*
        values as the integrator sees them.  Returns ``(n, 1+ns, 1+ns)``
        with the state ordering ``(T, Y_0, ..)``, matching the batched
        finite-difference Jacobians of the chemistry backends.
        """
        t_state = np.atleast_1d(np.asarray(t, dtype=float))
        p = np.broadcast_to(np.asarray(p, dtype=float), t_state.shape)
        y_state = np.atleast_2d(np.asarray(y, dtype=float))
        t = np.maximum(t_state, self.t_floor)
        y = np.clip(y_state, 0.0, 1.0)
        n, ns = y.shape
        w = self.mech.molecular_weights
        yw, wbar, rho, conc = self._kin._molar_state(t, p, y)

        tab, dtab = self._kin._rate_table(t, deriv=True)
        wdot, dwdot_dc, dwdot_dt_c = self._wdot_derivatives(
            t, conc, tab, dtab)

        # Chain to the state variables.  Directional derivative along c
        # appears in both chains: G_i = sum_k c_k dwdot_i/dc_k.
        g_dir = np.matmul(conc[:, None, :], dwdot_dc)[:, 0, :]
        # T at fixed Y: c_k = -c_k/T per unit T.
        dwdot_dt = dwdot_dt_c - g_dir / t[:, None]
        # Y_j at fixed T: dc_k/dy_j = rho delta_kj / W_j - c_k Wbar/W_j,
        # so dwdot_i/dy_j = dwdot_i/dc_j rho/W_j - G_i Wbar/W_j.
        wbar_w = wbar[:, None] / w

        # dY/dt rows, d(dY_i/dt)/dy_j: times W_i/rho, and the rho^-1
        # prefactor contributes +ydot_i * Wbar/W_j (since drho/dy_j =
        # -rho Wbar/W_j).  Assembled [j, i] like dwdot_dc.
        ydot = wdot * w / rho[:, None]
        jac = np.empty((n, 1 + ns, 1 + ns))
        jac[:, 1:, 1:] = (
            dwdot_dc * (w / w[:, None])
            + wbar_w[:, :, None] * (ydot - g_dir * w / rho[:, None])[:, None, :]
        ).transpose(0, 2, 1)
        # d(dY_i/dt)/dT: drho/dT = -rho/T adds +ydot_i/T.
        jac[:, 1:, 0] = dwdot_dt * w / rho[:, None] + ydot / t[:, None]

        # dT/dt row: Tdot = -sum_i h_i wdot_i / (rho cp).
        cols = self._kin._cols
        h_mole = tab[:, cols[3]] * R_UNIVERSAL * t[:, None]
        cp_mole = tab[:, cols[4]] * R_UNIVERSAL
        cp_mass = (yw * cp_mole).sum(axis=1)
        tdot = -(h_mole * wdot).sum(axis=1) / (rho * cp_mass)
        ds_dy = np.matmul(dwdot_dc, h_mole[:, :, None])[:, :, 0] \
            * (rho[:, None] / w) - wbar_w * (h_mole * g_dir).sum(axis=1)[:, None]
        jac[:, 0, 1:] = -ds_dy / (rho * cp_mass)[:, None] \
            - tdot[:, None] * (cp_mole / w / cp_mass[:, None] - wbar_w)
        dcp_dt = (yw * dtab[:, cols[4]]).sum(axis=1) * R_UNIVERSAL
        ds_dt = (cp_mole * wdot).sum(axis=1) + (h_mole * dwdot_dt).sum(axis=1)
        jac[:, 0, 0] = -ds_dt / (rho * cp_mass) \
            - tdot * (-1.0 / t + dcp_dt / cp_mass)

        # Pinned clips: the implemented RHS is flat under a forward
        # perturbation there, so the matching columns are zero.
        jac[:, :, 0] *= (t_state >= self.t_floor)[:, None]
        jac[:, :, 1:] *= (y_state < 1.0)[:, None, :]
        return jac

    def jacobian_packed(self, states, p):
        """Jacobian for packed ``(T, Y...)`` state rows ``(n, 1+ns)``
        (the chemistry backends' batch layout)."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return self.jacobian(states[:, 0], p, states[:, 1:])
