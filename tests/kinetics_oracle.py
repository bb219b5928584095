"""Reference implementation of the direct-chemistry kernels.

The bodies the rate-table kernels of ``repro.chemistry`` replaced, kept
verbatim apart from taking the production evaluator as an argument:
the ``pow``/``exp`` Arrhenius sweep with per-reaction falloff closures
(``_rates_block``), the reactor right-hand side that evaluates the
NASA-7 polynomials four times over, and the analytic Jacobian
assembled by a Python loop over the reactions.  Slow on purpose:
``tests/test_hotpath.py`` compares the production kernels against
them.  Beside them, fixed-step classical RK4 (:func:`rk4_batch`), the
explicit family the direct backend no longer runs, kept for the RK4
order tests and the Table-1 E-RK4 benchmark row.

Stoichiometry, slot tables and masks are read from the production
objects; every formula is this module's own.
"""

from __future__ import annotations

import numpy as np

from repro.constants import R_UNIVERSAL

__all__ = ["oracle_rates", "oracle_rhs", "oracle_wdot_derivatives",
           "rk4_batch"]

_LN10 = np.log(10.0)


# -- kinetics.py: the superseded rate body -----------------------------
def _conc_products(conc_ext, slots):
    prod = conc_ext[:, slots[:, 0]]
    for k in range(1, slots.shape[1]):
        prod = prod * conc_ext[:, slots[:, k]]
    return prod


def oracle_rates(kin, t, conc):
    """``(q_fwd, q_net)`` of ``KineticsEvaluator._rates_block``."""
    mech = kin.mech
    arr_a = np.array([r.rate.a for r in mech.reactions])
    arr_b = np.array([r.rate.b for r in mech.reactions])
    arr_ea = np.array([r.rate.ea for r in mech.reactions])
    third_body = np.array([r.third_body for r in mech.reactions])
    falloff_idx = np.flatnonzero([r.is_falloff for r in mech.reactions])

    conc_pos = np.maximum(conc, 0.0)
    kc = mech.equilibrium_constants(t)  # (n, nr)
    m_eff = conc_pos @ mech.efficiencies.T  # (n, nr); zero rows unused

    rt = R_UNIVERSAL * t[:, None]
    kf = arr_a * np.power(t[:, None], arr_b) \
        * np.exp(-arr_ea / rt)
    for j in falloff_idx:
        kf[:, j] = mech.reactions[j].forward_rate_constant(
            t, m_eff[:, j])

    conc_ext = np.concatenate(
        [conc_pos, np.ones((conc_pos.shape[0], 1))], axis=1)
    q_fwd = kf * _conc_products(conc_ext, kin._fwd_slots)
    tb = third_body
    q_fwd[:, tb] *= m_eff[:, tb]

    kr = kf / np.maximum(kc, 1e-300)
    q_rev = kr * _conc_products(conc_ext, kin._rev_slots)
    q_rev[:, tb] *= m_eff[:, tb]
    q_rev[:, ~mech.reversible_mask] = 0.0
    return q_fwd, q_fwd - q_rev


def oracle_rhs(kin, t, p, y):
    """``(dT/dt, dY/dt)`` of ``KineticsEvaluator.constant_pressure_rhs``."""
    mech = kin.mech
    t = np.atleast_1d(np.asarray(t, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    p = np.broadcast_to(np.asarray(p, dtype=float), t.shape)
    rho = kin.density_ideal(t, p, y)
    conc = kin.concentrations(rho, y)
    wdot = oracle_rates(kin, t, conc)[1] @ mech.nu_net
    dydt = wdot * mech.molecular_weights / rho[..., None]
    h_mole = mech.h_rt_all(t) * R_UNIVERSAL * t[..., None]
    cp_mass = mech.cp_mass_mixture(t, y)
    dtdt = -(wdot * h_mole).sum(axis=-1) / (rho * cp_mass)
    return dtdt, dydt


# -- jacobian.py: the per-reaction loop --------------------------------
def _arrhenius(rate, t):
    """``(k, dk/dT)`` for a modified Arrhenius rate."""
    k = rate.a * np.power(t, rate.b) * np.exp(
        -rate.ea / (R_UNIVERSAL * t))
    dk = k * (rate.b / t + rate.ea / (R_UNIVERSAL * t * t))
    return k, dk


def _rate_constant(rxn, t, m):
    """``(kf, dkf/dT, dkf/dM)`` including falloff/Troe blending.

    ``m`` is the effective third-body concentration (used only by
    falloff reactions).
    """
    kinf, dkinf = _arrhenius(rxn.rate, t)
    if not rxn.is_falloff:
        return kinf, dkinf, 0.0
    k0, dk0 = _arrhenius(rxn.low_rate, t)
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
    if rxn.troe is not None:
        troe = rxn.troe
        fc = np.maximum(troe.f_cent(t), 1e-300)
        lfc = np.log10(fc)
        c = -0.4 - 0.67 * lfc
        nn = 0.75 - 1.27 * lfc
        log_pr = np.log10(pr)
        u = log_pr + c
        den = nn - 0.14 * u
        f1 = u / den
        one_f1 = 1.0 + f1 * f1
        f = np.power(10.0, lfc / one_f1)
        dlnf_df1 = -_LN10 * lfc * 2.0 * f1 / one_f1 ** 2
        df1_dlog_pr = nn / den ** 2
        # u and den both move with lfc: du/dlfc = -0.67,
        # dden/dlfc = -1.27 + 0.14 * 0.67.
        df1_dlfc = (-0.67 * den - u * (-1.27 + 0.14 * 0.67)) / den ** 2
        dlnf_dlfc = _LN10 / one_f1 + dlnf_df1 * df1_dlfc
        dfc_dt = -(1.0 - troe.alpha) / troe.t3 * np.exp(-t / troe.t3) \
            - troe.alpha / troe.t1 * np.exp(-t / troe.t1)
        if troe.t2 is not None:
            dfc_dt = dfc_dt + (troe.t2 / (t * t)) * np.exp(-troe.t2 / t)
        dlfc_dt = dfc_dt / (fc * _LN10)
        df_dpr = f * dlnf_df1 * df1_dlog_pr / (pr * _LN10)
        df_dt_partial = f * dlnf_dlfc * dlfc_dt
    else:
        f = 1.0
        df_dpr = 0.0
        df_dt_partial = 0.0
    kf = kinf * blend * f
    dkf_dpr = kinf * (dblend_dpr * f + blend * df_dpr)
    dkf_dt = dkinf * blend * f + dkf_dpr * dpr_dt \
        + kinf * blend * df_dt_partial
    dkf_dm = dkf_dpr * dpr_dm
    return kf, dkf_dt, dkf_dm


def _product_and_grads(conc, terms):
    """``(prod, dprod)`` of the concentration product ``prod_i
    c_i^p_i``; ``dprod`` is ``(n, len(terms))`` with the derivative
    w.r.t. each participating species."""
    n = conc.shape[0]
    prod = np.ones(n)
    for i, p in terms:
        prod = prod * (conc[:, i] if p == 1 else conc[:, i] ** p)
    grads = np.empty((n, len(terms)))
    for idx, (i, p) in enumerate(terms):
        g = p * conc[:, i] ** (p - 1) if p != 1 else np.ones(n)
        for i2, p2 in terms:
            if i2 == i:
                continue
            g = g * (conc[:, i2] if p2 == 1 else conc[:, i2] ** p2)
        grads[:, idx] = g
    return prod, grads


def oracle_wdot_derivatives(mech, t, conc):
    """``(wdot, dwdot_dc, dwdot_dt)`` of
    ``AnalyticJacobian.wdot_derivatives``: one pass of the Python loop
    over the reactions."""
    fwd_terms = [[(i, p) for i, p in enumerate(row) if p > 0]
                 for row in mech.nu_forward]
    rev_terms = [[(i, p) for i, p in enumerate(row) if p > 0]
                 for row in mech.nu_reverse]
    net_terms = [[(i, nu) for i, nu in enumerate(row) if nu != 0.0]
                 for row in mech.nu_net]
    dn = mech.nu_net.sum(axis=1)

    t = np.atleast_1d(np.asarray(t, dtype=float))
    conc = np.maximum(np.atleast_2d(np.asarray(conc, dtype=float)), 0.0)
    n = t.shape[0]
    ns = mech.n_species

    kc = mech.equilibrium_constants(t)  # (n, nr)
    kc_safe = np.maximum(kc, 1e-300)
    # dKc/dT = Kc (sum_i nu_i h_i/RT - dn) / T; where the -dg clip
    # saturates, only the c_ref^dn factor still moves with T.
    g_rt = mech.g_rt_all(t)
    h_rt = mech.h_rt_all(t)
    delta_g = g_rt @ mech.nu_net.T
    unclipped = np.abs(delta_g) < 300.0
    nuh = h_rt @ mech.nu_net.T
    dkc_dt = kc * (np.where(unclipped, nuh, 0.0) - dn) / t[:, None]

    m_eff = conc @ mech.efficiencies.T  # (n, nr)

    wdot = np.zeros((n, ns))
    dwdot_dc = np.zeros((n, ns, ns))
    dwdot_dt = np.zeros((n, ns))
    dq_dc = np.empty((n, ns))

    for j, rxn in enumerate(mech.reactions):
        needs_m = rxn.third_body or rxn.is_falloff
        m_j = m_eff[:, j] if needs_m else None
        kf, dkf_dt, dkf_dm = _rate_constant(rxn, t, m_j)
        pf, dpf = _product_and_grads(conc, fwd_terms[j])
        if rxn.reversible:
            kr = kf / kc_safe[:, j]
            dkr_dt = dkf_dt / kc_safe[:, j] \
                - kr * dkc_dt[:, j] / kc_safe[:, j]
            dkr_dm = dkf_dm / kc_safe[:, j] if rxn.is_falloff else 0.0
            pr_prod, dpr = _product_and_grads(conc, rev_terms[j])
        else:
            kr = dkr_dt = dkr_dm = 0.0
            pr_prod = 0.0
            dpr = None
        mfac = m_j if rxn.third_body else 1.0
        body = kf * pf - kr * pr_prod      # q / mfac
        q = mfac * body
        dq_dt = mfac * (dkf_dt * pf - dkr_dt * pr_prod)

        dq_dc[:] = 0.0
        for idx, (i, _p) in enumerate(fwd_terms[j]):
            dq_dc[:, i] += mfac * kf * dpf[:, idx]
        if dpr is not None:
            for idx, (i, _p) in enumerate(rev_terms[j]):
                dq_dc[:, i] -= mfac * kr * dpr[:, idx]
        if needs_m:
            # d[M]/dc_k = eff_jk enters via the third-body factor
            # and/or the falloff blending of kf (and kr = kf/Kc).
            dq_dm = np.zeros(n)
            if rxn.third_body:
                dq_dm += body
            if rxn.is_falloff:
                dq_dm += mfac * (dkf_dm * pf - dkr_dm * pr_prod)
            dq_dc += dq_dm[:, None] * mech.efficiencies[j][None, :]

        for i, nu in net_terms[j]:
            wdot[:, i] += nu * q
            dwdot_dt[:, i] += nu * dq_dt
            dwdot_dc[:, i, :] += nu * dq_dc
    return wdot, dwdot_dc, dwdot_dt


# -- ode.py: fixed-step explicit chemistry -----------------------------
def rk4_batch(rhs, s, p, f0, dt, n_steps):
    """``n_steps`` classical RK4 steps over ``dt`` (explicit chemistry,
    DINO/S3D style) of every row of ``s``.

    ``rhs(states, p)`` is batched over rows; ``f0 = rhs(s, p)``.
    Returns the advanced rows.
    """
    h = dt / n_steps
    for step in range(n_steps):
        k1 = f0 if step == 0 else rhs(s, p)
        k2 = rhs(s + 0.5 * h * k1, p)
        k3 = rhs(s + 0.5 * h * k2, p)
        k4 = rhs(s + h * k3, p)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s
