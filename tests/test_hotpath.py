"""Zero-reassembly hot path: pattern-cached CSR, fused assembly,
workspace-reused solves and analytic chemistry Jacobians.

The contract under test is *exactness where promised*: pattern-cached
CSR conversions, level-scheduled DIC and pooled Krylov solves are
bitwise identical to their allocating references; the fused equation
assembly matches the operator chain to rounding; the analytic Jacobian
matches finite differences to FD truncation error; and the solver
reproduces the operator-chain reference step of
``tests/step_oracle.py`` to <= 1e-12 (transport/pressure) and <= 1e-8
(live chemistry), serial and decomposed.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chemistry.backends.direct import DirectBatchBackend
from repro.chemistry.jacobian import AnalyticJacobian
from repro.chemistry.kinetics import KineticsEvaluator
from repro.chemistry.mechanism import Mechanism
from repro.chemistry.rates import Arrhenius
from repro.chemistry.reactor import (
    ConstantPressureReactor,
    mixture_line,
    premixed_state,
)
from repro.constants import R_UNIVERSAL
from repro.core.cases import build_tgv_case
from repro.core.chemistry_source import NoChemistry
from repro.core.deepflame import DeepFlameSolver, StepTimings
from repro.core.settings import SolverSettings
from repro.fv.fields import MultiVolField, VolField
from repro.fv.operators import (
    CoupledTransportEquation,
    fvm_ddt,
    fvm_div,
    fvm_laplacian,
    fvm_sp,
)
from repro.fv.workspace import EquationWorkspace
from repro.mesh.structured import build_box_mesh
from repro.solvers.blocked import pbicgstab_solve_multi, pcg_solve_multi
from repro.solvers.controls import SolverControls
from repro.solvers.preconditioners import (
    CachedDICPreconditioner,
    DICPreconditioner,
    JacobiPreconditioner,
)
from repro.solvers.workspace import KrylovWorkspace
from repro.sparse.gauss_seidel import GaussSeidelSmoother
from repro.sparse.ldu import LDUMatrix
from repro.sparse.pattern import CSRPattern
from tests.kinetics_oracle import (
    oracle_rates,
    oracle_rhs,
    oracle_wdot_derivatives,
)
from tests.krylov_oracle import ldu_system, solve_k1
from tests.step_oracle import OracleSolver
from tests.thermo_oracle import oracle_solve_cubic

SETTINGS = dict(deadline=None, max_examples=20,
                suppress_health_check=[HealthCheck.too_slow])

# the scalar calling convention over the one Krylov family: k = 1
pcg_solve = partial(solve_k1, pcg_solve_multi)
pbicgstab_solve = partial(solve_k1, pbicgstab_solve_multi)


def _random_ldu(mesh, rng, symmetric=False, spd=False):
    a = LDUMatrix.from_mesh(mesh)
    a.upper[:] = rng.normal(size=mesh.n_internal_faces)
    a.lower[:] = a.upper if (symmetric or spd) else \
        rng.normal(size=mesh.n_internal_faces)
    a.diag[:] = rng.normal(size=mesh.n_cells)
    if spd:
        # strictly diagonally dominant -> SPD
        off = np.zeros(mesh.n_cells)
        np.add.at(off, mesh.owner[:mesh.n_internal_faces], np.abs(a.upper))
        np.add.at(off, mesh.neighbour, np.abs(a.lower))
        a.diag[:] = off + 1.0 + np.abs(rng.normal(size=mesh.n_cells))
    return a


# ---------------------------------------------------------------------
class TestCSRPattern:
    @given(seed=st.integers(0, 2**31 - 1),
           scale=st.floats(1e-6, 1e6, allow_nan=False))
    @settings(**SETTINGS)
    def test_pattern_fill_matches_fresh_to_csr_exactly(self, seed, scale):
        mesh = build_box_mesh(3, 4, 3)
        rng = np.random.default_rng(seed)
        a = LDUMatrix.from_mesh(mesh)
        a.diag[:] = scale * rng.normal(size=mesh.n_cells)
        a.upper[:] = scale * rng.normal(size=mesh.n_internal_faces)
        a.lower[:] = scale * rng.normal(size=mesh.n_internal_faces)
        pat = CSRPattern.from_mesh(mesh)
        fresh = a.to_csr()
        cached = a.to_csr(pattern=pat)
        assert np.array_equal(fresh.indptr, cached.indptr)
        assert np.array_equal(fresh.indices, cached.indices)
        assert np.array_equal(fresh.data, cached.data)

    def test_refill_tracks_value_changes(self):
        rng = np.random.default_rng(3)
        mesh = build_box_mesh(4, 3, 2, periodic=(True, False, False))
        pat = CSRPattern.from_mesh(mesh)
        for _ in range(3):
            a = _random_ldu(mesh, rng)
            assert np.array_equal(a.to_csr().toarray(),
                                  a.to_csr(pattern=pat).toarray())

    def test_duplicate_coordinates_are_summed_like_scipy(self):
        # Two faces connecting the same cell pair (tiny periodic mesh).
        mesh = build_box_mesh(2, 1, 1, periodic=(True, False, False))
        rng = np.random.default_rng(5)
        a = _random_ldu(mesh, rng)
        pat = CSRPattern.from_mesh(mesh)
        assert pat.has_duplicates
        np.testing.assert_allclose(a.to_csr(pattern=pat).toarray(),
                                   a.to_csr().toarray(), rtol=0, atol=0)

    def test_tri_split_matches_scipy_triangles(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(7)
        mesh = build_box_mesh(3, 3, 3)
        pat = CSRPattern.from_mesh(mesh)
        for _ in range(2):
            a = _random_ldu(mesh, rng)
            dl, u = pat.tri_split(a)
            full = a.to_csr()
            assert np.array_equal(
                sp.tril(full, 0, format="csr").toarray(), dl.toarray())
            assert np.array_equal(
                sp.triu(full, 1, format="csr").toarray(), u.toarray())

    def test_gauss_seidel_smoother_refresh(self):
        rng = np.random.default_rng(11)
        mesh = build_box_mesh(4, 4, 2)
        a = _random_ldu(mesh, rng, spd=True)
        smoother = GaussSeidelSmoother(a)
        b = rng.normal(size=mesh.n_cells)
        x0 = rng.normal(size=mesh.n_cells)
        from repro.sparse.gauss_seidel import gauss_seidel_csr

        assert np.array_equal(smoother.sweep(b, x0, 2),
                              gauss_seidel_csr(a.to_csr(), b, x0, 2))
        a2 = _random_ldu(mesh, rng, spd=True)
        smoother.refresh(a2)
        assert np.array_equal(smoother.sweep(b, x0, 2),
                              gauss_seidel_csr(a2.to_csr(), b, x0, 2))


# ---------------------------------------------------------------------
class TestCachedDIC:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(**SETTINGS)
    def test_equal_to_reference_dic(self, seed):
        # Within a wavefront level the vectorized factor loop may apply
        # same-cell diagonal updates in a different order than the
        # sequential reference, so the factor (and everything downstream
        # of it) is only guaranteed to a few ulps, not bitwise
        # (hypothesis counterexample: seed 82 on the periodic 3x3x4 box,
        # one entry of r_d off by exactly 1 ulp).
        rng = np.random.default_rng(seed)
        mesh = build_box_mesh(3, 3, 4, periodic=(True, True, False))
        a = _random_ldu(mesh, rng, spd=True)
        ref = DICPreconditioner(a)
        fast = CachedDICPreconditioner(a)
        np.testing.assert_allclose(fast.r_d, ref.r_d, rtol=1e-15, atol=0)
        r = rng.normal(size=mesh.n_cells)
        np.testing.assert_allclose(fast.apply(r.copy()), ref.apply(r.copy()),
                                   rtol=1e-14, atol=1e-300)
        rb = rng.normal(size=(4, mesh.n_cells))
        np.testing.assert_allclose(fast.apply_multi(rb.copy()),
                                   ref.apply_multi(rb.copy()),
                                   rtol=1e-14, atol=1e-300)

    def test_value_only_refresh(self):
        rng = np.random.default_rng(13)
        mesh = build_box_mesh(5, 3, 3)
        a = _random_ldu(mesh, rng, spd=True)
        fast = CachedDICPreconditioner(a)
        a2 = _random_ldu(mesh, rng, spd=True)
        fast.refresh(a2)
        ref = DICPreconditioner(a2)
        r = rng.normal(size=mesh.n_cells)
        assert np.array_equal(ref.apply(r.copy()), fast.apply(r.copy()))

    def test_rejects_asymmetric(self):
        rng = np.random.default_rng(17)
        mesh = build_box_mesh(3, 3, 2)
        a = _random_ldu(mesh, rng, symmetric=False)
        with pytest.raises(ValueError):
            CachedDICPreconditioner(a)


# ---------------------------------------------------------------------
class TestKrylovWorkspace:
    def test_pcg_pooled_matches_cold_bitwise(self):
        rng = np.random.default_rng(19)
        mesh = build_box_mesh(5, 4, 3)
        a = _random_ldu(mesh, rng, spd=True)
        b = rng.normal(size=mesh.n_cells)
        x0 = rng.normal(size=mesh.n_cells)
        pre = DICPreconditioner(a).apply
        ctl = SolverControls(tolerance=1e-12, rel_tol=0.0, max_iterations=200)
        x_cold, res_cold = pcg_solve(a, b, x0=x0, preconditioner=pre,
                                     controls=ctl)
        ws = KrylovWorkspace()
        for _ in range(2):  # second pass reuses warmed buffers
            x_ws, res_ws = pcg_solve(a, b, x0=x0, preconditioner=pre,
                                     controls=ctl, workspace=ws)
            assert np.array_equal(x_cold, x_ws)
            assert res_ws.iterations == res_cold.iterations
            assert res_ws.final_residual == res_cold.final_residual

    def test_pbicgstab_pooled_matches_cold_bitwise(self):
        rng = np.random.default_rng(23)
        mesh = build_box_mesh(4, 4, 4)
        a = _random_ldu(mesh, rng, spd=True)
        a.upper += 0.05 * rng.normal(size=mesh.n_internal_faces)  # asymmetric
        b = rng.normal(size=mesh.n_cells)
        x0 = rng.normal(size=mesh.n_cells)
        pre = JacobiPreconditioner(a).apply
        ctl = SolverControls(tolerance=1e-12, rel_tol=0.0, max_iterations=200)
        x_cold, res_cold = pbicgstab_solve(a, b, x0=x0, preconditioner=pre,
                                           controls=ctl)
        ws = KrylovWorkspace()
        for _ in range(2):
            x_ws, res_ws = pbicgstab_solve(a, b, x0=x0, preconditioner=pre,
                                           controls=ctl, workspace=ws)
            assert np.array_equal(x_cold, x_ws)
            assert res_ws.iterations == res_cold.iterations

    def test_blocked_pooled_matches_cold_bitwise(self):
        rng = np.random.default_rng(29)
        mesh = build_box_mesh(4, 3, 3)
        a = _random_ldu(mesh, rng, spd=True)
        b = rng.normal(size=(mesh.n_cells, 5))
        x0 = rng.normal(size=(mesh.n_cells, 5))
        pre = JacobiPreconditioner(a).apply_multi
        ctl = SolverControls(tolerance=1e-12, rel_tol=0.0, max_iterations=200)
        system = ldu_system(a)
        x_cold, _ = pbicgstab_solve_multi(system, b, x0=x0,
                                          preconditioner=pre, controls=ctl)
        ws = KrylovWorkspace()
        for _ in range(2):
            x_ws, _ = pbicgstab_solve_multi(system, b, x0=x0,
                                            preconditioner=pre, controls=ctl,
                                            workspace=ws)
            assert np.array_equal(x_cold, x_ws)


# ---------------------------------------------------------------------
class TestFusedAssembly:
    @pytest.fixture(scope="class")
    def solver(self):
        s = DeepFlameSolver(build_tgv_case(n=6), chemistry=NoChemistry())
        s.step(1e-8)
        return s

    def test_multi_fused_bitwise_equals_coupled_transport(self, solver):
        s = solver
        ws = EquationWorkspace(s.mesh)
        rho_old = s.rho * 0.999
        yf = MultiVolField([f"Y{i}" for i in range(s.y.shape[1])],
                           s.mesh, s.y.copy())
        ref = CoupledTransportEquation.transport(
            yf, s.rho, 1e-8, phi=s.phi, gamma=s.rho * s.props.alpha,
            rho_old=rho_old)
        for _ in range(2):  # refill reuses the same buffers
            fused = ws.transport_multi(
                yf, s.rho, 1e-8, phi=s.phi, gamma=s.rho * s.props.alpha,
                rho_old=rho_old)
            assert np.array_equal(ref.a.diag, fused.a.diag)
            assert np.array_equal(ref.a.upper, fused.a.upper)
            assert np.array_equal(ref.a.lower, fused.a.lower)
            assert np.array_equal(ref.source, fused.source)

    def test_species_block_carries_the_energy_equation(self, solver):
        """h is column ``ns`` of the species block: the block's operator
        is the enthalpy equation's coefficient for coefficient, and its
        last source column is the enthalpy source.  The value block is
        one persistent workspace buffer, refilled per assembly."""
        s = solver
        ns = s.mech.n_species
        rho_old = s.rho * 0.999
        block = s.assemble_species_eqn(1e-8, rho_old, StepTimings())
        assert block.field.names[-1] == "h"
        assert np.array_equal(block.field.values[:, :ns], s.y)
        assert np.array_equal(block.field.values[:, ns], s.h)
        values = block.field.values
        got = {part: getattr(block.a, part).copy()
               for part in ("diag", "lower", "upper")}
        source_h = block.source[:, ns].copy()
        energy = s.assemble_energy_eqn(1e-8, rho_old, StepTimings())
        for part, coeffs in got.items():
            assert np.array_equal(coeffs, getattr(energy.a, part)), part
        assert np.array_equal(source_h, energy.source)
        again = s.assemble_species_eqn(1e-8, rho_old, StepTimings())
        assert again.field.values is values

    def test_scalar_fused_matches_operator_chain(self, solver):
        s = solver
        ws = EquationWorkspace(s.mesh)
        rho_old = s.rho * 0.999
        hf = VolField("h", s.mesh, s.h.copy())
        chain = (fvm_ddt(s.rho, hf, 1e-8, rho_old=rho_old)
                 + fvm_div(s.phi, hf, scheme="upwind")
                 - fvm_laplacian(s.rho * s.props.alpha, hf))
        fused = ws.transport(hf, s.rho, 1e-8, phi=s.phi,
                             gamma=s.rho * s.props.alpha, rho_old=rho_old)
        scale = np.abs(chain.a.diag).max()
        assert np.abs(chain.a.diag - fused.a.diag).max() <= 1e-12 * scale
        assert np.array_equal(chain.a.upper, fused.a.upper)
        assert np.array_equal(chain.a.lower, fused.a.lower)
        sscale = np.abs(chain.source).max() + 1e-300
        assert np.abs(chain.source - fused.source).max() <= 1e-12 * sscale

    def test_pressure_fused_matches_sp_laplacian_chain(self, solver):
        s = solver
        ws = EquationWorkspace(s.mesh)
        psi = s._psi_field()
        gamma_f = VolField("rho", s.mesh, s.rho).face_values() * 1e-4
        chain = (fvm_sp(psi / 1e-8, s.p)
                 - fvm_laplacian(gamma_f, s.p))
        chain.source += psi * s.p.values * s.mesh.cell_volumes / 1e-8
        fused = ws.transport(s.p, psi, 1e-8, gamma=gamma_f)
        scale = np.abs(chain.a.diag).max()
        assert np.abs(chain.a.diag - fused.a.diag).max() <= 1e-12 * scale
        sscale = np.abs(chain.source).max() + 1e-300
        assert np.abs(chain.source - fused.source).max() <= 1e-12 * sscale


# ---------------------------------------------------------------------
def _variant_mechanism(mech):
    """The built-in mechanism with the rate forms the table folds
    differently: a Lindemann falloff (Troe stripped), an irreversible
    reaction, and a negative and a zero pre-exponential factor."""
    rxns = list(mech.reactions)
    j = next(j for j, r in enumerate(rxns) if r.is_falloff)
    rxns[j] = replace(rxns[j], troe=None)
    rxns[0] = replace(rxns[0], reversible=False)
    for j, a in ((1, -rxns[1].rate.a), (2, 0.0)):
        rxns[j] = replace(rxns[j], rate=Arrhenius(a, rxns[j].rate.b,
                                                  rxns[j].rate.ea))
    return Mechanism(mech.species, rxns, name="variant")


def _random_states(mech, seed, n=24):
    """T in [150, 3500] K, p in [1, 30] MPa, Dirichlet Y with ~20 %
    exact zeros (each row keeps its largest entry)."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(150.0, 3500.0, n)
    p = rng.uniform(1e6, 30e6, n)
    y = rng.dirichlet(np.ones(mech.n_species), size=n)
    keep = rng.random(y.shape) >= 0.2
    keep[np.arange(n), y.argmax(axis=1)] = True
    y *= keep
    return t, p, y / y.sum(axis=1, keepdims=True)


class TestVectorizedKinetics:
    @pytest.mark.parametrize("variant", [False, True])
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(**SETTINGS)
    def test_table_kernels_match_oracle(self, mech, variant, seed):
        """Rate table, reactor RHS and reaction-vectorized Jacobian
        against the ``pow``/``exp`` and per-reaction bodies they
        replaced (``tests/kinetics_oracle.py``)."""
        mech = _variant_mechanism(mech) if variant else mech
        kin = KineticsEvaluator(mech)
        t, p, y = _random_states(mech, seed)
        rho = kin.density_ideal(t, p, y)
        conc = kin.concentrations(rho, y)

        def rowmax(a):
            axes = tuple(range(1, a.ndim))
            return np.abs(a).max(axis=axes, keepdims=True) + 1e-300

        for new, ref in zip(kin.rates_of_progress(t, conc),
                            oracle_rates(kin, t, conc)):
            assert (np.abs(new - ref) <= 1e-12 * rowmax(ref)).all()

        dtdt, dydt = kin.constant_pressure_rhs(t, p, y)
        dtdt_ref, dydt_ref = oracle_rhs(kin, t, p, y)
        assert (np.abs(dydt - dydt_ref) <= 1e-12 * rowmax(dydt_ref)).all()
        # dT/dt is a sum of heat-release terms that cancel by orders of
        # magnitude on random compositions: its rounding scale is the
        # cancellation-free magnitude sum_i |h_i wdot_i| / (rho cp).
        wdot = dydt_ref * rho[:, None] / mech.molecular_weights
        h_mole = mech.h_rt_all(t) * R_UNIVERSAL * t[:, None]
        scale = np.abs(wdot * h_mole).sum(axis=1) \
            / (rho * mech.cp_mass_mixture(t, y)) + 1e-300
        assert (np.abs(dtdt - dtdt_ref) <= 1e-12 * scale).all()

        for new, ref in zip(AnalyticJacobian(mech).wdot_derivatives(t, conc),
                            oracle_wdot_derivatives(mech, t, conc)):
            assert (np.abs(new - ref) <= 1e-10 * rowmax(ref)).all()

    def test_signed_and_zero_prefactors_evaluate(self, mech):
        """``A < 0`` and ``A = 0`` build: the sign multiplies outside
        the exponential of the log-form rate constant."""
        var = _variant_mechanism(mech)
        kin = KineticsEvaluator(var)
        assert kin._vector_ok
        t, p, y = _random_states(var, 3)
        conc = kin.concentrations(kin.density_ideal(t, p, y), y)
        q_fwd, q_net = kin.rates_of_progress(t, conc)
        assert np.isfinite(q_fwd).all() and np.isfinite(q_net).all()
        assert (q_fwd[:, 1] <= 0.0).all() and (q_fwd[:, 1] < 0.0).any()
        assert (q_fwd[:, 2] == 0.0).all() and (q_net[:, 2] == 0.0).all()
        assert (q_fwd[:, 0] == q_net[:, 0]).all()  # irreversible

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(**SETTINGS)
    def test_rates_match_reference_loop(self, mech, seed):
        kin = KineticsEvaluator(mech)
        rng = np.random.default_rng(seed)
        n = 40
        t = rng.uniform(150.0, 3500.0, n)
        y = rng.dirichlet(np.ones(mech.n_species), size=n)
        rho = kin.density_ideal(t, np.full(n, 10e6), y)
        conc = kin.concentrations(rho, y)
        qf_v, qn_v = kin.rates_of_progress(t, conc)
        qf_r, qn_r = kin.rates_of_progress_reference(t, conc)
        # rounding of the log-form exponent ln|A| + b ln T - Ea/RT
        # (measured worst case 4.3e-14 over 2e5 states, at 150 K)
        assert (np.abs(qf_v - qf_r)
                <= 1e-13 * np.maximum(np.abs(qf_r), 1e-300)).all()
        scale = np.abs(qn_r).max(axis=1, keepdims=True) + 1e-300
        assert (np.abs(qn_v - qn_r) <= 1e-12 * scale).all()

    def test_vectorized_thermo_matches_per_species(self, mech):
        t = np.random.default_rng(1).uniform(150.0, 3500.0, 200)
        saved = mech._thermo_coeffs
        try:
            for name in ("cp_r_all", "h_rt_all", "s_r_all", "cp_r_dt_all"):
                fast = getattr(mech, name)(t)
                mech._thermo_coeffs = None
                ref = getattr(mech, name)(t)
                mech._thermo_coeffs = saved
                np.testing.assert_array_equal(fast, ref)
        finally:
            mech._thermo_coeffs = saved


# ---------------------------------------------------------------------
class TestBatchedEosRoots:
    def test_batched_roots_match_np_roots_loop(self, mech, monkeypatch):
        """Closed-form + Newton roots vs the per-cell eigenvalue solve:
        two algorithms, so agreement is to rounding (measured max
        1.8e-15 relative on rho in all three modes), not bitwise."""
        from repro.thermo.real_fluid import RealFluidMixture

        rf = RealFluidMixture(mech)
        rng = np.random.default_rng(2)
        n = 200
        t = rng.uniform(120.0, 3000.0, n)
        p = np.full(n, 10e6)
        y = rng.dirichlet(np.ones(mech.n_species), size=n)
        for mode in ("vapor", "liquid", "gibbs"):
            fast = rf.eos.density(t, p, y, root=mode)
            with monkeypatch.context() as m:
                m.setattr(rf.eos, "_solve_cubic",
                          lambda *args: oracle_solve_cubic(rf.eos, *args))
                ref = rf.eos.density(t, p, y, root=mode)
            np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------
def fd_route(chem):
    """``chem`` with its reactor kernel taking the FD sweep, as for a
    mechanism that does not vectorize."""
    chem.kernel._ajac = None
    return chem


class TestAnalyticJacobian:
    def test_matches_fd_across_mixture_line(self, mech):
        kernel = DirectBatchBackend(mech).kernel
        aj = AnalyticJacobian(mech, t_floor=kernel.t_floor)
        t, y = mixture_line(mech, 16, 10e6)
        p = np.full(t.shape, 10e6)
        s = np.concatenate((t[:, None], y), axis=1)
        jf = kernel.fd_jacobian(s, p)
        ja = aj.jacobian_packed(s, p)
        scale = np.abs(jf).max(axis=(1, 2), keepdims=True) + 1e-30
        assert (np.abs(ja - jf) / scale).max() <= 1e-6

    def test_matches_richardson_fd_on_hot_state(self, mech):
        mech = mech
        be = DirectBatchBackend(mech)
        aj = AnalyticJacobian(mech, t_floor=be.T_FLOOR)
        stt = premixed_state(mech, 1400.0, 10e6)
        y = stt.mass_fractions.copy()
        for sp, val in [("OH", 1e-3), ("H", 1e-4), ("O", 1e-4),
                        ("CO", 1e-2), ("H2O", 5e-2)]:
            y[mech.species_index[sp]] = val
        y /= y.sum()
        s0 = np.concatenate(([2000.0], y))
        p = np.array([10e6])
        ja = aj.jacobian_packed(s0[None, :], p)[0]
        m = s0.size
        # 2nd-order one-sided FD (forward keeps the Y>=0 clip inactive)
        jf = np.empty((m, m))
        f0 = be._rhs(s0[None, :], p)[0]
        for j in range(m):
            dy = 1e-9 * max(abs(s0[j]), 1e-4)
            s1 = s0.copy()
            s1[j] += dy
            s2 = s0.copy()
            s2[j] += 2 * dy
            f1 = be._rhs(s1[None, :], p)[0]
            f2 = be._rhs(s2[None, :], p)[0]
            jf[:, j] = (4 * f1 - 3 * f0 - f2) / (2 * dy)
        scale = np.abs(jf).max() + 1e-30
        assert np.abs(ja - jf).max() <= 1e-5 * scale

    def test_richardson_fd_holds_around_hot_state(self, mech):
        """The check above is not a lucky draw: it holds at every
        temperature within 12 mK of 2000 K.  At a 1e-13 step the FD is
        RHS rounding noise, which the per-reaction heat-release sum
        keeps ~4x under the gate (the per-species sum of the rate body
        in ``tests/kinetics_oracle.py`` passes 2 of these 12)."""
        be = DirectBatchBackend(mech)
        aj = AnalyticJacobian(mech, t_floor=be.T_FLOOR)
        y = premixed_state(mech, 1400.0, 10e6).mass_fractions.copy()
        for sp, val in [("OH", 1e-3), ("H", 1e-4), ("O", 1e-4),
                        ("CO", 1e-2), ("H2O", 5e-2)]:
            y[mech.species_index[sp]] = val
        y /= y.sum()
        p = np.array([10e6])
        def rhs(state):  # one row per call: same shape, same rounding
            return be._rhs(state[None, :], p)[0]

        for temp in 2000.0 + 1e-3 * np.arange(12):
            s0 = np.concatenate(([temp], y))
            ja = aj.jacobian_packed(s0[None, :], p)[0]
            jf = np.empty_like(ja)
            for j, dy in enumerate(1e-9 * np.maximum(np.abs(s0), 1e-4)):
                e_j = dy * (np.arange(s0.size) == j)
                jf[:, j] = (4 * rhs(s0 + e_j) - 3 * rhs(s0)
                            - rhs(s0 + 2 * e_j)) / (2 * dy)
            assert np.abs(ja - jf).max() <= 1e-5 * np.abs(jf).max(), temp

    def test_floor_and_clip_columns_are_zeroed(self, mech):
        aj = AnalyticJacobian(mech, t_floor=200.0)
        t, y = mixture_line(mech, 5, 10e6)
        ja = aj.jacobian(t, np.full(t.shape, 10e6), y)
        cold = t < 200.0
        assert np.all(ja[cold][:, :, 0] == 0.0)
        pinned = y >= 1.0
        assert np.all(ja[:, :, 1:][np.broadcast_to(
            pinned[:, None, :], ja[:, :, 1:].shape)] == 0.0)

    @pytest.mark.slow
    def test_ignition_delay_unchanged(self, mech):
        mech = mech
        st0 = premixed_state(mech, 1500.0, 10e6)
        t_end = 2e-5
        grid = np.linspace(0.0, t_end, 400)
        r_fd = fd_route(ConstantPressureReactor(mech))
        r_an = ConstantPressureReactor(mech)
        _, temp_fd, _ = r_fd.advance(st0, t_end, n_out=grid.size)
        _, temp_an, _ = r_an.advance(st0, t_end, n_out=grid.size)
        dtdt_fd = np.gradient(temp_fd, grid)
        dtdt_an = np.gradient(temp_an, grid)
        tau_fd = grid[int(np.argmax(dtdt_fd))]
        tau_an = grid[int(np.argmax(dtdt_an))]
        assert abs(tau_an - tau_fd) <= 1e-8
        assert np.abs(temp_an - temp_fd).max() <= 1e-4 * temp_fd.max()

    @pytest.mark.slow
    def test_backend_advance_agrees_across_jacobian_modes(self, mech):
        mech = mech
        t, y = mixture_line(mech, 12, 10e6)
        t = t + 900.0  # push into the reacting regime
        dt = 1e-6
        be_fd = fd_route(DirectBatchBackend(mech))
        be_an = DirectBatchBackend(mech)
        y_fd, t_fd, _ = be_fd.advance(y, t, 10e6, dt)
        y_an, t_an, _ = be_an.advance(y, t, 10e6, dt)
        assert np.abs(y_an - y_fd).max() <= 1e-8
        assert np.abs(t_an - t_fd).max() <= 1e-4


# ---------------------------------------------------------------------
class TestFastAssemblySolver:
    @pytest.mark.slow
    def test_transport_pressure_match_reference_1e12(self):
        mech = None
        case = build_tgv_case(n=6)
        mech = case.mech
        fast = DeepFlameSolver(case, chemistry=NoChemistry())
        ref = OracleSolver(build_tgv_case(n=6, mech=mech),
                           chemistry=NoChemistry())
        for _ in range(5):
            fast.step(1e-8)
            ref.step(1e-8)
        assert np.abs((fast.p.values - ref.p.values)
                      / ref.p.values).max() <= 1e-12
        assert np.abs(fast.u.values - ref.u.values).max() <= 1e-12 \
            * max(np.abs(ref.u.values).max(), 1.0)
        assert np.abs((fast.h - ref.h) / ref.h).max() <= 1e-12
        assert np.abs(fast.y - ref.y).max() <= 1e-12

    @pytest.mark.slow
    def test_live_chemistry_matches_reference_1e8(self):
        from repro.core.cases import build_hotspot_tgv_case

        case = build_hotspot_tgv_case(n=6)
        mech = case.mech
        fast = DeepFlameSolver(
            case, chemistry=DirectBatchBackend(mech))
        ref = OracleSolver(
            build_hotspot_tgv_case(n=6, mech=mech),
            chemistry=fd_route(DirectBatchBackend(mech)))
        for _ in range(3):
            fast.step(1e-8)
            ref.step(1e-8)
        assert np.abs(fast.y - ref.y).max() <= 1e-8
        assert np.abs(fast.props.temperature
                      - ref.props.temperature).max() <= 1e-4

    @pytest.mark.slow
    @pytest.mark.parametrize("nparts", [2, 4])
    def test_decomposed_fast_assembly_matches_serial(self, nparts):
        from repro.dist.solver import DecomposedSolver

        tight = dict(
            scalar_controls=SolverControls(tolerance=1e-12,
                                           max_iterations=500),
            pressure_controls=SolverControls(tolerance=1e-12,
                                             max_iterations=1000))
        case = build_tgv_case(n=6)
        mech = case.mech
        serial = DeepFlameSolver(case, SolverSettings(**tight),
                                 chemistry=NoChemistry())
        dist = DecomposedSolver(build_tgv_case(n=6, mech=mech),
                                SolverSettings(ranks=nparts, **tight),
                                chemistry=NoChemistry())
        for _ in range(3):
            serial.step(1e-8)
            dist.step(1e-8)
        assert np.abs(dist.gather("y") - serial.y).max() <= 1e-8
        assert np.abs((dist.gather("p") - serial.p.values)
                      / serial.p.values).max() <= 1e-8

    def test_warm_step_has_zero_hotpath_allocations(self):
        s = DeepFlameSolver(build_tgv_case(n=5), chemistry=NoChemistry())
        s.step(1e-8)  # warm the pools
        s.step(1e-8)
        tm = s.last_timings
        assert tm.alloc_construction == 0
        assert tm.alloc_solving == 0
