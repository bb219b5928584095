"""Unit tests: vectorized kinetics, ODE integrators, reactor."""

import numpy as np
import pytest

from repro.chemistry.ode import BDFIntegrator, rodas3_batch
from repro.chemistry.reactor import (
    ConstantPressureReactor,
    mixture_line,
    premixed_state,
)
from tests.kinetics_oracle import oracle_rates, oracle_rhs, rk4_batch


class TestKinetics:
    def test_mass_production_sums_to_zero(self, kin, stoich_mix):
        t = np.array([1600.0])
        rho = kin.density_ideal(t, np.array([10e6]),
                                stoich_mix.mass_fractions[None, :])
        wdot_m = kin.mass_production_rates(
            t, rho, stoich_mix.mass_fractions[None, :])
        assert abs(wdot_m.sum()) < 1e-8 * np.abs(wdot_m).max()

    def test_element_conservation_of_wdot(self, kin, mech, stoich_mix):
        t = np.array([1800.0])
        rho = kin.density_ideal(t, np.array([10e6]),
                                stoich_mix.mass_fractions[None, :])
        conc = kin.concentrations(rho, stoich_mix.mass_fractions[None, :])
        wdot = kin.wdot(t, conc)
        el = mech.element_matrix @ wdot[0]
        assert np.abs(el).max() < 1e-8 * np.abs(wdot).max()

    def test_cold_pure_species_inert(self, kin, mech, pure_o2):
        """Pure O2 at 300 K produces (essentially) nothing."""
        t = np.array([300.0])
        rho = kin.density_ideal(t, np.array([1e5]), pure_o2[None, :])
        conc = kin.concentrations(rho, pure_o2[None, :])
        wdot = kin.wdot(t, conc)
        assert np.abs(wdot).max() < 1e-6

    def test_hot_mixture_consumes_reactants(self, kin, mech, stoich_mix):
        t = np.array([2200.0])
        rho = kin.density_ideal(t, np.array([10e6]),
                                stoich_mix.mass_fractions[None, :])
        conc = kin.concentrations(rho, stoich_mix.mass_fractions[None, :])
        wdot = kin.wdot(t, conc)
        assert wdot[0, mech.species_index["CH4"]] < 0
        assert wdot[0, mech.species_index["O2"]] < 0

    def test_batch_matches_single(self, kin, stoich_mix):
        y = np.tile(stoich_mix.mass_fractions, (3, 1))
        t = np.array([1500.0, 1700.0, 1900.0])
        rho = kin.density_ideal(t, np.full(3, 10e6), y)
        conc = kin.concentrations(rho, y)
        batch = kin.wdot(t, conc)
        for i in range(3):
            single = kin.wdot(t[i:i + 1], conc[i:i + 1])
            np.testing.assert_allclose(batch[i], single[0], rtol=1e-12)

    def test_concentrations_units(self, kin, mech, pure_o2):
        conc = kin.concentrations(np.array([31.998]), pure_o2[None, :])
        assert conc[0, mech.species_index["O2"]] == pytest.approx(1000.0, rel=1e-3)

    def test_negative_mass_fractions_clipped(self, kin, stoich_mix):
        y = stoich_mix.mass_fractions.copy()
        y[0] = -1e-9
        t = np.array([1500.0])
        rho = kin.density_ideal(t, np.array([10e6]), y[None, :])
        conc = kin.concentrations(rho, y[None, :])
        wdot = kin.wdot(t, conc)
        assert np.all(np.isfinite(wdot))

    @pytest.mark.parametrize("p", [1e5, 10e6], ids=["1bar", "100bar"])
    @pytest.mark.parametrize("band", [(600.0, 1000.0), (1000.0, 2000.0),
                                      (2000.0, 3500.0)],
                             ids=["cool", "flame", "hot"])
    def test_rates_match_the_reaction_loop(self, kin, mech, band, p):
        """Rates of progress and dY/dt against the per-reaction oracle
        (``tests/kinetics_oracle.py``) across temperature bands and
        pressures (the falloff blend moves with [M]); a tenth of the
        mass fractions are exact zeros."""
        rng = np.random.default_rng(8)
        n = 24
        t = rng.uniform(*band, n)
        y = rng.random((n, mech.n_species))
        y[rng.random(y.shape) < 0.1] = 0.0
        y /= y.sum(axis=1, keepdims=True)
        pp = np.full(n, p)
        conc = kin.concentrations(kin.density_ideal(t, pp, y), y)

        def rowmax(a):
            return np.abs(a).max(axis=1, keepdims=True) + 1e-300

        for new, ref in zip(kin.rates_of_progress(t, conc),
                            oracle_rates(kin, t, conc)):
            assert (np.abs(new - ref) <= 1e-12 * rowmax(ref)).all()
        dydt_ref = oracle_rhs(kin, t, pp, y)[1]
        dydt = kin.constant_pressure_rhs(t, pp, y)[1]
        assert (np.abs(dydt - dydt_ref) <= 1e-12 * rowmax(dydt_ref)).all()

    def test_rhs_shapes(self, kin, stoich_mix):
        dtdt, dydt = kin.constant_pressure_rhs(
            np.array([1500.0, 1600.0]), np.array([10e6, 10e6]),
            np.tile(stoich_mix.mass_fractions, (2, 1)))
        assert dtdt.shape == (2,) and dydt.shape == (2, 17)


def _robertson(t, y):
    return np.array([
        -0.04 * y[0] + 1e4 * y[1] * y[2],
        0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] ** 2,
        3e7 * y[1] ** 2,
    ])


class TestBDF:
    def test_robertson_reference(self):
        """Classic stiff benchmark against scipy's BDF."""
        from scipy.integrate import solve_ivp

        solver = BDFIntegrator(_robertson, rtol=1e-8, atol=1e-12)
        ts, ys = solver.solve((0.0, 400.0), np.array([1.0, 0.0, 0.0]))
        ref = solve_ivp(_robertson, (0, 400.0), [1.0, 0.0, 0.0],
                        method="BDF", rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(ys[-1], ref.y[:, -1], rtol=1e-4)

    def test_conservation_robertson(self):
        solver = BDFIntegrator(_robertson, rtol=1e-8, atol=1e-12)
        _, ys = solver.solve((0.0, 100.0), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(ys.sum(axis=1), 1.0, rtol=1e-8)

    def test_linear_decay_exact(self):
        solver = BDFIntegrator(lambda t, y: -2.0 * y, rtol=1e-10, atol=1e-14)
        _, ys = solver.solve((0.0, 1.0), np.array([1.0]))
        assert ys[-1, 0] == pytest.approx(np.exp(-2.0), rel=1e-7)

    def test_work_counters_populated(self):
        solver = BDFIntegrator(_robertson)
        solver.solve((0.0, 1.0), np.array([1.0, 0.0, 0.0]))
        assert solver.work.steps > 0
        assert solver.work.rhs_evals > solver.work.steps
        assert solver.work.lu_factorizations > 0

    def test_stiffness_adapts_steps(self):
        """Stiff transient region forces smaller steps than the tail."""
        solver = BDFIntegrator(_robertson, rtol=1e-6, atol=1e-10)
        ts, _ = solver.solve((0.0, 100.0), np.array([1.0, 0.0, 0.0]))
        dts = np.diff(ts)
        assert dts[-1] > 100 * dts[0]

    def test_dense_output(self):
        solver = BDFIntegrator(lambda t, y: -y, rtol=1e-9, atol=1e-12)
        dense = np.linspace(0, 1, 11)
        ts, ys = solver.solve((0.0, 1.0), np.array([1.0]), dense_ts=dense)
        np.testing.assert_allclose(ts, dense)
        # dense output is linear interpolation of accepted steps
        np.testing.assert_allclose(ys[:, 0], np.exp(-dense), rtol=2e-3)

    def test_analytic_jacobian_used(self):
        calls = {"n": 0}

        def jac(t, y):
            calls["n"] += 1
            return np.array([[-1.0]])

        solver = BDFIntegrator(lambda t, y: -y, jac=jac)
        solver.solve((0.0, 1.0), np.array([1.0]))
        assert calls["n"] >= 1


#: the batched integrators' pass-through argument (unused here)
P1 = np.zeros(1)


class TestExplicitIntegrators:
    """The batched RK4 (test oracle) / RODAS3 bodies on small batches; a
    time-dependent ``y' = f(t, y)`` carries ``t`` as a last column."""

    def test_rk4_order(self):
        """Error drops ~16x when the step halves (4th order)."""
        f = lambda s, p: np.stack((s[:, 0] * np.cos(s[:, 1]),
                                   np.ones(len(s))), axis=1)
        exact = np.exp(np.sin(2.0))
        errs = []
        for n in (20, 40):
            s0 = np.array([[1.0, 0.0]])
            ys = rk4_batch(f, s0, P1, f(s0, P1), 2.0, n)
            errs.append(abs(ys[0, 0] - exact))
        assert errs[0] / errs[1] > 12.0

    def test_rk4_linear_exact_ish(self):
        f = lambda s, p: -s
        s0 = np.array([[1.0]])
        ys = rk4_batch(f, s0, P1, f(s0, P1), 1.0, 100)
        assert ys[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-8)

    def test_rodas3_order3(self):
        """One step from ``h0 = dt`` of a nonlinear problem: the local
        error drops ~16x when ``dt`` halves (third order)."""
        from scipy.integrate import solve_ivp

        def g(t, y):
            return -y ** 2 + np.cos(t) - 5.0 * (y - np.sin(t))

        f = lambda s, p: np.stack((g(s[:, 1], s[:, 0]),
                                   np.ones(len(s))), axis=1)

        def jac(s, p):
            j = np.zeros((len(s), 2, 2))
            j[:, 0, 0] = -2.0 * s[:, 0] - 5.0
            j[:, 0, 1] = -np.sin(s[:, 1]) + 5.0 * np.cos(s[:, 1])
            return j

        s0 = np.array([[1.0, 0.0]])
        errs = []
        for dt in (0.01, 0.005):
            ref = solve_ivp(g, (0.0, dt), [1.0], method="DOP853",
                            rtol=1e-13, atol=1e-15).y[0, -1]
            s, steps, done = rodas3_batch(f, jac, s0, P1, f(s0, P1), dt, dt,
                                          np.inf, np.inf, 1)
            assert steps[0] == 1 and done[0]
            errs.append(abs(s[0, 0] - ref))
        assert 12.0 < errs[0] / errs[1] < 20.0

    def test_rodas3_l_stable(self):
        """L-stable and stiffly accurate: one step at lambda*h = 1e6
        damps the mode (explicit RK4 blows up)."""
        f = lambda s, p: -1e6 * s
        jac = lambda s, p: np.full((len(s), 1, 1), -1e6)
        s0 = np.array([[1.0]])
        s, steps, done = rodas3_batch(f, jac, s0, P1, f(s0, P1), 1.0, 1.0,
                                      np.inf, np.inf, 1)
        assert steps[0] == 1 and done[0]
        assert abs(s[0, 0]) < 1e-5  # R(z) ~ 1/z: R(-inf) = 0
        bad = rk4_batch(f, s0, P1, f(s0, P1), 1.0, 10)
        assert abs(bad[0, 0]) > 1.0

    def test_rodas3_error_control_and_stops(self):
        """Rows carry their own step sizes: a stiff decay reaches ``dt``
        within tolerance; a non-finite row and a row out of step budget
        come back ``done = False`` (the direct backend then raises) without
        disturbing the others."""
        rates = np.array([1.0, 1e3, 1.0, 1e3])
        f = lambda s, p: -p[:, None] * s
        jac = lambda s, p: -p[:, None, None] * np.ones((len(s), 1, 1))
        s0 = np.array([[1.0], [1.0], [np.nan], [1.0]])
        budget = np.array([100, 100, 100, 2])
        out = []
        for k in range(4):  # max_steps is per call: one row each
            r = slice(k, k + 1)
            out.append(rodas3_batch(f, jac, s0[r], rates[r],
                                    f(s0[r], rates[r]), 1e-2, 1e-4,
                                    1e-4, 1e-8, budget[k]))
        s, steps, done = (np.concatenate(x) for x in zip(*out))
        np.testing.assert_array_equal(done, [True, True, False, False])
        np.testing.assert_allclose(s[:2, 0], np.exp(-rates[:2] * 1e-2),
                                   rtol=1e-3)
        assert steps[2] == 0 and steps[3] == 2
        s_b, steps_b, done_b = rodas3_batch(f, jac, s0[:3], rates[:3],
                                            f(s0[:3], rates[:3]), 1e-2,
                                            1e-4, 1e-4, 1e-8, 100)
        np.testing.assert_array_equal(s_b[:2], s[:2])
        np.testing.assert_array_equal(steps_b[:2], steps[:2])
        np.testing.assert_array_equal(done_b, done[:3])


class TestReactor:
    @pytest.mark.slow
    def test_ignition_at_high_pressure(self, mech):
        reactor = ConstantPressureReactor(mech, rtol=1e-6, atol=1e-10)
        st = premixed_state(mech, 1400.0, 10e6)
        ts, temps, ys = reactor.advance(st, 1e-3)
        assert temps[-1] > 3000.0  # ignited
        assert temps.max() < 4500.0  # physically bounded
        np.testing.assert_allclose(ys.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.slow
    def test_ignition_delay_decreases_with_temperature(self, mech):
        reactor = ConstantPressureReactor(mech, rtol=1e-6, atol=1e-10)
        tau_hot = reactor.ignition_delay(premixed_state(mech, 1700.0, 10e6), 1e-3)
        tau_cold = reactor.ignition_delay(premixed_state(mech, 1300.0, 10e6), 1e-2)
        assert tau_hot < tau_cold

    @pytest.mark.slow
    def test_products_formed(self, mech):
        reactor = ConstantPressureReactor(mech, rtol=1e-6, atol=1e-10)
        st = premixed_state(mech, 1500.0, 10e6)
        _, _, ys = reactor.advance(st, 1e-3)
        idx = mech.species_index
        assert ys[-1, idx["H2O"]] > 0.05
        assert ys[-1, idx["CH4"]] < st.mass_fractions[idx["CH4"]] * 0.2

    @pytest.mark.slow
    def test_work_counters_recorded(self, mech):
        reactor = ConstantPressureReactor(mech, rtol=1e-6, atol=1e-10)
        reactor.advance(premixed_state(mech, 1500.0, 10e6), 1e-5)
        assert reactor.last_work is not None
        assert reactor.last_work.steps > 0

    def test_mixture_line_endpoints(self, mech):
        t, y = mixture_line(mech, 5, 10e6)
        assert y[0, mech.species_index["O2"]] == 1.0
        assert y[-1, mech.species_index["CH4"]] == 1.0
        assert t[0] == 150.0 and t[-1] == 300.0

    @pytest.mark.slow
    def test_training_pairs_shapes(self, mech):
        reactor = ConstantPressureReactor(mech, rtol=1e-6, atol=1e-9)
        st = premixed_state(mech, 1500.0, 10e6)
        xs, ys = reactor.sample_training_pairs([st], dt_cfd=1e-7,
                                               n_snapshots=5, horizon=3e-5)
        assert xs.shape[1] == 2 + mech.n_species
        assert ys.shape[1] == mech.n_species
        # increments are increments: adding them keeps |Y| sane
        assert np.abs(ys).max() < 1.0
