"""Unit tests: cubic EoS, mixing rules, departures, transport,
real-fluid state solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.chemistry.mechanism import MixtureThermo
from repro.constants import R_UNIVERSAL
from repro.core.cases import build_tgv_case
from repro.core.properties import IdealGasProperties
from repro.thermo.cubic_eos import (ROOT_MODES, PengRobinson,
                                    SoaveRedlichKwong, cubic_real_roots)
from repro.thermo.mixing import VanDerWaalsMixing
from repro.thermo.real_fluid import RealFluidMixture
from repro.thermo.transport import TransportModel
from tests.conftest import MATVEC_RTOL
from tests.thermo_oracle import (cp_departure, dp_dt_const_v, dp_dv_const_t,
                                 enthalpy_departure, oracle_cp_mass_mixture,
                                 oracle_h_mass_mixture,
                                 oracle_ideal_gas_temperature, pressure)


@pytest.fixture(scope="module")
def pr(mech):
    return PengRobinson(mech.species)


@pytest.fixture(scope="module")
def rf(mech):
    return RealFluidMixture(mech)


class TestCubicEos:
    def test_ideal_gas_limit(self, pr, pure_o2):
        rho = pr.density([800.0], 1e3, pure_o2[None, :])
        rho_ig = 1e3 * 31.998e-3 / (R_UNIVERSAL * 800.0)
        assert rho[0] == pytest.approx(rho_ig, rel=1e-4)

    def test_ch4_density_nist(self, pr, pure_ch4):
        """CH4 at 300 K / 10 MPa: NIST gives ~77.5 kg/m^3."""
        rho = pr.density([300.0], 10e6, pure_ch4[None, :])
        assert rho[0] == pytest.approx(77.5, rel=0.05)

    def test_lox_dense(self, pr, pure_o2):
        """PR underpredicts LOX density ~15 %; expect 800-1000 kg/m^3."""
        rho = pr.density([150.0], 10e6, pure_o2[None, :], root="gibbs")
        assert 700.0 < rho[0] < 1100.0

    def test_pressure_density_roundtrip(self, pr, pure_o2, pure_ch4):
        for y, t in ((pure_o2, 150.0), (pure_ch4, 300.0), (pure_o2, 500.0)):
            rho = pr.density([t], 10e6, y[None, :])
            p = pressure(pr, [t], rho, y[None, :])
            assert p[0] == pytest.approx(10e6, rel=1e-8)

    def test_dp_dt_analytic(self, pr, pure_o2):
        t, rho = 200.0, 200.0
        analytic = dp_dt_const_v(pr, [t], [rho], pure_o2[None, :])
        p1 = pressure(pr, [t - 0.05], [rho], pure_o2[None, :])
        p2 = pressure(pr, [t + 0.05], [rho], pure_o2[None, :])
        assert analytic[0] == pytest.approx((p2[0] - p1[0]) / 0.1, rel=1e-5)

    def test_mechanical_stability(self, pr, pure_o2):
        dpdv = dp_dv_const_t(pr, [300.0], [100.0], pure_o2[None, :])
        assert dpdv[0] < 0

    def test_srk_differs_from_pr(self, mech, pure_o2):
        srk = SoaveRedlichKwong(mech.species)
        pr_ = PengRobinson(mech.species)
        r1 = srk.density([150.0], 10e6, pure_o2[None, :], root="gibbs")
        r2 = pr_.density([150.0], 10e6, pure_o2[None, :], root="gibbs")
        assert r1[0] != pytest.approx(r2[0], rel=1e-3)
        assert abs(r1[0] - r2[0]) / r2[0] < 0.25

    def test_supercritical_single_root(self, pr, pure_o2):
        """Above Pc the vapor and liquid root selections agree."""
        zv = pr.compressibility(np.array([300.0]), 10e6,
                                pr._mole_from_mass(pure_o2[None, :]), "vapor")
        zl = pr.compressibility(np.array([300.0]), 10e6,
                                pr._mole_from_mass(pure_o2[None, :]), "liquid")
        assert zv[0] == pytest.approx(zl[0], rel=1e-10)

    def test_mixture_density_between_pures(self, pr, mech):
        y = np.zeros((1, 17))
        y[0, mech.species_index["O2"]] = 0.5
        y[0, mech.species_index["CH4"]] = 0.5
        rho_mix = pr.density([300.0], 10e6, y)
        assert 0 < rho_mix[0] < 200.0

    @pytest.mark.parametrize("root", ["Liquid", "vapour", "stable"])
    def test_unknown_root_mode_is_an_error(self, pr, pure_o2, root):
        """Pure O2 at 120 K / 2 MPa has Z_liquid = 0.0597, Z_vapor =
        0.5497: a misspelt mode used to return the vapor root."""
        t, x = np.array([120.0]), pr._mole_from_mass(pure_o2[None, :])
        for solve in (lambda: pr.density(t, 2e6, pure_o2[None, :], root=root),
                      lambda: pr.compressibility(t, 2e6, x, root=root)):
            with pytest.raises(ValueError, match="vapor.*liquid.*gibbs"):
                solve()

    @pytest.mark.parametrize("t_bad, p, via_h", [
        (np.nan, 1e7, False), (np.inf, 1e7, False), (0.0, 1e7, False),
        (-5.0, 1e7, False), (200.0, (1e7, -1e6, 0.0), False),
        (np.nan, 1e7, True)])
    def test_nonphysical_state_raises_naming_the_cells(self, rf, pure_o2,
                                                       t_bad, p, via_h):
        """NaN/inf/non-positive T or p used to surface as LAPACK's
        LinAlgError (p < 0 as a silent negative density)."""
        y = np.tile(pure_o2, (3, 1))
        t = np.array([150.0, t_bad, 300.0])
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match=r"of 3 cells .*first cells: \[1") \
                as err:
            if via_h:
                h = rf.h_mass([150.0, 200.0, 300.0], p, y)
                h[1] = t_bad
                rf.properties_hp(h, p, y)
            else:
                rf.eos.density(t, p, y)
        assert str(err.value).startswith("2 of" if np.ndim(p) else "1 of")


def _kij_cases(ns):
    """No pair interacting (the rank-1 rule) and one pair interacting
    (the quadratic form): the same assertions hold for both."""
    k = np.zeros((ns, ns))
    k[0, 1] = k[1, 0] = 0.1
    return [None, k]


class TestMixing:
    @pytest.mark.parametrize("k_ij", _kij_cases(3), ids=["rank1", "kij"])
    def test_pure_species_recovers_inputs(self, pr, pure_o2, k_ij):
        mix = VanDerWaalsMixing(3, k_ij)
        a_i = np.array([1.0, 2.0, 3.0])
        x = np.array([[0.0, 1.0, 0.0]])
        a, _, _ = mix.attraction(x * np.sqrt(a_i))
        assert a[0] == pytest.approx(2.0)
        # the EoS: a pure species' a(T) and b are its own
        o2 = int(np.argmax(pure_o2))
        x_o2 = pr._mole_from_mass(pure_o2[None, :])
        t = np.array([150.0])
        g = pr._g_const[o2] - pr._g_slope[o2] * np.sqrt(t)
        a, _, _ = pr.attraction(t, x_o2)
        assert a[0] == pytest.approx(pr.a_crit[o2] * g[0] ** 2, rel=1e-14)
        assert pr.composition(pure_o2).b[0] == pytest.approx(pr.b_pure[o2])

    def test_symmetric_kij_required(self):
        k = np.zeros((2, 2))
        k[0, 1] = 0.1
        with pytest.raises(ValueError, match="symmetric"):
            VanDerWaalsMixing(2, k)

    def test_kij_reduces_attraction(self):
        k = np.full((2, 2), 0.1)
        np.fill_diagonal(k, 0.0)
        mix0 = VanDerWaalsMixing(2)
        mixk = VanDerWaalsMixing(2, k)
        r = np.array([[0.5, 0.5]]) * np.sqrt([[1.0, 4.0]])
        a0, _, _ = mix0.attraction(r)
        ak, _, _ = mixk.attraction(r)
        assert ak[0] < a0[0]

    @pytest.mark.parametrize("k_ij", _kij_cases(2), ids=["rank1", "kij"])
    def test_attraction_derivative_matches_fd(self, k_ij):
        mix = VanDerWaalsMixing(2, k_ij)
        a_i = np.array([[2.0, 5.0]])
        da_i = np.array([[-0.01, -0.03]])
        x = np.array([[0.3, 0.7]])
        _, analytic, _ = mix.attraction(x * np.sqrt(a_i),
                                        x * da_i / (2.0 * np.sqrt(a_i)))
        eps = 1e-6
        a_p, _, _ = mix.attraction(x * np.sqrt(a_i + eps * da_i))
        a_m, _, _ = mix.attraction(x * np.sqrt(a_i - eps * da_i))
        assert analytic[0] == pytest.approx((a_p[0] - a_m[0]) / (2 * eps), rel=1e-6)


class TestDepartures:
    def test_departure_vanishes_ideal_limit(self, pr, pure_o2):
        rho = pr.density([800.0], 1e3, pure_o2[None, :])
        hd = enthalpy_departure(pr, [800.0], rho, pure_o2[None, :])
        assert abs(hd[0]) < 5.0  # J/mol, essentially zero

    def test_liquid_departure_negative(self, pr, pure_o2):
        rho = pr.density([120.0], 10e6, pure_o2[None, :], root="gibbs")
        hd = enthalpy_departure(pr, [120.0], rho, pure_o2[None, :])
        assert hd[0] < -2000.0

    def test_cp_departure_positive_near_critical(self, pr, pure_o2):
        """cp diverges near the pseudo-critical line."""
        rho = pr.density([160.0], 6e6, pure_o2[None, :], root="gibbs")
        cpd = cp_departure(pr, [160.0], rho, pure_o2[None, :])
        assert cpd[0] > 5.0

    def test_h_monotonic_in_t(self, rf, pure_o2):
        ts = np.linspace(80.0, 400.0, 20)
        h = rf.h_mass(ts, 10e6, np.tile(pure_o2, (20, 1)))
        assert np.all(np.diff(h) > 0)

    def test_cp_mass_matches_dh_dt(self, rf, pure_o2):
        for t in (150.0, 300.0, 800.0):
            cp = rf.cp_mass([t], 10e6, pure_o2[None, :])
            dh = (rf.h_mass([t + 0.5], 10e6, pure_o2[None, :])
                  - rf.h_mass([t - 0.5], 10e6, pure_o2[None, :]))
            assert cp[0] == pytest.approx(dh[0], rel=2e-3)


class TestTransport:
    def test_viscosity_magnitude_o2(self, mech, pure_o2):
        tr = TransportModel(mech)
        mu = tr.mixture_viscosity_dilute(np.array([300.0]), pure_o2[None, :])
        assert mu[0] == pytest.approx(2.07e-5, rel=0.15)

    def test_viscosity_increases_with_t_dilute(self, mech, pure_o2):
        tr = TransportModel(mech)
        mus = tr.mixture_viscosity_dilute(np.array([300.0, 1000.0]),
                                          np.tile(pure_o2, (2, 1)))
        assert mus[1] > mus[0]

    def test_dense_viscosity_exceeds_dilute(self, mech, pure_o2):
        tr = TransportModel(mech)
        mu0 = tr.mixture_viscosity_dilute(np.array([150.0]), pure_o2[None, :])
        mu = tr.viscosity(np.array([150.0]), np.array([900.0]),
                          pure_o2[None, :])
        assert mu[0] > 3.0 * mu0[0]  # liquid-like enhancement

    def test_conductivity_positive(self, mech, stoich_mix):
        tr = TransportModel(mech)
        lam = tr.thermal_conductivity(np.array([500.0]), np.array([50.0]),
                                      stoich_mix.mass_fractions[None, :])
        assert 0.01 < lam[0] < 1.0

    def test_thermal_diffusivity_definition(self, mech, pure_ch4):
        tr = TransportModel(mech)
        t, rho = np.array([400.0]), np.array([40.0])
        cp = mech.cp_mass_mixture(t, pure_ch4[None, :])
        alpha = tr.thermal_diffusivity(t, rho, pure_ch4[None, :], cp)
        lam = tr.thermal_conductivity(t, rho, pure_ch4[None, :])
        assert alpha[0] == pytest.approx(lam[0] / (rho[0] * cp[0]))

    def test_wilke_recovers_pure(self, mech, pure_o2):
        tr = TransportModel(mech)
        t = np.array([400.0])
        mix = tr.mixture_viscosity_dilute(t, pure_o2[None, :])
        species = tr.species_viscosity(t)[0, mech.species_index["O2"]]
        assert mix[0] == pytest.approx(species, rel=1e-10)


class TestRealFluidState:
    def test_temperature_from_h_roundtrip(self, rf, mech):
        rng = np.random.default_rng(7)
        y = rng.random((6, 17))
        y /= y.sum(axis=1, keepdims=True)
        t_true = np.linspace(200.0, 3000.0, 6)
        h = rf.h_mass(t_true, 10e6, y)
        t_rec = rf.temperature_from_h(h, 10e6, y, t_guess=t_true * 1.3)
        np.testing.assert_allclose(t_rec, t_true, rtol=1e-5)

    def test_roundtrip_cryogenic(self, rf, pure_o2):
        h = rf.h_mass([150.0], 10e6, pure_o2[None, :])
        t = rf.temperature_from_h(h, 10e6, pure_o2[None, :],
                                  t_guess=np.array([400.0]))
        assert t[0] == pytest.approx(150.0, rel=1e-4)

    def test_properties_tp_bundle(self, rf, pure_ch4):
        props = rf.properties_tp([300.0], 10e6, pure_ch4[None, :])
        assert props.rho[0] == pytest.approx(77.5, rel=0.05)
        assert props.mu[0] > 0 and props.alpha[0] > 0
        assert props.cp_mass[0] > 1500.0  # real CH4 cp ~ 2.2 kJ/kg/K at 10 MPa

    def test_psi_compressibility_positive(self, rf, pure_o2):
        psi = rf.psi_compressibility(np.array([150.0]), 10e6, pure_o2[None, :])
        assert psi[0] > 0

    def test_psi_near_ideal_hot(self, rf, pure_o2):
        t = np.array([1500.0])
        psi = rf.psi_compressibility(t, 1e6, pure_o2[None, :])
        ig = 31.998e-3 / (R_UNIVERSAL * 1500.0)
        assert psi[0] == pytest.approx(ig, rel=0.05)


# -- the state-taking kernels vs the composed reference ---------------------
def _within(actual, ref, rtol, floor=0.0):
    """|actual - ref| <= rtol * max(|ref|, floor), elementwise."""
    err = np.abs(np.asarray(actual) - np.asarray(ref))
    bound = rtol * np.maximum(np.abs(ref), floor)
    worst = np.argmax(err - bound)
    assert np.all(err <= bound), (
        f"cell {worst}: {np.ravel(actual)[worst]!r} vs "
        f"{np.ravel(ref)[worst]!r}")


#: rho, T, h, mu, a, a': the same sums accumulated in another order
RESPELLED = MATVEC_RTOL
#: cp, alpha, psi: the reference itself is a centred difference
FD_NOISE = 1e-8
PROPS = ("rho", "temperature", "cp_mass", "h_mass", "mu", "alpha")


@pytest.fixture(scope="module")
def oracle(rf):
    from tests.thermo_oracle import OracleMixture

    return OracleMixture(rf)


@pytest.fixture(scope="module")
def batch(mech):
    """Seeded (T, p, Y): 90-3000 K, 1-20 MPa, random 17-species cells plus
    pure cryogenic O2, a near-critical cell and hot O2-rich cells (the
    ``g_i < 0`` branch of the alpha function, above 1836 K for O2)."""
    rng = np.random.default_rng(20250928)
    n = 96
    y = rng.random((n, mech.n_species)) ** 3
    t = rng.uniform(90.0, 3000.0, n)
    p = rng.uniform(1e6, 20e6, n)
    o2 = mech.species_index["O2"]
    y[:3] = 0.0
    y[:3, o2] = 1.0
    t[:3] = (120.0, 150.0, 160.0)
    p[:3] = (10e6, 10e6, 6e6)
    y[3:15] *= 0.05
    y[3:15, o2] = 1.0
    t[3:15] = np.linspace(1800.0, 2500.0, 12)
    y /= y.sum(axis=1, keepdims=True)
    return t, p, y


class TestStateKernelsAgainstOracle:
    def test_attraction_and_covolume(self, rf, oracle, batch):
        t, _, y = batch
        comp = rf.eos.composition(y)
        a, da, _ = rf.eos.attraction(t, comp.x, order=1)
        a_ref, b_ref, da_ref = oracle.eos.mixture_ab(t, comp.x)
        _within(a, a_ref, RESPELLED)
        _within(da, da_ref, RESPELLED)
        assert np.array_equal(comp.b, b_ref)

    def test_rank_one_equals_the_quadratic_form(self, mech, oracle, batch):
        """k_ij = 0: (sum_i r_i)^2 and its derivatives vs the oracle's
        three-operand quadratic forms, hot cells (g_O2 < 0) included."""
        from tests.thermo_oracle import _mix, _mix_derivative

        t, _, y = batch
        eos, ns = oracle.eos, mech.n_species
        x = eos._mole_from_mass(y)
        a_i, da_i = eos.a_crit * eos.alpha(t), eos.a_crit * eos.dalpha_dt(t)
        g = 1.0 + eos.m * (1.0 - np.sqrt(t[:, None] / eos.t_crit))
        r, dr = x * np.sqrt(a_i), x * da_i / (2.0 * np.sqrt(a_i))
        d2r = (x * np.sqrt(eos.a_crit) * np.sign(g) * eos.m
               / np.sqrt(eos.t_crit) / (4.0 * t[:, None] ** 1.5))
        k0, ones = np.zeros((ns, ns)), np.ones((ns, ns))
        a, da, d2a = VanDerWaalsMixing(ns).attraction(r, dr, d2r)
        _within(a, _mix(k0, a_i, eos.b_pure, x)[0], 1e-14)
        _within(da, _mix_derivative(k0, a_i, da_i, x), 1e-14)
        # a'' = 2 (r' K r' + r K r'') cancels in hot cells, and the
        # 289-term reference then rounds to 1.6e-14 of the value (the
        # rank-1 result is within 1.6e-15 of an extended-precision
        # one): bound it by the size of the summands
        def form(u, v):
            return np.einsum("ni,ij,nj->n", u, ones, v)

        _within(d2a, 2.0 * (form(dr, dr) + form(r, d2r)), 1e-14,
                floor=2.0 * (form(abs(dr), abs(dr)) + form(abs(r), abs(d2r))))

    def test_hot_o2_uses_the_negative_branch(self, rf, batch):
        """Guard the fixture: some cells really have g_O2 < 0."""
        t, _, _ = batch
        eos = rf.eos
        g = eos._g_const - eos._g_slope * np.sqrt(t)[:, None]
        o2 = [s.name for s in eos.species].index("O2")
        assert (g[:, o2] < 0).sum() >= 10 and (g[:, o2] > 0).sum() >= 10

    def test_properties_tp(self, rf, oracle, batch):
        new, ref = rf.properties_tp(*batch), oracle.properties_tp(*batch)
        _within(new.rho, ref.rho, RESPELLED)
        _within(new.h_mass, ref.h_mass, RESPELLED, floor=1e5)
        _within(new.mu, ref.mu, RESPELLED)
        _within(new.cp_mass, ref.cp_mass, FD_NOISE)
        _within(new.alpha, ref.alpha, FD_NOISE)

    def test_h_cp_psi(self, rf, oracle, batch):
        _within(rf.h_mass(*batch), oracle.h_mass(*batch), RESPELLED, floor=1e5)
        _within(rf.cp_mass(*batch), oracle.cp_mass(*batch), FD_NOISE)
        # the reference's centred difference has an O(dp^2) truncation
        # error that reaches 1.6e-8 in the near-critical cell; one
        # Richardson step removes it
        psi_ref = (4.0 * oracle.psi_compressibility(*batch, dp=50.0)
                   - oracle.psi_compressibility(*batch, dp=100.0)) / 3.0
        _within(rf.psi_compressibility(*batch), psi_ref, FD_NOISE)

    def test_properties_hp(self, rf, oracle, batch):
        t, p, y = batch
        h = oracle.h_mass(t, p, y)
        guess = np.clip(t * 1.25, 70.0, 4500.0)
        new = rf.properties_hp(h, p, y, t_guess=guess)
        ref = oracle.properties_hp(h, p, y, t_guess=guess)
        np.testing.assert_allclose(new.temperature, t, rtol=1e-5)
        _within(new.temperature, ref.temperature, RESPELLED)
        _within(new.rho, ref.rho, RESPELLED)
        _within(new.h_mass, ref.h_mass, RESPELLED, floor=1e5)
        _within(new.mu, ref.mu, RESPELLED)
        _within(new.cp_mass, ref.cp_mass, FD_NOISE)
        _within(new.alpha, ref.alpha, FD_NOISE)

    def test_departures(self, rf, oracle, batch):
        from tests.thermo_oracle import (oracle_cp_departure,
                                         oracle_enthalpy_departure)

        t, p, y = batch
        rho = oracle.eos.density(t, p, y)
        _within(enthalpy_departure(rf.eos, t, rho, y),
                oracle_enthalpy_departure(oracle.eos, t, rho, y),
                RESPELLED, floor=R_UNIVERSAL * 300.0)
        _within(cp_departure(rf.eos, t, rho, y),
                oracle_cp_departure(oracle.eos, t, rho, y),
                FD_NOISE, floor=R_UNIVERSAL)

    def test_transport(self, rf, oracle, batch):
        t, p, y = batch
        rho = oracle.eos.density(t, p, y)
        tr, ref = rf.transport, oracle.transport
        _within(tr.viscosity(t, rho, y), ref.viscosity(t, rho, y), RESPELLED)
        _within(tr.mixture_viscosity_dilute(t, y),
                ref.mixture_viscosity_dilute(t, y), RESPELLED)
        _within(tr.thermal_conductivity(t, rho, y),
                ref.thermal_conductivity(t, rho, y), RESPELLED)
        mu, lam = tr.viscosity_conductivity(t, rho, y)
        assert np.array_equal(mu, tr.viscosity(t, rho, y))
        assert np.array_equal(lam, tr.thermal_conductivity(t, rho, y))

    @pytest.mark.parametrize("t_end", [60.0, 5000.0])
    def test_newton_bracket_ends(self, rf, oracle, batch, t_end):
        """The T(h) Newton's bracket ends, outside the fixture's 90-3000
        K: where the hoisted transport factors and the attraction's two
        branches are furthest from the fixture's cells."""
        _, p, y = batch
        t = np.full(p.shape, t_end)
        rho = oracle.eos.density(t, p, y)
        tr, ref = rf.transport, oracle.transport
        _within(tr.viscosity(t, rho, y), ref.viscosity(t, rho, y), RESPELLED)
        _within(tr.thermal_conductivity(t, rho, y),
                ref.thermal_conductivity(t, rho, y), RESPELLED)
        h = oracle.h_mass(t, p, y)
        new = rf.properties_hp(h, p, y, t_guess=t)
        old = oracle.properties_hp(h, p, y, t_guess=t)
        for k in ("temperature", "rho", "mu"):
            _within(getattr(new, k), getattr(old, k), RESPELLED)
        _within(new.h_mass, old.h_mass, RESPELLED, floor=1e5)
        _within(new.cp_mass, old.cp_mass, FD_NOISE)
        _within(new.alpha, old.alpha, FD_NOISE)

    def test_second_derivative_of_attraction(self, mech, batch):
        """Closed-form a'' vs a centred difference of a', with k_ij != 0."""
        t, _, y = batch
        eos = PengRobinson(mech.species)
        eos.mixing = VanDerWaalsMixing(mech.n_species,
                                       _random_kij(mech.n_species))
        x = eos._mole_from_mass(y)
        a0, _, _ = PengRobinson(mech.species).attraction(t, x)
        a, _, d2a = eos.attraction(t, x)
        assert not np.allclose(a, a0, rtol=1e-3)    # k_ij took effect
        dt = 1e-2
        _, da_p, _ = eos.attraction(t + dt, x, order=1)
        _, da_m, _ = eos.attraction(t - dt, x, order=1)
        _within(d2a, (da_p - da_m) / (2 * dt), 1e-6)


def _random_kij(ns, seed=5):
    k = np.random.default_rng(seed).uniform(-0.05, 0.15, (ns, ns))
    k = 0.5 * (k + k.T)
    np.fill_diagonal(k, 0.0)
    return k


class TestOneKernel:
    @pytest.mark.parametrize("interacting", [False, True])
    def test_batch_independence_is_bitwise(self, mech, batch, interacting):
        """A cell's result never depends on what else shares its batch
        (with k_ij != 0 a BLAS product in the mixing rule breaks this)."""
        t, p, y = batch
        rf = RealFluidMixture(mech)
        if interacting:
            rf.eos.mixing = VanDerWaalsMixing(mech.n_species,
                                              _random_kij(mech.n_species))
        rows = slice(1, None, 3)
        guess = np.clip(t * 1.25, 70.0, 4500.0)
        h = rf.h_mass(t, p, y)

        def everything(sel):
            tp = rf.properties_tp(t[sel], p[sel], y[sel])
            hp = rf.properties_hp(h[sel], p[sel], y[sel], t_guess=guess[sel])
            x = rf.eos._mole_from_mass(y[sel])
            return ([getattr(tp, k) for k in PROPS]
                    + [getattr(hp, k) for k in PROPS]
                    + list(rf.eos.attraction(t[sel], x))
                    + list(rf.transport.viscosity_conductivity(
                        t[sel], tp.rho, y[sel]))
                    + [rf.transport.mixture_viscosity_dilute(t[sel], y[sel]),
                       rf.psi_compressibility(t[sel], p[sel], y[sel]),
                       rf.cp_mass(t[sel], p[sel], y[sel]), h[sel]])

        full = everything(slice(None))
        for whole, part in zip(full, everything(rows)):
            assert np.array_equal(whole[rows], part)
        for cell in range(0, t.size, 5):
            for whole, part in zip(full, everything(slice(cell, cell + 1))):
                assert np.array_equal(whole[cell:cell + 1], part)

    def test_wrappers_and_fused_path_agree_bitwise(self, rf, batch):
        t, p, y = batch
        hp = rf.properties_hp(rf.h_mass(t, p, y), p, y, t_guess=t * 1.1)
        t_conv = hp.temperature
        assert np.array_equal(rf.eos.density(t_conv, p, y), hp.rho)
        assert np.array_equal(rf.h_mass(t_conv, p, y), hp.h_mass)
        assert np.array_equal(rf.cp_mass(t_conv, p, y), hp.cp_mass)
        tp = rf.properties_tp(t_conv, p, y)
        for k in PROPS:
            assert np.array_equal(getattr(tp, k), getattr(hp, k))
        assert np.array_equal(
            rf.temperature_from_h(rf.h_mass(t, p, y), p, y, t_guess=t * 1.1),
            t_conv)

    def test_np_roots_loop_through_the_fused_path(self, mech, batch,
                                                  monkeypatch):
        from tests.thermo_oracle import oracle_solve_cubic

        t, p, y = (v[:24] for v in batch)
        fast, ref = RealFluidMixture(mech), RealFluidMixture(mech)
        monkeypatch.setattr(
            ref.eos, "_solve_cubic",
            lambda *args: oracle_solve_cubic(ref.eos, *args))
        h = fast.h_mass(t, p, y)
        a = fast.properties_hp(h, p, y, t_guess=t * 1.2)
        b = ref.properties_hp(h, p, y, t_guess=t * 1.2)
        # two root algorithms agree to rounding, not bitwise; the T(h)
        # Newton freeze criterion (1e-8) sits between the solves, hence
        # the looser bundle bound.  Measured maxima: 3.5e-15 (mu) over
        # the bundle, 8.2e-15 on psi.
        for k in PROPS:
            _within(getattr(a, k), getattr(b, k), 1e-9)
        _within(fast.psi_compressibility(t, p, y),
                ref.psi_compressibility(t, p, y), 1e-12)

    def test_one_composition_one_cubic_per_sweep(self, mech, batch, monkeypatch):
        """properties_hp converts the composition once for the EoS and
        transport together and solves the cubic once per Newton sweep
        -- not 2*sweeps + 1."""
        t, p, y = batch
        rf = RealFluidMixture(mech)
        h = rf.h_mass(t, p, y)
        calls = {}

        def counted(obj, name):
            inner = getattr(obj, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(obj, name, wrapper)

        counted(rf.eos, "_mole_from_mass")
        counted(rf.mech, "mole_fractions")
        counted(rf.eos, "_solve_cubic")
        counted(rf.eos, "attraction")
        counted(rf.mech, "mixture_thermo")      # once per composition
        counted(MixtureThermo, "h_mass")        # once per Newton sweep
        counted(rf.transport, "species_viscosity")
        rf.properties_hp(h, p, y, t_guess=t * 1.3)
        sweeps = calls["h_mass"]
        assert sweeps >= 3
        assert calls["mixture_thermo"] == 1
        assert calls["_solve_cubic"] == sweeps
        assert calls["attraction"] == sweeps
        assert calls["_mole_from_mass"] == 1
        assert calls.get("mole_fractions", 0) == 0  # transport reads the EoS's
        assert calls["species_viscosity"] == 1

    def test_no_species_squared_temporary(self, mech):
        """O(n ns) memory: the explicit Wilke phi_ij of 4000 x 17 x 17
        doubles is 9.2 MiB alone, and several used to be live at once."""
        import tracemalloc

        rng = np.random.default_rng(1)
        n = 4000
        y = rng.random((n, mech.n_species))
        y /= y.sum(axis=1, keepdims=True)
        t = rng.uniform(120.0, 2500.0, n)
        rf = RealFluidMixture(mech)
        rf.properties_tp(t[:8], 10e6, y[:8])        # warm imports / caches
        tracemalloc.start()
        try:
            rf.properties_tp(t, 10e6, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestPresentSpecies:
    """Transport and ``MixtureThermo`` evaluate only the species present
    in their batch.  A cell holding 2, 8 or 17 species gets the same
    bits in a batch holding all 17 (longer than one transport block),
    in a batch of cells holding only its own species, and alone -- for
    mu, lambda, the ideal-gas h and cp, the whole ``evaluate`` and psi.
    And the composition that psi keeps is reused only for an equal
    ``Y``."""

    GROUPS = (2, 8, 17)
    PER_GROUP = 700     # the 2100-cell batch spans three 1024-cell blocks

    @pytest.fixture(scope="class")
    def cells(self, mech):
        rng = np.random.default_rng(43)
        ns, n = mech.n_species, self.PER_GROUP
        y = np.zeros((len(self.GROUPS) * n, ns))
        held = [[mech.species_index["CH4"], mech.species_index["O2"]],
                rng.choice(ns, 8, replace=False), np.arange(ns)]
        for g, sp in enumerate(held):
            rows = slice(g * n, (g + 1) * n)
            y[rows, sp] = rng.random((n, len(sp))) ** 2 + 1e-3
        y /= y.sum(axis=1, keepdims=True)
        t = rng.uniform(150.0, 2500.0, len(y))
        p = rng.uniform(5e6, 20e6, len(y))
        return t, p, y

    @staticmethod
    def _everything(mech, t, p, y, h):
        """Every per-cell output of the property stage for one batch."""
        from repro.core.properties import DirectRealFluidProperties

        props = DirectRealFluidProperties(mech)
        rf = props.rf
        comp = rf.eos.composition(y)
        mix = mech.mixture_thermo(y)
        state = props.evaluate(h, p, y, t_guess=t * 1.05)
        return ([*rf.transport.from_mole_fractions(t, 300.0, comp.x,
                                                   comp.w_mix),
                 mix.h_mass(t), mix.cp_mass(t)]
                + [getattr(state, k) for k in
                   ("rho", "temperature", "mu", "alpha", "cp")]
                + [props.psi(t, p, y)])

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 700, 2100])
    def test_presence_mask_is_any_over_cells(self, n):
        from repro.chemistry.mechanism import present_species

        rng = np.random.default_rng(n)
        y = np.where(rng.random((n, 17)) < 0.002, rng.random((n, 17)), 0.0)
        if n:
            y[-1, 3] = np.nan
            y[n // 2, 5] = -0.0
        assert np.array_equal(present_species(y), y.any(axis=0))
        assert np.array_equal(present_species(y[:, None]),
                              y.any(axis=0))         # (n, 1, ns) too

    def test_a_cell_ignores_the_species_its_batch_holds(self, mech, cells):
        t, p, y = cells
        h = RealFluidMixture(mech).h_mass(t, p, y)
        full = self._everything(mech, t, p, y, h)
        n = self.PER_GROUP
        for g, held in enumerate(self.GROUPS):
            rows = slice(g * n, (g + 1) * n)
            assert (y[rows] != 0).any(axis=0).sum() == held
            own = self._everything(mech, t[rows], p[rows], y[rows], h[rows])
            for whole, part in zip(full, own):
                assert np.array_equal(whole[rows], part)
            for cell in range(g * n, (g + 1) * n, 97):
                one = slice(cell, cell + 1)
                alone = self._everything(mech, t[one], p[one], y[one], h[one])
                for whole, part in zip(full, alone):
                    assert np.array_equal(whole[one], part)

    def _counted(self, mech, cells, group, monkeypatch):
        """``(t, p, y, h)`` of every 7th cell of ``group``, a property
        evaluator whose ``eos.composition`` calls are listed in
        ``calls``, and a check that its ``evaluate`` equals a fresh
        evaluator's."""
        from repro.core.properties import DirectRealFluidProperties

        rows = slice(group * self.PER_GROUP, (group + 1) * self.PER_GROUP, 7)
        t, p, y = (v[rows] for v in cells)
        h = RealFluidMixture(mech).h_mass(t, p, y)
        props = DirectRealFluidProperties(mech)
        calls = []
        inner = props.rf.eos.composition
        monkeypatch.setattr(props.rf.eos, "composition",
                            lambda y: calls.append(1) or inner(y))

        def agree(y_step):
            got = props.evaluate(h, p, y_step, t_guess=t * 1.05)
            ref = DirectRealFluidProperties(mech).evaluate(
                h, p, y_step.copy(), t_guess=t * 1.05)
            for k in ("rho", "temperature", "mu", "alpha", "cp"):
                assert np.array_equal(getattr(got, k), getattr(ref, k))

        return t, p, y, props, calls, agree

    def test_psi_composition_serves_an_equal_y_only(self, mech, cells,
                                                     monkeypatch):
        t, p, y, props, calls, agree = self._counted(mech, cells, 2,
                                                     monkeypatch)
        y_step = y.copy()
        props.psi(t, p, y_step)
        assert len(calls) == 1
        # the next step's evaluate, on an equal Y: reused, same bits
        agree(y.copy())
        assert len(calls) == 1
        # Y written in place since psi: converted afresh
        y_step[3] = y_step[4]
        agree(y_step)
        assert len(calls) == 2

    def test_psi_composition_misses_a_species_it_did_not_hold(
            self, mech, cells, monkeypatch):
        """psi keeps only the columns of its ``Y`` that hold a species;
        mass written into another one is still a different ``Y``."""
        t, p, y, props, calls, agree = self._counted(mech, cells, 0,
                                                     monkeypatch)
        y_step = y.copy()
        props.psi(t, p, y_step)
        y_step[5, mech.species_index["H2O"]] = 1e-3
        agree(y_step)
        assert len(calls) == 2


# -- the closed-form root kernel vs the eigenvalue oracle -------------------
EPS = np.finfo(float).eps


def _residual(z, c2, c1, c0):
    """``|f(z)|`` and the magnitude of the terms it sums."""
    return (np.abs(((z + c2) * z + c1) * z + c0),
            np.abs(z) ** 3 + np.abs(c2) * z * z + np.abs(c1 * z) + np.abs(c0))


def _check_against_oracle(eos, big_a, big_b, mode):
    """Solve at ``R T = p = 1`` (so ``a_mix, b_mix`` are ``A, B``) with
    the kernel and with the ``np.roots`` loop; returns the kernel's Z."""
    from tests.thermo_oracle import oracle_solve_cubic

    t, p = np.full(big_a.shape, 1.0 / R_UNIVERSAL), np.ones(big_a.shape)
    z = eos._solve_cubic(t, p, big_a, big_b, mode)
    ref = oracle_solve_cubic(eos, t, p, big_a, big_b, mode)
    rt = R_UNIVERSAL * t
    a, b, u, w = big_a * p / rt**2, big_b * p / rt, eos.u, eos.w
    c2 = -(1.0 + b - u * b)
    c1 = a + w * b**2 - u * b - u * b**2
    c0 = -(a * b + w * b**2 + w * b**3)
    assert np.isfinite(z).all() and (z > b).all()
    res, scale = _residual(z, c2, c1, c0)
    assert (res <= 64 * EPS * scale).all()
    # no worse than LAPACK's (to one rounding of the sum, where its
    # residual happens to vanish); measured worst ratio 0.81
    assert (res <= 4 * np.maximum(_residual(ref, c2, c1, c0)[0],
                                  EPS * scale)).all()
    # the two may pick different members of a (near-)multiple root
    terms = np.array([18 * c2 * c1 * c0, -4 * c2**3 * c0, c2**2 * c1**2,
                      -4 * c1**3, -27 * c0**2])
    simple = np.abs(terms.sum(axis=0)) > 1e-10 * np.abs(terms).sum(axis=0)
    _within(z[simple], ref[simple], 1e-12)   # measured max 2.8e-13
    return z


class TestCubicRootKernel:
    @pytest.fixture(scope="class", params=[PengRobinson, SoaveRedlichKwong])
    def eos(self, request, mech):
        return request.param(mech.species)

    @settings(max_examples=60, deadline=None)
    @given(big_a=arrays(float, 8, elements=st.floats(1e-6, 30.0)),
           big_b=arrays(float, 8, elements=st.floats(1e-6, 1.0)),
           mode=st.sampled_from(ROOT_MODES))
    def test_matches_np_roots_loop(self, eos, big_a, big_b, mode):
        _check_against_oracle(eos, big_a, big_b, mode)

    @pytest.mark.parametrize("mode", ROOT_MODES)
    def test_named_states(self, eos, mode):
        # the critical point (a near-triple root: the 5-digit Omegas
        # move Z_c = 0.3074 / 0.3333 by ~(1e-5)^(1/3)), the ideal-gas
        # limit, a dense liquid (Z - B small), a sub-critical 3-root state
        big_a = np.array([eos.omega_a, 1e-6, 30.0, 0.2])
        big_b = np.array([eos.omega_b, 1e-6, 1.0, 0.02])
        z = _check_against_oracle(eos, big_a, big_b, mode)
        z_crit = {2.0: 0.3074, 1.0: 1.0 / 3.0}[eos.u]
        assert z[0] == pytest.approx(z_crit, abs=0.02)
        assert z[1] == pytest.approx(1.0, abs=1e-5)
        assert 0.0 < z[2] - big_b[2] < 0.1
        assert (z[3] < 0.1) == (mode != "vapor")

    def test_multiple_roots(self):
        """``disc = 0`` exactly -- (Z-1)(Z-1/4)^2, (Z-5/8)^2 (Z-1/4) --
        and ``P = Q = 0``, (Z-1/2)^3: every coefficient, the shift and
        the discriminant are exact in binary."""
        c2 = np.full(3, -1.5)
        c1 = np.array([0.5625, 0.703125, 0.75])
        c0 = np.array([-0.0625, -0.09765625, -0.125])
        z0, (z1, z2), three = cubic_real_roots(c2, c1, c0)
        assert three.all()
        exact = np.array([[1.0, 0.625, 0.5], [0.25, 0.625, 0.5],
                          [0.25, 0.25, 0.5]])
        for z, ref in zip((z0, z1, z2), exact):
            res, scale = _residual(z, c2, c1, c0)
            assert (res <= 64 * EPS * scale).all()
            np.testing.assert_allclose(z, ref, rtol=0.0, atol=1e-7)
        top, rest, _ = cubic_real_roots(c2, c1, c0, lower=False)
        assert rest == [] and np.array_equal(top, z0)

    def test_one_root_batch_skips_the_cosine_branch_bitwise(self):
        """A batch of one-root rows asks for no cosine-branch root; the
        largest root of each row is still bit for bit the one it gets
        in a batch that also holds a three-root row (Peng-Robinson
        coefficients; the last row is the sub-critical state above)."""
        rng = np.random.default_rng(7)
        big_a = np.append(rng.uniform(1e-3, 30.0, 300), 0.2)
        big_b = np.append(rng.uniform(1e-3, 1.0, 300), 0.02)
        c2 = -(1.0 - big_b)
        c1 = big_a - big_b**2 - 2.0 * big_b - 2.0 * big_b**2
        c0 = -(big_a * big_b - big_b**2 - big_b**3)
        z0, _, three = cubic_real_roots(c2, c1, c0, lower=False)
        assert three[-1] and not three.all()
        one = ~three
        alone, rest, none = cubic_real_roots(c2[one], c1[one], c0[one],
                                             lower=False)
        assert rest == [] and not none.any()
        assert np.array_equal(alone, z0[one])


class TestCompressibilityAgainstOracle:
    """``CubicEos.compressibility`` on mixtures against the parent's
    mixing rule and ``np.roots`` loop (``tests/thermo_oracle.py``)."""

    @pytest.fixture(scope="class")
    def states(self, mech):
        """Random mixtures at 250-800 K, 0.1-20 MPa (mostly one root),
        then eight near-pure sub-critical rows with three roots > B."""
        rng = np.random.default_rng(9)
        n = 24
        t = rng.uniform(250.0, 800.0, n)
        p = rng.uniform(1e5, 2e7, n)
        x = np.abs(rng.normal(0.5, 0.3, (n, mech.n_species)))
        dense = ("O2", "CH4", "N2", "O2", "CH4", "N2", "O2", "CO")
        x_sub = np.full((len(dense), mech.n_species), 1e-3)
        x_sub[np.arange(len(dense)),
              [mech.species_index[s] for s in dense]] = 1.0
        t = np.concatenate(
            (t, [100.0, 120.0, 90.0, 130.0, 150.0, 100.0, 140.0, 100.0]))
        p = np.concatenate((p, [1e6, 5e5, 8e5, 2e6, 1e6, 5e5, 3e6, 5e5]))
        x = np.concatenate((x, x_sub))
        return t, p, x / x.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("root", ROOT_MODES)
    @pytest.mark.parametrize("eos_cls", [PengRobinson, SoaveRedlichKwong],
                             ids=["PR", "SRK"])
    def test_matches_the_np_roots_loop(self, mech, states, eos_cls, root):
        from tests.thermo_oracle import OracleEos

        eos = eos_cls(mech.species)
        t, p, x = states
        z = eos.compressibility(t, p, x, root=root)
        _within(z, OracleEos(eos).compressibility(t, p, x, root=root),
                1e-12)
        if root != "vapor":   # the sub-critical rows pick a liquid root
            z_vapor = eos.compressibility(t, p, x, root="vapor")
            assert (z[-8:] < 0.2 * z_vapor[-8:]).sum() >= 6


class TestMixtureThermo:
    """``Mechanism.mixture_thermo``: the species sum contracted once per
    composition vs the per-species path of ``tests/thermo_oracle.py``."""

    #: documented bound, relative to the size of the summands (h is an
    #: absolute enthalpy: formation and sensible parts cancel, so |h|
    #: itself can be arbitrarily small next to them)
    RTOL = 1e-13

    @pytest.fixture(scope="class")
    def states(self, mech):
        rng = np.random.default_rng(3)
        n, ns = 600, mech.n_species
        pure = np.eye(ns)[rng.integers(0, ns, n // 2)]
        mixed = rng.random((n // 2, ns)) ** 3
        y = np.concatenate([pure, mixed / mixed.sum(axis=1, keepdims=True)])
        return rng.uniform(60.0, 5000.0, n), y

    def test_matches_per_species_path(self, mech, states):
        t, y = states
        mix = mech.mixture_thermo(y)
        moles = y / mech.molecular_weights
        a5 = mech._thermo_coeffs[:, 5]
        h_scale = R_UNIVERSAL * (moles * (
            np.abs(a5) + np.abs(mech.h_rt_all(t) * t[:, None] - a5))).sum(axis=1)
        h_ref = oracle_h_mass_mixture(mech, t, y)
        cp_ref = oracle_cp_mass_mixture(mech, t, y)
        assert (np.abs(mix.h_mass(t) - h_ref) <= self.RTOL * h_scale).all()
        assert (np.abs(mix.cp_mass(t) - cp_ref) <= self.RTOL * cp_ref).all()
        # the array-level entry points are the same evaluation
        assert np.array_equal(mech.h_mass_mixture(t, y), mix.h_mass(t))
        assert np.array_equal(mech.cp_mass_mixture(t, y), mix.cp_mass(t))

    def test_broadcasts_like_the_species_sum(self, mech, states):
        """One composition against many temperatures, and one
        temperature against many compositions."""
        t, y = states
        np.testing.assert_allclose(
            mech.h_mass_mixture(t, y[-1]),
            oracle_h_mass_mixture(mech, t, y[-1]), rtol=1e-10)
        np.testing.assert_allclose(
            mech.cp_mass_mixture(np.float64(300.0), y),
            oracle_cp_mass_mixture(mech, np.float64(300.0), y), rtol=1e-13)

    def test_rows_are_independent_of_their_batch(self, mech, states):
        """The contraction is an un-optimised einsum, not a BLAS gemm
        (whose kernel -- and last bit -- depends on the batch size):
        row i of a batch equals the batch of row i alone."""
        t, y = states
        ig = IdealGasProperties(mech)
        h = ig.h_from_t(t, 10e6, y)
        full = ig.evaluate(h, 10e6, y, t_guess=t * 1.05)
        for i in (0, 1, 299, 300, 417, 599):
            one = ig.evaluate(h[i:i + 1], 10e6, y[i:i + 1],
                              t_guess=t[i:i + 1] * 1.05)
            for name in ("rho", "temperature", "mu", "alpha", "cp"):
                assert getattr(full, name)[i] == getattr(one, name)[0]

    @pytest.mark.parametrize("off", [5.0, 40.0])
    def test_temperature_matches_the_per_species_newton(self, mech, off):
        """Converged T(h) on the ``tgv_transport`` fields (n = 12 here)
        vs the parent's Newton: within 1e-10 K from a guess a step's
        worth off (measured 1e-12); from 40 K off single cells freeze
        one sweep apart, and then the two differ by the width of the
        freeze criterion, ``1e-13 (|h| + 1e3) / cp`` = 2e-10 K."""
        case = build_tgv_case(n=12, mech=mech)
        ig = IdealGasProperties(mech)
        y, t0 = case.mass_fractions, case.temperature
        h = ig.h_from_t(t0, case.pressure.values, y)
        guess = t0 + np.random.default_rng(4).uniform(-off, off, t0.shape)
        got = ig.evaluate(h, case.pressure.values, y, t_guess=guess)
        ref = oracle_ideal_gas_temperature(mech, h, y, guess)
        width = 1e-13 * (np.abs(h) + 1e3) / got.cp
        bound = 1e-10 if off <= 5.0 else 2.0 * width
        assert (np.abs(got.temperature - ref) <= bound).all()
        assert np.abs(got.temperature - t0).max() <= 1e-9

    def test_other_thermo_types_keep_the_per_species_path(self, mech, states,
                                                          monkeypatch):
        t, y = states
        calls = []
        monkeypatch.setattr(mech, "_thermo_coeffs", None)
        inner = mech.h_rt_all
        monkeypatch.setattr(mech, "h_rt_all",
                            lambda tt: calls.append(1) or inner(tt))
        mix = mech.mixture_thermo(y)
        assert mix._c is None
        np.testing.assert_array_equal(mix.h_mass(t),
                                      oracle_h_mass_mixture(mech, t, y))
        np.testing.assert_array_equal(mix.cp_mass(t),
                                      oracle_cp_mass_mixture(mech, t, y))
        assert len(calls) == 2      # once for mix.h_mass, once for the oracle


class TestTemperatureSolveReporting:
    def test_ideal_gas_sweep_cap_warns_once(self, mech, pure_o2, caplog,
                                            monkeypatch):
        """``IdealGasProperties.evaluate`` used to leave its Newton
        silently; with the cap forced low the far-off cell is reported
        (count, worst relative residual, tolerance) and the converged
        one is not."""
        ig = IdealGasProperties(mech)
        y = np.tile(pure_o2, (2, 1))
        h = ig.h_from_t(np.array([300.0, 2500.0]), 1e6, y)
        monkeypatch.setattr(ig, "max_sweeps", 2)
        with caplog.at_level("WARNING", logger="repro.thermo"):
            props = ig.evaluate(h, 1e6, y, t_guess=np.array([300.0, 400.0]))
        records = [r for r in caplog.records if r.name == "repro.thermo"]
        assert len(records) == 1
        msg = records[0].getMessage()
        assert "1 of 2 cells unconverged after 2 sweeps" in msg
        assert "tol 1.0e-13" in msg
        assert props.temperature[0] == pytest.approx(300.0, abs=1e-9)
        assert abs(props.temperature[1] - 2500.0) > 1.0

    def test_ideal_gas_converged_batch_is_silent(self, mech, pure_o2, caplog):
        ig = IdealGasProperties(mech)
        h = ig.h_from_t(np.array([700.0]), 1e6, pure_o2[None, :])
        with caplog.at_level("DEBUG", logger="repro.thermo"):
            ig.evaluate(h, 1e6, pure_o2[None, :], t_guess=np.array([300.0]))
        assert not caplog.records


    def test_unreachable_enthalpy_warns_once(self, rf, pure_o2, caplog):
        y = np.tile(pure_o2, (3, 1))
        h = rf.h_mass(np.array([300.0, 800.0, 5000.0]), 10e6, y)
        h[2] += 5e6                                  # beyond the 5000 K bracket
        with caplog.at_level("WARNING", logger="repro.thermo"):
            t = rf.temperature_from_h(h, 10e6, y, t_guess=np.full(3, 600.0))
        records = [r for r in caplog.records if r.name == "repro.thermo"]
        assert len(records) == 1
        assert "1 of 3 cells unconverged" in records[0].getMessage()
        np.testing.assert_allclose(t[:2], [300.0, 800.0], rtol=1e-6)
        assert t[2] == pytest.approx(5000.0, rel=1e-6)

    def test_converged_batch_is_silent(self, rf, pure_o2, caplog):
        h = rf.h_mass([150.0], 10e6, pure_o2[None, :])
        with caplog.at_level("DEBUG", logger="repro.thermo"):
            rf.temperature_from_h(h, 10e6, pure_o2[None, :],
                                  t_guess=np.array([400.0]))
        assert not caplog.records
