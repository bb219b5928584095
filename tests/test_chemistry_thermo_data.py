"""Unit tests: species thermo, mechanism structure, reaction rates."""

import numpy as np
import pytest

from repro.chemistry.rates import Arrhenius, TroeParams
from repro.chemistry.species import fit_nasa7
from repro.constants import R_UNIVERSAL, T_REF


class TestNasa7:
    def test_fit_recovers_cp_anchors(self):
        anchors = {300: 4.0, 1000: 5.0, 2000: 6.0, 3000: 6.5}
        poly = fit_nasa7(anchors, hf298=-100e3, s298=200.0)
        # cubic through 4 points is exact at the anchors
        for t, cp in anchors.items():
            assert poly.cp_r(t) == pytest.approx(cp, rel=1e-9)

    def test_enthalpy_anchor(self):
        poly = fit_nasa7({300: 4.0, 1000: 5.0, 2000: 6.0}, -74.87e3, 186.25)
        assert poly.h_rt(T_REF) * R_UNIVERSAL * T_REF == pytest.approx(-74.87e3)

    def test_entropy_anchor(self):
        poly = fit_nasa7({300: 4.0, 1000: 5.0, 2000: 6.0}, -74.87e3, 186.25)
        assert poly.s_r(T_REF) * R_UNIVERSAL == pytest.approx(186.25)

    def test_cp_is_dh_dt(self):
        poly = fit_nasa7({300: 4.0, 1000: 5.0, 2000: 6.0, 3000: 6.2}, 1e4, 150.0)
        t = 1234.0
        dh = (poly.h_rt(t + 0.5) * (t + 0.5) - poly.h_rt(t - 0.5) * (t - 0.5))
        assert poly.cp_r(t) == pytest.approx(dh, rel=1e-6)

    def test_gibbs_identity(self):
        poly = fit_nasa7({300: 4.0, 1000: 5.0}, 1e4, 150.0)
        t = np.array([400.0, 900.0])
        np.testing.assert_allclose(poly.g_rt(t), poly.h_rt(t) - poly.s_r(t))

    def test_vectorized_matches_scalar(self):
        poly = fit_nasa7({300: 4.0, 1000: 5.0, 2000: 6.0}, 0.0, 100.0)
        ts = np.array([300.0, 700.0, 1500.0])
        np.testing.assert_allclose(poly.cp_r(ts),
                                   [poly.cp_r(float(t)) for t in ts])


class TestSpeciesData:
    def test_mechanism_size_matches_paper(self, mech):
        assert mech.n_species == 17
        assert mech.n_reactions == 44

    def test_molecular_weights(self, mech):
        w = mech.molecular_weights
        assert w[mech.species_index["CH4"]] == pytest.approx(16.043e-3, rel=1e-3)
        assert w[mech.species_index["O2"]] == pytest.approx(31.998e-3, rel=1e-3)
        assert w[mech.species_index["CO2"]] == pytest.approx(44.009e-3, rel=1e-3)
        assert w[mech.species_index["H2O"]] == pytest.approx(18.015e-3, rel=1e-3)

    def test_formation_enthalpies(self, mech):
        co2 = mech.species[mech.species_index["CO2"]]
        assert co2.h_mole(T_REF) == pytest.approx(-393.52e3, rel=1e-6)
        h2 = mech.species[mech.species_index["H2"]]
        assert h2.h_mole(T_REF) == pytest.approx(0.0, abs=1.0)

    def test_cp_consistency_all_species(self, mech):
        """cp == dh/dT for every species (thermo self-consistency)."""
        for sp in mech.species:
            for t in (400.0, 1500.0, 3000.0):
                dh = (sp.h_mole(t + 1e-2) - sp.h_mole(t - 1e-2)) / 2e-2
                assert sp.cp_mole(t) == pytest.approx(dh, rel=1e-5), sp.name

    def test_cp_positive_over_range(self, mech):
        ts = np.linspace(250.0, 3800.0, 40)
        for sp in mech.species:
            assert np.all(sp.thermo.cp_r(ts) > 0), sp.name

    def test_critical_data_physical(self, mech):
        for sp in mech.species:
            assert 20.0 < sp.t_crit < 800.0
            assert 1e5 < sp.p_crit < 3e7
            assert sp.lj_sigma > 1e-10

    def test_combustion_exothermic(self, mech):
        """CH4 + 2 O2 -> CO2 + 2 H2O releases ~802 kJ/mol."""
        idx = mech.species_index
        dh = (mech.species[idx["CO2"]].h_mole(T_REF)
              + 2 * mech.species[idx["H2O"]].h_mole(T_REF)
              - mech.species[idx["CH4"]].h_mole(T_REF)
              - 2 * mech.species[idx["O2"]].h_mole(T_REF))
        assert dh == pytest.approx(-802.3e3, rel=0.01)


class TestMechanismStructure:
    def test_element_conservation_all_reactions(self, mech):
        imbalance = mech.element_matrix @ mech.nu_net.T
        assert np.abs(imbalance).max() < 1e-12

    def test_mass_conservation_stoichiometry(self, mech):
        """nu_net @ W == 0 per reaction (mass conservation)."""
        mass = mech.nu_net @ mech.molecular_weights
        assert np.abs(mass).max() < 1e-12

    def test_mole_mass_roundtrip(self, mech):
        rng = np.random.default_rng(3)
        y = rng.random((5, 17))
        y /= y.sum(axis=1, keepdims=True)
        x = mech.mole_fractions(y)
        np.testing.assert_allclose(mech.mass_fractions(x), y, atol=1e-12)
        np.testing.assert_allclose(x.sum(axis=1), 1.0)

    def test_mean_weight_bounds(self, mech):
        rng = np.random.default_rng(4)
        y = rng.random((8, 17))
        y /= y.sum(axis=1, keepdims=True)
        w = mech.mean_molecular_weight(y)
        assert np.all(w >= mech.molecular_weights.min() - 1e-12)
        assert np.all(w <= mech.molecular_weights.max() + 1e-12)

    def test_equilibrium_constants_finite(self, mech):
        kc = mech.equilibrium_constants(np.array([300.0, 1000.0, 3000.0]))
        assert np.all(np.isfinite(kc)) and np.all(kc > 0)

    def test_equilibrium_favors_products_hot(self, mech):
        """H+O2=O+OH equilibrium grows with temperature (endothermic)."""
        kc = mech.equilibrium_constants(np.array([1000.0, 2500.0]))
        assert kc[1, 0] > kc[0, 0]

    def test_element_mass_fractions_sum_to_one(self, mech):
        rng = np.random.default_rng(5)
        y = rng.random((4, 17))
        y /= y.sum(axis=1, keepdims=True)
        z = mech.element_mass_fractions(y)
        np.testing.assert_allclose(z.sum(axis=1), 1.0, rtol=1e-10)

    def test_unbalanced_reaction_rejected(self, mech):
        from repro.chemistry.mechanism import Mechanism
        from repro.chemistry.rates import Reaction

        bad = Reaction("CH4 => CO2", {"CH4": 1}, {"CO2": 1},
                       Arrhenius(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="conserve"):
            Mechanism(mech.species, [bad])


class TestRates:
    def test_arrhenius_value(self):
        k = Arrhenius(a=1e10, b=0.0, ea=0.0)
        assert k(1000.0) == pytest.approx(1e10)

    def test_arrhenius_temperature_dependence(self):
        k = Arrhenius(a=1e10, b=0.0, ea=50_000.0)
        assert k(2000.0) > k(1000.0)
        expected = 1e10 * np.exp(-50_000.0 / (R_UNIVERSAL * 1000.0))
        assert k(1000.0) == pytest.approx(expected)

    def test_from_cgs_bimolecular(self):
        k = Arrhenius.from_cgs(1e13, 0.0, 0.0, order=2)
        assert k.a == pytest.approx(1e7)  # cm3 -> m3

    def test_from_cgs_termolecular(self):
        k = Arrhenius.from_cgs(1e16, 0.0, 0.0, order=3)
        assert k.a == pytest.approx(1e4)

    def test_troe_fcent_bounds(self):
        troe = TroeParams(0.7, 100.0, 2000.0)
        f = troe.f_cent(np.array([500.0, 1500.0]))
        assert np.all(f > 0) and np.all(f <= 1.0 + 1e-12)

    def test_falloff_limits(self, mech):
        """Falloff k -> k_inf at high [M], -> k0*[M] at low [M]."""
        rxn = next(r for r in mech.reactions if r.is_falloff)
        t = np.array([1200.0])
        k_hi = rxn.forward_rate_constant(t, np.array([1e12]))
        k_inf = rxn.rate(t)
        assert k_hi[0] == pytest.approx(k_inf[0], rel=0.05)
        m_lo = np.array([1e-8])
        k_lo = rxn.forward_rate_constant(t, m_lo)
        assert k_lo[0] == pytest.approx((rxn.low_rate(t) * m_lo)[0], rel=0.2)

    def test_falloff_requires_m(self, mech):
        rxn = next(r for r in mech.reactions if r.is_falloff)
        with pytest.raises(ValueError):
            rxn.forward_rate_constant(np.array([1000.0]), None)

    def test_net_stoich(self, mech):
        rxn = mech.reactions[0]  # H + O2 <=> O + OH
        net = rxn.net_stoich()
        assert net["H"] == -1 and net["O2"] == -1
        assert net["O"] == 1 and net["OH"] == 1
