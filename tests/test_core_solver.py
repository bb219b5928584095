"""Integration tests: cases, property/chemistry paths, the DeepFlame
solver end to end."""

import numpy as np
import pytest

from repro.chemistry.backends.percell import PerCellBDFBackend
from repro.chemistry.backends.surrogate import SurrogateBackend
from repro.core.cases import build_rocket_case, build_tgv_case
from repro.core.chemistry_source import BackendChemistry, NoChemistry
from repro.core.deepflame import DeepFlameSolver
from repro.core.properties import (
    DirectRealFluidProperties,
    IdealGasProperties,
    PRNetProperties,
)
from repro.core.settings import SolverSettings
from repro.solvers.controls import SolverControls
from tests.step_oracle import OracleSolver


class TestCases:
    def test_tgv_setup_matches_paper(self, mech):
        case = build_tgv_case(n=8, mech=mech)
        assert case.mesh.n_cells == 512
        assert case.pressure.values[0] == pytest.approx(10e6)
        assert case.temperature.min() == pytest.approx(150.0, abs=2.0)
        # smooth tanh interface: the fuel-core maximum approaches 300 K
        # from below at finite resolution
        assert 260.0 < case.temperature.max() <= 300.0
        np.testing.assert_allclose(case.mass_fractions.sum(axis=1), 1.0)

    def test_tgv_velocity_divergence_free_discretely(self, mech):
        """The TGV initial velocity is analytically solenoidal."""
        case = build_tgv_case(n=12, mech=mech)
        from repro.fv.fields import SurfaceField, VolField
        from repro.fv.operators import fvc_div

        u = VolField("U", case.mesh, case.velocity.values)
        u_f = u.face_values()
        phi = SurfaceField("phi", case.mesh,
                           np.einsum("fi,fi->f", u_f, case.mesh.face_areas))
        div = fvc_div(phi)
        assert np.abs(div).max() < 0.05 * 4.0 / 0.48e-3  # << u0/L

    def test_tgv_velocity_magnitude(self, mech):
        case = build_tgv_case(n=8, u0=4.0, mech=mech)
        assert np.linalg.norm(case.velocity.values, axis=1).max() <= 4.0 + 1e-9

    def test_rocket_case_structure(self, mech):
        case = build_rocket_case(n_sectors=1, nr=4, ntheta_per_sector=6,
                                 nz=10, mech=mech)
        assert case.pressure.values[0] == pytest.approx(20e6)
        np.testing.assert_allclose(case.mass_fractions.sum(axis=1), 1.0)
        assert case.temperature.max() > 2500.0  # hot core
        # injector-side cells are much cooler than the core (fully
        # cryogenic values need finer axial resolution than this test)
        assert case.temperature.min() < 1300.0


class TestPropertyPaths:
    def test_direct_real_fluid_roundtrip(self, mech):
        direct = DirectRealFluidProperties(mech)
        y = np.zeros((3, 17))
        y[:, mech.species_index["O2"]] = 1.0
        t = np.array([150.0, 300.0, 1000.0])
        h = direct.h_from_t(t, 10e6, y)
        props = direct.evaluate(h, 10e6, y, t_guess=t + 50)
        np.testing.assert_allclose(props.temperature, t, rtol=1e-4)
        assert np.all(props.rho > 0)

    def test_ideal_gas_path(self, mech):
        ig = IdealGasProperties(mech)
        y = np.zeros((1, 17))
        y[0, mech.species_index["CH4"]] = 1.0
        h = ig.h_from_t(np.array([500.0]), 1e6, y)
        props = ig.evaluate(h, 1e6, y)
        assert props.temperature[0] == pytest.approx(500.0, rel=1e-3)
        from repro.constants import R_UNIVERSAL

        rho_ig = 1e6 * 16.043e-3 / (R_UNIVERSAL * 500.0)
        assert props.rho[0] == pytest.approx(rho_ig, rel=1e-3)

    @pytest.mark.slow
    def test_prnet_path_runs(self, tiny_prnet, mech):
        pp = PRNetProperties(tiny_prnet)
        y = np.zeros((2, 17))
        y[:, mech.species_index["O2"]] = 1.0
        h = tiny_prnet._rf.h_mass(np.array([200.0, 400.0]), 10e6, y)
        props = pp.evaluate(h, 10e6, y)
        assert np.all(props.rho > 0) and np.all(props.cp > 0)

    @pytest.mark.slow
    def test_prnet_drives_a_solver(self, tiny_prnet, mech):
        """The surrogate evaluator meets the whole evaluator contract:
        a solver constructs on it (``h_from_t``) and its pressure
        equation sees the real-fluid compressibility, not an ideal-gas
        estimate (wrong by a large factor at 10 MPa)."""
        case = build_tgv_case(n=4, mech=mech)
        s = DeepFlameSolver(case, properties=PRNetProperties(
            tiny_prnet, rf=tiny_prnet._rf), chemistry=NoChemistry())
        np.testing.assert_array_equal(
            s.h, tiny_prnet._rf.h_mass(case.temperature, s.p.values, s.y))
        direct = DirectRealFluidProperties(mech, rf=tiny_prnet._rf)
        np.testing.assert_array_equal(
            s._psi_field(),
            np.maximum(direct.psi(s.temperature, s.p.values, s.y), 1e-9))
        ideal = IdealGasProperties(mech).psi(s.temperature, s.p.values, s.y)
        assert (np.abs(s._psi_field() / ideal - 1.0) > 0.2).any()
        assert np.isfinite(s.step(1e-9).total_mass)

    def test_psi_is_part_of_every_evaluator(self, mech):
        """``psi(t, p, y)``: the EoS compressibility on the real-fluid
        path, ``W / (R T)`` (T floored at 100 K) on the ideal-gas one."""
        from repro.constants import R_UNIVERSAL

        y = np.zeros((2, 17))
        y[:, mech.species_index["O2"]] = 1.0
        t = np.array([50.0, 400.0])
        rf_props = DirectRealFluidProperties(mech)
        np.testing.assert_array_equal(
            rf_props.psi(t[1:], 10e6, y[1:]),
            rf_props.rf.psi_compressibility(t[1:], 10e6, y[1:]))
        w = mech.mean_molecular_weight(y)
        np.testing.assert_array_equal(
            IdealGasProperties(mech).psi(t, 10e6, y),
            w / (R_UNIVERSAL * np.array([100.0, 400.0])))


class TestChemistryPaths:
    def test_direct_chemistry_ignites_hot_cell(self, mech):
        chem = BackendChemistry(PerCellBDFBackend(mech, rtol=1e-6, atol=1e-9))
        y = np.zeros((2, 17))
        y[:, mech.species_index["CH4"]] = 0.2
        y[:, mech.species_index["O2"]] = 0.8
        t = np.array([300.0, 1800.0])
        t_new, y_new = chem.advance(t, np.full(2, 10e6), y, 2e-5)
        assert t_new[0] == pytest.approx(300.0, abs=5.0)     # frozen
        assert t_new[1] > 2200.0                              # ignited
        np.testing.assert_allclose(y_new.sum(axis=1), 1.0, atol=1e-9)

    def test_direct_chemistry_load_imbalance(self, mech):
        """Hot cells need far more BDF steps than cold ones -- the
        imbalance ODENet removes."""
        chem = BackendChemistry(PerCellBDFBackend(mech, rtol=1e-6, atol=1e-9))
        y = np.zeros((4, 17))
        y[:, mech.species_index["CH4"]] = 0.2
        y[:, mech.species_index["O2"]] = 0.8
        t = np.array([300.0, 300.0, 300.0, 1800.0])
        chem.advance(t, np.full(4, 10e6), y, 2e-5)
        steps = chem.last_backend_stats.work_per_cell
        assert steps[3] > 5 * steps[0]
        assert chem.last_backend_stats.load_imbalance > 1.0

    @pytest.mark.slow
    def test_odenet_chemistry_uniform_work(self, tiny_odenet):
        chem = BackendChemistry(SurrogateBackend(tiny_odenet))
        xs = tiny_odenet._train_x
        chem.advance(xs[:6, 0], xs[:6, 1], xs[:6, 2:], 1e-7)
        assert chem.last_backend_stats.load_imbalance == 0.0

    def test_untrained_odenet_rejected(self, mech):
        from repro.dnn.odenet import ODENet

        with pytest.raises(ValueError):
            SurrogateBackend(ODENet(mech))


class TestDeepFlameSolver:
    CTL = dict(
        scalar_controls=SolverControls(tolerance=1e-10, rel_tol=1e-5,
                                       max_iterations=400),
    )

    def test_ideal_gas_stability_and_conservation(self, mech):
        case = build_tgv_case(n=8, mech=mech)
        s = DeepFlameSolver(case, SolverSettings(**self.CTL),
                            properties=IdealGasProperties(mech),
                            chemistry=NoChemistry())
        mass0 = float((s.rho * case.mesh.cell_volumes).sum())
        for _ in range(5):
            d = s.step(1e-8)
        assert d.total_mass == pytest.approx(mass0, rel=1e-3)
        assert d.max_velocity < 10.0
        assert 100.0 < d.t_min and d.t_max < 400.0

    def test_temperature_follows_the_stepped_state(self, mech):
        """``temperature`` is the current field, not the initial
        condition it was constructed from -- and cannot be detached
        from ``props`` by assignment."""
        case = build_tgv_case(n=6, mech=mech)
        s = DeepFlameSolver(case, properties=IdealGasProperties(mech),
                            chemistry=NoChemistry())
        t0 = s.temperature.copy()
        s.run(2, 1e-6)
        assert s.temperature is s.props.temperature
        assert np.abs(s.temperature - t0).max() > 0.0
        with pytest.raises(AttributeError):
            s.temperature = t0

    def test_real_fluid_stability(self, mech):
        case = build_tgv_case(n=8, mech=mech)
        s = DeepFlameSolver(case, SolverSettings(**self.CTL),
                            chemistry=NoChemistry())
        for _ in range(4):
            d = s.step(1e-8)
        assert 140.0 < d.t_min < d.t_max < 320.0
        assert d.max_velocity < 10.0
        assert d.y_min >= 0.0 and d.y_max <= 1.0 + 1e-12

    def test_species_bounds_preserved(self, mech):
        case = build_tgv_case(n=8, mech=mech)
        s = DeepFlameSolver(case, SolverSettings(**self.CTL),
                            chemistry=NoChemistry())
        s.run(3, 1e-8)
        np.testing.assert_allclose(s.y.sum(axis=1), 1.0, atol=1e-12)
        assert s.y.min() >= 0.0

    def test_timings_recorded(self, mech):
        case = build_tgv_case(n=8, mech=mech)
        s = DeepFlameSolver(case, SolverSettings(**self.CTL),
                            chemistry=NoChemistry())
        s.step(1e-8)
        tm = s.last_timings
        assert tm.dnn > 0 and tm.construction > 0 and tm.solving > 0

    def test_measure_workload(self, mech):
        case = build_tgv_case(n=8, mech=mech)
        s = DeepFlameSolver(case, SolverSettings(**self.CTL),
                            properties=IdealGasProperties(mech),
                            chemistry=NoChemistry())
        wl = s.measure_workload(1e-8)
        assert wl["pde_flops_per_cell"] > 100
        assert wl["n_cells"] == 512

    def test_measure_workload_does_not_perturb_state(self, mech):
        """Calibration runs on a snapshot: a run() after
        measure_workload() must match a run() on a fresh solver."""
        def fresh():
            return DeepFlameSolver(build_tgv_case(n=8, mech=mech),
                                   SolverSettings(**self.CTL),
                                   properties=IdealGasProperties(mech),
                                   chemistry=NoChemistry())

        probed = fresh()
        before = probed.state_snapshot()
        probed.measure_workload(1e-8)
        after = probed.state_snapshot()
        for key in ("y", "h", "rho", "u", "p", "phi"):
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)
        assert probed.step_count == 0 and probed.current_time == 0.0

        reference = fresh()
        probed.run(2, 1e-8)
        reference.run(2, 1e-8)
        np.testing.assert_allclose(probed.y, reference.y, atol=1e-14)
        np.testing.assert_allclose(probed.p.values, reference.p.values,
                                   rtol=1e-12)

    @pytest.mark.slow
    def test_odenet_coupled_run(self, mech, tiny_odenet):
        """The full surrogate-coupled solver holds physical bounds."""
        case = build_tgv_case(n=6, mech=mech)
        s = DeepFlameSolver(case, SolverSettings(**self.CTL),
                            chemistry=SurrogateBackend(tiny_odenet))
        for _ in range(2):
            d = s.step(1e-7)
        assert np.isfinite(d.total_mass)
        assert d.y_min >= 0.0 and d.y_max <= 1.0 + 1e-9
        assert d.t_max < 4500.0

    def test_rocket_case_steps(self, mech):
        case = build_rocket_case(n_sectors=1, nr=4, ntheta_per_sector=6,
                                 nz=10, mech=mech)
        s = DeepFlameSolver(case,
                            SolverSettings(solve_momentum=False, **self.CTL),
                            properties=IdealGasProperties(mech),
                            chemistry=NoChemistry())
        d = s.step(1e-8)
        assert np.isfinite(d.total_mass)
        assert d.y_min >= 0.0

    def test_coupled_matches_per_species(self, mech):
        """The blocked transport path is a pure refactor: multi-step
        fields must match the sequential reference to solver accuracy."""
        ctl = SolverSettings(scalar_controls=SolverControls(
            tolerance=1e-12, max_iterations=500))
        c = DeepFlameSolver(build_tgv_case(n=8, mech=mech), ctl,
                            chemistry=NoChemistry())
        p = OracleSolver(build_tgv_case(n=8, mech=mech), ctl,
                         chemistry=NoChemistry(), column_solves=True)
        c.run(3, 1e-8)
        p.run(3, 1e-8)
        np.testing.assert_allclose(c.y, p.y, atol=1e-10)
        np.testing.assert_allclose(c.u.values, p.u.values, atol=1e-8)
        np.testing.assert_allclose(c.p.values, p.p.values, rtol=1e-10)
        np.testing.assert_allclose(c.h, p.h, rtol=1e-10)
