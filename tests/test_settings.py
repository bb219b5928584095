"""The unified SolverSettings API: validation, overlay/roundtrip,
precedence (defaults < settings), the one constructor surface and the
settings-driven builders."""

import inspect
from dataclasses import fields

import numpy as np
import pytest

import repro.chemistry
import repro.core
import repro.core.settings
import repro.dist
import repro.runtime
from repro.chemistry.backends import (
    ChemistryBackend,
    DirectBatchBackend,
    HybridBackend,
    PerCellBDFBackend,
    SurrogateBackend,
)
from repro.core import (
    DeepFlameSolver,
    NoChemistry,
    SolverSettings,
    build_chemistry,
    build_hotspot_tgv_case,
    build_solver,
    build_tgv_case,
)
from repro.core.chemistry_source import BackendChemistry
from repro.core.settings import EXECUTION_MODES, KRYLOV_VARIANTS
from repro.core.step import advance_step
from repro.dist import DecomposedSolver
from repro.solvers import SolverControls


@pytest.fixture(scope="module")
def tgv(mech):
    def build():
        return build_tgv_case(n=6, mech=mech)
    return build


class TestValidation:
    def test_defaults_are_valid(self):
        s = SolverSettings()
        assert s.chemistry == "none"
        assert not s.is_decomposed

    @pytest.mark.parametrize("field,value", [
        ("chemistry", "magic"),
        ("krylov_variant", "voronoi"),
        ("execution", "threads"),
        ("ranks", -1),
        ("n_correctors", 0),
        ("n_correctors", 2.5),
        ("n_correctors", True),
        ("solve_momentum", "no"),
        ("ranks", True),
        ("partition_seed", "x"),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            SolverSettings(**{field: value})

    @pytest.mark.parametrize("ranks", [0, 1])
    def test_parallel_needs_two_ranks(self, ranks):
        """Below two ranks ``build_solver`` builds a serial solver, so
        ``execution="parallel"`` would be silently dropped."""
        with pytest.raises(ValueError, match="ranks") as err:
            SolverSettings(ranks=ranks, execution="parallel")
        assert "execution" in str(err.value)

    def test_rank_overlays_stay_valid(self):
        """A parallel worker's settings drop ``execution`` first, then
        its rank solvers drop ``ranks``; both overlays validate."""
        par = SolverSettings(ranks=2, execution="parallel")
        worker = par.overlay(execution="serial")
        assert worker.overlay(ranks=0).ranks == 0
        with pytest.raises(ValueError):
            par.overlay(ranks=1)

    def test_controls_coerced_from_dict(self):
        s = SolverSettings(scalar_controls={"tolerance": 1e-11})
        assert isinstance(s.scalar_controls, SolverControls)
        assert s.scalar_controls.tolerance == 1e-11

    def test_no_shared_mutable_defaults(self):
        a, b = SolverSettings(), SolverSettings()
        assert a.scalar_controls is not b.scalar_controls
        assert a.chemistry_options is not b.chemistry_options


class TestOverlayRoundtrip:
    def test_overlay_overrides_one_field(self):
        base = SolverSettings()
        hi = base.overlay(n_correctors=4)
        assert hi.n_correctors == 4
        assert base.n_correctors == 2  # immutable base untouched

    def test_overlay_dotted_path(self):
        s = SolverSettings().overlay(**{
            "scalar_controls.tolerance": 1e-13, "ranks": 2})
        assert s.scalar_controls.tolerance == 1e-13
        assert s.ranks == 2
        # untouched sibling fields of the nested controls survive
        assert s.scalar_controls.max_iterations \
            == SolverSettings().scalar_controls.max_iterations

    def test_overlay_unknown_field_raises(self):
        with pytest.raises(KeyError):
            SolverSettings().overlay(warp_factor=9)
        with pytest.raises(KeyError):
            SolverSettings().overlay(**{"scalar_controls.warp": 1})

    def test_dict_roundtrip(self):
        s = SolverSettings(chemistry="direct", ranks=3, partition_seed=7,
                           scalar_controls={"tolerance": 1e-10},
                           krylov_variant="overlapped", n_correctors=3)
        d = s.to_dict()
        assert d["scalar_controls"]["tolerance"] == 1e-10
        assert SolverSettings.from_dict(d) == s

    def test_to_dict_copies_nested_containers_only(self):
        net = object()      # stands in for a trained odenet
        s = SolverSettings(chemistry_options={
            "a": {"b": 1}, "bins": [[1.0, 2], [3.0, 4]], "odenet": net})
        d = s.to_dict()
        d["chemistry_options"]["a"]["b"] = 2
        d["chemistry_options"]["bins"][0][1] = 99
        d["chemistry_options"]["new"] = 0
        assert s.chemistry_options == {
            "a": {"b": 1}, "bins": [[1.0, 2], [3.0, 4]], "odenet": net}
        assert d["chemistry_options"]["odenet"] is net  # by reference


class TestPrecedence:
    def test_settings_beat_defaults(self, tgv):
        solver = DeepFlameSolver(tgv(), SolverSettings(n_correctors=1))
        assert solver.n_correctors == 1


class TestLegacyEquivalence:
    def test_serial_bitwise_match(self, tgv):
        dt = 1e-7
        legacy = DeepFlameSolver(
            tgv(), SolverSettings(
                n_correctors=1,
                scalar_controls=SolverControls(tolerance=1e-10)),
            chemistry=NoChemistry())
        modern = build_solver(
            tgv(), SolverSettings(
                n_correctors=1, scalar_controls={"tolerance": 1e-10}))
        for _ in range(2):
            legacy.step(dt)
            modern.step(dt)
        assert np.array_equal(legacy.y, modern.y)
        assert np.array_equal(legacy.h, modern.h)
        assert np.array_equal(legacy.p.values, modern.p.values)
        assert np.array_equal(legacy.u.values, modern.u.values)

    def test_decomposed_bitwise_match(self, tgv):
        dt = 1e-7
        legacy = DecomposedSolver(tgv(),
                                  SolverSettings(ranks=2, n_correctors=1))
        modern = build_solver(
            tgv(), SolverSettings(ranks=2, n_correctors=1))
        legacy.step(dt)
        modern.step(dt)
        for f in ("y", "h", "p", "u"):
            assert np.array_equal(legacy.gather(f), modern.gather(f)), f

    def test_decomposed_needs_rank_count(self, tgv):
        with pytest.raises(ValueError, match="rank count"):
            DecomposedSolver(tgv(), SolverSettings())


class TestOneSurface:
    """One way to build a solver: the settings object is the whole
    configuration surface, and the superseded spellings are gone."""

    def test_field_count(self):
        assert len(fields(SolverSettings)) == 11

    def test_constructor_signatures(self):
        def surface(cls):
            return [(p.name, p.kind.name, p.default)
                    for p in inspect.signature(cls).parameters.values()]

        required = inspect.Parameter.empty
        assert surface(DeepFlameSolver) == [
            ("case", "POSITIONAL_OR_KEYWORD", required),
            ("settings", "POSITIONAL_OR_KEYWORD", None),
            ("properties", "KEYWORD_ONLY", None),
            ("chemistry", "KEYWORD_ONLY", None),
            ("workspace", "KEYWORD_ONLY", None)]
        assert surface(DecomposedSolver) == [
            ("case", "POSITIONAL_OR_KEYWORD", required),
            ("settings", "POSITIONAL_OR_KEYWORD", required),
            ("comm", "KEYWORD_ONLY", None),
            ("decomp", "KEYWORD_ONLY", None),
            ("properties", "KEYWORD_ONLY", None),
            ("chemistry", "KEYWORD_ONLY", None)]

    def test_removed_field_is_an_unknown_field(self):
        for name, value in (("transport", "coupled"), ("overlap_halo", True),
                            ("partition_method", "multilevel"),
                            ("chemistry_workers", 2),
                            ("balance_chemistry", "dynamic"),
                            ("balance_options", {"ema": 0.5})):
            d = SolverSettings().to_dict()
            d[name] = value
            with pytest.raises(KeyError, match=name):
                SolverSettings.from_dict(d)
            with pytest.raises(KeyError, match=name):
                SolverSettings().overlay(**{name: value})

    @pytest.mark.parametrize("name", [
        "resolve_settings", "TRANSPORT_MODES", "DirectChemistry",
        "BatchedChemistry", "ODENetChemistry", "HybridChemistry",
        "PARTITION_METHODS", "BALANCE_MODES", "BalanceReport",
        "ChemistryLoadBalancer", "MigrationPlan", "plan_migration",
        "price_balance_report"])
    def test_removed_names_not_exported(self, name):
        for module in (repro.core, repro.core.settings, repro.dist,
                       repro.chemistry, repro.runtime):
            assert not hasattr(module, name)
            assert name not in module.__all__

    @pytest.mark.parametrize("name", [
        "balancer", "last_balance", "_balanced_chemistry",
        "adopt_chemistry"])
    def test_removed_solver_attribute(self, mech, name):
        """Neither solver carries a balancer, its report or the hook
        that wrote migrated results back into a rank."""
        dist = DecomposedSolver(build_tgv_case(n=4, mech=mech),
                                SolverSettings(ranks=2))
        assert not hasattr(dist, name)
        assert not hasattr(dist.ranks[0], name)

    def test_step_takes_three_hooks(self):
        """Chemistry runs on the rank that owns its cells: the step
        has no chemistry hook, and no backend prices cells a priori
        (the measured ``work_per_cell`` counters stay)."""
        assert list(inspect.signature(advance_step).parameters) == [
            "hosted", "dt", "refresh", "solve", "reduce"]
        for cls in (ChemistryBackend, DirectBatchBackend,
                    PerCellBDFBackend, SurrogateBackend, HybridBackend):
            assert not hasattr(cls, "work_estimate"), cls.__name__


class TestBuilders:
    def test_build_chemistry_mapping(self, mech):
        assert isinstance(
            build_chemistry(SolverSettings(chemistry="none"), mech),
            NoChemistry)
        assert isinstance(
            build_chemistry(SolverSettings(chemistry="percell"), mech),
            PerCellBDFBackend)
        assert isinstance(
            build_chemistry(SolverSettings(chemistry="direct"), mech),
            DirectBatchBackend)

    def test_direct_takes_no_tolerances(self, mech):
        """The direct backend has one error norm and no fallback to
        tune: BDF tolerances are the per-cell backend's alone."""
        opts = {"rtol": 1e-8, "atol": 1e-12}
        assert build_chemistry(SolverSettings(chemistry="percell",
                                              chemistry_options=opts),
                               mech).rtol == 1e-8
        with pytest.raises(TypeError, match="rtol"):
            build_chemistry(SolverSettings(chemistry="direct",
                                           chemistry_options=opts), mech)

    def test_build_chemistry_surrogate_needs_net(self, mech):
        with pytest.raises(ValueError, match="odenet"):
            build_chemistry(SolverSettings(chemistry="surrogate"), mech)

    def test_build_solver_dispatch(self, tgv):
        serial = build_solver(tgv(), SolverSettings())
        assert isinstance(serial, DeepFlameSolver)
        dist = build_solver(tgv(), SolverSettings(ranks=2))
        assert isinstance(dist, DecomposedSolver)
        assert len(dist.ranks) == 2
        assert dist.ranks[0].settings.ranks == 0  # rank solvers serial

    def test_from_settings_wrong_archetype(self, tgv):
        with pytest.raises(ValueError):
            DeepFlameSolver(tgv(), SolverSettings(ranks=2))
        with pytest.raises(ValueError):
            DecomposedSolver(tgv(), SolverSettings())

    def test_decomposed_ranks_share_raw_backend(self, tgv, mech):
        """An injected backend is shared by the hosted ranks."""
        backend = DirectBatchBackend(mech)
        dist = DecomposedSolver(
            tgv(), SolverSettings(ranks=2, chemistry="direct"),
            chemistry=backend)
        adapters = [r.chemistry for r in dist.ranks]
        assert all(isinstance(a, BackendChemistry) for a in adapters)
        # one shared backend, per-rank stats adapters
        assert adapters[0] is not adapters[1]
        assert all(a.backend is backend for a in adapters)

    def test_decomposed_ranks_build_one_backend_each(self, tgv):
        """Without an injected backend every hosted rank builds its
        own, as every worker of a parallel run does."""
        dist = DecomposedSolver(
            tgv(), SolverSettings(ranks=2, chemistry="direct"))
        a, b = (r.chemistry.backend for r in dist.ranks)
        assert isinstance(a, DirectBatchBackend)
        assert isinstance(b, DirectBatchBackend)
        assert a is not b

    @pytest.mark.parametrize("field, value", [
        (field, value)
        for field, choices in (("krylov_variant", KRYLOV_VARIANTS),
                               ("execution", EXECUTION_MODES))
        for value in choices])
    def test_every_accepted_choice_builds(self, mech, field, value):
        """Every value a settings choice validates builds a 2-rank
        solver that steps; a combination ``validate()`` refuses is
        skipped."""
        try:
            settings = SolverSettings(ranks=2, chemistry="direct",
                                      **{field: value})
        except ValueError as exc:
            pytest.skip(f"refused by validate(): {exc}")
        with build_solver(build_hotspot_tgv_case(n=4, mech=mech),
                          settings) as solver:
            diag = solver.step(1e-8)
        assert np.isfinite(diag.total_mass)
