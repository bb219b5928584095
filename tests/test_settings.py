"""The unified SolverSettings API: validation, overlay/roundtrip,
precedence (defaults < settings), the one constructor surface and the
settings-driven builders."""

import inspect
from dataclasses import fields

import numpy as np
import pytest

import repro.core
import repro.core.settings
from repro.chemistry.backends import DirectBatchBackend, PerCellBDFBackend
from repro.core import (
    DeepFlameSolver,
    NoChemistry,
    SolverSettings,
    build_chemistry,
    build_solver,
    build_tgv_case,
)
from repro.core.chemistry_source import BackendChemistry
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
        ("partition_method", "voronoi"),
        ("balance_chemistry", "always"),
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

    def test_balance_requires_ranks(self):
        with pytest.raises(ValueError):
            SolverSettings(balance_chemistry="dynamic")
        SolverSettings(balance_chemistry="dynamic", ranks=2)  # fine

    def test_controls_coerced_from_dict(self):
        s = SolverSettings(scalar_controls={"tolerance": 1e-11})
        assert isinstance(s.scalar_controls, SolverControls)
        assert s.scalar_controls.tolerance == 1e-11

    def test_no_shared_mutable_defaults(self):
        a, b = SolverSettings(), SolverSettings()
        assert a.scalar_controls is not b.scalar_controls
        assert a.chemistry_options is not b.chemistry_options
        assert a.balance_options is not b.balance_options


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
        s = SolverSettings(chemistry="direct", ranks=3,
                           partition_method="greedy",
                           scalar_controls={"tolerance": 1e-10},
                           balance_chemistry="static", n_correctors=3)
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
        assert len(fields(SolverSettings)) == 16

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
        for name, value in (("transport", "coupled"), ("overlap_halo", True)):
            d = SolverSettings().to_dict()
            d[name] = value
            with pytest.raises(KeyError, match=name):
                SolverSettings.from_dict(d)
            with pytest.raises(KeyError, match=name):
                SolverSettings().overlay(**{name: value})

    @pytest.mark.parametrize("name", [
        "resolve_settings", "TRANSPORT_MODES", "DirectChemistry",
        "BatchedChemistry", "ODENetChemistry", "HybridChemistry"])
    def test_removed_names_not_exported(self, name):
        for module in (repro.core, repro.core.settings):
            assert not hasattr(module, name)
            assert name not in module.__all__


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

    def test_decomposed_ranks_share_raw_backend(self, tgv):
        dist = DecomposedSolver(
            tgv(), SolverSettings(ranks=2, chemistry="direct"))
        adapters = [r.chemistry for r in dist.ranks]
        assert all(isinstance(a, BackendChemistry) for a in adapters)
        # one shared backend, per-rank stats adapters
        assert adapters[0] is not adapters[1]
        assert adapters[0].backend is adapters[1].backend
