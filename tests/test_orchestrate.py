"""Ensemble orchestration: per-instance settings resolution, shared
read-only caches (object identity + memory accounting), port/conduit
routing through the ledgered fabric, standalone-solver agreement and
the aggregated cost report."""

import numpy as np
import pytest

from repro.core.cases import build_tgv_case
from repro.core.deepflame import DeepFlameSolver
from repro.core.settings import SolverSettings
from repro.dist.solver import DecomposedSolver
from repro.orchestrate.cache import CaseCache, clone_case, nbytes_deep
from repro.orchestrate.ensemble import Ensemble
from repro.orchestrate.settings_manager import SettingsManager
from repro.runtime.machine import SUNWAY

DT = 1e-7
#: fast ensemble base: one corrector, frozen chemistry
BASE = SolverSettings(n_correctors=1)


@pytest.fixture(scope="module")
def tgv(mech):
    def build():
        return build_tgv_case(n=6, mech=mech)
    return build


@pytest.fixture(scope="module")
def swept(tgv):
    """An 8-instance tolerance sweep advanced two steps."""
    values = [10.0 ** -(6 + (i % 4)) for i in range(8)]
    ens = Ensemble.sweep(tgv, BASE, "scalar_controls.tolerance", values,
                         name="sw")
    ens.run(2, DT)
    return ens, values


class TestSettingsManager:
    def test_precedence_chain(self):
        mgr = SettingsManager(
            SolverSettings(n_correctors=3),
            overlays={"sw": {"n_correctors": 4, "solve_momentum": False},
                      "sw[1]": {"n_correctors": 5}})
        # base < name overlay
        assert mgr.resolve("sw", 0).n_correctors == 4
        # name overlay < name[i] overlay (other fields survive)
        s1 = mgr.resolve("sw", 1)
        assert s1.n_correctors == 5
        assert s1.solve_momentum is False
        # name[i] overlay < explicit overrides
        assert mgr.resolve("sw", 1, {"n_correctors": 6}).n_correctors == 6
        # unaddressed instances get the base
        assert mgr.resolve("other").n_correctors == 3

    def test_unoverridden_resolves_to_base_identity(self):
        base = SolverSettings()
        mgr = SettingsManager(base)
        assert mgr.resolve("anything") is base

    def test_set_overlay_merges(self):
        mgr = SettingsManager()
        mgr.set_overlay("m", {"n_correctors": 3})
        mgr.set_overlay("m", {"solve_momentum": False})
        s = mgr.resolve("m")
        assert (s.n_correctors, s.solve_momentum) == (3, False)

    def test_dotted_overlay(self):
        mgr = SettingsManager(
            overlays={"m": {"scalar_controls.tolerance": 1e-11}})
        assert mgr.resolve("m").scalar_controls.tolerance == 1e-11


class TestSharedCaches:
    def test_clone_case_fresh_state_shared_backing(self, tgv):
        proto = tgv()
        clone = clone_case(proto, "c0")
        assert clone.mesh is proto.mesh
        assert clone.mech is proto.mech
        assert clone.velocity is not proto.velocity
        assert clone.velocity.values is not proto.velocity.values
        np.testing.assert_array_equal(clone.velocity.values,
                                      proto.velocity.values)
        clone.mass_fractions[0, 0] = 0.5
        assert proto.mass_fractions[0, 0] != 0.5

    def test_case_cache_builds_once(self, tgv):
        cache = CaseCache()
        calls = []

        def builder():
            calls.append(1)
            return tgv()

        r1 = cache.get("k", builder=builder)
        r2 = cache.get("k")
        assert r1 is r2
        assert len(calls) == 1
        with pytest.raises(KeyError):
            cache.get("missing")

    def test_instances_share_heavy_objects(self, swept):
        ens, _ = swept
        first = ens[0].solver
        for inst in list(ens)[1:]:
            s = inst.solver
            assert s.mesh is first.mesh
            assert s.mech is first.mech
            assert s.properties is first.properties
            assert s._ws is first._ws
            assert s._ws.pattern is first._ws.pattern

    def test_per_instance_settings_resolved(self, swept):
        ens, values = swept
        for inst, v in zip(ens, values):
            assert inst.settings.scalar_controls.tolerance == v
            assert inst.settings.n_correctors == BASE.n_correctors


class TestNbytesDeep:
    def test_counts_each_buffer_once(self):
        arr = np.zeros(1000)
        view = arr[10:500]
        holder = {"a": arr, "b": view, "c": [arr, (view, arr)]}
        assert nbytes_deep(holder) == arr.nbytes

    def test_incremental_seen(self):
        a, b = np.zeros(100), np.ones(50)
        # both holders alive up front: ``seen`` tracks object ids, so a
        # freed temporary could alias a later allocation
        d1, d2 = {"a": a}, {"a": a, "b": b}
        seen: set = set()
        first = nbytes_deep(d1, seen=seen)
        second = nbytes_deep(d2, seen=seen)
        assert first == a.nbytes
        assert second == b.nbytes  # a already charged

    def test_sparse_and_slots(self):
        import scipy.sparse as sp
        m = sp.csr_matrix(np.eye(8))
        total = nbytes_deep(m)
        assert total >= m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


class TestStandaloneAgreement:
    def test_serial_instances_match_standalone_bitwise(self, swept, tgv):
        ens, values = swept
        for pick in (0, 3):
            solo = DeepFlameSolver(
                tgv(), BASE.overlay(
                    **{"scalar_controls.tolerance": values[pick]}))
            solo.run(2, DT)
            inst = ens[pick]
            ref = {"y": solo.y, "h": solo.h, "p": solo.p.values,
                   "u": solo.u.values, "rho": solo.rho,
                   "T": solo.props.temperature}
            for name, expected in ref.items():
                got = inst.field(name)
                assert np.max(np.abs(got - expected)) <= 1e-12, name
                assert np.array_equal(got, expected), name

    def test_decomposed_instance_matches_standalone(self, tgv):
        settings = BASE.overlay(ranks=2)
        ens = Ensemble(tgv, BASE)
        ens.add_instance("d", overrides={"ranks": 2})
        ens.run(1, DT)
        solo = DecomposedSolver(tgv(), settings)
        solo.step(DT)
        for f in ("y", "h", "p", "u"):
            assert np.array_equal(ens["d"].field(f), solo.gather(f)), f


class TestMemoryReport:
    def test_shared_footprint_under_half(self, swept):
        ens, _ = swept
        rep = ens.memory_report()
        assert rep["ensemble_bytes"] < 0.5 * rep["independent_bytes"]
        assert rep["ratio"] < 0.5
        assert rep["ensemble_bytes"] == (
            sum(rep["shared_bytes"].values())
            + sum(rep["instance_bytes"].values())
            + rep["port_buffer_bytes"])
        # every instance holds some exclusive state
        assert all(v > 0 for v in rep["instance_bytes"].values())


class TestPortsAndConduits:
    def test_forward_coupling_same_superstep(self, tgv):
        ens = Ensemble(tgv, BASE)
        macro = ens.add_instance("macro")
        micro = ens.add_instance("micro")
        ens.connect("macro.t_out", "micro.t_in")
        got = []
        macro.post_step.append(
            lambda i: i.send("t_out", [i.solver.props.temperature.max()]))
        micro.pre_step.append(lambda i: got.append(i.receive("t_in")))
        ens.run(2, DT)
        # macro steps first: its message arrives within the superstep
        assert len(got) == 2
        assert got[0] is not None and got[0].shape == (1,)

    def test_backward_coupling_next_superstep(self, tgv):
        ens = Ensemble(tgv, BASE)
        a = ens.add_instance("a")
        b = ens.add_instance("b")
        ens.connect("b.out", "a.in")  # against step order
        got = []
        b.post_step.append(lambda i: i.send("out", [float(i.steps)]))
        a.pre_step.append(lambda i: got.append(i.receive("in")))
        ens.run(2, DT)
        assert got[0] is None            # nothing in flight at step 1
        assert float(got[1][0]) == 1.0   # b's step-1 message, one step late

    def test_unconnected_port_raises(self, tgv):
        ens = Ensemble(tgv, BASE)
        a = ens.add_instance("a")
        a.post_step.append(lambda i: i.send("nowhere", [1.0]))
        ens.step(DT)  # send happens after the last routing pass
        with pytest.raises(ValueError, match="no conduit"):
            ens.step(DT)

    def test_connect_unknown_instance_raises(self, tgv):
        ens = Ensemble(tgv, BASE)
        ens.add_instance("a")
        with pytest.raises(KeyError):
            ens.connect("a.out", "ghost.in")

    def test_membership_frozen_after_step(self, tgv):
        ens = Ensemble(tgv, BASE)
        ens.add_instance("a")
        ens.step(DT)
        with pytest.raises(RuntimeError):
            ens.add_instance("late")
        ens2 = Ensemble(tgv, BASE)
        ens2.add_instance("x")
        with pytest.raises(ValueError, match="duplicate"):
            ens2.add_instance("x")


class TestCostReport:
    def test_port_traffic_attributed_per_instance(self, tgv):
        ens = Ensemble(tgv, BASE)
        macro = ens.add_instance("macro")
        ens.add_instance("micro")
        ens.connect("macro.out", "micro.in")
        macro.post_step.append(lambda i: i.send("out", np.zeros(4)))
        ens.run(2, DT)
        rep = ens.cost_report()
        by_name = {c.name: c for c in rep.instances}
        assert by_name["macro"].port_messages == 2
        assert by_name["macro"].port_bytes == 2 * 4 * 8
        assert by_name["micro"].port_messages == 0
        assert rep.fabric["messages"] == 2
        assert rep.fabric["bytes"] == by_name["macro"].port_bytes

    def test_timings_and_chemistry_work(self, tgv):
        ens = Ensemble(tgv, BASE)
        ens.add_instance("frozen")
        ens.add_instance("burning", overrides={"chemistry": "direct"})
        ens.run(1, DT)
        rep = ens.cost_report()
        frozen, burning = rep.instances
        assert frozen.chemistry_work == 0.0
        assert burning.chemistry_work > 0.0
        assert burning.chemistry_cells == 6 ** 3
        assert frozen.wall_time > 0 and burning.wall_time > 0
        assert rep.total_wall == pytest.approx(
            frozen.wall_time + burning.wall_time)
        assert rep.chemistry_imbalance == pytest.approx(1.0)

    def test_internal_comm_of_decomposed_instance(self, tgv):
        ens = Ensemble(tgv, BASE)
        ens.add_instance("serial")
        ens.add_instance("dist", overrides={"ranks": 2})
        ens.run(1, DT)
        rep = ens.cost_report()
        by_name = {c.name: c for c in rep.instances}
        assert by_name["serial"].internal_comm is None
        internal = by_name["dist"].internal_comm
        assert internal is not None
        assert internal["messages"] > 0
        assert internal["allreduces"] > 0
        # internal traffic never leaks into the ensemble fabric
        assert rep.fabric["messages"] == 0
        priced = rep.price(SUNWAY)
        assert priced["internal"]["dist"]["total_s"] > 0
        assert np.isfinite(priced["total_s"])

    def test_table_renders(self, swept):
        ens, _ = swept
        lines = ens.cost_report().table()
        assert any("sw[0]" in ln for ln in lines)
        assert any("imbalance" in ln for ln in lines)
