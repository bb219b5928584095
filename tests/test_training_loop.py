"""Unit tests: the closed surrogate training loop -- dataset pipeline,
model registry, trust gate and incremental (continual-learning)
retraining."""

import numpy as np
import pytest

from repro.chemistry.backends.direct import DirectBatchBackend
from repro.chemistry.backends.hybrid import HybridBackend, TRUST_GATE_MODES
from repro.chemistry.backends.surrogate import SurrogateBackend
from repro.dnn.dataset import build_training_set, sample_regime
from repro.dnn.odenet import ODENet
from repro.dnn.registry import ModelRegistry, TrustRegion, retrain_incremental

PRESSURE = 10e6
DT = 1e-8


@pytest.fixture(scope="module")
def hotspot_set(mech):
    """A small deterministic hotspot training set."""
    return build_training_set(mech, regimes=("hotspot",), dt=DT, seed=0,
                              n=6, trajectory_steps=2, jitter_copies=1)


@pytest.fixture(scope="module")
def trained_net(mech, hotspot_set):
    """An ODENet fit on the hotspot manifold (records its domain)."""
    ts = hotspot_set
    net = ODENet(mech, hidden=(32, 32), seed=0)
    net.fit(ts.t, ts.p, ts.y, ts.delta_y, dt=ts.dt, epochs=200, lr=2e-3)
    return net


class TestDataset:
    def test_deterministic_given_seed(self, mech, hotspot_set):
        again = build_training_set(mech, regimes=("hotspot",), dt=DT,
                                   seed=0, n=6, trajectory_steps=2,
                                   jitter_copies=1)
        np.testing.assert_array_equal(again.t, hotspot_set.t)
        np.testing.assert_array_equal(again.y, hotspot_set.y)
        np.testing.assert_array_equal(again.delta_y, hotspot_set.delta_y)
        np.testing.assert_array_equal(again.z, hotspot_set.z)

    def test_coverage_totals_and_labels(self, hotspot_set):
        cov = hotspot_set.coverage()
        assert sum(cov.values()) == hotspot_set.n_samples
        assert "z<1e-05" in cov and "bdf" in cov
        # the hotspot case has both frozen bulk and reacting blob cells
        assert cov["z<1e-05"] > 0

    def test_thin_caps_every_bin(self, hotspot_set):
        cap = 50
        thinned = hotspot_set.thin(cap, seed=1)
        for count in thinned.coverage().values():
            assert count <= cap
        # bins already under the cap are untouched
        full = hotspot_set.coverage()
        kept = thinned.coverage()
        for key, n_full in full.items():
            if n_full <= cap:
                assert kept[key] == n_full

    def test_split_partitions(self, hotspot_set):
        train, hold = hotspot_set.split(0.25, seed=3)
        assert train.n_samples + hold.n_samples == hotspot_set.n_samples
        assert hold.n_samples == int(0.25 * hotspot_set.n_samples)
        # same seed -> same split
        train2, hold2 = hotspot_set.split(0.25, seed=3)
        np.testing.assert_array_equal(hold.t, hold2.t)

    def test_merge_dt_mismatch_raises(self, hotspot_set):
        other = hotspot_set.subset(np.arange(4))
        object.__setattr__(other, "dt", 2 * hotspot_set.dt)
        with pytest.raises(ValueError, match="dt"):
            hotspot_set.merge(other)

    def test_unknown_regime_rejected(self, mech):
        with pytest.raises(ValueError, match="regime"):
            sample_regime(mech, regime="nope", n=4)


class TestTrainingDeterminism:
    def test_same_seed_bitwise_identical(self, mech, hotspot_set):
        ts = hotspot_set.thin(40, seed=0)
        nets = []
        for _ in range(2):
            net = ODENet(mech, hidden=(16, 16), seed=3)
            net.fit(ts.t, ts.p, ts.y, ts.delta_y, dt=ts.dt, epochs=30,
                    lr=1e-3, seed=3)
            nets.append(net)
        a, b = nets
        for la, lb in zip(a.net.linear_layers(), b.net.linear_layers()):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)
        pred_a = a.predict_delta_y(ts.t, ts.p, ts.y, ts.dt)
        pred_b = b.predict_delta_y(ts.t, ts.p, ts.y, ts.dt)
        np.testing.assert_array_equal(pred_a, pred_b)


class TestTrustRegion:
    def test_contains_and_distance(self):
        feats = np.array([[0.0, 0.0], [1.0, 2.0]])
        tr = TrustRegion.fit(feats, margin=0.5)
        assert tr.contains(np.array([[0.5, 1.0]]))[0]
        assert tr.contains(np.array([[1.4, 2.4]]))[0]  # inside the margin
        assert not tr.contains(np.array([[2.0, 1.0]]))[0]
        np.testing.assert_allclose(
            tr.distance(np.array([[0.5, 1.0], [3.0, 1.0]])), [0.0, 1.5])

    def test_expand_covers_new_states(self):
        tr = TrustRegion.fit(np.zeros((1, 2)), margin=0.1)
        grown = tr.expand(np.array([[5.0, -3.0]]))
        assert grown.contains(np.array([[5.0, -3.0]]))[0]
        assert not tr.contains(np.array([[5.0, -3.0]]))[0]

    def test_state_roundtrip(self):
        tr = TrustRegion.fit(np.random.default_rng(0).random((6, 3)),
                             margin=0.25)
        back = TrustRegion.from_state(tr.state())
        np.testing.assert_array_equal(back.lo, tr.lo)
        np.testing.assert_array_equal(back.hi, tr.hi)
        assert back.margin == tr.margin


class TestRegistry:
    def test_odenet_save_load_bitwise(self, tmp_path, trained_net,
                                      hotspot_set, mech):
        path = tmp_path / "net.npz"
        trained_net.save(path)
        back = ODENet.load(path, mech)
        ts = hotspot_set
        np.testing.assert_array_equal(
            back.predict_delta_y(ts.t, ts.p, ts.y, ts.dt),
            trained_net.predict_delta_y(ts.t, ts.p, ts.y, ts.dt))
        np.testing.assert_array_equal(back.domain.lo, trained_net.domain.lo)
        np.testing.assert_array_equal(back.domain.hi, trained_net.domain.hi)

    def test_untrained_save_rejected(self, tmp_path, mech):
        with pytest.raises(ValueError, match="untrained"):
            ODENet(mech).save(tmp_path / "no.npz")

    def test_versions_lineage_and_replay(self, tmp_path, trained_net,
                                         hotspot_set, mech):
        reg = ModelRegistry(tmp_path)
        replay = hotspot_set.thin(20, seed=0)
        v1 = reg.save(trained_net, "demo", train_info={"epochs": 200},
                      replay=replay)
        v2 = reg.save(trained_net, "demo", parent=v1)
        assert (v1, v2) == ("v0001", "v0002")
        assert reg.names() == ["demo"]
        assert reg.versions("demo") == [v1, v2]
        assert reg.latest("demo") == v2
        assert reg.lineage("demo") == [v2, v1]
        assert reg.lineage("demo", v1) == [v1]
        man = reg.manifest("demo", v1)
        assert man["train_info"] == {"epochs": 200}
        assert man["n_species"] == mech.n_species
        assert man["has_replay"]

        loaded = reg.load("demo", mech, v1)
        ts = hotspot_set
        np.testing.assert_array_equal(
            loaded.predict_delta_y(ts.t, ts.p, ts.y, ts.dt),
            trained_net.predict_delta_y(ts.t, ts.p, ts.y, ts.dt))
        back = reg.load_replay("demo", v1)
        np.testing.assert_array_equal(back.t, replay.t)
        np.testing.assert_array_equal(back.delta_y, replay.delta_y)
        assert reg.load_replay("demo", v2) is None

    def test_bad_parent_rejected(self, tmp_path, trained_net):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(ValueError, match="parent"):
            reg.save(trained_net, "demo", parent="v0009")

    def test_missing_model_raises(self, tmp_path, mech):
        with pytest.raises(FileNotFoundError):
            ModelRegistry(tmp_path).latest("ghost")

    def test_committed_artifact_loads(self, mech):
        """The checked-in tgv-hotspot artifact is loadable and gated."""
        reg = ModelRegistry.default()
        assert "tgv-hotspot" in reg.names()
        net = reg.load("tgv-hotspot", mech)
        assert net.trained and net.domain is not None
        assert reg.load_replay("tgv-hotspot") is not None


class TestTrustGate:
    def _hybrid(self, mech, net, **kw):
        kw.setdefault("t_window", (0.0, 1e9))
        return HybridBackend(SurrogateBackend(net),
                             DirectBatchBackend(mech), **kw)

    def test_modes_exported(self):
        assert TRUST_GATE_MODES == ("off", "domain", "domain+audit")

    def test_gate_needs_domain(self, mech, trained_net):
        net = ODENet(mech, hidden=(16, 16), seed=0)
        net.net = trained_net.net
        net.in_scaler = trained_net.in_scaler
        net.out_scaler = trained_net.out_scaler
        net.trained = True
        net.domain = None
        with pytest.raises(ValueError, match="TrustRegion"):
            self._hybrid(mech, net, trust_gate="domain")

    def test_in_domain_states_accepted(self, mech, trained_net,
                                       hotspot_set):
        hb = self._hybrid(mech, trained_net, trust_gate="domain")
        ts = hotspot_set
        mask = hb.split_mask(ts.y[:64], ts.t[:64], ts.p[:64], ts.dt)
        assert mask.all()

    def test_ood_rejected_and_buffered(self, mech, trained_net,
                                       hotspot_set):
        """Far-off-manifold states fall back to exact direct results."""
        hb = self._hybrid(mech, trained_net, trust_gate="domain")
        rng = np.random.default_rng(7)
        y = rng.random((5, mech.n_species))
        y /= y.sum(axis=1, keepdims=True)
        t = np.full(5, 2900.0)
        p = np.full(5, PRESSURE)
        mask = hb.split_mask(y, t, p, DT)
        assert not mask.any()

        y_h, t_h, st = hb.advance(y, t, p, DT)
        y_d, t_d, _ = hb.direct.advance(y, t, p, DT)
        np.testing.assert_array_equal(y_h, y_d)
        np.testing.assert_array_equal(t_h, t_d)
        assert st.gate["gated_out_cells"] == 5
        assert hb.counters["gated_out_cells"] == 5
        assert hb.ood_size == 5

        drained = hb.drain_ood()
        np.testing.assert_array_equal(drained[0], t)
        np.testing.assert_array_equal(drained[2], y)
        assert hb.drain_ood() is None and hb.ood_size == 0

    def test_ood_capacity_drops_oldest(self, mech, trained_net):
        hb = self._hybrid(mech, trained_net, trust_gate="domain",
                          ood_capacity=8)
        for k in range(4):
            t = np.full(4, 2900.0 + k)
            y = np.tile(np.full(mech.n_species, 1.0 / mech.n_species),
                        (4, 1))
            hb._buffer_ood(t, np.full(4, PRESSURE), y)
        assert hb.ood_size <= 8 + 4
        t_all, _, _ = hb.drain_ood()
        assert t_all.min() >= 2901.0  # the oldest batch was dropped

    def test_audit_adopts_direct_result(self, mech, trained_net,
                                        hotspot_set):
        """With audit_fraction=1 every surrogate cell is spot-checked
        and adopts the direct result (and its work price)."""
        hb = self._hybrid(mech, trained_net, trust_gate="domain+audit",
                          audit_fraction=1.0, audit_tol=1e-12)
        ts = hotspot_set
        y, t, p = ts.y[:16], ts.t[:16], ts.p[:16]
        y_h, t_h, st = hb.advance(y, t, p, ts.dt)
        y_d, t_d, st_d = hb.direct.advance(y, t, p, ts.dt)
        np.testing.assert_array_equal(y_h, y_d)
        assert st.gate["audited_cells"] == 16
        # audited cells are priced at direct work, not inference FLOPs
        np.testing.assert_array_equal(st.work_per_cell, st_d.work_per_cell)
        # with a zero-ish tolerance every audit fails and buffers OOD
        assert st.gate["audit_failures"] == 16
        assert hb.ood_size == 16

    def test_work_per_cell_prices_the_split(self, mech, trained_net,
                                            hotspot_set):
        """The measured ``work_per_cell`` of an advance (what
        ``chemistry.work_imbalance`` reads) prices surrogate rows at
        the surrogate's FLOP price and every other row at the direct
        backend's measured work for the same rows."""
        hb = self._hybrid(mech, trained_net, trust_gate="domain")
        ts = hotspot_set
        y = np.vstack([ts.y[:4], np.tile(1.0 / mech.n_species,
                                         (2, mech.n_species))])
        t = np.concatenate([ts.t[:4], [2900.0, 2950.0]])
        p = np.full(6, PRESSURE)
        mask = hb.split_mask(y, t, p, ts.dt)
        assert mask.any() and not mask.all()
        _, _, st = hb.advance(y, t, p, ts.dt)
        _, _, st_d = hb.direct.advance(y[~mask], t[~mask], p[~mask], ts.dt)
        np.testing.assert_allclose(
            st.work_per_cell[mask], hb.surrogate.work_per_cell_estimate())
        np.testing.assert_array_equal(st.work_per_cell[~mask],
                                      st_d.work_per_cell)
        assert st.work_per_cell[mask].max() < st.work_per_cell[~mask].min()


class TestIncrementalRetraining:
    def _near_ood(self, mech):
        """A hotter blob than the training case: near-OOD states."""
        return sample_regime(mech, regime="hotspot", dt=DT, seed=5, n=6,
                             trajectory_steps=1, jitter_copies=0,
                             case_kwargs={"t_hot": 1650.0})

    def test_accepts_and_improves_ood(self, mech, trained_net,
                                      hotspot_set):
        import copy

        net = copy.deepcopy(trained_net)
        _, id_holdout = hotspot_set.split(0.2, seed=1)
        ood = self._near_ood(mech).thin(200, seed=0)
        res = retrain_incremental(net, ood, replay=hotspot_set,
                                  id_holdout=id_holdout, epochs=400,
                                  lr=2e-3, seed=0)
        assert res.accepted
        assert res.ood_error_after < res.ood_error_before
        assert res.id_error_after <= 1.5 * res.id_error_before
        # the trust region grew to cover the new states
        feats = net.scaled_features(ood.t, ood.p, ood.y, ood.dt)
        assert net.domain.contains(feats).all()

    def test_rolls_back_on_regression(self, mech, trained_net,
                                      hotspot_set):
        """Corrupted labels wreck the held-out ID error: weights and
        trust region roll back untouched."""
        import copy

        net = copy.deepcopy(trained_net)
        before = [lin.weight.copy() for lin in net.net.linear_layers()]
        domain_hi = net.domain.hi.copy()
        _, id_holdout = hotspot_set.split(0.2, seed=1)
        bad = self._near_ood(mech).thin(50, seed=0)
        bad.delta_y = bad.delta_y + 0.05  # garbage labels
        res = retrain_incremental(net, bad, id_holdout=id_holdout,
                                  epochs=80, lr=3e-3, seed=0)
        assert not res.accepted
        for lin, w in zip(net.net.linear_layers(), before):
            np.testing.assert_array_equal(lin.weight, w)
        np.testing.assert_array_equal(net.domain.hi, domain_hi)
