"""Unit tests: DNN stack -- layers, training, quantization, GeLU table,
ODENet, PRNet, inference engine."""

import numpy as np
import pytest

from repro.dnn.gelu_table import GeLUTable
from repro.dnn.inference import InferenceEngine
from repro.dnn.layers import GeLU, Linear, gelu_exact, gelu_fused, gelu_grad
from repro.dnn.network import MLP
from repro.dnn.odenet import ODENet
from repro.dnn.prnet import PRNet
from repro.dnn.quantize import mixed_linear_forward, quantize_fp16
from repro.dnn.scaling import BoxCoxTransform, ZScoreScaler
from repro.dnn.training import gradient_check, mse_loss, train_mlp


class TestLayers:
    def test_gelu_known_values(self):
        assert gelu_exact(0.0) == pytest.approx(0.0)
        assert gelu_exact(10.0) == pytest.approx(10.0, rel=1e-6)
        assert gelu_exact(-10.0) == pytest.approx(0.0, abs=1e-6)
        assert gelu_exact(1.0) == pytest.approx(0.8412, abs=2e-3)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    def test_gelu_is_the_textbook_form(self, dt):
        """exact promotes to fp64 through the constant; fused stays in
        the input dtype."""
        x = np.linspace(-6.0, 6.0, 513).astype(dt)
        c = np.sqrt(2.0 / np.pi)
        assert np.array_equal(
            gelu_exact(x), 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3))))
        assert gelu_fused(x).dtype == dt

    def test_gelu_fused_matches_exact(self):
        xs = np.linspace(-6, 6, 1201)
        np.testing.assert_allclose(gelu_fused(xs), gelu_exact(xs),
                                   rtol=0, atol=1e-14)

    def test_gelu_fused_preserves_fp32(self):
        xs = np.linspace(-6, 6, 1201, dtype=np.float32)
        out = gelu_fused(xs)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, gelu_exact(xs.astype(np.float64)),
                                   rtol=0, atol=1e-6)

    def test_gelu_grad_matches_fd(self):
        xs = np.linspace(-4, 4, 41)
        fd = (gelu_exact(xs + 1e-6) - gelu_exact(xs - 1e-6)) / 2e-6
        np.testing.assert_allclose(gelu_grad(xs), fd, atol=1e-6)

    def test_linear_forward(self):
        lin = Linear(3, 2)
        lin.weight[:] = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]
        lin.bias[:] = [0.5, -0.5]
        out = lin.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[1.5, 3.5]])

    def test_flops_per_sample(self):
        net = MLP((10, 20, 5))
        assert net.flops_per_sample() == 2 * (10 * 20 + 20 * 5)

    @pytest.mark.slow
    def test_paper_odenet_flops(self, mech):
        """The paper ODENet should count ~38.9 MF/sample."""
        net = ODENet.paper_architecture(mech).net
        assert net.flops_per_sample() == pytest.approx(38.9e6, rel=0.01)


class TestTrainingStack:
    def test_gradient_check(self):
        net = MLP((4, 12, 3), seed=1)
        rng = np.random.default_rng(0)
        err = gradient_check(net, rng.random((6, 4)), rng.random((6, 3)))
        assert err < 1e-5

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (500, 2))
        y = np.sin(3 * x[:, :1]) * x[:, 1:]
        net = MLP((2, 32, 1), seed=0)
        hist = train_mlp(net, x, y, epochs=60, lr=3e-3)
        # thresholds tolerate multithreaded-BLAS reduction-order noise
        assert hist.train_loss[-1] < hist.train_loss[0] / 5
        assert hist.final_val < 0.06

    def test_mse_gradient(self):
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        loss, grad = mse_loss(pred, target)
        assert loss == pytest.approx(2.5)
        np.testing.assert_allclose(grad, [[1.0, 2.0]])

    def test_save_load_roundtrip(self, tmp_path):
        net = MLP((3, 8, 2), seed=5)
        x = np.random.default_rng(2).random((4, 3))
        path = tmp_path / "net.npz"
        net.save(path)
        net2 = MLP.load(path)
        np.testing.assert_allclose(net2.forward(x), net.forward(x))

    def test_deterministic_init(self):
        a = MLP((3, 8, 2), seed=7)
        b = MLP((3, 8, 2), seed=7)
        x = np.ones((1, 3))
        np.testing.assert_array_equal(a.forward(x), b.forward(x))


class TestScalers:
    def test_zscore_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(5.0, 3.0, (100, 4))
        s = ZScoreScaler().fit(x)
        z = s.transform(x)
        assert np.abs(z.mean(axis=0)).max() < 1e-12
        np.testing.assert_allclose(z.std(axis=0), 1.0)
        np.testing.assert_allclose(s.inverse(z), x, rtol=1e-12)

    def test_zscore_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ZScoreScaler().transform(np.zeros((2, 2)))

    def test_zscore_state_roundtrip(self):
        s = ZScoreScaler().fit(np.random.default_rng(4).random((10, 2)))
        s2 = ZScoreScaler.from_state(s.state())
        x = np.random.default_rng(5).random((3, 2))
        np.testing.assert_allclose(s2.transform(x), s.transform(x))

    def test_boxcox_roundtrip(self):
        bc = BoxCoxTransform(0.1)
        y = np.array([1e-12, 1e-6, 0.1, 0.5, 1.0])
        np.testing.assert_allclose(bc.inverse(bc.transform(y)),
                                   np.maximum(y, 1e-30), rtol=1e-10)

    def test_boxcox_spreads_small_values(self):
        bc = BoxCoxTransform(0.1)
        z = bc.transform(np.array([1e-10, 1e-5, 1.0]))
        # dynamic range compressed from 10 decades to O(10)
        assert z.max() - z.min() < 15.0


class TestQuantization:
    def test_quantize_fp16_idempotent(self):
        x = np.random.default_rng(6).random(100)
        q = quantize_fp16(x)
        np.testing.assert_array_equal(quantize_fp16(q), q)

    def test_quantize_error_bounded(self):
        x = np.random.default_rng(7).uniform(-3, 3, 1000)  # z-scored range
        assert np.abs(quantize_fp16(x) - x).max() < 3 * 2e-3  # ~2^-10 ulp

    def test_mixed_linear_close_to_exact(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(16, 32))
        w = rng.normal(size=(8, 32)) * 0.1
        b = rng.normal(size=8) * 0.1
        exact = x @ w.T + b
        mixed = mixed_linear_forward(x, w, b)
        assert np.abs(mixed - exact).max() < 0.02


class TestGeLUTable:
    def test_interior_error_tiny(self):
        """Inside [-3,3] the 2nd-order table is accurate to ~1e-6."""
        tab = GeLUTable(precision="fp64")
        xs = np.linspace(-2.99, 2.99, 20001)
        err = np.abs(tab(xs) - gelu_exact(xs)).max()
        assert err < 2e-6

    def test_tail_clamp_error_matches_paper_approx(self):
        """The x<-3 -> 0 clamp is the paper's own approximation: the
        max error equals |GeLU(-3)| ~ 4e-3."""
        tab = GeLUTable()
        assert tab.max_error() < 5e-3
        assert tab.max_error() > 1e-3

    def test_asymptotics(self):
        tab = GeLUTable()
        assert tab(np.array([-5.0]))[0] == 0.0
        assert tab(np.array([7.0]))[0] == pytest.approx(7.0, rel=1e-3)

    def test_entry_count_matches_paper(self):
        tab = GeLUTable()  # [-3,3] at 0.01
        assert tab.n_entries == 600

    @pytest.mark.parametrize("precision, dt", [
        ("fp64", np.float64), ("fp32", np.float32), ("fp16", np.float16)])
    def test_tracks_exact_within_max_error(self, precision, dt):
        table = GeLUTable(precision=precision)
        x = np.linspace(-4.0, 4.0, 257).astype(
            np.float64 if precision == "fp64" else np.float32)
        out = table(x)
        assert out.dtype == dt
        assert np.max(np.abs(out.astype(np.float64) - gelu_exact(
            x.astype(np.float64)))) <= table.max_error() + 4 * np.finfo(dt).eps

    def test_fp16_table_error(self):
        tab = GeLUTable(precision="fp16")
        assert tab.max_error() < 1e-2

    def test_monotone_on_positive_axis(self):
        tab = GeLUTable()
        xs = np.linspace(0.0, 3.5, 1000)
        assert np.all(np.diff(tab(xs).astype(np.float64)) >= -1e-7)


class TestInferenceEngine:
    @pytest.fixture(scope="class")
    def net(self):
        net = MLP((4, 32, 32, 2), seed=0)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(800, 4))
        y = np.stack([np.sin(x[:, 0]), x[:, 1] * x[:, 2]], axis=1)
        train_mlp(net, x, y, epochs=40)
        return net

    def test_fp32_close_to_fp64(self, net):
        x = np.random.default_rng(10).normal(size=(64, 4))
        ref = net.forward(x)
        out = InferenceEngine(net, precision="fp32").run(x)
        assert np.abs(out - ref).max() < 1e-4

    def test_fp16_error_small_on_normalized_inputs(self, net):
        x = np.random.default_rng(11).normal(size=(64, 4))
        ref = net.forward(x)
        out = InferenceEngine(net, precision="fp16", gelu="table").run(x)
        scale = np.abs(ref).max()
        assert np.abs(out - ref).max() / scale < 0.03

    def test_table_vs_exact_gelu(self, net):
        x = np.random.default_rng(12).normal(size=(64, 4))
        e1 = InferenceEngine(net, gelu="exact").run(x)
        e2 = InferenceEngine(net, gelu="table").run(x)
        assert np.abs(e1 - e2).max() < 5e-2

    def test_fused_vs_exact_gelu(self, net):
        x = np.random.default_rng(14).normal(size=(64, 4))
        e1 = InferenceEngine(net, gelu="exact").run(x)
        e2 = InferenceEngine(net, gelu="fused").run(x)
        # same math, only the operation fusion differs: fp32 roundoff
        assert np.abs(e1 - e2).max() < 1e-5

    @pytest.mark.parametrize("gelu", ["exact", "fused", "table"])
    @pytest.mark.parametrize("precision", ["fp64", "fp32"])
    def test_is_the_plain_numpy_forward(self, net, precision, gelu):
        """Each layer is ``x @ W^T + b`` with weights cast to the
        engine's precision, then the selected GeLU: bitwise, fp64 out."""
        dt = np.float32 if precision == "fp32" else np.float64
        x = np.random.default_rng(15).normal(size=(120, 4))
        engine = InferenceEngine(net, precision=precision, gelu=gelu)
        act = {"exact": gelu_exact, "fused": gelu_fused,
               "table": engine.table}[gelu]
        h = x.astype(dt)
        for layer in net.layers:
            if isinstance(layer, Linear):
                h = h @ layer.weight.astype(dt).T + layer.bias.astype(dt)
            elif isinstance(layer, GeLU):
                h = act(h)
        out = engine.run(x)
        assert out.dtype == np.float64
        assert np.array_equal(out, h.astype(np.float64))

    def test_batching_invariant(self, net):
        x = np.random.default_rng(13).normal(size=(100, 4))
        a = InferenceEngine(net, batch_size=7).run(x)
        b = InferenceEngine(net, batch_size=100).run(x)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_stats_flop_count(self, net):
        eng = InferenceEngine(net)
        eng.run(np.zeros((10, 4)))
        assert eng.last_stats.linear_flops == 10 * net.flops_per_sample()
        assert eng.last_stats.activation_elements == 10 * 64

    def test_invalid_options(self, net):
        with pytest.raises(ValueError):
            InferenceEngine(net, precision="fp8")
        with pytest.raises(ValueError):
            InferenceEngine(net, gelu="spline")


class TestODENet:
    def test_architecture_sizes(self, mech):
        net = ODENet.paper_architecture(mech)
        assert net.net.sizes == (20, 2048, 4096, 2048, 1024, 512, 17)

    @pytest.mark.slow
    def test_training_fits_reactor_data(self, tiny_odenet):
        xs, ys = tiny_odenet._train_x, tiny_odenet._train_y
        pred = tiny_odenet.predict_delta_y(xs[:, 0], xs[:, 1], xs[:, 2:], 1e-7)
        # R^2 against the true increments on the training manifold
        ss_res = ((pred - ys) ** 2).sum()
        ss_tot = ((ys - ys.mean(axis=0)) ** 2).sum()
        assert 1 - ss_res / ss_tot > 0.8

    @pytest.mark.slow
    def test_advance_preserves_simplex(self, tiny_odenet, mech):
        xs = tiny_odenet._train_x
        y_new = tiny_odenet.advance(xs[:5, 0], xs[:5, 1], xs[:5, 2:], 1e-7)
        np.testing.assert_allclose(y_new.sum(axis=1), 1.0, rtol=1e-12)
        assert y_new.min() >= 0.0

    @pytest.mark.slow
    def test_engine_path_consistent(self, tiny_odenet):
        xs = tiny_odenet._train_x
        ref = tiny_odenet.predict_delta_y(xs[:8, 0], xs[:8, 1], xs[:8, 2:], 1e-7)
        eng = tiny_odenet.make_engine(precision="fp32")
        out = tiny_odenet.predict_delta_y(xs[:8, 0], xs[:8, 1], xs[:8, 2:],
                                          1e-7, engine=eng)
        scale = np.abs(ref).max() + 1e-12
        assert np.abs(out - ref).max() / scale < 1e-3


class TestPRNet:
    def test_architecture_sizes(self, mech):
        net = PRNet.paper_architecture(mech)
        assert net.density_net.sizes == (3, 1024, 512, 256, 1)
        assert net.transport_net.sizes == (3, 2048, 1024, 512, 4)

    def test_manifold_is_one_batched_evaluation(self, mech):
        """One ``properties_tp`` over the whole manifold, row for row what
        the per-sample single-cell calls return."""
        from repro.dnn.prnet import sample_property_manifold
        from repro.thermo.real_fluid import RealFluidMixture

        class Recording(RealFluidMixture):
            calls = []

            def properties_tp(self, t, p, y):
                self.calls.append((t, p, y))
                return super().properties_tp(t, p, y)

        rf = Recording(mech)
        feats, rho_t, trans_t = sample_property_manifold(
            mech, rf, 10e6, n_mix=4, n_temp=5)
        assert feats.shape == (20, 3) and rho_t.shape == (20, 1)
        assert trans_t.shape == (20, 4)
        (t, p, y), = rf.calls
        i_c, i_h = mech.elements.index("C"), mech.elements.index("H")
        for k in range(20):
            one = RealFluidMixture.properties_tp(rf, t[k:k + 1], p, y[k:k + 1])
            z = mech.element_mass_fractions(y[k:k + 1])[0]
            np.testing.assert_allclose(
                feats[k], [one.h_mass[0], p, z[i_c] + z[i_h]], rtol=1e-12)
            assert rho_t[k, 0] == one.rho[0]
            np.testing.assert_array_equal(
                trans_t[k], [t[k], one.mu[0], one.alpha[0], one.cp_mass[0]])

    @pytest.mark.slow
    def test_density_accuracy_on_manifold(self, tiny_prnet, mech):
        from repro.dnn.prnet import sample_property_manifold

        feats, rho_t, trans_t = sample_property_manifold(
            mech, tiny_prnet._rf, 10e6, n_mix=6, n_temp=6, seed=1)
        # reconstruct (h,p,Z) -> predict via nets
        x = tiny_prnet.in_scaler.transform(feats)
        rho_pred = np.exp(tiny_prnet.rho_scaler.inverse(
            tiny_prnet.density_net.forward(x)))[:, 0]
        rel = np.abs(rho_pred - rho_t[:, 0]) / rho_t[:, 0]
        assert np.median(rel) < 0.25

    @pytest.mark.slow
    def test_temperature_prediction_reasonable(self, tiny_prnet, mech):
        rf = tiny_prnet._rf
        y = np.zeros((1, 17))
        y[0, mech.species_index["O2"]] = 1.0
        h = rf.h_mass(np.array([200.0]), 10e6, y)
        _, t_pred, _, _, _ = tiny_prnet.predict(h, 10e6, y)
        assert abs(t_pred[0] - 200.0) < 400.0

    def test_untrained_rejected(self, mech):
        from repro.core.properties import PRNetProperties

        with pytest.raises(ValueError):
            PRNetProperties(PRNet(mech))
