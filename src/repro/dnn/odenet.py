"""ODENet: the chemistry surrogate (paper Sec. 2, Fig. 2).

Maps the thermochemical state ``(T, p, Y_1..Y_ns)`` to the mass-
fraction increment ``Y(t+dt) - Y(t)`` over one CFD time step,
replacing the stiff per-cell CVODE/BDF integration.  Inputs go through
a Box-Cox transform on the mass fractions (spreading their dynamic
range) followed by Z-score normalization; outputs are Z-score
normalized increments.

The paper's production architecture is (20, 2048, 4096, 2048, 1024,
512, 17): 17 species + temperature + pressure + time-step = 20 inputs.
:meth:`ODENet.paper_architecture` builds that size for performance
experiments; accuracy experiments train a smaller net (numpy training
at 21 M parameters would dominate the session for no scientific
gain -- the surrogate-accuracy claims are architecture-insensitive at
these scales).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..chemistry.mechanism import Mechanism
from .inference import InferenceEngine
from .network import MLP
from .registry import TrustRegion
from .scaling import BoxCoxTransform, ZScoreScaler

if TYPE_CHECKING:
    from .training import TrainingHistory

__all__ = ["ODENet"]

PAPER_HIDDEN = (2048, 4096, 2048, 1024, 512)


class ODENet:
    """Chemistry source-term surrogate."""

    def __init__(self, mech: Mechanism, hidden: tuple[int, ...] = (64, 64),
                 seed: int = 0, boxcox_lambda: float = 0.1):
        self.mech = mech
        ns = mech.n_species
        self.net = MLP((ns + 3,) + tuple(hidden) + (ns,), seed=seed)
        self.boxcox = BoxCoxTransform(boxcox_lambda)
        self.in_scaler = ZScoreScaler()
        self.out_scaler = ZScoreScaler()
        self.domain: TrustRegion | None = None
        self.trained = False

    @classmethod
    def paper_architecture(cls, mech: Mechanism, seed: int = 0) -> "ODENet":
        """The (20, 2048, 4096, 2048, 1024, 512, 17) production net."""
        return cls(mech, hidden=PAPER_HIDDEN, seed=seed)

    # ----------------------------------------------------------------
    def _features(self, t, p, y, dt) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p = np.broadcast_to(np.asarray(p, dtype=float), t.shape)
        dt = np.broadcast_to(np.asarray(dt, dtype=float), t.shape)
        y = np.atleast_2d(y)
        return np.concatenate(
            [t[:, None], np.log(p)[:, None], np.log(dt)[:, None],
             self.boxcox.transform(y)], axis=1,
        )

    def fit(
        self,
        t: np.ndarray,
        p: np.ndarray,
        y: np.ndarray,
        delta_y: np.ndarray,
        dt: float,
        epochs: int = 400,
        lr: float = 3e-3,
        batch_size: int = 64,
        seed: int = 0,
        domain_margin: float = 0.5,
    ) -> TrainingHistory:
        """Train on sampled pairs (see :mod:`repro.dnn.dataset` or
        :meth:`repro.chemistry.reactor.ConstantPressureReactor.sample_training_pairs`).

        Fits the scalers, records the training manifold's
        :class:`~repro.dnn.registry.TrustRegion` (scaled-space bounds
        plus ``domain_margin``) for the hybrid backend's domain gate,
        then trains the net.
        """
        # the training stack loads here: inference never needs it
        from .training import train_mlp

        feats = self._features(t, p, y, dt)
        self.in_scaler.fit(feats)
        self.out_scaler.fit(delta_y)
        scaled = self.in_scaler.transform(feats)
        self.domain = TrustRegion.fit(scaled, margin=domain_margin)
        hist = train_mlp(
            self.net,
            scaled,
            self.out_scaler.transform(delta_y),
            epochs=epochs, lr=lr, batch_size=batch_size, seed=seed,
            lr_decay=0.995,
        )
        self.trained = True
        return hist

    def scaled_features(self, t, p, y, dt) -> np.ndarray:
        """The net's scaled input features for the given states.

        The coordinate system of :attr:`domain` -- the hybrid trust
        gate checks these rows against the trained manifold's bounds.
        """
        return self.in_scaler.transform(self._features(t, p, y, dt))

    # ----------------------------------------------------------------
    def predict_delta_y(
        self, t, p, y, dt, engine: InferenceEngine | None = None
    ) -> np.ndarray:
        """Predicted mass-fraction increments over ``dt``.

        ``engine`` selects the inference path (precision / GeLU mode);
        default is exact fp64 forward.
        """
        feats = self.in_scaler.transform(self._features(t, p, y, dt))
        if engine is None:
            raw = self.net.forward(feats)
        else:
            raw = engine.run(feats)
        return self.out_scaler.inverse(raw)

    def advance(self, t, p, y, dt, engine: InferenceEngine | None = None):
        """Apply the increment with positivity clipping and
        renormalization (DeepFlame's post-inference cleanup)."""
        dy = self.predict_delta_y(t, p, y, dt, engine=engine)
        y_new = np.clip(np.atleast_2d(y) + dy, 0.0, 1.0)
        return y_new / y_new.sum(axis=1, keepdims=True)

    def make_engine(self, precision: str = "fp32", gelu: str = "exact",
                    batch_size: int = 8192) -> InferenceEngine:
        """An :class:`InferenceEngine` over this net's weights."""
        return InferenceEngine(self.net, precision=precision, gelu=gelu,
                               batch_size=batch_size)

    # -- persistence --------------------------------------------------
    def save(self, path) -> None:
        """Store weights, scalers and trust region as one npz archive.

        The artifact a :class:`~repro.dnn.registry.ModelRegistry`
        versions; :meth:`load` restores a bit-identical surrogate.
        """
        if not self.trained:
            raise ValueError("refusing to save an untrained ODENet")
        arrays: dict = {"sizes": np.array(self.net.sizes),
                        "boxcox_lambda": np.array(self.boxcox.lam)}
        for i, lin in enumerate(self.net.linear_layers()):
            arrays[f"w{i}"] = lin.weight
            arrays[f"b{i}"] = lin.bias
        for prefix, scaler in (("in", self.in_scaler),
                               ("out", self.out_scaler)):
            st = scaler.state()
            arrays[f"{prefix}_mean"] = st["mean"]
            arrays[f"{prefix}_std"] = st["std"]
        if self.domain is not None:
            for key, val in self.domain.state().items():
                arrays[f"domain_{key}"] = val
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path, mech: Mechanism) -> "ODENet":
        """Restore an :meth:`ODENet.save` artifact for ``mech``."""
        data = np.load(path)
        sizes = tuple(int(s) for s in data["sizes"])
        if sizes[-1] != mech.n_species:
            raise ValueError(
                f"artifact has {sizes[-1]} output species, mechanism "
                f"has {mech.n_species}")
        net = cls(mech, hidden=sizes[1:-1], seed=0,
                  boxcox_lambda=float(data["boxcox_lambda"]))
        for i, lin in enumerate(net.net.linear_layers()):
            lin.weight[:] = data[f"w{i}"]
            lin.bias[:] = data[f"b{i}"]
        net.in_scaler = ZScoreScaler.from_state(
            {"mean": data["in_mean"], "std": data["in_std"]})
        net.out_scaler = ZScoreScaler.from_state(
            {"mean": data["out_mean"], "std": data["out_std"]})
        if "domain_lo" in data:
            net.domain = TrustRegion.from_state(
                {"lo": data["domain_lo"], "hi": data["domain_hi"],
                 "margin": data["domain_margin"]})
        net.trained = True
        return net
