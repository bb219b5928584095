"""Versioned surrogate-model registry with continual-learning retraining.

A trained :class:`~repro.dnn.odenet.ODENet` is an *artifact*: weights
plus the input/output scalers and the training-manifold metadata the
trust gate needs.  This module gives those artifacts

* a **trust region** (:class:`TrustRegion`): per-feature bounds in the
  net's *scaled* input space, recorded at fit time, that the hybrid
  backend's domain gate checks each cell against;
* a **registry** (:class:`ModelRegistry`): versioned save/load with a
  JSON manifest per version carrying lineage (parent version), the
  training configuration and a small *replay* subset of the training
  data for rehearsal during later fine-tuning;
* **incremental retraining** (:func:`retrain_incremental`): fine-tune
  an existing net on accumulated out-of-distribution cells mixed with
  the replay subset (continual-learning style), accepting the new
  weights only when held-out in-distribution error does not regress.

Layout on disk (``root/<name>/``)::

    v0001.npz   weights + scalers + trust region (ODENet.save format)
    v0001.json  manifest: version, parent, notes, training metadata
    v0001.replay.npz  optional rehearsal subset
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["TrustRegion", "ModelRegistry", "RetrainResult",
           "retrain_incremental"]


@dataclass
class TrustRegion:
    """Axis-aligned bounds on the net's scaled input features.

    Recorded at fit time from the scaled training features; a state is
    *in domain* when every scaled feature lies inside
    ``[lo - margin, hi + margin]``.  The margin (in scaled units,
    i.e. training-set standard deviations) absorbs the solver's
    between-step drift without admitting genuinely new regimes.
    """

    lo: np.ndarray
    hi: np.ndarray
    margin: float = 0.5

    @classmethod
    def fit(cls, scaled_feats: np.ndarray, margin: float = 0.5
            ) -> "TrustRegion":
        """Tight bounds of ``scaled_feats`` plus the given margin."""
        scaled_feats = np.atleast_2d(scaled_feats)
        return cls(lo=scaled_feats.min(axis=0).copy(),
                   hi=scaled_feats.max(axis=0).copy(),
                   margin=float(margin))

    def contains(self, scaled_feats: np.ndarray) -> np.ndarray:
        """Boolean per-row in-domain mask."""
        scaled_feats = np.atleast_2d(scaled_feats)
        lo = self.lo - self.margin
        hi = self.hi + self.margin
        return ((scaled_feats >= lo) & (scaled_feats <= hi)).all(axis=1)

    def distance(self, scaled_feats: np.ndarray) -> np.ndarray:
        """Per-row max excess beyond the margined bounds (0 inside)."""
        scaled_feats = np.atleast_2d(scaled_feats)
        below = (self.lo - self.margin) - scaled_feats
        above = scaled_feats - (self.hi + self.margin)
        return np.maximum(np.maximum(below, above), 0.0).max(axis=1)

    def expand(self, scaled_feats: np.ndarray) -> "TrustRegion":
        """A new region whose bounds also cover ``scaled_feats``."""
        scaled_feats = np.atleast_2d(scaled_feats)
        return TrustRegion(lo=np.minimum(self.lo, scaled_feats.min(axis=0)),
                           hi=np.maximum(self.hi, scaled_feats.max(axis=0)),
                           margin=self.margin)

    def state(self) -> dict:
        """Serializable form (see :meth:`from_state`)."""
        return {"lo": self.lo, "hi": self.hi,
                "margin": np.array(self.margin)}

    @classmethod
    def from_state(cls, state: dict) -> "TrustRegion":
        """Rebuild from :meth:`state` output (or an npz archive)."""
        return cls(lo=np.asarray(state["lo"], float),
                   hi=np.asarray(state["hi"], float),
                   margin=float(np.asarray(state["margin"])))


class ModelRegistry:
    """Versioned on-disk store of trained surrogates.

    Versions of a model name form a lineage chain: each
    :meth:`save` records its ``parent`` version in the manifest, so a
    fine-tuned checkpoint is traceable back to the base training run.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @classmethod
    def default(cls) -> "ModelRegistry":
        """The registry shipped inside the package (committed models)."""
        return cls(Path(__file__).parent / "models")

    # -- paths ---------------------------------------------------------
    def _model_dir(self, name: str) -> Path:
        return self.root / name

    def _paths(self, name: str, version: str) -> tuple[Path, Path, Path]:
        d = self._model_dir(name)
        return (d / f"{version}.npz", d / f"{version}.json",
                d / f"{version}.replay.npz")

    # -- enumeration ---------------------------------------------------
    def names(self) -> list[str]:
        """Model names present in the registry."""
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def versions(self, name: str) -> list[str]:
        """Sorted version strings of ``name`` (``v0001`` style)."""
        d = self._model_dir(name)
        if not d.is_dir():
            return []
        return sorted(p.stem for p in d.glob("v*.json"))

    def latest(self, name: str) -> str:
        """The newest version of ``name``."""
        versions = self.versions(name)
        if not versions:
            raise FileNotFoundError(
                f"no versions of model {name!r} under {self.root}")
        return versions[-1]

    def manifest(self, name: str, version: str | None = None) -> dict:
        """The JSON manifest of one version (default: latest)."""
        version = version or self.latest(name)
        _, manifest_path, _ = self._paths(name, version)
        return json.loads(manifest_path.read_text())

    def lineage(self, name: str, version: str | None = None) -> list[str]:
        """Versions from the given one back to its root ancestor."""
        version = version or self.latest(name)
        chain = [version]
        while True:
            parent = self.manifest(name, chain[-1]).get("parent")
            if parent is None:
                return chain
            chain.append(parent)

    # -- persistence ---------------------------------------------------
    def save(self, odenet, name: str, parent: str | None = None,
             train_info: dict | None = None,
             replay: "TrainingSet | None" = None) -> str:
        """Store ``odenet`` as the next version of ``name``.

        Returns the new version string.  ``replay`` (a
        :class:`~repro.dnn.dataset.TrainingSet`) is stored alongside
        for rehearsal in later incremental retraining.
        """
        versions = self.versions(name)
        next_num = 1 + (int(versions[-1][1:]) if versions else 0)
        version = f"v{next_num:04d}"
        if parent is not None and parent not in versions:
            raise ValueError(f"parent {parent!r} is not a saved version "
                             f"of {name!r} ({versions})")
        d = self._model_dir(name)
        d.mkdir(parents=True, exist_ok=True)
        weights_path, manifest_path, replay_path = self._paths(name, version)
        odenet.save(weights_path)
        manifest = {
            "name": name,
            "version": version,
            "parent": parent,
            "hidden": list(odenet.net.sizes[1:-1]),
            "n_species": odenet.mech.n_species,
            "boxcox_lambda": odenet.boxcox.lam,
            "has_replay": replay is not None,
            "train_info": train_info or {},
        }
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        if replay is not None:
            np.savez_compressed(
                replay_path, t=replay.t, p=replay.p, y=replay.y,
                delta_y=replay.delta_y, dt=np.array(replay.dt),
                z=replay.z, regime=replay.regime.astype(str))
        return version

    def load(self, name: str, mech, version: str | None = None):
        """Load one version (default: latest) as a ready ``ODENet``."""
        from .odenet import ODENet

        version = version or self.latest(name)
        weights_path, _, _ = self._paths(name, version)
        return ODENet.load(weights_path, mech)

    def load_replay(self, name: str, version: str | None = None):
        """The stored rehearsal subset of one version (or ``None``)."""
        from .dataset import TrainingSet

        version = version or self.latest(name)
        _, _, replay_path = self._paths(name, version)
        if not replay_path.exists():
            return None
        data = np.load(replay_path, allow_pickle=False)
        return TrainingSet(
            t=data["t"], p=data["p"], y=data["y"],
            delta_y=data["delta_y"], dt=float(data["dt"]), z=data["z"],
            regime=data["regime"].astype(object))


@dataclass
class RetrainResult:
    """Outcome of one :func:`retrain_incremental` call."""

    accepted: bool
    id_error_before: float
    id_error_after: float
    ood_error_before: float
    ood_error_after: float


def _max_abs_error(odenet, ts) -> float:
    """Max absolute dY prediction error of ``odenet`` on a set."""
    pred = odenet.predict_delta_y(ts.t, ts.p, ts.y, ts.dt)
    return float(np.abs(pred - ts.delta_y).max())


def retrain_incremental(
    odenet,
    ood: "TrainingSet",
    replay: "TrainingSet | None" = None,
    id_holdout: "TrainingSet | None" = None,
    epochs: int = 150,
    lr: float = 3e-4,
    batch_size: int = 64,
    seed: int = 0,
    id_regression_factor: float = 1.5,
) -> RetrainResult:
    """Fine-tune ``odenet`` on out-of-distribution samples in place.

    Continual-learning protocol: the scalers stay frozen (so the
    in-distribution feature geometry is untouched), the OOD batch is
    mixed with the stored ``replay`` subset (rehearsal against
    forgetting), and the updated weights are **rolled back** unless the
    held-out in-distribution error stays within
    ``id_regression_factor`` of its pre-retraining value.  The factor
    applies to a *max*-norm error, which any fine-tune perturbs by tens
    of percent even with full-rehearsal replay -- 1.5 keeps the ID
    error well inside the hybrid gate's ``audit_tol`` budget while
    still rejecting genuinely forgetful updates.  On acceptance the
    net's trust region is expanded to cover the OOD states.

    Returns a :class:`RetrainResult`; ``odenet`` is modified only when
    ``accepted``.
    """
    # the training stack loads here: inference never needs it
    from .training import train_mlp

    combined = ood if replay is None else ood.merge(replay)
    id_err_before = (_max_abs_error(odenet, id_holdout)
                     if id_holdout is not None else 0.0)
    ood_err_before = _max_abs_error(odenet, ood)

    snapshot = [(w.copy(), b.copy()) for w, b in
                ((l.weight, l.bias) for l in odenet.net.linear_layers())]
    feats = odenet.scaled_features(combined.t, combined.p, combined.y,
                                   combined.dt)
    targets = odenet.out_scaler.transform(combined.delta_y)
    train_mlp(odenet.net, feats, targets, epochs=epochs, lr=lr,
              batch_size=batch_size, seed=seed, lr_decay=0.995)

    id_err_after = (_max_abs_error(odenet, id_holdout)
                    if id_holdout is not None else 0.0)
    ood_err_after = _max_abs_error(odenet, ood)
    accepted = (ood_err_after < ood_err_before
                and id_err_after <= id_regression_factor * id_err_before)
    if not accepted:
        for lin, (w, b) in zip(odenet.net.linear_layers(), snapshot):
            lin.weight[:] = w
            lin.bias[:] = b
    elif odenet.domain is not None:
        odenet.domain = odenet.domain.expand(
            odenet.scaled_features(ood.t, ood.p, ood.y, ood.dt))
    return RetrainResult(accepted, id_err_before, id_err_after,
                         ood_err_before, ood_err_after)
