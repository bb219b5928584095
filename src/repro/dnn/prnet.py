"""PRNet: the real-fluid property surrogate (paper Sec. 2, Fig. 2).

Under supercritical conditions every property evaluation requires a
cubic-EoS solve plus an iterative (h, p, Y) -> T inversion; PRNet
replaces it with two MLPs:

* a density net of size (3, 1024, 512, 256, 1):
  ``(h, p, Z) -> rho``,
* a transport net of size (3, 2048, 1024, 512, 4):
  ``(h, p, Z) -> (T, mu, alpha, cp)``,

where ``Z`` is the fuel mixture fraction (carbon+hydrogen element mass
fraction), matching the paper's 3-input nets.  Training data comes
from the direct Peng-Robinson path
(:class:`repro.thermo.real_fluid.RealFluidMixture`) sampled over the
flame manifold: mixing-line compositions blended toward complete
products across a temperature sweep.
"""

from __future__ import annotations

import numpy as np

from ..chemistry.mechanism import Mechanism
from ..chemistry.reactor import mixture_line
from ..thermo.real_fluid import RealFluidMixture
from .inference import InferenceEngine
from .network import MLP
from .scaling import ZScoreScaler
from .training import TrainingHistory, train_mlp

__all__ = ["PRNet", "sample_property_manifold"]

PAPER_DENSITY_HIDDEN = (1024, 512, 256)
PAPER_TRANSPORT_HIDDEN = (2048, 1024, 512)


def sample_property_manifold(
    mech: Mechanism,
    rf: RealFluidMixture,
    pressure: float,
    n_mix: int = 24,
    n_temp: int = 24,
    t_fuel: float = 300.0,
    t_ox: float = 150.0,
    t_max: float = 3800.0,
    seed: int = 0,
):
    """Sample (h, p, Z) -> property pairs along the flame manifold.

    For each mixing-line composition a temperature sweep from the
    frozen mixing temperature to ``t_max`` is evaluated, with the
    composition relaxed toward major products as temperature rises
    (a flamelet-style manifold; the 3-input PRNet is only well-posed on
    such a manifold, exactly as in the paper's TGV configuration).
    """
    tmix, ymix = mixture_line(mech, n_mix, pressure, t_fuel=t_fuel, t_ox=t_ox)
    i_co2 = mech.species_index["CO2"]
    i_h2o = mech.species_index["H2O"]
    i_ch4 = mech.species_index["CH4"]
    i_o2 = mech.species_index["O2"]

    temps, ys = [], []
    for k in range(n_mix):
        t_lo = tmix[k]
        for temp in np.linspace(t_lo, t_max, n_temp):
            # Progress toward products increases with temperature.
            prog = np.clip((temp - t_lo) / (t_max - t_lo), 0.0, 1.0)
            y = ymix[k].copy()
            burnt = np.zeros_like(y)
            # Stoichiometric consumption of whichever reactant is limiting.
            f, o = y[i_ch4], y[i_o2]
            wf = mech.molecular_weights[i_ch4]
            wo = mech.molecular_weights[i_o2]
            react = min(f / wf, o / (2 * wo))  # mol of CH4 convertible
            burnt[i_ch4] = f - react * wf
            burnt[i_o2] = o - 2 * react * wo
            burnt[i_co2] = react * mech.molecular_weights[i_co2]
            burnt[i_h2o] = 2 * react * mech.molecular_weights[i_h2o]
            y = (1 - prog) * y + prog * burnt
            y = np.clip(y, 0.0, None)
            temps.append(temp)
            ys.append(y / y.sum())
    # one batched EoS evaluation for the whole manifold (the kernels are
    # row-independent, so this equals the per-sample calls)
    temps, ys = np.array(temps), np.array(ys)
    props = rf.properties_tp(temps, pressure, ys)
    z = mech.element_mass_fractions(ys)
    z_fuel = z[:, mech.elements.index("C")] + z[:, mech.elements.index("H")]
    feats = np.column_stack([props.h_mass, np.full(temps.shape, float(pressure)),
                             z_fuel])
    trans_t = np.column_stack([temps, props.mu, props.alpha, props.cp_mass])
    return feats, props.rho[:, None], trans_t


class PRNet:
    """Real-fluid property surrogate (density net + transport net)."""

    def __init__(self, mech: Mechanism,
                 density_hidden: tuple[int, ...] = (64, 32),
                 transport_hidden: tuple[int, ...] = (64, 64),
                 seed: int = 0):
        self.mech = mech
        self.density_net = MLP((3,) + tuple(density_hidden) + (1,), seed=seed)
        self.transport_net = MLP((3,) + tuple(transport_hidden) + (4,),
                                 seed=seed + 1)
        self.in_scaler = ZScoreScaler()
        self.rho_scaler = ZScoreScaler()
        self.trans_scaler = ZScoreScaler()
        self.trained = False

    @classmethod
    def paper_architecture(cls, mech: Mechanism, seed: int = 0) -> "PRNet":
        """(3,1024,512,256,1) density + (3,2048,1024,512,4) transport."""
        return cls(mech, density_hidden=PAPER_DENSITY_HIDDEN,
                   transport_hidden=PAPER_TRANSPORT_HIDDEN, seed=seed)

    # ----------------------------------------------------------------
    def fit(self, feats: np.ndarray, rho_targets: np.ndarray,
            transport_targets: np.ndarray, epochs: int = 600,
            lr: float = 3e-3, seed: int = 0) -> tuple[TrainingHistory, TrainingHistory]:
        """Targets are log-transformed before Z-scoring: density and the
        transport properties are positive and span decades across the
        real-fluid manifold (liquid-like to hot-gas states)."""
        self.in_scaler.fit(feats)
        self.rho_scaler.fit(np.log(np.maximum(rho_targets, 1e-6)))
        self.trans_scaler.fit(np.log(np.maximum(transport_targets, 1e-12)))
        xs = self.in_scaler.transform(feats)
        h1 = train_mlp(self.density_net, xs,
                       self.rho_scaler.transform(
                           np.log(np.maximum(rho_targets, 1e-6))),
                       epochs=epochs, lr=lr, seed=seed, lr_decay=0.997)
        h2 = train_mlp(self.transport_net, xs,
                       self.trans_scaler.transform(
                           np.log(np.maximum(transport_targets, 1e-12))),
                       epochs=epochs, lr=lr, seed=seed + 1, lr_decay=0.997)
        self.trained = True
        return h1, h2

    def fit_from_manifold(self, rf: RealFluidMixture, pressure: float,
                          **kwargs) -> tuple[TrainingHistory, TrainingHistory]:
        """Sample the real-fluid manifold at ``pressure`` and fit."""
        feats, rho_t, trans_t = sample_property_manifold(
            self.mech, rf, pressure)
        return self.fit(feats, rho_t, trans_t, **kwargs)

    # ----------------------------------------------------------------
    def features(self, h, p, y) -> np.ndarray:
        """(h, p, Z_fuel) features from state arrays."""
        h = np.atleast_1d(np.asarray(h, dtype=float))
        p = np.broadcast_to(np.asarray(p, dtype=float), h.shape)
        y = np.atleast_2d(y)
        z = self.mech.element_mass_fractions(y)
        z_fuel = z[:, self.mech.elements.index("C")] \
            + z[:, self.mech.elements.index("H")]
        return np.stack([h, p, z_fuel], axis=1)

    def predict(self, h, p, y,
                density_engine: InferenceEngine | None = None,
                transport_engine: InferenceEngine | None = None):
        """Returns ``(rho, T, mu, alpha, cp)`` arrays."""
        feats = self.in_scaler.transform(self.features(h, p, y))
        rho_raw = (density_engine.run(feats) if density_engine is not None
                   else self.density_net.forward(feats))
        tr_raw = (transport_engine.run(feats) if transport_engine is not None
                  else self.transport_net.forward(feats))
        rho = np.exp(self.rho_scaler.inverse(rho_raw))[:, 0]
        trans = np.exp(self.trans_scaler.inverse(tr_raw))
        return rho, trans[:, 0], trans[:, 1], trans[:, 2], trans[:, 3]
