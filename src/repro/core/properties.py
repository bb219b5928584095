"""Property evaluation paths: direct Peng-Robinson vs. PRNet.

Every evaluator exposes the three calls a solver makes: ``evaluate``,
once per time step, ``(h, p, Y) -> (rho, T, mu, alpha, cp)``;
``h_from_t`` (the initial enthalpy); and ``psi(t, p, y)``, the
compressibility ``(drho/dp)_T`` of the pressure equation.  The direct
path performs the Newton temperature inversion and cubic-EoS solves
per cell; the PRNet path is two batched MLP inferences -- the paper's
computational substitution, reproduced end to end.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..chemistry.mechanism import Mechanism
from ..constants import R_UNIVERSAL

if TYPE_CHECKING:
    from ..dnn.inference import InferenceEngine
    from ..dnn.prnet import PRNet
    from ..thermo.real_fluid import RealFluidMixture

__all__ = ["PropertySet", "DirectRealFluidProperties", "PRNetProperties",
           "IdealGasProperties"]

_log = logging.getLogger("repro.thermo")


@dataclass
class PropertySet:
    """Per-cell property arrays the transport equations consume."""

    rho: np.ndarray
    temperature: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray
    cp: np.ndarray


class DirectRealFluidProperties:
    """Iterative Peng-Robinson property evaluation (the PRNet target).

    One ``evaluate`` is one :meth:`RealFluidMixture.properties_hp`: the
    composition is converted once, each Newton sweep on T builds one
    cubic state (``a/a'/a''`` in closed form, one cubic solve, analytic
    h and cp departures), and rho, cp, mu and alpha are read off the
    last sweep's state without solving it again.
    """

    def __init__(self, mech: Mechanism, rf: RealFluidMixture | None = None):
        if rf is None:
            # the ideal-gas path never loads the cubic-EoS stack
            from ..thermo.real_fluid import RealFluidMixture

            rf = RealFluidMixture(mech)
        self.mech = mech
        self.rf = rf

    def evaluate(self, h, p, y, t_guess=None) -> PropertySet:
        props = self.rf.properties_hp(h, p, y, t_guess=t_guess)
        return PropertySet(props.rho, props.temperature, props.mu,
                           props.alpha, props.cp_mass)

    def h_from_t(self, t, p, y) -> np.ndarray:
        return self.rf.h_mass(t, p, y)

    def psi(self, t, p, y) -> np.ndarray:
        return self.rf.psi_compressibility(t, p, y)


class PRNetProperties(DirectRealFluidProperties):
    """PRNet-surrogate property evaluation: the per-step ``evaluate``
    is the networks'; ``h_from_t`` and ``psi`` stay the real-fluid
    mixture's (``rf``, by default one built on the PRNet's mechanism)."""

    def __init__(self, prnet: PRNet, rf: RealFluidMixture | None = None,
                 density_engine: InferenceEngine | None = None,
                 transport_engine: InferenceEngine | None = None):
        if not prnet.trained:
            raise ValueError("PRNet must be trained before use")
        super().__init__(prnet.mech, rf)
        self.prnet = prnet
        self.density_engine = density_engine
        self.transport_engine = transport_engine

    def evaluate(self, h, p, y, t_guess=None) -> PropertySet:
        rho, t, mu, alpha, cp = self.prnet.predict(
            h, p, y, density_engine=self.density_engine,
            transport_engine=self.transport_engine)
        return PropertySet(np.maximum(rho, 1e-3), np.maximum(t, 60.0),
                           np.maximum(mu, 1e-7), np.maximum(alpha, 1e-9),
                           np.maximum(cp, 100.0))


class IdealGasProperties:
    """Ideal-gas path (cheap; for ideal-gas comparison rows of Table 1)."""

    #: T(h) Newton cap; cells still unconverged then are reported once
    max_sweeps = 40

    def __init__(self, mech: Mechanism, mu0: float = 2e-5, pr: float = 0.7):
        self.mech = mech
        self.mu0 = mu0
        self.pr = pr

    def evaluate(self, h, p, y, t_guess=None) -> PropertySet:
        h = np.atleast_1d(np.asarray(h, dtype=float))
        y = np.atleast_2d(y)
        t = np.full(h.shape, 1000.0) if t_guess is None else \
            np.array(np.broadcast_to(t_guess, h.shape), dtype=float)
        # Cells freeze the moment *their own* relative criterion holds
        # (a batch-global criterion, or extra Newton updates on
        # already-converged cells, would make a cell's converged T
        # depend on what else shares its batch -- breaking
        # serial-vs-decomposed agreement when one rank holds a hot
        # region).
        mix = self.mech.mixture_thermo(y)   # Y is fixed across the sweeps
        tol = 1e-13 * (np.abs(h) + 1e3)
        for _ in range(self.max_sweeps):
            resid = mix.h_mass(t) - h
            done = np.abs(resid) <= tol
            if done.all():
                break
            t = np.where(done, t,
                         np.clip(t - resid / mix.cp_mass(t), 60.0, 5000.0))
        else:   # sweeps exhausted; the last update is not evaluated yet
            resid = np.abs(mix.h_mass(t) - h) / tol
            failed = ~(resid <= 1.0)
            if failed.any():
                _log.warning(
                    "IdealGasProperties.evaluate: %d of %d cells unconverged "
                    "after %d sweeps (worst relative enthalpy residual %.3e, "
                    "tol %.1e)", int(failed.sum()), failed.size,
                    self.max_sweeps, float(resid[failed].max()) * 1e-13, 1e-13)
        w = self.mech.mean_molecular_weight(y)
        p_arr = np.broadcast_to(np.asarray(p, dtype=float), t.shape)
        rho = p_arr * w / (R_UNIVERSAL * t)
        cp = mix.cp_mass(t)
        mu = self.mu0 * (t / 300.0) ** 0.7
        alpha = mu / (rho * self.pr)  # nu/Pr
        return PropertySet(rho, t, mu, alpha, cp)

    def h_from_t(self, t, p, y) -> np.ndarray:
        return self.mech.h_mass_mixture(np.atleast_1d(np.asarray(t, float)),
                                        np.atleast_2d(y))

    def psi(self, t, p, y) -> np.ndarray:
        w = self.mech.mean_molecular_weight(y)
        return w / (R_UNIVERSAL * np.maximum(t, 100.0))
