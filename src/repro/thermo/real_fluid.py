"""Real-fluid mixture state solves.

Combines the ideal-gas NASA-7 thermodynamics of the mechanism with the
cubic-EoS departure functions into the property evaluations DeepFlame
needs each time step -- and that PRNet is trained to shortcut:

* ``(T, p, Y) -> rho, h, cp, mu, alpha``  (direct evaluation)
* ``(e or h, p, Y) -> T, rho, ...``       (the implicit solve PRNet
  replaces; a Newton iteration on temperature)

Every entry point builds one :class:`~repro.thermo.cubic_eos.CubicState`
per distinct ``(T, p)`` -- one composition per call for the EoS and
transport, ``a/a'/a''`` and one cubic solve per temperature -- and
reads all of rho, h, cp and psi off it.  The Newton loop of the
``(h, p, Y)`` solve hands its last state to the property bundle, so
``properties_hp`` solves the cubic once per sweep and never again.

``psi_compressibility`` keeps its
:class:`~repro.thermo.cubic_eos.Composition` with a copy of the mass
fractions it came from (their non-zero columns: 2 of 17 on a
non-reacting CH4/O2 case), and the other entry points hand it out again
while their ``y`` equals that copy element for element: a step's psi
and the next step's properties read the same ``Y``, so it is converted
once.  A ``y`` written in place or restored since misses and is
converted afresh.  Only psi keeps one, and only the others look: the
step changes ``Y`` between the properties and psi, so a copy kept by
the one or a lookup by the other would never be read.

The transport and ideal-gas kernels behind these entry points evaluate
only the species present in the batch (exact, because each of their
species sums runs in one fixed order; see
:mod:`repro.thermo.transport`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..chemistry.mechanism import Mechanism, present_species
from .cubic_eos import Composition, CubicEos, CubicState, PengRobinson
from .departure import state_cp_departure, state_enthalpy_departure
from .transport import TransportModel

__all__ = ["RealFluidProperties", "RealFluidMixture"]

_log = logging.getLogger("repro.thermo")


@dataclass
class RealFluidProperties:
    """Bundle of per-cell real-fluid properties (the PRNet outputs)."""

    rho: np.ndarray
    temperature: np.ndarray
    cp_mass: np.ndarray
    h_mass: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray


class RealFluidMixture:
    """Peng-Robinson real-fluid mixture over a mechanism's species set."""

    def __init__(self, mech: Mechanism, eos: CubicEos | None = None):
        self.mech = mech
        self.eos = eos if eos is not None else PengRobinson(mech.species)
        self.transport = TransportModel(mech)
        # psi's composition, with the columns of its y that hold a
        # species (the others are zero) and their values
        self._kept: tuple[np.ndarray, np.ndarray, Composition] | None = None

    def _composition(self, y: np.ndarray) -> Composition:
        """The composition of 2-D ``y``: the kept one when ``y`` equals
        its mass fractions element for element, else a fresh one."""
        if self._kept is not None:
            on, cols, comp = self._kept
            if (y.shape == (len(cols), on.size)
                    and np.array_equal(present_species(y), on)
                    and np.array_equal(y[:, on], cols)):
                return comp
        return self.eos.composition(y)

    # -- one state per (T, p); everything below reads it -----------------
    def _state_tp(self, t, p, comp: Composition, order: int = 2) -> CubicState:
        state = self.eos.state(t, comp, order=order)
        self.eos.solve_density(state, p)
        return state

    def _h(self, state: CubicState, mix) -> np.ndarray:
        return (mix.h_mass(state.t)
                + state_enthalpy_departure(state) / state.comp.w_mix)

    def _cp(self, state: CubicState, mix) -> np.ndarray:
        return (mix.cp_mass(state.t)
                + state_cp_departure(state) / state.comp.w_mix)

    def _properties(self, state: CubicState, mix, h=None) -> RealFluidProperties:
        if h is None:
            h = self._h(state, mix)
        cp = self._cp(state, mix)
        mu, lam = self.transport.from_mole_fractions(
            state.t, state.rho, state.comp.x, state.comp.w_mix)
        return RealFluidProperties(state.rho, state.t, cp, h, mu,
                                   lam / (state.rho * cp))

    # ----------------------------------------------------------------
    def h_mass(self, t, p, y) -> np.ndarray:
        """Real-fluid specific enthalpy [J/kg] at (T, p, Y)."""
        y = np.atleast_2d(y)
        return self._h(self._state_tp(t, p, self._composition(y), order=1),
                       self.mech.mixture_thermo(y))

    def cp_mass(self, t, p, y) -> np.ndarray:
        """Real-fluid specific heat [J/(kg K)] at (T, p, Y)."""
        y = np.atleast_2d(y)
        return self._cp(self._state_tp(t, p, self._composition(y)),
                        self.mech.mixture_thermo(y))

    def properties_tp(self, t, p, y) -> RealFluidProperties:
        """All properties from (T, p, Y) -- the PRNet training target."""
        y = np.atleast_2d(y)
        return self._properties(
            self._state_tp(t, p, self._composition(y)),
            self.mech.mixture_thermo(y))

    # ----------------------------------------------------------------
    def _solve_t(self, h_target, p, y, t_guess=None, tol=1e-8, max_iter=50):
        """Newton on T at fixed (p, Y); returns ``(state, h, mix)`` at the
        final temperatures -- on convergence the loop's own last
        evaluation, so the caller never solves that cubic (nor contracts
        the ideal-gas mixture coefficients ``mix``) again."""
        h_target = np.atleast_1d(np.asarray(h_target, dtype=float))
        comp = self._composition(y)
        mix = self.mech.mixture_thermo(y)
        t = (
            np.full(h_target.shape, 1000.0)
            if t_guess is None
            else np.array(np.broadcast_to(t_guess, h_target.shape), dtype=float)
        )
        t_lo = np.full_like(t, 60.0)
        t_hi = np.full_like(t, 5000.0)
        h_scale = tol * np.maximum(np.abs(h_target), 1e3)
        # Cells freeze the moment *their own* criterion holds (instead
        # of iterating everyone until the slowest cell converges): a
        # cell's converged T then depends only on its own state, never
        # on what else shares the batch -- which is what keeps serial
        # and decomposed property evaluations in agreement.
        for _ in range(max_iter):
            state = self._state_tp(t, p, comp)
            h = self._h(state, mix)
            resid = h - h_target
            done = np.abs(resid) <= h_scale
            if done.all():
                return state, h, mix
            cp = np.maximum(self._cp(state, mix), 50.0)
            above = resid > 0
            t_hi = np.where(above & ~done, np.minimum(t_hi, t), t_hi)
            t_lo = np.where(~above & ~done, np.maximum(t_lo, t), t_lo)
            t_new = t - resid / cp
            # Fall back to bisection when Newton leaves the bracket.
            bad = (t_new <= t_lo) | (t_new >= t_hi)
            t_new = np.where(bad, 0.5 * (t_lo + t_hi), t_new)
            t = np.where(done, t, t_new)
        # Sweeps exhausted: the last update has not been evaluated yet.
        state = self._state_tp(t, p, comp)
        h = self._h(state, mix)
        resid = np.abs(h - h_target)
        failed = ~(resid <= h_scale)
        if failed.any():
            _log.warning(
                "temperature_from_h: %d of %d cells unconverged after %d "
                "sweeps (worst relative enthalpy residual %.3e, tol %.1e)",
                int(failed.sum()), failed.size, max_iter,
                float(np.max(resid[failed] / h_scale[failed]) * tol), tol)
        return state, h, mix

    def temperature_from_h(
        self,
        h_target: np.ndarray,
        p,
        y,
        t_guess: np.ndarray | None = None,
        tol: float = 1e-8,
        max_iter: int = 50,
    ) -> np.ndarray:
        """Solve T from specific enthalpy at fixed (p, Y) via Newton.

        This is the per-cell iterative solve whose cost PRNet removes.
        Newton with the real cp as the slope, safeguarded by bisection
        bounds; converges in a handful of iterations for flame states.
        Cells still outside ``tol`` after ``max_iter`` sweeps are
        reported once on the ``repro.thermo`` logger (a warning, not an
        error: the returned temperatures are the last iterate).
        """
        y = np.atleast_2d(y)
        return self._solve_t(h_target, p, y, t_guess, tol, max_iter)[0].t

    def properties_hp(self, h, p, y, t_guess=None) -> RealFluidProperties:
        """All properties from (h, p, Y): the full PRNet-replaced path."""
        y = np.atleast_2d(y)
        state, h_found, mix = self._solve_t(h, p, y, t_guess)
        return self._properties(state, mix, h_found)

    def psi_compressibility(self, t, p, y) -> np.ndarray:
        """psi = (d rho / d p)_T [s^2/m^2], used by the pressure equation.

        Keeps its composition with a copy of the non-zero columns of
        ``y`` for the next call on an equal ``y``; it never looks one up
        itself, since a step calls it on a ``Y`` the transport has just
        changed."""
        y = np.atleast_2d(y)
        comp = self.eos.composition(y)
        on = present_species(y)
        self._kept = (on, y[:, on], comp)      # a boolean index copies
        return self._state_tp(t, p, comp, order=0).drho_dp()
