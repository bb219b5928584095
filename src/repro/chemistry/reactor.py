"""Homogeneous constant-pressure reactor.

This plays the role Cantera plays in the paper: the trusted direct
integration of the detailed mechanism that (a) generates ODENet
training data and (b) serves as the accuracy reference ("Cantara" in
the paper's Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinetics import KineticsEvaluator
from .mechanism import Mechanism
from .ode import BDFIntegrator, WorkCounters

__all__ = ["ReactorState", "ConstantPressureReactor", "premixed_state", "mixture_line"]


@dataclass
class ReactorState:
    """Thermochemical state of a homogeneous reactor."""

    temperature: float
    pressure: float
    mass_fractions: np.ndarray

    def pack(self) -> np.ndarray:
        return np.concatenate(([self.temperature], self.mass_fractions))


def premixed_state(
    mech: Mechanism,
    temperature: float,
    pressure: float,
    fuel: str = "CH4",
    oxidizer: str = "O2",
    equivalence_ratio: float = 1.0,
) -> ReactorState:
    """Build a premixed fuel/oxidizer state at a given equivalence ratio.

    Stoichiometry for CH4 + 2 O2 -> CO2 + 2 H2O; mole ratio
    fuel:oxidizer = phi : 2.
    """
    x = np.zeros(mech.n_species)
    x[mech.species_index[fuel]] = equivalence_ratio
    x[mech.species_index[oxidizer]] = 2.0
    x = x / x.sum()
    y = mech.mass_fractions(x)
    return ReactorState(temperature, pressure, y)


def mixture_line(
    mech: Mechanism,
    n: int,
    pressure: float,
    t_fuel: float = 300.0,
    t_ox: float = 150.0,
    fuel: str = "CH4",
    oxidizer: str = "O2",
) -> tuple[np.ndarray, np.ndarray]:
    """States along a fuel/oxidizer mixing line (diffusion-flame style).

    Returns ``(T, Y)`` with shapes ``(n,)`` and ``(n, ns)``; index 0 is
    pure oxidizer at ``t_ox``, index -1 pure fuel at ``t_fuel``, with a
    linear mixing-temperature profile in between.  This mirrors the
    LOX/CH4 TGV initialization (O2 at 150 K, CH4 at 300 K).
    """
    z = np.linspace(0.0, 1.0, n)
    y = np.zeros((n, mech.n_species))
    y[:, mech.species_index[fuel]] = z
    y[:, mech.species_index[oxidizer]] = 1.0 - z
    t = t_ox + (t_fuel - t_ox) * z
    return t, y


class ConstantPressureReactor:
    """Adiabatic constant-pressure reactor advanced with the BDF solver.

    ``jacobian="analytic"`` swaps the batched finite-difference Newton
    matrix for the stoichiometry-assembled
    :class:`~repro.chemistry.jacobian.AnalyticJacobian`; ``"fd"``
    (default) keeps the reference finite-difference path.
    """

    #: Temperature clamp of the reactor RHS; the analytic Jacobian
    #: must differentiate the same clamped function.
    T_FLOOR = 150.0

    def __init__(self, mech: Mechanism, rtol: float = 1e-8,
                 atol: float = 1e-12, jacobian: str = "fd"):
        if jacobian not in ("analytic", "fd"):
            raise ValueError(f"unknown jacobian mode {jacobian!r}")
        self.mech = mech
        self.kinetics = KineticsEvaluator(mech)
        self.rtol = rtol
        self.atol = atol
        self.jacobian = jacobian
        if jacobian == "analytic" and self.kinetics._vector_ok:
            # mechanisms with non-integer orders take the FD columns
            from .jacobian import AnalyticJacobian

            self._ajac = AnalyticJacobian(mech, t_floor=self.T_FLOOR)
        else:
            self._ajac = None
        self.last_work: WorkCounters | None = None

    # ----------------------------------------------------------------
    def _rhs_batch(self, pressure: float, states: np.ndarray) -> np.ndarray:
        """Vectorized reactor RHS for a batch of packed states (m, 1+ns)."""
        temp = np.maximum(states[:, 0], self.T_FLOOR)
        y = np.clip(states[:, 1:], 0.0, 1.0)
        dtdt, dydt = self.kinetics.constant_pressure_rhs(
            temp, np.full(temp.shape, pressure), y
        )
        return np.concatenate((dtdt[:, None], dydt), axis=1)

    def _rhs(self, pressure: float):
        def rhs(_t: float, state: np.ndarray) -> np.ndarray:
            return self._rhs_batch(pressure, state[None, :])[0]

        return rhs

    def _jac(self, pressure: float):
        """Batched finite-difference Jacobian: one vectorized kinetics
        evaluation for all n+1 perturbed states instead of n+1 scalar
        RHS calls (the dominant cost of the direct-integration path).
        With ``jacobian="analytic"`` the FD sweep is replaced by the
        single-pass stoichiometric assembly."""
        if self._ajac is not None:
            ajac = self._ajac

            def jac_analytic(_t: float, state: np.ndarray) -> np.ndarray:
                return ajac.jacobian_packed(state[None, :],
                                            np.array([pressure]))[0]

            return jac_analytic

        def jac(_t: float, state: np.ndarray) -> np.ndarray:
            n = state.size
            eps = np.sqrt(np.finfo(float).eps)
            dy = eps * np.maximum(np.abs(state), 1e-8)
            batch = np.tile(state, (n + 1, 1))
            batch[1:] += np.diag(dy)
            f = self._rhs_batch(pressure, batch)
            return (f[1:] - f[0]).T / dy

        return jac

    def advance(
        self,
        state: ReactorState,
        dt: float,
        n_out: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance the reactor by ``dt`` seconds.

        Returns ``(ts, temperatures, mass_fractions)``; mass fractions
        are renormalized at output.  Work counters from the solve are
        stored in :attr:`last_work`.
        """
        solver = BDFIntegrator(
            self._rhs(state.pressure),
            jac=self._jac(state.pressure),
            rtol=self.rtol,
            atol=self.atol,
        )
        dense = np.linspace(0.0, dt, n_out) if n_out else None
        ts, ys = solver.solve((0.0, dt), state.pack(), dense_ts=dense)
        self.last_work = solver.work
        temps = ys[:, 0]
        yfr = np.clip(ys[:, 1:], 0.0, None)
        yfr = yfr / yfr.sum(axis=1, keepdims=True)
        return ts, temps, yfr

    def ignition_delay(
        self, state: ReactorState, t_end: float, criterion: str = "max_dTdt"
    ) -> float:
        """Ignition delay time [s] from the maximum-dT/dt criterion."""
        ts, temps, _ = self.advance(state, t_end)
        if criterion == "max_dTdt":
            dtdt = np.gradient(temps, ts)
            return float(ts[int(np.argmax(dtdt))])
        if criterion == "T_rise":
            target = temps[0] + 400.0
            idx = np.argmax(temps >= target)
            return float(ts[idx]) if temps[idx] >= target else float(t_end)
        raise ValueError(f"unknown criterion {criterion!r}")

    # ----------------------------------------------------------------
    def sample_training_pairs(
        self,
        initial_states: list[ReactorState],
        dt_cfd: float,
        n_snapshots: int,
        horizon: float,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate ODENet training pairs from reactor trajectories.

        For each initial state the reactor is integrated over
        ``horizon`` seconds; ``n_snapshots`` states are sampled along
        the trajectory and each is advanced by the CFD step ``dt_cfd``
        to obtain the label.

        Returns ``(inputs, targets)`` where ``inputs[k] = (T, p, Y...)``
        and ``targets[k] = Y(t+dt) - Y(t)`` (the source-term increment
        the ODENet predicts).
        """
        rng = rng or np.random.default_rng(0)
        xs, ys = [], []
        for st in initial_states:
            ts, temps, yfr = self.advance(st, horizon)
            # Bias sampling toward the ignition transient where dT/dt
            # is largest -- uniform sampling would drown the flame zone
            # in equilibrium states.
            weights = np.abs(np.gradient(temps, np.maximum(ts, 1e-30))) + 1e-3 * (
                temps.max() - temps.min() + 1.0
            ) / max(horizon, 1e-30)
            weights = weights / weights.sum()
            idx = rng.choice(len(ts), size=min(n_snapshots, len(ts)), replace=False,
                             p=weights)
            for i in idx:
                s0 = ReactorState(float(temps[i]), st.pressure, yfr[i].copy())
                _, t1, y1 = self.advance(s0, dt_cfd)
                xs.append(np.concatenate(([s0.temperature, s0.pressure], s0.mass_fractions)))
                ys.append(y1[-1] - s0.mass_fractions)
        return np.array(xs), np.array(ys)
