"""Homogeneous constant-pressure reactor.

This plays the role Cantera plays in the paper: the trusted direct
integration of the detailed mechanism that (a) generates ODENet
training data and (b) serves as the accuracy reference ("Cantara" in
the paper's Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jacobian import AnalyticJacobian
from .kinetics import KineticsEvaluator
from .mechanism import Mechanism
from .ode import BDFIntegrator, WorkCounters

__all__ = ["ReactorKernel", "ReactorState", "ConstantPressureReactor",
           "premixed_state", "mixture_line"]


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


class ReactorKernel:
    """The constant-pressure reactor RHS and its Jacobian over packed
    ``(k, 1+ns)`` state rows ``(T, Y...)`` -- the one chemistry kernel
    the reference reactor, the per-cell BDF loop and the batched
    Heun/RODAS3 backend all integrate; a single cell is a batch of one.

    The kinetics see ``max(T, t_floor)`` and ``Y`` clipped to ``[0, 1]``.
    :meth:`jacobian` differentiates that clamped function analytically
    (:class:`~repro.chemistry.jacobian.AnalyticJacobian`) where the
    mechanism vectorizes, and takes the batched finite-difference sweep
    (:meth:`fd_jacobian`) where it does not (non-integer orders).
    """

    def __init__(self, mech: Mechanism, t_floor: float):
        self.t_floor = t_floor
        self.kinetics = KineticsEvaluator(mech)
        self._ajac = AnalyticJacobian(mech, t_floor=t_floor) \
            if self.kinetics._vector_ok else None

    def rhs(self, states: np.ndarray, p: np.ndarray) -> np.ndarray:
        """``d(T, Y)/dt`` of every row, ``(k, 1+ns)``; ``p`` is ``(k,)``."""
        temp = np.maximum(states[:, 0], self.t_floor)
        y = np.clip(states[:, 1:], 0.0, 1.0)
        dtdt, dydt = self.kinetics.constant_pressure_rhs(temp, p, y)
        return np.concatenate((dtdt[:, None], dydt), axis=1)

    def jacobian(self, states: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Jacobians ``(k, 1+ns, 1+ns)`` of :meth:`rhs`, one per row."""
        if self._ajac is None:
            return self.fd_jacobian(states, p)
        return self._ajac.jacobian_packed(states, p)

    def fd_jacobian(self, states: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Forward-difference Jacobians: one :meth:`rhs` call on all
        ``k * (m+1)`` perturbed states."""
        k, m = states.shape
        eps = np.sqrt(np.finfo(float).eps)
        dy = eps * np.maximum(np.abs(states), 1e-8)  # (k, m)
        big = np.repeat(states[:, None, :], m + 1, axis=1)  # (k, m+1, m)
        idx = np.arange(m)
        big[:, 1 + idx, idx] += dy
        f = self.rhs(big.reshape(k * (m + 1), m),
                     np.repeat(p, m + 1)).reshape(k, m + 1, m)
        # J[c, i, j] = (f_i(s + dy_j e_j) - f_i(s)) / dy_j
        return (f[:, 1:, :] - f[:, :1, :]).transpose(0, 2, 1) / dy[:, None, :]

    def one_cell(self, pressure: float):
        """``(f(t, s), J(t, s))`` of one cell at ``pressure``, in
        :class:`~repro.chemistry.ode.BDFIntegrator`'s form: batch-of-one
        calls of :meth:`rhs` and :meth:`jacobian`."""
        p1 = np.array([pressure])
        return (lambda _t, s: self.rhs(s[None], p1)[0],
                lambda _t, s: self.jacobian(s[None], p1)[0])


class ConstantPressureReactor:
    """Adiabatic constant-pressure reactor advanced with the BDF solver
    on the batch-of-one closures of its :class:`ReactorKernel`."""

    #: Temperature clamp of the reactor RHS (and of its Jacobian).
    T_FLOOR = 150.0

    def __init__(self, mech: Mechanism, rtol: float = 1e-8,
                 atol: float = 1e-12):
        self.mech = mech
        self.kernel = ReactorKernel(mech, self.T_FLOOR)
        self.rtol = rtol
        self.atol = atol
        self.last_work: WorkCounters | None = None

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
        fun, jac = self.kernel.one_cell(state.pressure)
        solver = BDFIntegrator(fun, jac=jac, rtol=self.rtol, atol=self.atol)
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
