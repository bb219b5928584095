"""Departure functions for the generalized cubic equation of state.

Real-fluid enthalpy and heat capacity are the ideal-gas (NASA-7) values
plus a departure, both in closed form from one
:class:`~repro.thermo.cubic_eos.CubicState` (per mole; the
mass-specific callers divide by the mixture molecular weight).  With
``d = sqrt(u^2 - 4 w)`` (PR: u=2, w=-1, d = 2 sqrt(2)) and
``L = ln[(2v + b(u+d)) / (2v + b(u-d))]``:

    h  - h_ig  = p v - R T + (T a' - a) / (b d) * L
    cp - cp_ig = T a'' / (b d) * L - T (dp/dT)_v^2 / (dp/dv)_T - R

The first cp term is the cv departure (``T`` times the volume integral
of ``(d2p/dT2)_v``), the second is ``cp - cv`` from the triple-product
rule; ``a'`` and ``a''`` are the mixture attraction's exact temperature
derivatives (:meth:`CubicEos.attraction`), so no finite difference and
no step size is involved.
"""

from __future__ import annotations

import numpy as np

from ..constants import R_UNIVERSAL
from .cubic_eos import CubicState

__all__ = ["state_enthalpy_departure", "state_cp_departure"]


def state_enthalpy_departure(state: CubicState) -> np.ndarray:
    """Molar enthalpy departure h - h_ig [J/mol] of a state with ``rho``.

    The pressure is the state's own (evaluated from ``T, rho``), so the
    departure is consistent with the density it is given even when that
    density is not an exact root of the cubic.
    """
    return (state.pressure() * state.v - R_UNIVERSAL * state.t
            + (state.t * state.da_dt - state.a) * state.log_term_over_bd)


def state_cp_departure(state: CubicState) -> np.ndarray:
    """Molar cp departure cp - cp_ig [J/(mol K)] of a state with ``rho``."""
    return (state.t * state.d2a_dt2 * state.log_term_over_bd
            - state.t * state.dp_dt() ** 2 / state.dp_dv()
            - R_UNIVERSAL)
