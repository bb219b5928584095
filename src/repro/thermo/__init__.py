"""Real-fluid thermodynamics and transport substrate.

Peng-Robinson / SRK cubic equations of state with van der Waals mixing
rules, closed-form departure functions, high-pressure transport
correlations, and the iterative (E,p,Y) -> (rho,T,...) state solves
that PRNet is trained to replace.  One :class:`CubicState` per (T, p)
carries the composition, ``a/a'/a''`` and the cubic's root to every
quantity read at that point.
"""

from .cubic_eos import (Composition, CubicEos, CubicState, PengRobinson,
                        SoaveRedlichKwong)
from .departure import (cp_departure, enthalpy_departure,
                        state_cp_departure, state_enthalpy_departure)
from .mixing import VanDerWaalsMixing
from .real_fluid import RealFluidMixture, RealFluidProperties
from .transport import TransportModel

__all__ = [
    "Composition",
    "CubicEos",
    "CubicState",
    "PengRobinson",
    "SoaveRedlichKwong",
    "VanDerWaalsMixing",
    "RealFluidMixture",
    "RealFluidProperties",
    "TransportModel",
    "cp_departure",
    "enthalpy_departure",
    "state_cp_departure",
    "state_enthalpy_departure",
]
