"""The paper's primary contribution: the DeepFlame solver coupling
implicit FV transport with ODENet chemistry and PRNet real-fluid
properties, plus the TGV / rocket case builders."""

from .cases import (
    Case,
    build_hotspot_tgv_case,
    build_rocket_case,
    build_tgv_case,
)
from .chemistry_source import (
    BackendChemistry,
    NoChemistry,
)
from .deepflame import DeepFlameSolver, StepDiagnostics, StepTimings
from .settings import (
    CHEMISTRY_MODES,
    TRUST_GATE_MODES,
    SolverSettings,
    build_chemistry,
    build_solver,
)
from .properties import (
    DirectRealFluidProperties,
    IdealGasProperties,
    PRNetProperties,
    PropertySet,
)

__all__ = [
    "BackendChemistry",
    "CHEMISTRY_MODES",
    "Case",
    "DeepFlameSolver",
    "DirectRealFluidProperties",
    "IdealGasProperties",
    "NoChemistry",
    "PRNetProperties",
    "PropertySet",
    "SolverSettings",
    "StepDiagnostics",
    "StepTimings",
    "TRUST_GATE_MODES",
    "build_chemistry",
    "build_hotspot_tgv_case",
    "build_rocket_case",
    "build_solver",
    "build_tgv_case",
]
