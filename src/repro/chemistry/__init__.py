"""Detailed chemical kinetics substrate.

Species thermodynamics (NASA-7), the built-in 17-species/44-reaction
LOX/CH4 skeletal mechanism, vectorized production rates, stiff
ODE integrators and the constant-pressure reactor used for surrogate
training and accuracy references.
"""

from .jacobian import AnalyticJacobian
from .kinetics import KineticsEvaluator
from .mechanism import Mechanism
from .ode import BDFIntegrator, WorkCounters, rodas3_batch
from .rates import Arrhenius, Reaction, TroeParams
from .reactor import (
    ConstantPressureReactor,
    ReactorKernel,
    ReactorState,
    mixture_line,
    premixed_state,
)
from .species import Nasa7Poly, Species, fit_nasa7

# Imported after the leaf modules: the backends subpackage reaches into
# repro.dnn, which itself imports chemistry submodules.
from .backends import (  # noqa: E402
    FLOPS_PER_WORK_UNIT,
    TRUST_GATE_MODES,
    BackendStats,
    ChemistryBackend,
    DirectBatchBackend,
    HybridBackend,
    PerCellBDFBackend,
    SurrogateBackend,
)


def load_mechanism(name: str = "lox_ch4_17sp") -> Mechanism:
    """Load a built-in mechanism by name."""
    if name in ("lox_ch4_17sp", "lox_ch4_17sp_44rxn"):
        from .data.lox_ch4_17sp import build_mechanism

        return build_mechanism()
    raise KeyError(f"unknown mechanism {name!r}")


__all__ = [
    "AnalyticJacobian",
    "Arrhenius",
    "BDFIntegrator",
    "BackendStats",
    "ChemistryBackend",
    "DirectBatchBackend",
    "FLOPS_PER_WORK_UNIT",
    "HybridBackend",
    "PerCellBDFBackend",
    "SurrogateBackend",
    "TRUST_GATE_MODES",
    "ConstantPressureReactor",
    "KineticsEvaluator",
    "Mechanism",
    "Nasa7Poly",
    "Reaction",
    "ReactorKernel",
    "ReactorState",
    "Species",
    "TroeParams",
    "WorkCounters",
    "fit_nasa7",
    "load_mechanism",
    "mixture_line",
    "premixed_state",
    "rodas3_batch",
]
