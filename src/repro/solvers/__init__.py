"""Linear solvers for the FV systems: PCG, PBiCGStab and GAMG with
Jacobi / DIC / (block-)symmetric-GS preconditioning, plus blocked
multi-RHS PCG/PBiCGStab for shared-operator transport solves."""

from .blocked import (
    backend_fused_reduce,
    backend_ifused_reduce,
    backend_reductions,
    fused_pbicgstab_solve_multi,
    pbicgstab_solve_multi,
    pcg_solve_multi,
    pipelined_pcg_solve_multi,
)
from .controls import SolverControls, SolverResult
from .gamg import GAMGSolver, agglomerate
from .pbicgstab import pbicgstab_solve
from .pcg import REDUCTIONS_PER_PCG_ITER, pcg_solve
from .preconditioners import (
    CachedDICPreconditioner,
    DICPreconditioner,
    DICStructure,
    JacobiPreconditioner,
    SymGaussSeidelPreconditioner,
)
from .workspace import KrylovWorkspace

__all__ = [
    "CachedDICPreconditioner",
    "DICPreconditioner",
    "DICStructure",
    "GAMGSolver",
    "KrylovWorkspace",
    "fused_pbicgstab_solve_multi",
    "pipelined_pcg_solve_multi",
    "JacobiPreconditioner",
    "REDUCTIONS_PER_PCG_ITER",
    "SolverControls",
    "SolverResult",
    "SymGaussSeidelPreconditioner",
    "agglomerate",
    "backend_fused_reduce",
    "backend_ifused_reduce",
    "backend_reductions",
    "pbicgstab_solve",
    "pbicgstab_solve_multi",
    "pcg_solve",
    "pcg_solve_multi",
]
