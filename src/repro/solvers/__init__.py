"""Linear solvers for the FV systems: one blocked (multi-RHS) Krylov
family -- PCG and PBiCGStab on ``(n, k)`` blocks, ``k = 1`` for scalar
equations, synchronous and communication-avoiding variants -- plus
GAMG, with Jacobi / DIC / (block-)symmetric-GS preconditioning."""

from .blocked import (
    REDUCTIONS_PER_PCG_ITER,
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
    "pbicgstab_solve_multi",
    "pcg_solve_multi",
]
