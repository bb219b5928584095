"""Linear solvers for the FV systems: one blocked (multi-RHS) Krylov
family -- PCG and PBiCGStab on ``(n, k)`` blocks, ``k = 1`` for scalar
equations, synchronous and communication-avoiding variants, Jacobi-
preconditioned on every system -- plus GAMG.  The DIC and
(block-)symmetric-GS preconditioners are on no step path; tests,
benches and ablations hand them to a body through ``preconditioner=``."""

from .blocked import (
    KRYLOV_VARIANTS,
    REDUCTIONS_PER_PCG_ITER,
    LocalSystem,
    fused_pbicgstab_solve_multi,
    krylov_solve,
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
    "KRYLOV_VARIANTS",
    "KrylovWorkspace",
    "LocalSystem",
    "fused_pbicgstab_solve_multi",
    "krylov_solve",
    "pipelined_pcg_solve_multi",
    "JacobiPreconditioner",
    "REDUCTIONS_PER_PCG_ITER",
    "SolverControls",
    "SolverResult",
    "SymGaussSeidelPreconditioner",
    "agglomerate",
    "pbicgstab_solve_multi",
    "pcg_solve_multi",
]
