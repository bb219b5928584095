"""Linear solvers for the FV systems: one blocked (multi-RHS) Krylov
family -- PCG and PBiCGStab on ``(n, k)`` blocks, ``k = 1`` for scalar
equations, one blocking collective per reduction, Jacobi-preconditioned
on every system -- plus GAMG.  The DIC and
(block-)symmetric-GS preconditioners are on no step path; tests,
benches and ablations hand them to a body through ``preconditioner=``."""

from .blocked import (
    REDUCTIONS_PER_PCG_ITER,
    LocalSystem,
    krylov_solve,
    pbicgstab_solve_multi,
    pcg_solve_multi,
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
    "LocalSystem",
    "krylov_solve",
    "JacobiPreconditioner",
    "REDUCTIONS_PER_PCG_ITER",
    "SolverControls",
    "SolverResult",
    "SymGaussSeidelPreconditioner",
    "agglomerate",
    "pbicgstab_solve_multi",
    "pcg_solve_multi",
]
