"""Linear solvers for the FV systems: one blocked (multi-RHS) Krylov
family -- PCG and PBiCGStab on ``(n, k)`` blocks, ``k = 1`` for scalar
equations, one blocking collective per reduction, Jacobi-preconditioned
on every system -- plus GAMG.  The DIC and
(block-)symmetric-GS preconditioners are on no step path; tests,
benches and ablations hand them to a body through ``preconditioner=``."""

__all__ = []
