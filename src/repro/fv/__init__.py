"""Finite-volume discretization substrate (the OpenFOAM role).

Cell fields with boundary conditions, implicit fvm operators (ddt, div,
laplacian, Sp) returning LDU equations, explicit fvc operators
(div, grad, laplacian) and the conflict-avoiding two-phase parallel
assembly of Sec. 3.2.4.
"""

__all__ = []
