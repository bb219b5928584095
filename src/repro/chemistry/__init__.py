"""Detailed chemical kinetics substrate.

Species thermodynamics (NASA-7), the built-in 17-species/44-reaction
LOX/CH4 skeletal mechanism, vectorized production rates, stiff
ODE integrators and the constant-pressure reactor used for surrogate
training and accuracy references.
"""

__all__ = []
