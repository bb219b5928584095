"""Real-fluid thermodynamics and transport substrate.

Peng-Robinson / SRK cubic equations of state with van der Waals mixing
rules, closed-form departure functions, high-pressure transport
correlations, and the iterative (E,p,Y) -> (rho,T,...) state solves
that PRNet is trained to replace.  One :class:`CubicState` per (T, p)
carries the composition, ``a/a'/a''`` and the cubic's root to every
quantity read at that point.
"""

__all__ = []
