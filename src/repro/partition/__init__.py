"""Graph partitioning substrate (SCOTCH substitute).

Multilevel recursive bisection with heavy-edge-matching coarsening and
FM refinement, a two-level (process x thread) decomposition driver and
partition quality metrics.
"""

__all__ = []
