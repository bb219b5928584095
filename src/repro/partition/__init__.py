"""Graph partitioning substrate (SCOTCH substitute).

Multilevel recursive bisection with heavy-edge-matching coarsening and
FM refinement, over the CSR cell graph.  The process-level
decomposition built on it is :class:`repro.dist.decompose.Decomposition`.
"""

__all__ = []
