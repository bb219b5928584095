"""Unstructured-mesh substrate with OpenFOAM-style face addressing.

Box (TGV) and synthetic rocket-combustor generators, the CSR
cell-connectivity graph and Cuthill-McKee renumbering.  Runtime 2x2x2
refinement is ``BoxSpec.refined(levels).build()``.
"""

__all__ = []
