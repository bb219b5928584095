"""Unstructured-mesh substrate with OpenFOAM-style face addressing.

Box (TGV) and synthetic rocket-combustor generators, cell-connectivity
graphs, Cuthill-McKee renumbering and runtime 2x2x2 refinement.
"""

__all__ = []
