"""Shared read-only resources for same-case ensemble instances.

Running N instances of the same case in one process does not need N
meshes, N mechanisms or N assembly workspaces.  Geometry, kinetics
data, the CSR sparsity pattern, the cached preconditioner structure
and the equation/Krylov buffers are either read-only with respect to a
time step or zeroed/refilled/value-refreshed per use, so one copy can
back every instance (the instances step strictly sequentially --
see :mod:`repro.orchestrate.ensemble`).  Only the *state* an instance
evolves (velocity, pressure, mass fractions, temperature, enthalpy,
density, flux) is private, which is what :func:`clone_case` gives each
instance: fresh state arrays over the shared mesh and mechanism.

:func:`nbytes_deep` measures what the sharing saves.  It walks an
object graph counting every distinct numpy buffer once (views resolve
to their base allocation), and accepts a caller-owned visited set so
an ensemble-wide scan charges each shared array to the first owner
that reaches it.
"""

from __future__ import annotations

import types
from collections import deque

import numpy as np
import scipy.sparse as sp

from ..core.cases import Case
from ..core.properties import DirectRealFluidProperties
from ..fv.fields import VolField
from ..fv.workspace import EquationWorkspace

__all__ = ["CaseCache", "SharedResources", "clone_case", "nbytes_deep"]


def clone_case(case: Case, name: str) -> Case:
    """A per-instance clone of ``case``: fresh state, shared backing.

    The clone owns copies of the initial fields and keeps the
    prototype's mesh, mechanism and boundary-condition factories by
    identity.
    """
    vel = VolField(case.velocity.name, case.mesh,
                   case.velocity.values.copy(),
                   boundary=dict(case.velocity.boundary))
    p = VolField(case.pressure.name, case.mesh,
                 case.pressure.values.copy(),
                 boundary=dict(case.pressure.boundary))
    return Case(
        name, case.mesh, case.mech, vel, p,
        np.asarray(case.mass_fractions, dtype=float).copy(),
        np.asarray(case.temperature, dtype=float).copy(),
        case.y_boundary, case.t_boundary)


class SharedResources:
    """One case's shareable backing objects, built once.

    Holds the prototype :class:`~repro.core.cases.Case` plus the three
    heavyweight objects every same-case instance can share by
    identity: the mesh/mechanism pair (via the prototype), one
    property evaluator, and one
    :class:`~repro.fv.workspace.EquationWorkspace` (CSR pattern,
    LDU/source buffers, cached preconditioners, Krylov vector pool).

    Parameters
    ----------
    case:
        The prototype case; its mesh and mechanism back every clone.
    properties:
        Optional shared property evaluator; defaults to one
        :class:`~repro.core.properties.DirectRealFluidProperties`
        over the prototype's mechanism.
    """

    def __init__(self, case: Case, properties=None):
        self.prototype = case
        self.mesh = case.mesh
        self.mech = case.mech
        self.properties = properties if properties is not None \
            else DirectRealFluidProperties(case.mech)
        self.workspace = EquationWorkspace(case.mesh)

    @property
    def pattern(self):
        """The shared CSR sparsity pattern (owned by the workspace)."""
        return self.workspace.pattern

    def make_case(self, name: str) -> Case:
        """A fresh per-instance clone of the prototype case."""
        return clone_case(self.prototype, name)

    def nbytes(self, seen: set | None = None) -> int:
        """Deep byte count of the shared objects (see
        :func:`nbytes_deep`)."""
        return nbytes_deep(self, seen=seen)


class CaseCache:
    """Keyed registry of :class:`SharedResources`.

    Each key's builder runs exactly once; later lookups return the
    same resources object, which is how every instance of one case
    ends up sharing a single mesh, mechanism and workspace.
    """

    def __init__(self):
        self.entries: dict[str, SharedResources] = {}

    def get(self, key: str, builder=None,
            properties=None) -> SharedResources:
        """The resources for ``key``, building them on first use.

        ``builder`` is a zero-argument case factory; it is required
        (and called) only when ``key`` is not cached yet.
        """
        if key not in self.entries:
            if builder is None:
                raise KeyError(
                    f"no cached case under {key!r} and no builder given")
            self.entries[key] = SharedResources(
                builder(), properties=properties)
        return self.entries[key]

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` has been built already."""
        return key in self.entries

    def __len__(self) -> int:
        """Number of distinct cached cases."""
        return len(self.entries)


#: leaf types that hold no referrable buffers
_ATOMIC = (str, bytes, int, float, complex, bool, type(None))
#: container types walked element-wise
_CONTAINERS = (list, tuple, set, frozenset, deque)
#: callables / namespaces never walked into (hooks may close over
#: other instances; following them would corrupt the accounting)
_OPAQUE = (types.ModuleType, types.FunctionType, types.MethodType,
           types.BuiltinFunctionType, type)


def nbytes_deep(obj, seen: set | None = None) -> int:
    """Bytes of numpy storage reachable from ``obj``, counted once.

    Walks ``__dict__``/``__slots__`` attributes, dict values and the
    standard containers; numpy views resolve to their base allocation
    so aliased slices are not double-counted; scipy sparse matrices
    contribute their ``data``/``indices``/``indptr`` triplets.

    ``seen`` is the visited-id set.  Passing the same set across calls
    makes the count *incremental*: objects already reached by an
    earlier call contribute zero, which is how the ensemble memory
    report attributes shared arrays to the shared pool and charges
    each instance only its exclusive state.
    """
    seen = set() if seen is None else seen
    total = 0
    stack = [obj]
    while stack:
        o = stack.pop()
        oid = id(o)
        if oid in seen:
            continue
        seen.add(oid)
        if isinstance(o, np.ndarray):
            base = o
            while isinstance(base.base, np.ndarray):
                base = base.base
            if base is o:
                total += base.nbytes
            elif id(base) not in seen:
                seen.add(id(base))
                total += base.nbytes
            continue
        if isinstance(o, _ATOMIC):
            continue
        if isinstance(o, dict):
            stack.extend(o.values())
            continue
        if isinstance(o, _CONTAINERS):
            stack.extend(o)
            continue
        if sp.issparse(o):
            stack.extend(getattr(o, name) for name
                         in ("data", "indices", "indptr") if hasattr(o, name))
            continue
        if isinstance(o, _OPAQUE):
            continue
        d = getattr(o, "__dict__", None)
        if d is not None:
            stack.append(d)
        for slot in getattr(type(o), "__slots__", ()) or ():
            if hasattr(o, slot):
                stack.append(getattr(o, slot))
    return total
