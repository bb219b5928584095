"""Zero-reassembly equation workspace.

One :class:`EquationWorkspace` per mesh owns every buffer the step
loop's equation assemblies and solves need:

* a persistent :class:`~repro.sparse.ldu.LDUMatrix` whose coefficient
  arrays are zeroed and refilled in place by the fused
  :func:`~repro.fv.operators.assemble_transport` pass (no
  ``fvm_ddt + fvm_div - fvm_laplacian`` temporary chain),
* per-shape source buffers -- ``(n,)`` for scalar equations, ``(n, k)``
  for the coupled species / momentum blocks,
* per-width value blocks a coupled equation's caller fills in place,
* a :class:`~repro.sparse.pattern.CSRPattern` so every LDU->CSR
  conversion is an O(nnz) value scatter,
* the cached Jacobi preconditioner, with a persistent
  reciprocal-diagonal buffer, and
* a :class:`~repro.solvers.workspace.KrylovWorkspace` vector pool for
  the Krylov solvers.

Equations returned by :meth:`transport` / :meth:`transport_multi`
borrow the workspace buffers: they are valid until the next
``transport*`` call on the same workspace, which matches the step
loop's strictly sequential assemble-solve-finish usage.  Numerically
the fused pass is bitwise identical to
:meth:`~repro.fv.operators.CoupledTransportEquation.transport` (same
implementation, different buffer source) and agrees with the scalar
operator-sum chain to rounding.
"""

from __future__ import annotations

import numpy as np

from ..backend import get_backend
from ..runtime import alloc
from ..solvers.preconditioners import CachedDICPreconditioner, \
    JacobiPreconditioner
from ..solvers.workspace import KrylovWorkspace
from ..sparse.ldu import LDUMatrix
from ..sparse.pattern import CSRPattern
from .fields import MultiVolField, SurfaceField, VolField
from .operators import CoupledTransportEquation, FVMatrix, assemble_transport

__all__ = ["EquationWorkspace"]


class EquationWorkspace:
    """Persistent assembly + solve buffers for one mesh.

    ``backend`` (a registry name or :class:`ArrayBackend`; ``None`` =
    numpy) selects the array backend the fused assembly and the
    blocked-Krylov reductions run on.  It is resolved here, once, so
    :attr:`backend` is always an :class:`ArrayBackend` and a backend
    this host cannot construct raises the registry's ``ValueError``
    before any buffer exists.
    """

    def __init__(self, mesh, backend=None):
        self.mesh = mesh
        self.backend = get_backend(backend)
        self.pattern = CSRPattern.from_mesh(mesh)
        self.ldu = LDUMatrix.from_mesh(mesh)
        self.krylov = KrylovWorkspace()
        self._sources: dict[int | None, np.ndarray] = {}
        self._values: dict[int, np.ndarray] = {}
        self._dic: CachedDICPreconditioner | None = None
        self._jacobi: JacobiPreconditioner | None = None

    # -- buffers -------------------------------------------------------
    def _buffers(self, k: int | None) -> tuple[LDUMatrix, np.ndarray]:
        """The zeroed persistent (matrix, source) pair for ``k``
        columns (``None`` = scalar equation)."""
        a = self.ldu
        a.diag[:] = 0.0
        a.lower[:] = 0.0
        a.upper[:] = 0.0
        a.invalidate_symmetry_cache()
        b = self._sources.get(k)
        if b is None:
            shape = (self.mesh.n_cells,) if k is None \
                else (self.mesh.n_cells, k)
            b = self._sources[k] = np.zeros(shape)
            alloc.count()
        else:
            b[:] = 0.0
        return a, b

    def values(self, k: int) -> np.ndarray:
        """The persistent ``(n, k)`` value block a caller fills in place."""
        if k not in self._values:
            self._values[k] = np.empty((self.mesh.n_cells, k))
            alloc.count()
        return self._values[k]

    # -- fused assemblies ----------------------------------------------
    def transport(
        self,
        field: VolField,
        rho: np.ndarray | float,
        dt: float,
        phi: SurfaceField | None = None,
        gamma: np.ndarray | float | None = None,
        rho_old: np.ndarray | float | None = None,
        old_values: np.ndarray | None = None,
        scheme: str = "upwind",
    ) -> FVMatrix:
        """Scalar ``ddt + div - laplacian`` assembled in one fused pass
        into the workspace buffers (valid until the next assembly)."""
        a, b = self._buffers(None)
        assemble_transport(a, b, field, rho, dt, phi=phi, gamma=gamma,
                           rho_old=rho_old, old_values=old_values,
                           scheme=scheme, backend=self.backend)
        return FVMatrix(field, a, b, workspace=self)

    def transport_multi(
        self,
        field: MultiVolField,
        rho: np.ndarray | float,
        dt: float,
        phi: SurfaceField | None = None,
        gamma: np.ndarray | float | None = None,
        rho_old: np.ndarray | float | None = None,
        old_values: np.ndarray | None = None,
        scheme: str = "upwind",
    ) -> CoupledTransportEquation:
        """The k-column shared-operator equation assembled into the
        workspace buffers (valid until the next assembly)."""
        a, b = self._buffers(field.k)
        assemble_transport(a, b, field, rho, dt, phi=phi, gamma=gamma,
                           rho_old=rho_old, old_values=old_values,
                           scheme=scheme, backend=self.backend)
        return CoupledTransportEquation(field, a, b, workspace=self)

    # -- cached preconditioners ----------------------------------------
    def dic(self, a: LDUMatrix) -> CachedDICPreconditioner:
        """The cached DIC, value-refreshed for ``a`` (the factor
        structure -- canonical face order + wavefront levels -- is
        computed once per workspace).

        On no step path; kept while ``bench/layers.py`` wraps it by name.
        """
        if self._dic is None:
            self._dic = CachedDICPreconditioner(a)
        else:
            self._dic.refresh(a)
        return self._dic

    def jacobi(self, a: LDUMatrix) -> JacobiPreconditioner:
        """The cached Jacobi preconditioner, refreshed for ``a``."""
        if self._jacobi is None:
            self._jacobi = JacobiPreconditioner(a)
        else:
            self._jacobi.refresh(a)
        return self._jacobi
