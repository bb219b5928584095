"""Domain-decomposed execution.

Runs the DeepFlame loop over ``P`` partitioned subdomains the way the
paper runs it over MPI ranks: each rank owns a contiguous block of
cells plus a one-cell ghost (halo) layer, assembles its equations on
the local-plus-halo mesh, and the Krylov solves become global systems
whose matvecs trigger halo exchanges and whose dot products /
convergence checks go through ``comm.allreduce``.  The step is written
once, over the ranks a communicator endpoint hosts (``comm.ranks``):
all ``P`` in process over a ``SimulatedComm``, or one per forked worker
over a ``SharedMemComm`` (``execution="parallel"``).  Every message
lands in the :class:`~repro.runtime.comm.CommLedger`, so the
strong-scaling benches can report *measured* communication volumes
next to the alpha-beta cost model.

Layers:

* :mod:`.decompose` -- :class:`Decomposition` / :class:`Subdomain`:
  per-rank local meshes with halo cells and symmetric exchange maps;
* :mod:`.halo` -- :class:`HaloExchanger`: packed, blocking
  ghost-layer refreshes of the hosted ranks;
* :mod:`.rank_operator` -- :class:`RankOperator`: one rank's
  communication-free kernel (row split, interior/boundary matvec,
  owned-block symmetry check);
* :mod:`.krylov` -- :class:`DistributedSystem`: the hosted ranks'
  LDU blocks (halo-exchanging matvec + allreduce reductions) fed to
  the *unmodified* blocked Krylov solvers, one blocking collective
  per reduction;
* :mod:`.solver` -- :class:`DecomposedSolver`: drives one
  :class:`~repro.core.deepflame.DeepFlameSolver` per rank through the shared
  physics stages, chemistry on the rank that owns the cells;
* :mod:`.spmd` -- ``ParallelExecutor``: forks one worker per rank,
  each stepping a :class:`DecomposedSolver` over a one-rank endpoint.
"""

__all__ = []
