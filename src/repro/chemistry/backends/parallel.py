"""Process-parallel execution of a batched chemistry backend.

Chemistry dominates the per-step cost of a reacting solve and is
embarrassingly parallel across cells, so
:class:`ParallelChemistryBackend` wraps any inner
:class:`~repro.chemistry.backends.ChemistryBackend` and fans each
``advance`` batch out over a persistent forked worker pool
(:class:`~repro.runtime.executor.WorkerPool`): the ``(T, p, Y)`` batch
travels through a :class:`~repro.runtime.shm.SharedArena` (zero-copy
shared-memory arrays, no pickling of cell state), each worker advances
a strided chunk with its own copy-on-write copy of the inner backend,
and the driver merges the per-chunk statistics.

**Determinism.**  Chunks are strided (``cells[w::W]``) and every chunk
row carries its original cell id into the inner backend's
``cell_ids``, so sampling decisions keyed on cell identity (the hybrid
backend's spot audits, :mod:`repro.runtime.seeding`) pick the same
cells for any worker count -- including ``W = 1`` and the unwrapped
serial backend.  The direct backend classifies and integrates cells
independently, so a chunked advance agrees with the serial one to
roundoff; it is usually bitwise-identical, but BLAS kernels pick
batch-shape-dependent summation orders, so the guarantee is
``<= 1e-12`` relative agreement, not equality.

The pool and arena are built lazily at the first ``advance`` (sized to
that batch) and rebuilt only if a later batch outgrows the capacity --
a rebuild re-forks the workers, which restarts their advance counters
and is the one event that can shift subsequent audit sampling relative
to an uninterrupted serial run (cumulative gate counters and buffered
OOD states are preserved across it).
"""

from __future__ import annotations

import time

import numpy as np

from ...runtime.executor import WorkerPool
from ...runtime.shm import SharedArena
from .base import BackendStats, ChemistryBackend

__all__ = ["ParallelChemistryBackend"]


class _ChunkWorker:
    """Worker-side handler: advances one strided chunk per call."""

    def __init__(self, inner: ChemistryBackend, arena: SharedArena,
                 worker_id: int, n_workers: int):
        self.inner = inner
        self.arena = arena
        self.worker_id = worker_id
        self.n_workers = n_workers

    def advance_chunk(self, n: int, dt: float):
        """Advance rows ``worker_id::n_workers`` of the staged batch."""
        idx = np.arange(self.worker_id, n, self.n_workers)
        a = self.arena
        y = a.get("y")[idx].copy()
        t = a.get("t")[idx].copy()
        p = a.get("p")[idx].copy()
        ids = a.get("ids")[idx].copy()
        y_new, t_new, stats = self.inner.advance(y, t, p, dt,
                                                 cell_ids=ids)
        a.get("y_out")[idx] = y_new
        a.get("t_out")[idx] = t_new
        return stats

    def drain_ood(self):
        """Drain the worker copy's OOD buffer (``None`` if empty)."""
        drain = getattr(self.inner, "drain_ood", None)
        return drain() if drain is not None else None

    def ood_size(self) -> int:
        """Buffered OOD states held by the worker copy."""
        return int(getattr(self.inner, "ood_size", 0))


class ParallelChemistryBackend(ChemistryBackend):
    """Fan a batched chemistry backend out over forked workers.

    Parameters
    ----------
    inner:
        The backend each worker runs (direct, hybrid, surrogate, ...).
        The driver keeps it as an un-advanced template (used for
        ``work_estimate`` and attribute delegation); each worker owns
        a forked copy.
    workers:
        Worker-process count (>= 2).
    base_seed:
        Per-worker numpy seeding root (forwarded to the pool).
    timeout:
        Seconds to wait for any worker reply before failing the run.
    """

    name = "parallel"

    def __init__(self, inner: ChemistryBackend, workers: int,
                 base_seed: int = 0, timeout: float = 600.0):
        if workers < 2:
            raise ValueError("ParallelChemistryBackend needs >= 2 workers "
                             "(use the inner backend directly otherwise)")
        self.inner = inner
        self.n_workers = int(workers)
        self.base_seed = int(base_seed)
        self.timeout = float(timeout)
        self.name = f"parallel[{inner.name}]"
        #: cumulative gate counters merged from the per-chunk stats
        #: (mirrors the inner hybrid backend's ``counters`` contract)
        self.counters: dict[str, int] = {}
        self._pool: WorkerPool | None = None
        self._arena: SharedArena | None = None
        self._capacity = 0
        #: OOD states rescued from workers at a capacity rebuild
        self._ood_stash: list[tuple] = []

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self, n: int, n_species: int) -> None:
        if self._pool is not None and n <= self._capacity:
            return
        if self._pool is not None:
            # rescue worker state the rebuild would drop
            for ood in self._pool.broadcast("drain_ood"):
                if ood is not None:
                    self._ood_stash.append(ood)
            self.close()
        cap = max(n, 2 * self._capacity)
        arena = SharedArena(self.n_workers, initial_bytes=1 << 12)
        arena.alloc("t", (cap,))
        arena.alloc("p", (cap,))
        arena.alloc("y", (cap, n_species))
        arena.alloc("t_out", (cap,))
        arena.alloc("y_out", (cap, n_species))
        arena.alloc("ids", (cap,), dtype=np.int64)
        inner, n_workers = self.inner, self.n_workers

        def factory(w: int) -> _ChunkWorker:
            return _ChunkWorker(inner, arena, w, n_workers)

        self._pool = WorkerPool(self.n_workers, factory,
                                base_seed=self.base_seed,
                                timeout=self.timeout)
        self._arena = arena
        self._capacity = cap

    def close(self) -> None:
        """Shut the pool down and unlink the arena (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        self._capacity = 0

    def __enter__(self) -> "ParallelChemistryBackend":
        """Context-manager entry (returns the backend)."""
        return self

    def __exit__(self, *exc) -> None:
        """Release the pool and arena on context exit."""
        self.close()

    def __del__(self):  # best-effort; arena atexit + daemonic workers
        try:
            self.close()
        except Exception:
            pass

    # -- backend API ----------------------------------------------------
    def work_estimate(self, y, t, p, dt) -> np.ndarray:
        """The inner backend's estimate (evaluated on the template)."""
        return self.inner.work_estimate(y, t, p, dt)

    def advance(self, y, t, p, dt, cell_ids=None):
        """Advance the batch across the worker pool.

        Returns ``(Y_new, T_new, stats)``; ``stats`` carries the
        reassembled per-cell work, summed operation counts and gate
        counters, one sub-batch entry per worker chunk, and each
        chunk's own stats under ``per_backend``.
        """
        y, t, p = self._as_batch(y, t, p, dt)
        n = t.shape[0]
        ids = (np.arange(n, dtype=np.int64) if cell_ids is None
               else np.asarray(cell_ids, dtype=np.int64))
        t0 = time.perf_counter()
        self._ensure_pool(n, y.shape[1])
        a = self._arena
        a.get("y")[:n] = y
        a.get("t")[:n] = t
        a.get("p")[:n] = p
        a.get("ids")[:n] = ids
        chunk_stats = self._pool.broadcast("advance_chunk", n, dt)
        y_new = a.get("y_out")[:n].copy()
        t_new = a.get("t_out")[:n].copy()
        stats = self._merge_stats(n, chunk_stats)
        stats.wall_time = time.perf_counter() - t0
        for key, val in stats.gate.items():
            self.counters[key] = self.counters.get(key, 0) + val
        return y_new, t_new, stats

    def _merge_stats(self, n: int, chunk_stats: list) -> BackendStats:
        work = np.zeros(n)
        merged = BackendStats(backend=self.name, n_cells=n,
                              work_per_cell=work)
        for w, st in enumerate(chunk_stats):
            idx = np.arange(w, n, self.n_workers)
            work[idx] = st.work_per_cell
            merged.rhs_evals += st.rhs_evals
            merged.jac_evals += st.jac_evals
            merged.linear_solves += st.linear_solves
            merged.sub_batches.append(
                (f"worker{w}", int(idx.size), int(st.total_work)))
            merged.per_backend[f"worker{w}"] = st
            for key, val in st.gate.items():
                merged.gate[key] = merged.gate.get(key, 0) + val
        return merged

    # -- OOD buffer (hybrid-compatible surface) -------------------------
    @property
    def ood_size(self) -> int:
        """Buffered OOD states across all worker copies (plus stash)."""
        stashed = sum(b[0].size for b in self._ood_stash)
        if self._pool is None:
            return stashed
        return stashed + sum(self._pool.broadcast("ood_size"))

    def drain_ood(self):
        """Pop every worker's buffered OOD states as ``(T, p, Y)``."""
        batches = list(self._ood_stash)
        self._ood_stash = []
        if self._pool is not None:
            batches += [b for b in self._pool.broadcast("drain_ood")
                        if b is not None]
        if not batches:
            return None
        return (np.concatenate([b[0] for b in batches]),
                np.concatenate([b[1] for b in batches]),
                np.vstack([b[2] for b in batches]))

    def __getattr__(self, item):
        """Delegate read-only attributes to the inner template backend
        (``split_mask``, ``stiffness_indicator``, thresholds, ...)."""
        if item.startswith("_"):
            raise AttributeError(item)
        return getattr(self.__dict__["inner"], item)
