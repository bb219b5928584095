"""Shared-memory execution fabric: the arena and the rank-scoped comm.

This is the real-parallelism counterpart of the driver-centric
:class:`~repro.runtime.comm.SimulatedComm`.  Two pieces:

* :class:`SharedArena` -- a pool of named
  ``multiprocessing.shared_memory`` slabs with zero-copy numpy views:
  per-rank grow-on-demand *staging slabs* (two channels, so a posted
  ``iallreduce`` survives the halo exchanges of the matvec it
  overlaps) plus driver-allocated *named arrays* for field gathers and
  chemistry ``(T, p, Y)`` batches.  Created before the worker pool
  forks, the whole arena is inherited by every worker -- no pickling,
  no re-attach -- and only the creating process unlinks it.
* :class:`SharedMemComm` -- the one-hosted-rank endpoint of the
  :class:`~repro.runtime.comm.SimulatedComm` contract.  Where the
  simulated fabric hosts *all* ranks (``comm.ranks == range(P)``),
  each ``SharedMemComm`` lives in one worker and hosts one
  (``comm.ranks == (rank,)``): ``halo_exchange([outbox])`` takes the
  list-of-one ``{dst: array}`` and returns the list-of-one
  ``{src: array}`` inbox; ``allreduce(contributions)`` takes a
  leading axis of length one and returns the reduction over all ``P``
  ranks, the same value on every endpoint.  Code that iterates
  ``comm.ranks`` therefore runs unchanged on either fabric.
  Collectives run a stage -> barrier -> read -> barrier protocol on
  the arena; a barrier timeout raises ``BrokenBarrierError`` so a
  deadlocked rank fails fast instead of hanging the run.

**Ledger parity.**  Each comm accounts its own rank's traffic in a
private :class:`~repro.runtime.comm.CommLedger`: every rank charges
the point-to-point messages *it* sends and its own allreduce
contribution bytes, while rank 0 alone counts the collective-level
counters (``exchanges``, ``allreduces``, ``overlap_allreduces``).
Merging the per-rank ledgers (:meth:`CommLedger.merge`) therefore
reproduces the serial ``SimulatedComm`` ledger bitwise -- every
existing count/price test carries over.

**Reductions are bitwise-deterministic**: contributions are stacked in
rank order and reduced with the same ``sum(axis=0)`` the simulated
fabric applies, so every rank computes the identical scalar and the
Krylov iterates of an SPMD solve match the driver-executed ones bit
for bit.
"""

from __future__ import annotations

import atexit
import os
import threading
import uuid
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from .comm import CommLedger

__all__ = [
    "SharedArena",
    "SharedMemComm",
    "ShmPendingExchange",
    "ShmPendingReduce",
]

#: staging channels: point-to-point halo traffic and collective
#: reductions stage separately, so a posted iallreduce stays intact
#: across the halo exchanges of the matvec it overlaps
_CHANNELS = 2
_CH_HALO = 0
_CH_REDUCE = 1
#: max staged messages per rank per channel (neighbour count bound)
_MAX_MSGS = 128
#: header ints per message: dst, offset, ndim, shape[0:4]
_ENTRY = 7
#: header ints per (rank, channel): generation, capacity, n_msgs + table
_HDR_ROW = 3 + _MAX_MSGS * _ENTRY


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop a segment from the resource tracker.

    The arena owns segment lifetime explicitly (``close`` + atexit in
    the creating process); tracker-driven unlinking would double-free
    segments that forked workers share by inheritance and spam leak
    warnings for ones they attach by name.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _create(name: str, size: int) -> shared_memory.SharedMemory:
    shm = shared_memory.SharedMemory(name=name, create=True,
                                     size=max(int(size), 1))
    _untrack(shm)
    return shm


def _attach(name: str) -> shared_memory.SharedMemory:
    shm = shared_memory.SharedMemory(name=name)
    _untrack(shm)
    return shm


def _unlink_quiet(name: str) -> None:
    """Unlink a segment by name without re-touching the tracker.

    ``SharedMemory.unlink`` always sends an unregister message; the
    arena already unregistered at create/attach time, so that message
    would make the tracker process log a spurious ``KeyError``.
    """
    try:
        from _posixshmem import shm_unlink

        shm_unlink("/" + name)
    except FileNotFoundError:
        pass
    except ImportError:  # non-POSIX fallback: accept the tracker noise
        try:
            shared_memory.SharedMemory(name=name).unlink()
        except FileNotFoundError:
            pass


def _align(nbytes: int) -> int:
    return (int(nbytes) + 63) & ~63


class SharedArena:
    """Named shared-memory slabs with zero-copy numpy views.

    Parameters
    ----------
    n_ranks:
        Number of staging-slab owners (one per worker rank).
    name:
        Optional system-wide segment name prefix (a unique one is
        generated by default).
    initial_bytes:
        Initial capacity of each staging slab.  Slabs grow on demand:
        a rank needing more staging space creates a generation-named
        successor segment (``{name}_r{rank}c{ch}_g{gen}``) and bumps
        the generation counter in the shared header; readers attach
        newer generations lazily.

    The arena is built *before* the worker pool forks, so workers
    inherit the initial mappings directly; only generations created
    after the fork go through attach-by-name.  Only the creating
    process unlinks segments (``close`` is a no-op elsewhere).
    """

    def __init__(self, n_ranks: int, name: str | None = None,
                 initial_bytes: int = 1 << 16):
        self.n_ranks = int(n_ranks)
        self.name = name or f"repro{os.getpid():x}{uuid.uuid4().hex[:8]}"
        self._owner_pid = os.getpid()
        self._closed = False
        hdr_bytes = 8 * _HDR_ROW * self.n_ranks * _CHANNELS
        self._hdr_shm = _create(f"{self.name}h", hdr_bytes)
        self._hdr = np.ndarray((self.n_ranks, _CHANNELS, _HDR_ROW),
                               dtype=np.int64, buffer=self._hdr_shm.buf)
        self._hdr[:] = 0
        #: (rank, ch) -> (generation, SharedMemory) currently mapped here
        self._slabs: dict[tuple[int, int], tuple[int, object]] = {}
        for r in range(self.n_ranks):
            for ch in range(_CHANNELS):
                shm = _create(self._slab_name(r, ch, 0), initial_bytes)
                self._hdr[r, ch, 1] = initial_bytes
                self._slabs[(r, ch)] = (0, shm)
        self._named: dict[str, tuple[object, np.ndarray]] = {}
        atexit.register(self.close)

    # -- naming ---------------------------------------------------------
    def _slab_name(self, rank: int, ch: int, gen: int) -> str:
        return f"{self.name}r{rank}c{ch}g{gen}"

    # -- named arrays (field gathers, chemistry batches) ----------------
    def alloc(self, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """Allocate a named shared array; returns a zero-copy view.

        Must be called in the arena-owning process *before* the worker
        pool forks -- workers then reach the same memory through
        :meth:`get`.  The array is zero-initialized.
        """
        if key in self._named:
            raise KeyError(f"named array {key!r} already allocated")
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        shm = _create(f"{self.name}a{len(self._named)}", nbytes)
        arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        arr.fill(0)
        self._named[key] = (shm, arr)
        return arr

    def get(self, key: str) -> np.ndarray:
        """The named array allocated under ``key`` (zero-copy view)."""
        return self._named[key][1]

    # -- staging slabs --------------------------------------------------
    def _writable_slab(self, rank: int, ch: int, nbytes: int):
        """Rank ``rank``'s channel slab, grown if under ``nbytes``.

        Only the owning rank stages into its slab, so growth is a
        single-writer operation: create the next-generation segment,
        publish (generation, capacity) in the shared header, and leave
        old generations mapped (readers mid-attach may still hold
        views; the creator unlinks every generation at close).
        """
        hdr = self._hdr[rank, ch]
        gen, shm = self._slabs[(rank, ch)]
        if gen != hdr[0]:  # another process grew it; catch up
            gen = int(hdr[0])
            shm = _attach(self._slab_name(rank, ch, gen))
            self._slabs[(rank, ch)] = (gen, shm)
        if hdr[1] < nbytes:
            new_cap = max(int(hdr[1]) * 2, _align(nbytes), 1 << 12)
            gen += 1
            shm = _create(self._slab_name(rank, ch, gen), new_cap)
            hdr[1] = new_cap
            hdr[0] = gen
            self._slabs[(rank, ch)] = (gen, shm)
        return shm

    def _readable_slab(self, rank: int, ch: int):
        """The current generation of a rank's channel slab."""
        hdr = self._hdr[rank, ch]
        gen, shm = self._slabs[(rank, ch)]
        if gen != hdr[0]:
            gen = int(hdr[0])
            shm = _attach(self._slab_name(rank, ch, gen))
            self._slabs[(rank, ch)] = (gen, shm)
        return shm

    def stage(self, rank: int, entries, channel: int = 0) -> None:
        """Write ``[(dst, float64 array), ...]`` into a staging slab.

        Overwrites the rank's previous staging on that channel; callers
        synchronize (barrier) before readers touch it.
        """
        if len(entries) > _MAX_MSGS:
            raise ValueError(
                f"{len(entries)} staged messages exceed the "
                f"{_MAX_MSGS}-entry header table")
        arrays = []
        total = 0
        for _, a in entries:
            a = np.asarray(a, dtype=np.float64)
            if a.ndim:  # ascontiguousarray would promote 0-d to 1-d
                a = np.ascontiguousarray(a)
            if a.ndim > 4:
                raise ValueError("staged arrays support up to 4 dims")
            arrays.append(a)
            total += _align(a.nbytes)
        shm = self._writable_slab(rank, channel, total)
        hdr = self._hdr[rank, channel]
        hdr[2] = len(entries)
        off = 0
        for i, ((dst, _), a) in enumerate(zip(entries, arrays)):
            e = 3 + i * _ENTRY
            hdr[e] = int(dst)
            hdr[e + 1] = off
            hdr[e + 2] = a.ndim
            hdr[e + 3:e + 7] = list(a.shape) + [0] * (4 - a.ndim)
            view = np.ndarray(a.shape, dtype=np.float64,
                              buffer=shm.buf, offset=off)
            view[...] = a
            off += _align(a.nbytes)

    def read(self, rank: int, channel: int = 0):
        """Read a rank's staged messages as ``[(dst, array), ...]``.

        Arrays are copies: the staging slab is reused by the next
        collective, and the simulated fabric's payloads are durable --
        the copy keeps both comms' handle semantics identical.
        """
        shm = self._readable_slab(rank, channel)
        hdr = self._hdr[rank, channel]
        out = []
        for i in range(int(hdr[2])):
            e = 3 + i * _ENTRY
            ndim = int(hdr[e + 2])
            shape = tuple(int(s) for s in hdr[e + 3:e + 3 + ndim])
            view = np.ndarray(shape, dtype=np.float64, buffer=shm.buf,
                              offset=int(hdr[e + 1]))
            out.append((int(hdr[e]), view.copy()))
        return out

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment (creating process only; idempotent)."""
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        for r in range(self.n_ranks):
            for ch in range(_CHANNELS):
                for gen in range(int(self._hdr[r, ch, 0]) + 1):
                    _unlink_quiet(self._slab_name(r, ch, gen))
        # Unlink only -- the mappings themselves may still back live
        # numpy views (gather buffers a caller holds); the kernel frees
        # the memory once every process's mapping is gone.
        self._slabs.clear()
        for shm, _ in self._named.values():
            _unlink_quiet(shm.name.lstrip("/"))
        self._named.clear()
        _unlink_quiet(f"{self.name}h")

    def __enter__(self) -> "SharedArena":
        """Context-manager entry (returns the arena)."""
        return self

    def __exit__(self, *exc) -> None:
        """Unlink all segments on context exit."""
        self.close()


class ShmPendingExchange:
    """Wait handle of a posted shared-memory halo exchange.

    Mirrors :class:`~repro.runtime.comm.PendingExchange`: completes
    exactly once (double ``wait`` raises) and returns the inboxes of
    the hosted ranks -- here the list-of-one ``[{src: array}]``.
    """

    def __init__(self, comm: "SharedMemComm"):
        self._comm = comm

    def wait(self) -> list[dict[int, np.ndarray]]:
        """Complete the exchange; returns ``[{src: payload}]``."""
        if self._comm is None:
            raise RuntimeError("exchange handle already waited on")
        comm, self._comm = self._comm, None
        return [comm._collect_halo()]


class ShmPendingReduce:
    """Wait handle of a posted shared-memory allreduce."""

    def __init__(self, comm: "SharedMemComm", op: str):
        self._comm = comm
        self._op = op

    def wait(self):
        """Complete the reduction; returns the reduced payload."""
        if self._comm is None:
            raise RuntimeError("allreduce handle already waited on")
        comm, self._comm = self._comm, None
        return comm._collect_reduce(self._op)


class SharedMemComm:
    """One rank's endpoint of the shared-memory fabric.

    Implements the endpoint contract of
    :class:`~repro.runtime.comm.SimulatedComm` for exactly one hosted
    rank: ``ranks == (rank,)``, outboxes / inboxes are lists of one,
    contributions carry a leading axis of length one (any other length
    is a ``ValueError``).

    Every collective must be entered by **all ranks in the same
    order** (the SPMD contract); a rank that skips one deadlocks the
    barrier, which trips the timeout and breaks the barrier for
    everyone -- the fail-fast behaviour the CI smoke job relies on.

    Parameters
    ----------
    arena:
        The :class:`SharedArena` staging the payloads.
    rank:
        This endpoint's rank id.
    barrier:
        A ``multiprocessing.Barrier`` over ``arena.n_ranks`` parties,
        shared by all endpoints.
    timeout:
        Per-barrier timeout in seconds (deadlock guard).
    """

    def __init__(self, arena: SharedArena, rank: int, barrier,
                 timeout: float = 120.0):
        self.arena = arena
        self.rank = int(rank)
        self.ranks = (self.rank,)
        self.n_ranks = arena.n_ranks
        self._barrier = barrier
        self._timeout = float(timeout)
        self.ledger = CommLedger()

    # -- synchronization ------------------------------------------------
    def _sync(self) -> None:
        try:
            self._barrier.wait(self._timeout)
        except threading.BrokenBarrierError:
            raise threading.BrokenBarrierError(
                f"rank {self.rank}: collective barrier broken (timeout "
                f"{self._timeout}s) -- a peer died or skipped a "
                f"collective") from None

    def barrier(self) -> None:
        """A bare synchronization point (no payload, not ledgered)."""
        self._sync()

    # -- halo exchange --------------------------------------------------
    def _post_halo(self, outboxes: list[dict[int, np.ndarray]],
                   overlappable: bool) -> None:
        if len(outboxes) != 1:
            raise ValueError("need one outbox per hosted rank (one)")
        (outbox,) = outboxes
        entries = []
        for dst, payload in outbox.items():
            if not 0 <= int(dst) < self.n_ranks or int(dst) == self.rank:
                raise ValueError(
                    f"rank {self.rank} sends to invalid rank {dst}")
            payload = np.asarray(payload, dtype=np.float64)
            entries.append((int(dst), payload))
            self.ledger.charge_message(self.rank, payload.nbytes,
                                       overlappable=overlappable)
        if self.rank == 0:
            self.ledger.exchanges += 1
        self.arena.stage(self.rank, entries, channel=_CH_HALO)
        self._sync()  # all staged

    def _collect_halo(self) -> dict[int, np.ndarray]:
        inbox: dict[int, np.ndarray] = {}
        for src in range(self.n_ranks):
            if src == self.rank:
                continue
            for dst, arr in self.arena.read(src, channel=_CH_HALO):
                if dst == self.rank:
                    inbox[src] = arr
        self._sync()  # all read; slabs reusable
        return inbox

    def halo_exchange(self, outboxes: list[dict[int, np.ndarray]]
                      ) -> list[dict[int, np.ndarray]]:
        """Blocking exchange of the hosted rank's outbox.

        ``outboxes[0][q]`` is the array this rank sends to rank ``q``;
        ``result[0]`` maps each sender to the payload it sent here
        (:meth:`~repro.runtime.comm.SimulatedComm.halo_exchange` with
        one hosted rank).
        """
        self._post_halo(outboxes, overlappable=False)
        return [self._collect_halo()]

    def post_halo(self, outboxes: list[dict[int, np.ndarray]]
                  ) -> ShmPendingExchange:
        """Post the exchange nonblocking; returns a wait handle.

        Messages are ledger-tagged overlappable; the caller computes
        its interior work between post and
        :meth:`ShmPendingExchange.wait`.
        """
        self._post_halo(outboxes, overlappable=True)
        return ShmPendingExchange(self)

    # -- allreduce ------------------------------------------------------
    def _post_reduce(self, contributions: np.ndarray, overlappable: bool):
        contributions = np.asarray(contributions, dtype=np.float64)
        if contributions.ndim < 1 or contributions.shape[0] != 1:
            raise ValueError("one contribution per hosted rank (one)")
        contribution = contributions[0]
        self.ledger.allreduce_bytes += contribution.nbytes
        if self.rank == 0:
            self.ledger.allreduces += 1
            if overlappable:
                self.ledger.overlap_allreduces += 1
        self.arena.stage(self.rank, [(-1, contribution)],
                         channel=_CH_REDUCE)
        self._sync()  # all staged

    def _collect_reduce(self, op: str):
        parts = []
        for src in range(self.n_ranks):
            staged = self.arena.read(src, channel=_CH_REDUCE)
            if len(staged) != 1 or staged[0][0] != -1:
                raise RuntimeError(
                    f"rank {src} staged no allreduce contribution -- "
                    f"mismatched collective order")
            parts.append(staged[0][1])
        self._sync()  # all read
        stacked = np.stack(parts)  # rank order, as the driver stacks them
        if op == "sum":
            out = stacked.sum(axis=0)
        elif op == "max":
            out = stacked.max(axis=0)
        elif op == "min":
            out = stacked.min(axis=0)
        else:
            raise ValueError(f"unknown allreduce op {op!r}")
        return float(out) if np.ndim(out) == 0 else out

    def allreduce(self, contributions: np.ndarray, op: str = "sum"):
        """Allreduce of the hosted rank's contribution.

        ``contributions`` has shape ``(1,)`` (scalar payload -- returns
        a float) or ``(1, ...)`` (array payload).  The ranks' payloads
        are stacked in rank order and reduced along axis 0 exactly as
        :meth:`SimulatedComm.allreduce` reduces its ``(n_ranks, ...)``
        payload, so the result is the same on every endpoint and
        bitwise equal to the driver-executed one.
        """
        self._post_reduce(contributions, overlappable=False)
        return self._collect_reduce(op)

    def iallreduce(self, contributions: np.ndarray,
                   op: str = "sum") -> ShmPendingReduce:
        """Post an allreduce nonblocking; returns a wait handle.

        Tagged overlappable in the ledger; halo exchanges may run
        between post and wait (the channels stage separately), which is
        exactly what the pipelined PCG does.
        """
        self._post_reduce(contributions, overlappable=True)
        return ShmPendingReduce(self, op)
