"""Shared-memory execution fabric: the arena and the rank-scoped comm.

This is the real-parallelism counterpart of the driver-centric
:class:`~repro.runtime.comm.SimulatedComm`.  Two pieces:

* :class:`SharedArena` -- a pool of named
  ``multiprocessing.shared_memory`` segments with zero-copy numpy
  views: per-rank grow-on-demand *staging slabs* (two parities per
  rank) and one segment of per-rank *sequence counters*.  Created
  before the worker pool forks, the whole arena is inherited by every
  worker -- no pickling, no re-attach -- and only the creating process
  unlinks it.
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

**The protocol: one flag write and one flag wait per collective.**
Every collective is blocking, and halo exchanges and allreduces share
one sequence: rank ``r``'s ``g``-th collective stages its payload into
parity ``g & 1`` of its slab, then stores ``g`` into its counter
(*publish*).  Completing it waits until every peer's counter is at
least ``g`` and reads the peers' parity-``g & 1`` slabs.  No second
synchronization guards slab reuse: a rank restages parity ``g & 1``
only at collective ``g + 2``, after its wait on ``g + 1`` -- which
needs every peer to have published ``g + 1``, and a peer publishes
``g + 1`` only after it has finished reading ``g``.  A reader checks
that each peer staged the same kind of collective (an allreduce
stages one entry addressed to ``-1``, a halo exchange none), so ranks
that disagree on the collective sequence break the arena instead of
reading each other's payloads as their own.  An endpoint whose wait
raised refuses every later collective (``RuntimeError``): its
sequence is no longer its peers'.

**Memory ordering.**  The protocol assumes that the payload and header
stores of a post become visible to the other processes no later than
the counter store that follows them, and that a reader's slab loads
are not satisfied ahead of the counter load that admitted them.
x86-64's total store order gives both (CPython issues the stores in
program order); a weakly ordered CPU would need a fence between stage
and publish.

**Failure.**  A wait polls the peers' counters :data:`_SPINS` times,
then yields the core (``os.sched_yield``) between polls.  Past the
endpoint's ``timeout`` it sets the arena's shared *broken* word and
raises ``BrokenBarrierError``; every rank waiting anywhere on the
arena sees the word and raises too, so a dead or skipping rank fails
every rank fast instead of hanging the run.

**Ledger parity.**  Each comm accounts its own rank's traffic in a
private :class:`~repro.runtime.comm.CommLedger`: every rank charges
the point-to-point messages *it* sends and its own allreduce
contribution bytes, while rank 0 alone counts the collective-level
counters (``exchanges``, ``allreduces``).
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
import time
import uuid
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from .comm import CommLedger

__all__ = ["SharedArena", "SharedMemComm"]

#: staging buffers per rank: collective g stages into g & 1
_PARITIES = 2
#: max staged messages per rank (neighbour count bound)
_MAX_MSGS = 128
#: header ints per message: dst, offset, ndim, shape[0:4]
_ENTRY = 7
#: the destination an allreduce contribution is staged to
_REDUCE_DST = -1
#: header ints per (rank, parity): generation, capacity, n_msgs + table
_HDR_ROW = 3 + _MAX_MSGS * _ENTRY
#: int64 words per 64-byte line: each sequence counter owns one line
_LINE = 8
#: counter polls before a waiting rank starts yielding its core
_SPINS = 100


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
        successor segment (``{name}r{rank}p{parity}g{gen}``) and bumps
        the generation counter in the shared header; readers attach
        newer generations lazily.

    Besides the slabs and their header table, indexed ``(rank,
    parity)``, the arena holds :attr:`seq`, the ``(n_ranks,)``
    sequence counters (each on its own 64-byte line), and
    :attr:`broken`, the one-word flag a timed-out wait raises for
    every rank.

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
        shape = (self.n_ranks, _PARITIES)
        self._hdr_shm = _create(f"{self.name}h",
                                8 * _HDR_ROW * int(np.prod(shape)))
        self._hdr = np.ndarray(shape + (_HDR_ROW,), dtype=np.int64,
                               buffer=self._hdr_shm.buf)
        self._hdr[:] = 0
        n_flags = self.n_ranks + 1
        self._flag_shm = _create(f"{self.name}s", 8 * _LINE * n_flags)
        flags = np.ndarray((n_flags, _LINE), dtype=np.int64,
                           buffer=self._flag_shm.buf)
        flags[:] = 0
        #: ``seq[rank]``: the last collective that rank published
        self.seq = flags[:-1, 0]
        #: ``broken[0]`` is set once any rank's wait timed out
        self.broken = flags[-1, :1]
        #: (rank, parity) -> (generation, SharedMemory) mapped here
        self._slabs: dict[tuple[int, int], tuple[int, object]] = {}
        for key in np.ndindex(*shape):
            self._slabs[key] = (0, _create(self._slab_name(*key, 0),
                                           initial_bytes))
            self._hdr[key][1] = initial_bytes
        atexit.register(self.close)

    # -- naming ---------------------------------------------------------
    def _slab_name(self, rank: int, parity: int, gen: int) -> str:
        return f"{self.name}r{rank}p{parity}g{gen}"

    # -- staging slabs --------------------------------------------------
    def _slab(self, key: tuple[int, int]):
        """The current generation of one staging slab, mapped here."""
        gen, shm = self._slabs[key]
        if gen != self._hdr[key][0]:  # another process grew it; catch up
            gen = int(self._hdr[key][0])
            shm = _attach(self._slab_name(*key, gen))
            self._slabs[key] = (gen, shm)
        return shm

    def _writable_slab(self, key: tuple[int, int], nbytes: int):
        """The slab at ``key``, grown if under ``nbytes``.

        Only the owning rank stages into its slab, so growth is a
        single-writer operation: create the next-generation segment,
        publish (generation, capacity) in the shared header, and leave
        old generations mapped (readers mid-attach may still hold
        views; the creator unlinks every generation at close).
        """
        shm = self._slab(key)
        hdr = self._hdr[key]
        if hdr[1] < nbytes:
            gen = int(hdr[0]) + 1
            new_cap = max(int(hdr[1]) * 2, _align(nbytes), 1 << 12)
            shm = _create(self._slab_name(*key, gen), new_cap)
            hdr[1] = new_cap
            hdr[0] = gen
            self._slabs[key] = (gen, shm)
        return shm

    def stage(self, rank: int, entries, parity: int = 0) -> None:
        """Write ``[(dst, float64 array), ...]`` into a staging slab.

        Overwrites the rank's previous staging in that parity's buffer;
        the caller publishes it (sequence counter) before readers touch
        it.
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
        key = (rank, parity)
        shm = self._writable_slab(key, total)
        hdr = self._hdr[key]
        hdr[2] = len(entries)
        off = 0
        for i, ((dst, _), a) in enumerate(zip(entries, arrays)):
            e = 3 + i * _ENTRY
            hdr[e:e + _ENTRY] = ((int(dst), off, a.ndim) + a.shape
                                 + (0,) * (4 - a.ndim))
            np.ndarray(a.shape, dtype=np.float64, buffer=shm.buf,
                       offset=off)[...] = a
            off += _align(a.nbytes)

    def views(self, rank: int, parity: int = 0):
        """A rank's staged messages as ``[(dst, array view), ...]``.

        The views alias the slab, which the rank restages two
        collectives later: copy what must outlive the collective.
        """
        key = (rank, parity)
        shm = self._slab(key)
        hdr = self._hdr[key]
        n = int(hdr[2])
        out = []
        for dst, off, ndim, *shape in \
                hdr[3:3 + n * _ENTRY].reshape(n, _ENTRY).tolist():
            out.append((dst, np.ndarray(tuple(shape[:ndim]),
                                        dtype=np.float64, buffer=shm.buf,
                                        offset=off)))
        return out

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment (creating process only; idempotent)."""
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        for key in self._slabs:
            for gen in range(int(self._hdr[key][0]) + 1):
                _unlink_quiet(self._slab_name(*key, gen))
        # Unlink only -- the mappings themselves may still back live
        # numpy views a caller holds (:meth:`views`); the kernel frees
        # the memory once every process's mapping is gone.
        self._slabs.clear()
        _unlink_quiet(f"{self.name}h")
        _unlink_quiet(f"{self.name}s")

    def __enter__(self) -> "SharedArena":
        """Context-manager entry (returns the arena)."""
        return self

    def __exit__(self, *exc) -> None:
        """Unlink all segments on context exit."""
        self.close()


class SharedMemComm:
    """One rank's endpoint of the shared-memory fabric.

    Implements the endpoint contract of
    :class:`~repro.runtime.comm.SimulatedComm` for exactly one hosted
    rank: ``ranks == (rank,)``, outboxes / inboxes are lists of one,
    contributions carry a leading axis of length one (any other length
    is a ``ValueError``).

    Every collective is one publish (its sequence counter) and one
    wait (on the peers' counters) -- no global rendezvous.  Every
    collective must be entered by **all ranks in the same order** (the
    SPMD contract); a rank that skips one leaves its peers waiting on
    its counter, which trips the timeout and breaks the arena for
    everyone -- the fail-fast behaviour the CI smoke job relies on.

    Parameters
    ----------
    arena:
        The :class:`SharedArena` staging the payloads.
    rank:
        This endpoint's rank id.
    timeout:
        Longest wait on a peer's counter, in seconds (deadlock guard).
    """

    def __init__(self, arena: SharedArena, rank: int,
                 timeout: float = 120.0):
        self.arena = arena
        self.rank = int(rank)
        self.ranks = (self.rank,)
        self.n_ranks = arena.n_ranks
        self._timeout = float(timeout)
        self._peers = [q for q in range(self.n_ranks) if q != self.rank]
        #: this rank's last published collective, and whether it has
        #: not completed (its wait raised)
        self._gen = int(arena.seq[self.rank])
        self._open = False
        self.ledger = CommLedger()

    # -- synchronization ------------------------------------------------
    def _broken(self, why: str) -> threading.BrokenBarrierError:
        return threading.BrokenBarrierError(
            f"rank {self.rank}: collective barrier broken ({why}) -- a "
            f"peer died or skipped a collective")

    def _wait(self, g: int) -> None:
        """Wait until every peer published collective ``g`` (the one
        flag wait)."""
        seq = self.arena.seq
        for src in self._peers:
            if seq[src] >= g:
                continue
            for _ in range(_SPINS):
                if seq[src] >= g:
                    break
            else:
                deadline = time.monotonic() + self._timeout
                while seq[src] < g:
                    if self.arena.broken[0]:
                        raise self._broken("a peer's wait timed out")
                    if time.monotonic() > deadline:
                        self.arena.broken[0] = 1
                        raise self._broken(f"timeout {self._timeout}s")
                    os.sched_yield()

    def _collective(self, entries) -> dict[int, list]:
        """This rank's next collective: stage ``entries`` and publish
        them (the one flag write), wait for every peer's, and return
        each peer's staged ``[(dst, view), ...]`` by rank.  A peer that
        staged the other kind of collective breaks the arena."""
        if self._open:
            raise RuntimeError(
                f"rank {self.rank}: collective {self._gen} did not "
                f"complete -- this endpoint cannot enter another")
        g = self._gen + 1
        self.arena.stage(self.rank, entries, parity=g & 1)
        self.arena.seq[self.rank] = g
        self._gen = g
        self._open = True
        self._wait(g)
        staged = {src: self.arena.views(src, g & 1) for src in self._peers}
        kind = _is_reduce(entries)
        for src, views in staged.items():
            if _is_reduce(views) != kind:
                self.arena.broken[0] = 1
                raise self._broken(f"rank {src} entered another kind of "
                                   f"collective {g}")
        self._open = False
        return staged

    # -- halo exchange --------------------------------------------------
    def halo_exchange(self, outboxes: list[dict[int, np.ndarray]]
                      ) -> list[dict[int, np.ndarray]]:
        """Blocking exchange of the hosted rank's outbox.

        ``outboxes[0][q]`` is the array this rank sends to rank ``q``;
        ``result[0]`` maps each sender to the payload it sent here
        (:meth:`~repro.runtime.comm.SimulatedComm.halo_exchange` with
        one hosted rank).
        """
        if len(outboxes) != 1:
            raise ValueError("need one outbox per hosted rank (one)")
        (outbox,) = outboxes
        entries = []
        for dst, payload in outbox.items():
            if not 0 <= int(dst) < self.n_ranks or int(dst) == self.rank:
                raise ValueError(
                    f"rank {self.rank} sends to invalid rank {dst}")
            entries.append((int(dst), np.asarray(payload, dtype=np.float64)))
        staged = self._collective(entries)
        for dst, payload in entries:
            self.ledger.charge_message(self.rank, payload.nbytes)
        if self.rank == 0:
            self.ledger.exchanges += 1
        return [{src: view.copy()
                 for src, views in staged.items()
                 for dst, view in views if dst == self.rank}]

    # -- allreduce ------------------------------------------------------
    def allreduce(self, contributions: np.ndarray, op: str = "sum"):
        """Allreduce of the hosted rank's contribution.

        ``contributions`` has shape ``(1,)`` (scalar payload -- returns
        a float) or ``(1, ...)`` (array payload).  The ranks' payloads
        are stacked in rank order and reduced along axis 0 exactly as
        :meth:`SimulatedComm.allreduce` reduces its ``(n_ranks, ...)``
        payload, so the result is the same on every endpoint and
        bitwise equal to the driver-executed one.
        """
        contributions = np.asarray(contributions, dtype=np.float64)
        if contributions.ndim < 1 or contributions.shape[0] != 1:
            raise ValueError("one contribution per hosted rank (one)")
        contribution = contributions[0]
        staged = self._collective([(_REDUCE_DST, contribution)])
        self.ledger.allreduce_bytes += contribution.nbytes
        if self.rank == 0:
            self.ledger.allreduces += 1
        # rank order, as the driver stacks them; np.stack copies out of
        # the slabs before anything can restage them
        stacked = np.stack([contribution if src == self.rank
                            else staged[src][0][1]
                            for src in range(self.n_ranks)])
        if op == "sum":
            out = stacked.sum(axis=0)
        elif op == "max":
            out = stacked.max(axis=0)
        elif op == "min":
            out = stacked.min(axis=0)
        else:
            raise ValueError(f"unknown allreduce op {op!r}")
        return float(out) if np.ndim(out) == 0 else out


def _is_reduce(staged) -> bool:
    """Whether staged entries are an allreduce contribution (one entry
    to :data:`_REDUCE_DST`) rather than a halo exchange's outbox."""
    return len(staged) == 1 and staged[0][0] == _REDUCE_DST
