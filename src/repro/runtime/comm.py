"""Simulated MPI communication.

Two roles:

* :class:`SimulatedComm` -- an in-process message fabric for running
  the real halo-exchange/allreduce code paths over a decomposition at
  test scale, with a ledger of message counts and volumes.  Next to
  the blocking :meth:`~SimulatedComm.halo_exchange` /
  :meth:`~SimulatedComm.allreduce` it offers *nonblocking* spellings
  (:meth:`~SimulatedComm.post_halo` /
  :meth:`~SimulatedComm.iallreduce`) that return wait handles; the
  fabric is sequential, so nonblocking here means the *pattern* --
  post, compute, wait -- is exercised and the traffic is tagged
  overlappable in the ledger, which is what the cost model needs to
  price the overlap;
* :func:`halo_exchange_time` / :func:`allreduce_time` /
  :func:`overlapped_phase_time` -- alpha-beta cost models that the
  performance model charges for the volumes the ledger (or the
  decomposition statistics) predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .machine import MachineSpec

__all__ = [
    "CommLedger",
    "PendingExchange",
    "PendingReduce",
    "SimulatedComm",
    "halo_exchange_time",
    "allreduce_time",
    "overlapped_phase_time",
]


@dataclass
class CommLedger:
    """Accumulated communication totals, with per-source attribution.

    ``by_src`` maps a sending rank to its ``[messages, bytes]`` share
    of the point-to-point traffic -- the ensemble cost report uses it
    to attribute one fabric's traffic to individual instances.

    The ``overlap_*`` counters are the *tagged subset* of the totals
    that flowed through the nonblocking spellings (``post_halo`` /
    ``iallreduce``): traffic a real machine could hide behind interior
    compute, which the cost model prices with
    :func:`overlapped_phase_time` instead of the serial sum.
    """

    messages: int = 0
    bytes_sent: int = 0
    allreduces: int = 0
    allreduce_bytes: int = 0
    exchanges: int = 0
    overlap_messages: int = 0
    overlap_bytes: int = 0
    overlap_allreduces: int = 0
    by_src: dict[int, list[int]] = field(default_factory=dict)

    def reset(self) -> None:
        self.messages = self.bytes_sent = 0
        self.allreduces = self.allreduce_bytes = 0
        self.exchanges = 0
        self.overlap_messages = self.overlap_bytes = 0
        self.overlap_allreduces = 0
        self.by_src.clear()

    def charge_message(self, src: int, nbytes: int,
                       overlappable: bool = False) -> None:
        """Record one point-to-point message sent by ``src``.

        ``overlappable`` additionally tags the message as posted
        nonblocking (counted in both the totals and the overlap
        subset).
        """
        self.messages += 1
        self.bytes_sent += int(nbytes)
        if overlappable:
            self.overlap_messages += 1
            self.overlap_bytes += int(nbytes)
        per = self.by_src.setdefault(int(src), [0, 0])
        per[0] += 1
        per[1] += int(nbytes)

    def merge(self, other: "CommLedger") -> "CommLedger":
        """Fold another ledger's counters into this one (in place).

        The reduction step of multi-process execution: each worker
        accounts its own rank's traffic in a private ledger (the
        dataclass pickles cleanly through a pipe), and the driver
        merges them back into the run's single ledger.  Counter-wise
        addition with per-source attribution preserved -- merging the
        per-rank ledgers of a :class:`~repro.runtime.shm.SharedMemComm`
        run reproduces the serial :class:`SimulatedComm` ledger
        bitwise.  Returns ``self`` for chaining over a worker list.
        """
        self.messages += other.messages
        self.bytes_sent += other.bytes_sent
        self.allreduces += other.allreduces
        self.allreduce_bytes += other.allreduce_bytes
        self.exchanges += other.exchanges
        self.overlap_messages += other.overlap_messages
        self.overlap_bytes += other.overlap_bytes
        self.overlap_allreduces += other.overlap_allreduces
        for src, (msgs, nbytes) in other.by_src.items():
            per = self.by_src.setdefault(int(src), [0, 0])
            per[0] += msgs
            per[1] += nbytes
        return self

    def src_totals(self, src: int) -> tuple[int, int]:
        """``(messages, bytes)`` sent by rank ``src`` so far."""
        per = self.by_src.get(int(src), (0, 0))
        return per[0], per[1]

    def totals(self) -> dict:
        """Snapshot of the counters (the per-step delta base)."""
        return {"messages": self.messages, "bytes": self.bytes_sent,
                "allreduces": self.allreduces,
                "allreduce_bytes": self.allreduce_bytes,
                "exchanges": self.exchanges,
                "overlap_messages": self.overlap_messages,
                "overlap_bytes": self.overlap_bytes,
                "overlap_allreduces": self.overlap_allreduces}

    def delta(self, before: dict) -> dict:
        """Traffic accumulated since a :meth:`totals` snapshot."""
        now = self.totals()
        return {k: now[k] - before[k] for k in now}


class PendingExchange:
    """Wait handle for a posted (nonblocking) halo exchange.

    The sequential fabric delivers immediately, so the handle only
    enforces the MPI discipline: the inboxes are not readable until
    :meth:`wait`, and a handle completes exactly once.
    """

    def __init__(self, inboxes: list[dict[int, np.ndarray]],
                 release=lambda: None):
        self._inboxes = inboxes
        self._release = release

    def wait(self) -> list[dict[int, np.ndarray]]:
        """Complete the exchange; returns the per-rank inboxes."""
        if self._inboxes is None:
            raise RuntimeError("exchange handle already waited on")
        inboxes, self._inboxes = self._inboxes, None
        self._release()
        return inboxes


class PendingReduce:
    """Wait handle for a posted (nonblocking) allreduce."""

    def __init__(self, value, release=lambda: None):
        self._value = value
        self._done = False
        self._release = release

    def wait(self):
        """Complete the reduction; returns the reduced payload."""
        if self._done:
            raise RuntimeError("allreduce handle already waited on")
        self._done = True
        self._release()
        return self._value


class SimulatedComm:
    """An in-process stand-in for an MPI communicator.

    Ranks are slots in this object; exchanges move numpy arrays between
    them synchronously (the simulation is sequential, the *pattern* is
    what is being exercised and audited).

    **The endpoint contract** (shared with
    :class:`~repro.runtime.shm.SharedMemComm`): ``ranks`` is the
    ascending tuple of rank ids this endpoint hosts -- here all ``P``
    of them, one per shared-memory endpoint.  ``halo_exchange`` /
    ``post_halo`` take one outbox per hosted rank and return the
    inboxes in the same order; ``allreduce`` / ``iallreduce`` take
    contributions whose leading axis is the hosted ranks and return
    the reduction over all ``P``.  Code written against ``comm.ranks``
    runs unchanged on either fabric.

    Collectives travel on two *channels*: ``halo`` (``halo_exchange``
    / ``post_halo``) and ``reduce`` (``allreduce`` / ``iallreduce``).
    A channel carries at most one open handle: a collective on a
    channel whose posted handle has not been waited on raises
    ``RuntimeError`` naming the channel.  Handles on the two channels
    may be open together -- the pipelined PCG keeps its
    ``iallreduce`` open across the matvec's halo exchanges.
    """

    def __init__(self, n_ranks: int):
        self.n_ranks = int(n_ranks)
        self.ranks = tuple(range(self.n_ranks))
        self.ledger = CommLedger()
        self._open: set[str] = set()

    def _claim(self, channel: str) -> None:
        """Refuse a collective on a channel with an open handle."""
        if channel in self._open:
            raise RuntimeError(
                f"the {channel} channel has an open handle -- wait on "
                f"it before the next {channel} collective")

    def _post(self, channel: str):
        """Mark ``channel`` open; returns the handle's release hook."""
        self._open.add(channel)
        return lambda: self._open.discard(channel)

    def _deliver(self, outboxes, overlappable: bool):
        self._claim("halo")
        if len(outboxes) != self.n_ranks:
            raise ValueError("need one outbox per rank")
        self.ledger.exchanges += 1
        inboxes: list[dict[int, np.ndarray]] = [dict() for _ in range(self.n_ranks)]
        for src, box in enumerate(outboxes):
            for dst, payload in box.items():
                if not 0 <= dst < self.n_ranks or dst == src:
                    raise ValueError(f"rank {src} sends to invalid rank {dst}")
                inboxes[dst][src] = payload
                self.ledger.charge_message(src, payload.nbytes,
                                           overlappable=overlappable)
        return inboxes

    def halo_exchange(
        self, outboxes: list[dict[int, np.ndarray]]
    ) -> list[dict[int, np.ndarray]]:
        """Deliver per-rank outboxes; returns per-rank inboxes.

        ``outboxes[r][q]`` is the array rank ``r`` sends to rank ``q``;
        the result ``inboxes[q][r]`` is the same array received.
        """
        return self._deliver(outboxes, overlappable=False)

    def post_halo(
        self, outboxes: list[dict[int, np.ndarray]]
    ) -> PendingExchange:
        """Post a halo exchange nonblocking; returns a wait handle.

        Same payloads and ledger volumes as :meth:`halo_exchange`, but
        the messages are tagged overlappable: the caller computes its
        interior work between ``post_halo`` and
        :meth:`PendingExchange.wait`, and the cost model prices the
        phase ``max(t_interior, t_exchange) + t_boundary``.
        """
        inboxes = self._deliver(outboxes, overlappable=True)
        return PendingExchange(inboxes, self._post("halo"))

    def allreduce(self, contributions: np.ndarray, op: str = "sum"):
        """Allreduce of one contribution per rank.

        ``contributions`` has shape ``(n_ranks,)`` (scalar payload, the
        historical form -- returns a float) or ``(n_ranks, ...)`` (array
        payload, e.g. the per-column partial dot products of a blocked
        distributed Krylov solve -- returns the reduced array).
        ``op`` is ``"sum"`` (default), ``"max"`` or ``"min"``; max/min
        serve distributed residual norms and field diagnostics.
        """
        self._claim("reduce")
        contributions = np.asarray(contributions, dtype=float)
        if contributions.ndim < 1 or contributions.shape[0] != self.n_ranks:
            raise ValueError("one contribution per rank")
        self.ledger.allreduces += 1
        self.ledger.allreduce_bytes += contributions.nbytes
        if op == "sum":
            out = contributions.sum(axis=0)
        elif op == "max":
            out = contributions.max(axis=0)
        elif op == "min":
            out = contributions.min(axis=0)
        else:
            raise ValueError(f"unknown allreduce op {op!r}")
        return float(out) if np.ndim(out) == 0 else out

    def iallreduce(self, contributions: np.ndarray,
                   op: str = "sum") -> PendingReduce:
        """Post an allreduce nonblocking; returns a wait handle.

        Same semantics and ledger volume as :meth:`allreduce`, tagged
        overlappable: a pipelined Krylov solver posts its fused
        reduction, runs the preconditioner and matvec while the bytes
        are "in flight", then waits.
        """
        value = self.allreduce(contributions, op=op)
        self.ledger.overlap_allreduces += 1
        return PendingReduce(value, self._post("reduce"))


# ----------------------------------------------------------------------
def halo_exchange_time(
    machine: MachineSpec,
    n_neighbours: float,
    bytes_per_neighbour: float,
) -> float:
    """Alpha-beta cost of one halo exchange per process.

    ``t = n_nbr * (alpha + V / bw_eff)``, with the node injection
    bandwidth shared by the processes on the node and derated by the
    global oversubscription factor.
    """
    bw_proc = machine.net_bw_node / (
        machine.processes_per_node * machine.net_oversubscription
    )
    return n_neighbours * (machine.net_latency + bytes_per_neighbour / bw_proc)


def allreduce_time(machine: MachineSpec, n_ranks: int, payload_bytes: float = 8.0,
                   sync_noise_per_rank: float = 3.0e-9) -> float:
    """Blocking allreduce: ``t = log2(P) (alpha + V/bw) + beta P``.

    The log-tree term is the textbook cost; the linear ``beta P`` term
    models straggler accumulation (OS noise, per-iteration load jitter)
    that every blocking collective absorbs at extreme rank counts --
    the mechanism behind the paper's strong-scaling efficiency decay
    (Fig. 13: 40.7 % mixed-FP16 at 32x on Sunway, where each step runs
    hundreds of solver reductions over ~590k ranks).
    """
    if n_ranks <= 1:
        return 0.0
    bw_proc = machine.net_bw_node / machine.processes_per_node
    tree = float(np.log2(n_ranks)) * (machine.net_latency + payload_bytes / bw_proc)
    return tree + sync_noise_per_rank * n_ranks


def overlapped_phase_time(t_compute: float, t_comm: float,
                          t_tail: float = 0.0) -> float:
    """Alpha-beta price of a communication-overlapped phase.

    A synchronous phase pays the serial sum ``t_compute + t_comm +
    t_tail``; an overlapped one posts the communication, runs the
    halo-independent compute while the bytes are in flight, and only
    the dependent tail remains serial::

        t = max(t_compute, t_comm) + t_tail

    Used for both overlap shapes in this codebase: a split matvec
    (``t_compute`` = interior rows, ``t_comm`` = halo exchange,
    ``t_tail`` = boundary rows) and a pipelined Krylov iteration
    (``t_compute`` = preconditioner + matvec, ``t_comm`` = the fused
    iallreduce, ``t_tail`` = the recurrence updates).
    """
    return max(t_compute, t_comm) + t_tail
