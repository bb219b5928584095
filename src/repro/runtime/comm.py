"""Simulated MPI communication.

Two roles:

* :class:`SimulatedComm` -- an in-process message fabric for running
  the real halo-exchange/allreduce code paths over a decomposition at
  test scale, with a ledger of message counts and volumes.  Both
  collectives, :meth:`~SimulatedComm.halo_exchange` and
  :meth:`~SimulatedComm.allreduce`, are blocking;
* :func:`halo_exchange_time` / :func:`allreduce_time` -- alpha-beta
  cost models that the performance model charges for the volumes the
  ledger (or the decomposition statistics) predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .machine import MachineSpec

__all__ = [
    "CommLedger",
    "SimulatedComm",
    "halo_exchange_time",
    "allreduce_time",
]


@dataclass
class CommLedger:
    """Accumulated communication totals, with per-source attribution.

    ``by_src`` maps a sending rank to its ``[messages, bytes]`` share
    of the point-to-point traffic; the driver-vs-worker parity checks
    compare it, so a merged per-rank ledger must attribute every
    message to the rank that sent it.
    """

    messages: int = 0
    bytes_sent: int = 0
    allreduces: int = 0
    allreduce_bytes: int = 0
    exchanges: int = 0
    by_src: dict[int, list[int]] = field(default_factory=dict)

    def reset(self) -> None:
        self.messages = self.bytes_sent = 0
        self.allreduces = self.allreduce_bytes = 0
        self.exchanges = 0
        self.by_src.clear()

    def charge_message(self, src: int, nbytes: int) -> None:
        """Record one point-to-point message sent by ``src``."""
        self.messages += 1
        self.bytes_sent += int(nbytes)
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
        for src, (msgs, nbytes) in other.by_src.items():
            per = self.by_src.setdefault(int(src), [0, 0])
            per[0] += msgs
            per[1] += nbytes
        return self

    def totals(self) -> dict:
        """Snapshot of the counters (the per-step delta base)."""
        return {"messages": self.messages, "bytes": self.bytes_sent,
                "allreduces": self.allreduces,
                "allreduce_bytes": self.allreduce_bytes,
                "exchanges": self.exchanges}

    def delta(self, before: dict) -> dict:
        """Traffic accumulated since a :meth:`totals` snapshot."""
        now = self.totals()
        return {k: now[k] - before[k] for k in now}


class SimulatedComm:
    """An in-process stand-in for an MPI communicator.

    Ranks are slots in this object; exchanges move numpy arrays between
    them synchronously (the simulation is sequential, the *pattern* is
    what is being exercised and audited).

    **The endpoint contract** (shared with
    :class:`~repro.runtime.shm.SharedMemComm`): ``ranks`` is the
    ascending tuple of rank ids this endpoint hosts -- here all ``P``
    of them, one per shared-memory endpoint.  ``halo_exchange`` takes
    one outbox per hosted rank and returns the inboxes in the same
    order; ``allreduce`` takes contributions whose leading axis is the
    hosted ranks and returns the reduction over all ``P``.  Code
    written against ``comm.ranks`` runs unchanged on either fabric.
    """

    def __init__(self, n_ranks: int):
        self.n_ranks = int(n_ranks)
        self.ranks = tuple(range(self.n_ranks))
        self.ledger = CommLedger()

    def halo_exchange(
        self, outboxes: list[dict[int, np.ndarray]]
    ) -> list[dict[int, np.ndarray]]:
        """Deliver per-rank outboxes; returns per-rank inboxes.

        ``outboxes[r][q]`` is the array rank ``r`` sends to rank ``q``;
        the result ``inboxes[q][r]`` is the same array received.
        """
        if len(outboxes) != self.n_ranks:
            raise ValueError("need one outbox per rank")
        self.ledger.exchanges += 1
        inboxes: list[dict[int, np.ndarray]] = [dict() for _ in range(self.n_ranks)]
        for src, box in enumerate(outboxes):
            for dst, payload in box.items():
                if not 0 <= dst < self.n_ranks or dst == src:
                    raise ValueError(f"rank {src} sends to invalid rank {dst}")
                inboxes[dst][src] = payload
                self.ledger.charge_message(src, payload.nbytes)
        return inboxes

    def allreduce(self, contributions: np.ndarray, op: str = "sum"):
        """Allreduce of one contribution per rank.

        ``contributions`` has shape ``(n_ranks,)`` (scalar payload, the
        historical form -- returns a float) or ``(n_ranks, ...)`` (array
        payload, e.g. the per-column partial dot products of a blocked
        distributed Krylov solve -- returns the reduced array).
        ``op`` is ``"sum"`` (default), ``"max"`` or ``"min"``; max/min
        serve distributed residual norms and field diagnostics.
        """
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
