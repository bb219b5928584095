"""Ghost-layer refreshes of the ranks a communicator endpoint hosts.

A *refresh* overwrites the halo rows of every hosted rank with the
owning rank's current values.  The exchanger serves the subdomains of
``comm.ranks`` -- all ``P`` over a
:class:`~repro.runtime.comm.SimulatedComm`, one over a
:class:`~repro.runtime.shm.SharedMemComm` worker endpoint -- so the
same packing runs in both execution modes.  All fields passed to one
:meth:`HaloExchanger.refresh` call are packed into a single message
per neighbour pair (the standard MPI aggregation that keeps the
per-step message count at ``O(neighbours)`` instead of
``O(neighbours x fields)``), and each message is accounted in the
communicator's ledger.  A refresh is blocking: pack, exchange,
unpack.
"""

from __future__ import annotations

import numpy as np

from .decompose import Decomposition

__all__ = ["HaloExchanger"]


class HaloExchanger:
    """Fills halo rows of per-rank cell arrays from their owners.

    ``comm`` is any endpoint of the hosted-ranks contract (see
    :class:`~repro.runtime.comm.SimulatedComm`); every ``per_rank``
    argument below carries one entry per rank of ``comm.ranks``, in
    that order.
    """

    def __init__(self, decomp: Decomposition, comm):
        if comm.n_ranks != decomp.nparts:
            raise ValueError(
                f"communicator has {comm.n_ranks} ranks for "
                f"{decomp.nparts} subdomains")
        self.decomp = decomp
        self.comm = comm
        self.subs = [decomp.subdomains[r] for r in comm.ranks]

    def _pack(self, per_rank):
        """Normalize the field lists and build per-rank outboxes."""
        fields = [[a] if isinstance(a, np.ndarray) else list(a)
                  for a in per_rank]
        if len(fields) != len(self.subs):
            raise ValueError("need one entry per hosted rank")
        widths = [int(np.prod(a.shape[1:], dtype=int)) for a in fields[0]]
        outboxes = [
            {q: np.concatenate(
                [a[sidx].reshape(sidx.size, -1) for a in arrays], axis=1)
             for q, sidx in sub.send.items()}
            for sub, arrays in zip(self.subs, fields)]
        return fields, widths, outboxes

    def _unpack(self, fields, widths, inboxes) -> None:
        """Scatter received payloads into the hosted ranks' ghost rows."""
        for sub, arrays, inbox in zip(self.subs, fields, inboxes):
            for q, payload in inbox.items():
                ridx = sub.recv[q]
                col = 0
                for a, w in zip(arrays, widths):
                    chunk = payload[:, col:col + w]
                    a[ridx] = chunk.reshape((ridx.size,) + a.shape[1:])
                    col += w

    def refresh(self, per_rank) -> None:
        """Refresh the ghost layer of one or more cell fields.

        ``per_rank[i]`` is either a single local array (shape
        ``(n_local, ...)``) or a list of local arrays for the ``i``-th
        hosted rank; each rank must pass the same number of fields.  Arrays are
        updated in place; one packed message flows per neighbour pair.
        """
        fields, widths, outboxes = self._pack(per_rank)
        self._unpack(fields, widths, self.comm.halo_exchange(outboxes))
