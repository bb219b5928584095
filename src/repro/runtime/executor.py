"""Persistent fork-based worker pool for shared-memory execution.

A :class:`WorkerPool` runs N long-lived worker processes, each owning
one *handler* object built in the child by a caller-supplied factory.
Because workers are forked, the factory's closure -- a decomposition,
whole instance lists, the
:class:`~repro.runtime.shm.SharedArena` -- is inherited by reference:
nothing is pickled at startup, and read-only state (mesh, mechanism,
trained nets) is shared copy-on-write across every worker.  Commands
and results flow over pipes as small picklable payloads (method name,
arguments, ledgers, diagnostics); bulk arrays travel through the
arena.

Determinism: each worker seeds numpy's global RNG from
:func:`~repro.runtime.seeding.derive_worker_seed` before the factory
runs, so legacy global-RNG consumers are reproducible per worker.
(Sampling code goes further and uses the stateless hashes in
:mod:`repro.runtime.seeding`, which do not depend on the worker at
all.)

Failure containment: a worker exception travels back as a formatted
remote traceback and re-raises driver-side as :class:`WorkerError`;
every receive has a timeout, so a deadlocked or dead worker fails the
run fast instead of hanging it (the CI smoke job's contract).
"""

from __future__ import annotations

import multiprocessing as mp
import traceback

import numpy as np

from .seeding import derive_worker_seed

__all__ = ["WorkerError", "WorkerPool"]


class WorkerError(RuntimeError):
    """A worker raised (carries the remote traceback) or went silent."""


def _worker_main(worker_id: int, factory, conn, base_seed: int) -> None:
    """Child entry point: build the handler, then serve commands."""
    np.random.seed(derive_worker_seed(base_seed, worker_id) % (2 ** 32))
    try:
        handler = factory(worker_id)
        conn.send(("ok", None))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if msg is None:
            break
        name, args, kwargs = msg
        try:
            result = getattr(handler, name)(*args, **kwargs)
            conn.send(("ok", result))
        except BaseException:
            conn.send(("error", traceback.format_exc()))
    conn.close()


class WorkerPool:
    """N forked workers, each serving methods of one handler object.

    Parameters
    ----------
    n_workers:
        Worker count.
    factory:
        ``factory(worker_id) -> handler`` called *in the child* right
        after the fork; its closure is inherited copy-on-write.
    base_seed:
        Root of the per-worker numpy seeding.
    timeout:
        Seconds to wait for any single worker reply before declaring
        the worker hung (deadlock guard).

    Use as a context manager, or call :meth:`close` explicitly; workers
    are daemonic, so a leaked pool cannot block interpreter exit.
    """

    def __init__(self, n_workers: int, factory, base_seed: int = 0,
                 timeout: float = 300.0):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = int(n_workers)
        self.timeout = float(timeout)
        self._closed = False
        ctx = mp.get_context("fork")
        self._procs = []
        self._conns = []
        for w in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main,
                               args=(w, factory, child_conn, base_seed),
                               daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        # factories may run collectives, so confirm startup from all
        # workers only after every child has forked
        for w in range(self.n_workers):
            self._recv(w)

    # -- messaging ------------------------------------------------------
    def _recv(self, worker: int):
        conn = self._conns[worker]
        if not conn.poll(self.timeout):
            self._kill()
            raise WorkerError(
                f"worker {worker} sent no reply within {self.timeout}s "
                f"-- deadlocked collective or dead process")
        try:
            status, payload = conn.recv()
        except EOFError:
            self._kill()
            raise WorkerError(f"worker {worker} exited unexpectedly") \
                from None
        if status == "error":
            self._kill()
            raise WorkerError(
                f"worker {worker} raised:\n{payload}")
        return payload

    def submit(self, worker: int, method: str, *args, **kwargs) -> None:
        """Send one command without waiting (pair with :meth:`result`)."""
        if self._closed:
            raise WorkerError("pool is closed")
        self._conns[worker].send((method, args, kwargs))

    def result(self, worker: int):
        """Collect the pending reply of one worker (raises on error)."""
        return self._recv(worker)

    def call(self, worker: int, method: str, *args, **kwargs):
        """Round-trip one command on one worker."""
        self.submit(worker, method, *args, **kwargs)
        return self.result(worker)

    def broadcast(self, method: str, *args, **kwargs) -> list:
        """Run one command on every worker; returns per-worker results.

        All commands are submitted before any reply is read -- the
        shape collective handler methods need (a sequential
        call-per-worker would leave the first worker waiting on a
        collective its peers never enter).
        """
        for w in range(self.n_workers):
            self.submit(w, method, *args, **kwargs)
        return [self.result(w) for w in range(self.n_workers)]

    def scatter(self, method: str, per_worker_args: list) -> list:
        """Run one command on every worker with per-worker arguments.

        ``per_worker_args[w]`` is the positional argument tuple for
        worker ``w``; submission precedes all reads, as in
        :meth:`broadcast`.
        """
        if len(per_worker_args) != self.n_workers:
            raise ValueError("need one argument tuple per worker")
        for w, args in enumerate(per_worker_args):
            self.submit(w, method, *tuple(args))
        return [self.result(w) for w in range(self.n_workers)]

    # -- lifecycle ------------------------------------------------------
    def _kill(self) -> None:
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "WorkerPool":
        """Context-manager entry (returns the pool)."""
        return self

    def __exit__(self, *exc) -> None:
        """Shut the workers down on context exit."""
        self.close()

    def __del__(self):  # best-effort; daemonic workers die anyway
        try:
            self.close()
        except Exception:
            pass
