"""Shared-memory parallel runtime: worker pools, SharedMemComm
semantics under real concurrency, stateless seeding, and parallel-vs-
serial agreement for decomposed solves (live chemistry included) and
ensembles."""

import contextlib
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from repro.core import (IdealGasProperties, NoChemistry,
                        build_hotspot_tgv_case, build_tgv_case)
from repro.core.settings import KRYLOV_VARIANTS, SolverSettings
from repro.dist import (DecomposedSolver, Decomposition, DistributedSystem,
                        solve_distributed)
from repro.dist import spmd
from repro.dist.spmd import ParallelExecutor
from repro.orchestrate import Ensemble
from repro.runtime import (CommLedger, SharedArena, SharedMemComm,
                           SimulatedComm, WorkerError, WorkerPool,
                           derive_worker_seed, hash_normal, hash_u64,
                           hash_uniform)
from repro.solvers import SolverControls
from tests.conftest import checkerboard_parts, make_laplacian_ldu

#: tight controls so serial and parallel solves both converge far
#: below the 1e-8 agreement gate (test_dist.py uses the same recipe)
TIGHT = dict(
    scalar_controls=SolverControls(tolerance=1e-12, max_iterations=500),
    pressure_controls=SolverControls(tolerance=1e-12, max_iterations=1000),
)
#: the parallel-vs-serial field agreement gate
AGREEMENT_ATOL = 1e-8


# ---------------------------------------------------------------------
# stateless seeding
# ---------------------------------------------------------------------
class TestSeeding:
    def test_hash_is_chunk_invariant(self):
        ids = np.arange(1000)
        full = hash_uniform(7, 3, ids)
        for n_chunks in (2, 3, 7):
            parts = np.concatenate(
                [hash_uniform(7, 3, ids[w::n_chunks])
                 for w in range(n_chunks)])
            rebuilt = np.empty_like(full)
            for w in range(n_chunks):
                rebuilt[w::n_chunks] = hash_uniform(7, 3, ids[w::n_chunks])
            np.testing.assert_array_equal(rebuilt, full)
            assert parts.size == full.size

    def test_uniform_range_and_spread(self):
        u = hash_uniform(0, 0, np.arange(20000))
        assert (u >= 0.0).all() and (u < 1.0).all()
        assert abs(u.mean() - 0.5) < 0.01

    def test_normal_moments(self):
        z = hash_normal(0, 0, np.arange(20000))
        assert np.isfinite(z).all()
        assert abs(z.mean()) < 0.03 and abs(z.std() - 1.0) < 0.03

    def test_streams_and_seeds_decorrelate(self):
        ids = np.arange(100)
        assert not np.array_equal(hash_u64(0, 0, ids), hash_u64(0, 1, ids))
        assert not np.array_equal(hash_u64(0, 0, ids), hash_u64(1, 0, ids))

    def test_worker_seeds_distinct(self):
        seeds = [derive_worker_seed(0, w) for w in range(16)]
        assert len(set(seeds)) == 16


# ---------------------------------------------------------------------
# CommLedger pickle/merge
# ---------------------------------------------------------------------
class TestCommLedger:
    def _sample(self, src: int) -> CommLedger:
        led = CommLedger()
        led.charge_message(src, 128, overlappable=False)
        led.charge_message(src, 64, overlappable=True)
        led.allreduces += 1
        led.allreduce_bytes += 8
        led.exchanges += 1
        return led

    def test_pickle_round_trip(self):
        led = self._sample(2)
        clone = pickle.loads(pickle.dumps(led))
        assert clone.totals() == led.totals()
        assert clone.by_src == led.by_src
        # the clone keeps working as a live ledger
        clone.charge_message(0, 32, overlappable=False)
        assert clone.messages == led.messages + 1

    def test_merge_sums_counters_and_by_src(self):
        a, b = self._sample(0), self._sample(1)
        expect = {k: a.totals()[k] + b.totals()[k] for k in a.totals()}
        merged = a.merge(b)
        assert merged is a
        assert a.totals() == expect
        assert set(a.by_src) == {0, 1}

    def test_merged_rank_ledgers_reproduce_driver_ledger(self):
        """Per-rank SPMD ledgers merged == one driver-centric ledger."""
        driver = CommLedger()
        ranks = [CommLedger() for _ in range(3)]
        for src in range(3):
            driver.charge_message(src, 100 * (src + 1), overlappable=False)
            ranks[src].charge_message(src, 100 * (src + 1), overlappable=False)
        driver.exchanges += 1
        ranks[0].exchanges += 1  # rank 0 alone counts collectives
        total = CommLedger()
        for led in ranks:
            total.merge(led)
        assert total.totals() == driver.totals()
        assert total.by_src == driver.by_src


# ---------------------------------------------------------------------
# WorkerPool
# ---------------------------------------------------------------------
class _Echo:
    """Trivial pool handler."""

    def __init__(self, wid):
        self.wid = wid

    def whoami(self):
        return self.wid, os.getpid()

    def add(self, a, b):
        return a + b

    def boom(self):
        raise ValueError("worker-side failure")


class TestWorkerPool:
    def test_runs_in_distinct_processes(self):
        with WorkerPool(3, _Echo) as pool:
            replies = pool.broadcast("whoami")
        wids = [w for w, _ in replies]
        pids = {p for _, p in replies}
        assert wids == [0, 1, 2]
        assert os.getpid() not in pids
        assert len(pids) == 3

    def test_scatter_and_call(self):
        with WorkerPool(2, _Echo) as pool:
            assert pool.scatter("add", [(1, 2), (3, 4)]) == [3, 7]
            assert pool.call(1, "add", 10, b=5) == 15

    def test_worker_exception_surfaces(self):
        with WorkerPool(2, _Echo) as pool:
            with pytest.raises(WorkerError, match="worker-side failure"):
                pool.call(0, "boom")


# ---------------------------------------------------------------------
# SharedMemComm semantics under real concurrency
# ---------------------------------------------------------------------
def _comm_worker_factory(arena, timeouts=None):
    """Per-rank factory building a SharedMemComm exercise handler;
    ``timeouts[rank]`` overrides a rank's wait timeout (60 s)."""

    class _Exercise:
        def __init__(self, rank):
            timeout = timeouts[rank] if timeouts else 60.0
            self.comm = SharedMemComm(arena, rank, timeout=timeout)

        def handles(self):
            """Both ranks concurrently post, wait, and double-wait."""
            me, other = self.comm.rank, 1 - self.comm.rank
            h = self.comm.post_halo([{other: np.arange(3.0) + 10 * me}])
            (inbox,) = h.wait()
            ok = np.array_equal(inbox[other], np.arange(3.0) + 10 * other)
            try:
                h.wait()
                halo_double = "no error"
            except RuntimeError as err:
                halo_double = str(err)
            r = self.comm.iallreduce(np.array([me + 1.0]), op="sum")
            total = r.wait()
            try:
                r.wait()
                reduce_double = "no error"
            except RuntimeError as err:
                reduce_double = str(err)
            return ok, halo_double, float(total), reduce_double

        def ledgered_exchange(self):
            """One exchange + one allreduce; returns this rank's ledger."""
            me, other = self.comm.rank, 1 - self.comm.rank
            self.comm.halo_exchange([{other: np.ones(4) * me}])
            self.comm.allreduce(np.array([float(me)]), op="max")
            return self.comm.ledger

        def script(self):
            return _conformance_script(self.comm) + (self.comm.ledger,)

        def misuse(self):
            _assert_breaches_raise(self.comm)
            return self.comm.ledger.totals()

        def second_post(self):
            return _second_post_script(self.comm) + (self.comm.ledger,)

        def stress(self, seed, n_ops):
            return _stress_script(self.comm, seed, n_ops), self.comm.ledger

        def collective(self, channel):
            """Enter one collective on ``channel`` (``None``: skip it)."""
            peers = [q for q in range(self.comm.n_ranks)
                     if q != self.comm.rank]
            if channel == "halo":
                self.comm.halo_exchange([{q: np.ones(2) for q in peers}])
            elif channel == "reduce":
                self.comm.allreduce(np.ones(1))
            return channel

    return _Exercise


@contextlib.contextmanager
def _endpoints(n, timeouts=None, initial_bytes=1 << 16):
    """``n`` forked workers, each holding one SharedMemComm endpoint
    of one arena; yields ``(pool, arena)``."""
    arena = SharedArena(n, initial_bytes=initial_bytes)
    try:
        with WorkerPool(n, _comm_worker_factory(arena, timeouts),
                        timeout=120.0) as pool:
            yield pool, arena
    finally:
        arena.close()


@pytest.fixture()
def pair():
    """Two forked workers, each holding one SharedMemComm endpoint."""
    with _endpoints(2) as (pool, _):
        yield pool


class TestSharedMemComm:
    def test_arena_segments_unlinked_on_close(self):
        """An arena is its header, its sequence counters and one slab
        per (rank, channel, parity); a slab that grows adds a
        generation, and ``close`` unlinks every segment."""
        before = _shm_entries()
        payload = np.arange(2000.0)               # 16 kB > 4 kB slabs
        with SharedArena(2, initial_bytes=1 << 12) as arena:
            slabs = [arena._slab_name(r, c, q, 0)
                     for r in range(2) for c in range(2) for q in range(2)]
            created = sorted(set(_shm_entries()) - set(before))
            assert created == sorted(slabs + [f"{arena.name}h",
                                              f"{arena.name}s"])
            arena.stage(1, [(0, payload)], channel=1, parity=1)
            assert arena._slab_name(1, 1, 1, 1) in _shm_entries()
            [(dst, view)] = arena.views(1, channel=1, parity=1)
            assert dst == 0
            np.testing.assert_array_equal(view, payload)
        assert _shm_entries() == before

    def test_handles_complete_exactly_once(self, pair):
        for ok, halo_double, total, reduce_double in \
                pair.broadcast("handles"):
            assert ok
            assert "already waited" in halo_double
            assert total == 3.0  # 1 + 2, identical on both ranks
            assert "already waited" in reduce_double

    def test_ledger_parity_with_simulated_comm(self, pair):
        """Merged per-rank SPMD ledgers == the driver-centric ledger of
        the same traffic pattern on SimulatedComm, bitwise."""
        merged = CommLedger()
        for led in pair.broadcast("ledgered_exchange"):
            merged.merge(led)
        sim = SimulatedComm(2)
        sim.halo_exchange([{1: np.ones(4) * 0.0}, {0: np.ones(4) * 1.0}])
        sim.allreduce(np.array([0.0, 1.0]), op="max")
        assert merged.totals() == sim.ledger.totals()
        assert merged.by_src == sim.ledger.by_src


# ---------------------------------------------------------------------
# one endpoint contract, two fabrics
# ---------------------------------------------------------------------
def _conformance_script(comm):
    """The scripted collective sequence, written against ``comm.ranks``
    only; returns ``(per hosted rank results, reductions)``."""
    def outboxes(shift):
        return [{q: np.arange(3.0) + 10 * r + shift
                 for q in range(comm.n_ranks) if q != r}
                for r in comm.ranks]

    def once(handle):
        value = handle.wait()
        with pytest.raises(RuntimeError, match="already waited"):
            handle.wait()
        return value

    scalars = np.array([r + 1.0 for r in comm.ranks])           # (hosted,)
    arrays = np.array([[r + 1.0, -2.0 * r, 0.5] for r in comm.ranks])
    blocking = comm.halo_exchange(outboxes(0.0))
    posted = once(comm.post_halo(outboxes(100.0)))
    reductions = []
    for op in ("sum", "max", "min"):
        reductions += [comm.allreduce(scalars, op=op),
                       comm.allreduce(arrays, op=op)]
    pending = comm.iallreduce(arrays, op="sum")
    interleaved = comm.halo_exchange(outboxes(200.0))   # must not clobber
    reductions.append(once(pending))
    per_rank = [
        {"blocking": blocking[i], "posted": posted[i],
         "interleaved": interleaved[i]} for i in range(len(comm.ranks))]
    return per_rank, reductions


def _assert_breaches_raise(comm):
    """Every breach of the endpoint contract is a ``ValueError``."""
    me = comm.ranks[0]
    good = [dict() for _ in comm.ranks]
    for breach in (
            lambda: comm.halo_exchange(good + [{}]),        # outbox count
            lambda: comm.post_halo(good + [{}]),
            lambda: comm.allreduce(np.ones(len(good) + 1)),  # contributions
            lambda: comm.iallreduce(np.ones((len(good) + 1, 2))),
            lambda: comm.halo_exchange([{me: np.ones(1)}] + good[1:]),
            lambda: comm.halo_exchange(
                [{comm.n_ranks: np.ones(1)}] + good[1:])):
        with pytest.raises(ValueError):
            breach()


def _second_post_script(comm):
    """Post on a channel whose handle is still open, on both channels:
    the second post must raise and leave the first handle intact.
    Returns ``(halo error, first halo inboxes, reduce error, first
    reduction)``."""
    def refused(post):
        try:
            post()
        except RuntimeError as err:
            return str(err)
        return "no error"

    def outboxes(base):
        return [{q: np.full(2, base + r) for q in range(comm.n_ranks)
                 if q != r} for r in comm.ranks]

    first = comm.post_halo(outboxes(10.0))
    halo_err = refused(lambda: comm.post_halo(outboxes(20.0)))
    blocking_err = refused(lambda: comm.halo_exchange(outboxes(30.0)))
    inboxes = first.wait()
    parts = np.array([r + 1.0 for r in comm.ranks])
    pending = comm.iallreduce(parts)
    reduce_err = refused(lambda: comm.iallreduce(parts * 10.0))
    blocking_red = refused(lambda: comm.allreduce(parts * 100.0))
    total = pending.wait()
    comm.halo_exchange(outboxes(40.0))          # both channels reusable
    comm.allreduce(parts)
    return ((halo_err, blocking_err), inboxes, (reduce_err, blocking_red),
            total)


#: payload shapes of the stress script: 0-d up to ~5.5x a 4 KiB slab
_STRESS_SHAPES = [(), (1,), (5,), (3, 4), (2, 3, 2), (1500,), (700, 4)]


def _stress_script(comm, seed, n_ops):
    """A seeded script of ``n_ops`` collectives written against
    ``comm.ranks``: blocking and posted halo exchanges, sum / max / min
    allreduces of scalars and arrays, and an ``iallreduce`` kept open
    across 1-3 halo exchanges (the pipelined PCG's shape).  The choices
    come from ``seed`` alone, the payloads from ``(seed, op, rank)``, so
    every fabric runs the same script.  Returns the event list: every
    inbox of the hosted ranks and every reduction, in order."""
    rng = np.random.default_rng(seed)
    p = comm.n_ranks

    def payload(i, r, shape):
        return np.random.default_rng([seed, i, r]).standard_normal(shape)

    def shape():
        return _STRESS_SHAPES[rng.integers(len(_STRESS_SHAPES))]

    def outboxes(i):
        # a random send graph: every ordered pair talks with prob. 2/3
        links = rng.random((p, p)) < 2 / 3
        shapes = [[shape() for _ in range(p)] for _ in range(p)]
        return [{q: payload(i, r * p + q, shapes[r][q])
                 for q in range(p) if q != r and links[r, q]}
                for r in comm.ranks]

    def contributions(i):
        scalar = rng.random() < 0.3
        shp = () if scalar else shape()
        return np.array([payload(i, r, shp) for r in comm.ranks])

    events = []
    n = 0
    while n < n_ops:
        kind = rng.integers(4)
        if kind == 0:
            events.append(comm.halo_exchange(outboxes(n)))
            n += 1
        elif kind == 1:
            events.append(comm.post_halo(outboxes(n)).wait())
            n += 1
        elif kind == 2:
            op = ("sum", "max", "min")[rng.integers(3)]
            events.append(comm.allreduce(contributions(n), op=op))
            n += 1
        else:
            pending = comm.iallreduce(contributions(n), op="sum")
            n += 1
            for _ in range(rng.integers(1, 4)):
                if rng.random() < 0.5:
                    events.append(comm.halo_exchange(outboxes(n)))
                else:
                    events.append(comm.post_halo(outboxes(n)).wait())
                n += 1
            events.append(pending.wait())
    return events


def _assert_same_events(got, want, rank):
    """Rank ``rank``'s one-hosted-rank events equal the all-rank
    fabric's, bitwise (inboxes: ``got[i] == [want[i][rank]]``)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, list):             # halo: one inbox per rank
            (g,) = g
            w = w[rank]
            assert g.keys() == w.keys()
            for src in w:
                assert g[src].shape == w[src].shape
                assert np.array_equal(g[src], w[src])
        else:
            assert type(g) is type(w)
            assert np.array_equal(g, w)


class TestCommConformance:
    """``SimulatedComm`` (hosts all ranks) and ``SharedMemComm`` (hosts
    one) implement one contract: the same script, written against
    ``comm.ranks``, gives every rank the same results and the same
    merged ledger on both."""

    def test_same_script_same_results_and_ledger(self, pair):
        sim = SimulatedComm(2)
        assert sim.ranks == (0, 1)
        want_ranks, want_red = _conformance_script(sim)
        merged = CommLedger()
        for rank, (got_ranks, got_red, led) in enumerate(
                pair.broadcast("script")):
            (got,) = got_ranks              # one hosted rank per endpoint
            want = want_ranks[rank]
            for key in want:
                assert got[key].keys() == want[key].keys()
                for src in want[key]:
                    assert np.array_equal(got[key][src], want[key][src])
            assert len(got_red) == len(want_red)
            for a, b in zip(got_red, want_red):
                assert type(a) is type(b)
                assert np.array_equal(a, b)
            merged.merge(led)
        assert merged.totals() == sim.ledger.totals()
        assert merged.by_src == sim.ledger.by_src

    def test_contract_breaches_raise_on_both_fabrics(self, pair):
        """Wrong outbox / contribution counts, a send to oneself and an
        out-of-range destination raise before anything is sent."""
        sim = SimulatedComm(2)
        _assert_breaches_raise(sim)
        assert sim.ledger.messages == sim.ledger.allreduces == 0
        for totals in pair.broadcast("misuse"):     # raises -> WorkerError
            assert totals["messages"] == totals["allreduces"] == 0

    def test_second_post_on_an_open_channel_raises(self, pair):
        """A post on a channel whose handle is still open raises
        ``RuntimeError`` naming the channel, on both fabrics, and
        leaves the open handle's payload intact: the first exchange
        still delivers ``10 + src``, never the refused ``20 + src``."""
        def check(rank, halo_errs, inbox, reduce_errs, total):
            for err in halo_errs:
                assert "halo channel has an open handle" in err
            for err in reduce_errs:
                assert "reduce channel has an open handle" in err
            assert np.array_equal(inbox[1 - rank],
                                  np.full(2, 10.0 + 1 - rank))
            assert total == 3.0

        sim = SimulatedComm(2)
        halo_errs, inboxes, reduce_errs, total = _second_post_script(sim)
        for rank in range(2):
            check(rank, halo_errs, inboxes[rank], reduce_errs, total)
        merged = CommLedger()
        for rank, (halo_errs, (inbox,), reduce_errs, total, led) in \
                enumerate(pair.broadcast("second_post")):
            check(rank, halo_errs, inbox, reduce_errs, total)
            merged.merge(led)
        assert merged.totals() == sim.ledger.totals()   # refused: free
        assert merged.by_src == sim.ledger.by_src


class TestProtocolStress:
    """~500 collectives of every shape on the flag protocol, bitwise
    against the same script on ``SimulatedComm``.  4 KiB slabs grow
    mid-script on both parities of both channels."""

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_bitwise_against_simulated_comm(self, ranks):
        seed, n_ops = 20 + ranks, 500
        sim = SimulatedComm(ranks)
        want = _stress_script(sim, seed, n_ops)
        with _endpoints(ranks, initial_bytes=1 << 12) as (pool, arena):
            results = pool.broadcast("stress", seed, n_ops)
            grown = arena._hdr[..., 0]          # slab generations
            assert (grown > 0).all(), grown
        merged = CommLedger()
        for rank, (events, led) in enumerate(results):
            _assert_same_events(events, want, rank)
            merged.merge(led)
        assert merged.totals() == sim.ledger.totals()
        assert merged.by_src == sim.ledger.by_src
        assert sim.ledger.exchanges + sim.ledger.allreduces \
            == len(want) >= n_ops

    def test_four_ranks_on_fewer_cores_step_bitwise(self, mech):
        """An oversubscribed 4-rank n = 8 TGV (on a 2-CPU host two
        ranks share each core) steps bitwise like the driver, in
        bounded time, with one flag wait per collective: every rank's
        counters sum to the merged ledger's exchanges + allreduces."""
        def build(execution):
            return DecomposedSolver(
                build_tgv_case(n=8, mech=mech),
                SolverSettings(ranks=4, execution=execution),
                properties=IdealGasProperties(mech))

        driver = build("serial")
        t0 = time.perf_counter()
        with build("parallel") as par:
            for _ in range(2):
                assert par.step(1e-6) == driver.step(1e-6)
                assert par.last_comm == driver.last_comm
            for f in ("y", "h", "p", "u", "rho", "T"):
                assert np.array_equal(par.gather(f), driver.gather(f))
            led = par.comm.ledger
            assert led.totals() == driver.comm.ledger.totals()
            per_rank = par._parallel.arena.seq.sum(axis=1)
            assert (per_rank == led.exchanges + led.allreduces).all()
        assert time.perf_counter() - t0 < 120.0


class TestFailFast:
    """A rank that skips a collective fails every rank within its
    peer's timeout, with no barrier anywhere, and leaks no segment."""

    def test_skipping_rank_breaks_its_peer(self):
        before = _shm_entries()
        with _endpoints(2, timeouts=[2.0, 60.0]) as (pool, arena):
            assert f"{arena.name}s" in _shm_entries()   # the counters
            t0 = time.perf_counter()
            pool.submit(0, "collective", "halo")
            pool.submit(1, "collective", None)          # skips it
            with pytest.raises(WorkerError, match="BrokenBarrierError"):
                pool.result(0)
            assert time.perf_counter() - t0 < 2.0 + 5.0
        assert _shm_entries() == before

    def test_waiter_on_the_other_channel_fails_through_the_broken_word(
            self):
        """Rank 2 waits on the reduce channel with a 60 s timeout; rank
        0 times out on the halo channel after 2 s.  Rank 2 raises
        through the shared broken word, long before its own timeout."""
        before = _shm_entries()
        with _endpoints(3, timeouts=[2.0, 60.0, 60.0]) as (pool, _):
            t0 = time.perf_counter()
            pool.submit(0, "collective", "halo")
            pool.submit(1, "collective", None)          # skips both
            pool.submit(2, "collective", "reduce")
            with pytest.raises(WorkerError,
                               match="a peer's wait timed out"):
                pool.result(2)
            assert time.perf_counter() - t0 < 2.0 + 5.0
        assert _shm_entries() == before


# ---------------------------------------------------------------------
# written once: the all-rank objects vs the same classes over one-rank
# endpoints, row for row
# ---------------------------------------------------------------------
class _OneRankSystem:
    """Pool handler: worker ``w`` holds a ``DistributedSystem`` (and
    through it a ``HaloExchanger``) over its one-rank endpoint."""

    def __init__(self, rank, dec, mats, arena):
        comm = SharedMemComm(arena, rank, timeout=60.0)
        self.system = DistributedSystem(dec, comm, [mats[rank]])

    def precondition(self, r):
        return self.system.preconditioner()(r)

    def pcg(self, b):
        return solve_distributed(self.system, b[:, None], solver="PCG")[0]

    def matvec(self, x, overlap_halo):
        self.system.overlap_halo = overlap_halo
        return self.system.matvec_multi(x).copy()

    def coldot(self, a, b):
        return self.system.coldot(a, b)

    def nnz(self):
        return self.system.nnz


@contextlib.contextmanager
def _one_rank_pool(dec, mats):
    arena = SharedArena(dec.nparts)
    try:
        with WorkerPool(dec.nparts, lambda w: _OneRankSystem(
                w, dec, mats, arena)) as pool:
            yield pool
    finally:
        arena.close()


class TestSpmdSystem:
    @pytest.mark.parametrize("checkerboard", [False, True])
    def test_matches_driver_bitwise(self, box_mesh, checkerboard):
        """Both modes run the one system class: per rank, the worker's
        preconditioner rows equal the driver's stacked apply bitwise
        (1-D and ``(n, k)`` residuals, also on owned blocks with zero
        interior faces), and so do the matvec rows (blocking and
        posted ghost refresh) and the reduced column dots."""
        parts = checkerboard_parts(box_mesh) if checkerboard else None
        dec = Decomposition.from_mesh(box_mesh, 2, parts=parts)
        mats = [make_laplacian_ldu(s.mesh) for s in dec.subdomains]
        system = DistributedSystem(dec, SimulatedComm(2), mats)
        driver = system.preconditioner()
        rng = np.random.default_rng(0)
        with _one_rank_pool(dec, mats) as pool:
            for r in (rng.standard_normal((system.n, 3)),
                      rng.standard_normal(system.n)):
                want = driver(r)
                got = pool.scatter(
                    "precondition",
                    [(r[dec.rank_slice(q)],) for q in range(2)])
                for q in range(2):
                    assert np.array_equal(got[q], want[dec.rank_slice(q)])
            x, y = rng.standard_normal((2, system.n, 3))
            for overlap in (False, True):
                system.overlap_halo = overlap
                want = system.matvec_multi(x)
                got = pool.scatter("matvec", [
                    (x[dec.rank_slice(q)], overlap) for q in range(2)])
                for q in range(2):
                    assert np.array_equal(got[q], want[dec.rank_slice(q)])
            want = system.coldot(x, y)
            for got in pool.scatter("coldot", [
                    (x[dec.rank_slice(q)], y[dec.rank_slice(q)])
                    for q in range(2)]):
                assert np.array_equal(got, want)
            assert sum(pool.broadcast("nnz")) == system.nnz \
                == box_mesh.n_cells + 2 * box_mesh.n_internal_faces

    def test_asymmetric_block_surfaces_as_worker_error(self, box_mesh):
        """The rank holding the asymmetric block refuses PCG on its own,
        before any collective the other rank would have to join."""
        dec = Decomposition.from_mesh(box_mesh, 2)
        mats = [make_laplacian_ldu(s.mesh) for s in dec.subdomains]
        interior = DistributedSystem(
            dec, SimulatedComm(2), mats).ops[1].interior
        mats[1].upper[interior[0]] *= 2.0
        with _one_rank_pool(dec, mats) as pool:
            ones = [np.ones(s.n_owned) for s in dec.subdomains]
            assert np.isfinite(pool.call(0, "precondition", ones[0])).all()
            with pytest.raises(WorkerError, match="symmetric"):
                pool.call(1, "pcg", ones[1])


# ---------------------------------------------------------------------
# SPMD DecomposedSolver: parallel vs serial
# ---------------------------------------------------------------------
def _run_pair(mech, settings, properties_builder, n_steps=2, dt=1e-8):
    serial = DecomposedSolver(
        build_tgv_case(n=6, mech=mech), settings,
        properties=properties_builder())
    par = DecomposedSolver(
        build_tgv_case(n=6, mech=mech),
        settings.overlay(execution="parallel"),
        properties=properties_builder())
    assert serial.comm.ledger.totals() == par.comm.ledger.totals()
    for _ in range(n_steps):
        ds = serial.step(dt)
        dp = par.step(dt)
        assert serial.last_comm == par.last_comm
        assert ds.solver_iterations == dp.solver_iterations
        assert ds.total_mass == dp.total_mass
        assert dp == ds
    worst = 0.0
    for f in ("y", "h", "p", "u", "rho", "T"):
        worst = max(worst,
                    float(np.abs(serial.gather(f) - par.gather(f)).max()))
    assert serial.comm.ledger.totals() == par.comm.ledger.totals()
    assert serial.comm.ledger.by_src == par.comm.ledger.by_src
    par.close()
    return worst


class TestSpmdParity:
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_ideal_gas_agreement(self, mech, ranks):
        settings = SolverSettings(ranks=ranks, **TIGHT)
        worst = _run_pair(mech, settings, lambda: IdealGasProperties(mech))
        assert worst <= AGREEMENT_ATOL

    def test_real_fluid_agreement(self, mech):
        settings = SolverSettings(ranks=2, **TIGHT)
        worst = _run_pair(mech, settings, lambda: None)
        assert worst <= AGREEMENT_ATOL

    def test_live_chemistry_agreement(self, mech):
        settings = SolverSettings(ranks=2, chemistry="direct", **TIGHT)
        worst = _run_pair(mech, settings, lambda: IdealGasProperties(mech))
        assert worst <= AGREEMENT_ATOL

    def test_hybrid_audits_agree(self, mech):
        """A decomposed hybrid run audits the same cells driver-stepped
        as on parallel ranks: each hosted rank builds its own backend,
        so every rank's audit counter advances once per step on both
        schedules.  On the committed artifact's manifold (the n = 12
        hot spot ``hotspot_hybrid`` steps), real fluid."""
        settings = SolverSettings(ranks=2, chemistry="hybrid-trained",
                                  chemistry_options={"audit_fraction": 0.2})

        def build(execution):
            return DecomposedSolver(
                build_hotspot_tgv_case(n=12, mech=mech),
                settings.overlay(execution=execution))

        driver = build("serial")
        with build("parallel") as par:
            for _ in range(3):
                driver.step(1e-8)
                par.step(1e-8)
                gates = [[st.gate for st in s.last_backend_stats]
                         for s in (driver, par)]
                assert gates[0] == gates[1]
                assert all(g["audited_cells"] > 0 for g in gates[0])
            worst = max(float(np.abs(driver.gather(f) - par.gather(f)).max())
                        for f in ("y", "h", "p", "u", "rho", "T"))
        assert worst <= AGREEMENT_ATOL

    def test_overlapped_variants_agree(self, mech):
        settings = SolverSettings(ranks=2, krylov_variant="overlapped",
                                  **TIGHT)
        worst = _run_pair(mech, settings, lambda: IdealGasProperties(mech))
        assert worst <= AGREEMENT_ATOL

    def test_serial_default_unchanged(self, mech):
        """execution defaults to 'serial' and builds no executor."""
        assert SolverSettings().execution == "serial"
        solver = DecomposedSolver(
            build_tgv_case(n=6, mech=mech),
            SolverSettings(ranks=2, **TIGHT),
            properties=IdealGasProperties(mech))
        assert solver._parallel is None
        assert solver.ranks  # per-rank solvers exist as before



class TestWrittenOnce:
    """The parallel mode schedules the one step; it does not copy it."""

    def test_spmd_exports_only_the_executor(self):
        assert spmd.__all__ == ["ParallelExecutor"]
        for gone in ("RankStepper", "RankSystem", "RankHalo"):
            assert not hasattr(spmd, gone)

    def test_worker_steps_a_decomposed_solver(self, mech, monkeypatch):
        """With one rank the fabric needs no peer, so the executor's
        handlers can be built and inspected in this process."""
        class InlinePool:
            def __init__(self, n_workers, factory, **kwargs):
                self.handlers = [factory(w) for w in range(n_workers)]

            def broadcast(self, method, *args):
                return [getattr(h, method)(*args) for h in self.handlers]

            def close(self):
                pass

        monkeypatch.setattr(spmd, "WorkerPool", InlinePool)
        # the factory runs in this process here: leave pytest unbound
        monkeypatch.setattr(spmd, "_bind_to_core", lambda rank: None)

        def build(settings, **kwargs):
            return DecomposedSolver(
                build_tgv_case(n=6, mech=mech), settings,
                properties=IdealGasProperties(mech), **kwargs)

        # settings admit "parallel" only from two ranks up; the worker
        # count follows the decomposition, here an injected one-part one
        one_part = Decomposition.from_mesh(build_tgv_case(n=6, mech=mech).mesh, 1)
        with build(SolverSettings(ranks=2, execution="parallel", **TIGHT),
                   decomp=one_part, comm=SimulatedComm(1)) as par:
            (handler,) = par._parallel.pool.handlers
            worker = handler.solver
            assert type(worker) is DecomposedSolver
            assert worker.step.__func__ is DecomposedSolver.step
            assert isinstance(worker.comm, SharedMemComm)
            assert worker.comm.ranks == (0,)
            assert worker.decomp is par.decomp
            assert worker._parallel is None and len(worker.ranks) == 1
            driver = build(SolverSettings(ranks=1, **TIGHT))
            for _ in range(2):
                assert par.step(1e-8) == driver.step(1e-8)
                assert par.last_comm == driver.last_comm
            for f in ("y", "h", "p", "u", "rho", "T"):
                assert np.array_equal(par.gather(f), driver.gather(f))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="core binding is Linux-only")
    def test_rank_workers_bind_round_robin(self):
        """Each rank worker runs on exactly one of the driver's CPUs,
        rank r on the (r mod n)-th; the driver itself stays unbound."""
        class Bound:
            def __init__(self, rank):
                spmd._bind_to_core(rank)

            def cpus(self):
                return sorted(os.sched_getaffinity(0))

        allowed = sorted(os.sched_getaffinity(0))
        with WorkerPool(3, Bound) as pool:
            bound = pool.broadcast("cpus")
        assert bound == [[allowed[r % len(allowed)]] for r in range(3)]
        assert sorted(os.sched_getaffinity(0)) == allowed

    @pytest.mark.parametrize("variant", KRYLOV_VARIANTS)
    def test_zero_warm_allocations_in_every_worker(self, mech, variant):
        """The warm-step invariant of the driver-stepped mode holds in
        each worker: no tracked allocation while solving, the cached
        per-rank preconditioner keeps its identity."""
        settings = SolverSettings(ranks=2, krylov_variant=variant,
                                  execution="parallel")
        with DecomposedSolver(
                build_tgv_case(n=6, mech=mech), settings,
                properties=IdealGasProperties(mech),
                chemistry=NoChemistry()) as solver:
            solver.step(1e-8)   # sizes scratch buffers and the workspace
            for _ in range(3):
                solver.step(1e-8)
                assert solver.last_timings.alloc_solving == 0
            for res in solver._parallel.pool.broadcast("step", 1e-8):
                assert res["timings"].alloc_solving == 0


class _FailingProperties(IdealGasProperties):
    """``h_from_t`` raises for batches of ``fail_len`` cells (any batch
    when ``None``) -- a rank constructor that dies mid-way."""

    def __init__(self, mech, fail_len=None):
        super().__init__(mech)
        self.fail_len = fail_len

    def h_from_t(self, t, p, y):
        if self.fail_len is None or len(t) == self.fail_len:
            raise RuntimeError("h_from_t failed")
        return super().h_from_t(t, p, y)


def _shm_entries():
    return sorted(f for f in os.listdir("/dev/shm") if f.startswith("repro"))


class TestFailedConstruction:
    """A parallel construction that fails leaves no shared-memory
    segment behind and surfaces as ``WorkerError``, never as a hang."""

    def test_every_rank_fails(self, mech):
        before = _shm_entries()
        with pytest.raises(WorkerError, match="h_from_t failed"):
            DecomposedSolver(
                build_tgv_case(n=6, mech=mech),
                SolverSettings(ranks=2, execution="parallel"),
                properties=_FailingProperties(mech))
        assert _shm_entries() == before

    def test_one_rank_fails_while_its_peer_waits(self, mech):
        """Rank 1 dies in its constructor; rank 0 reaches the
        construction-time ghost sync, whose barrier times out."""
        case = build_tgv_case(n=6, mech=mech)
        n = case.mesh.n_cells
        dec = Decomposition.from_mesh(
            case.mesh, 2, parts=(np.arange(n) >= n // 3).astype(int))
        sizes = [s.n_local for s in dec.subdomains]
        assert sizes[0] != sizes[1]
        before = _shm_entries()
        t0 = time.perf_counter()
        with pytest.raises(WorkerError):
            ParallelExecutor(
                case, dec, SolverSettings(ranks=2, execution="parallel"),
                SimulatedComm(2), _FailingProperties(mech, sizes[1]), None,
                barrier_timeout=2.0, pool_timeout=60.0)
        assert time.perf_counter() - t0 < 30.0
        assert _shm_entries() == before


# ---------------------------------------------------------------------
# parallel ensembles
# ---------------------------------------------------------------------
class TestParallelEnsemble:
    VALUES = [1e-6, 1e-7, 1e-8, 1e-9, 1e-10]

    def _sweep(self, mech, parallel, workers=None):
        return Ensemble.sweep(
            lambda: build_tgv_case(n=6, mech=mech), SolverSettings(),
            "scalar_controls.tolerance", self.VALUES,
            parallel=parallel, workers=workers)

    def test_matches_serial_bitwise(self, mech):
        serial = self._sweep(mech, parallel=False)
        with self._sweep(mech, parallel=True, workers=2) as par:
            for _ in range(2):
                ds = serial.step(1e-8)
                dp = par.step(1e-8)
                for a, b in zip(ds, dp):
                    assert a.solver_iterations == b.solver_iterations
                    assert a.total_mass == b.total_mass
            for i in range(len(self.VALUES)):
                for f in ("y", "h", "p", "T"):
                    np.testing.assert_array_equal(par[i].field(f),
                                                  serial[i].field(f))
            rs, rp = serial.cost_report(), par.cost_report()
            for a, b in zip(rs.instances, rp.instances):
                assert a.steps == b.steps
                assert a.solver_iterations == b.solver_iterations
                assert a.solver_flops == b.solver_flops

    def test_conduits_refused(self, mech):
        ens = self._sweep(mech, parallel=True, workers=2)
        with pytest.raises(RuntimeError, match="conduit"):
            ens.connect("sweep[0].out", "sweep[1].in")

    def test_decomposed_instances_refused(self, mech):
        ens = Ensemble(lambda: build_tgv_case(n=6, mech=mech),
                       SolverSettings(ranks=2), parallel=True)
        ens.add_instance("a")
        ens.add_instance("b")
        with pytest.raises(RuntimeError, match="serial instances"):
            ens.step(1e-8)



class TestParallelDecomposedMember:
    """An ensemble member with ``ranks=2, execution="parallel"``."""

    @staticmethod
    def _ensemble(mech, **base):
        ens = Ensemble(lambda: build_tgv_case(n=6, mech=mech),
                       SolverSettings(**base))
        ens.add_instance("serial")
        ens.add_instance("driver", overrides={"ranks": 2})
        ens.add_instance("parallel", overrides={"ranks": 2,
                                                "execution": "parallel"})
        return ens

    def test_reports_the_same_chemistry_work(self, mech):
        """The workers hand back their ranks' backend stats with the
        step, so the cost report counts chemistry in every mode."""
        with self._ensemble(mech, chemistry="direct") as ens:
            ens.step(1e-8)
            costs = ens.cost_report().instances
        n = build_tgv_case(n=6, mech=mech).mesh.n_cells
        assert costs[0].chemistry_cells == n and costs[0].chemistry_work > 0
        for c in costs[1:]:
            assert (c.chemistry_work, c.chemistry_cells) == \
                (costs[0].chemistry_work, costs[0].chemistry_cells), c.name

    def test_close_stops_workers_and_unlinks_memory(self, mech):
        before = _shm_entries()
        with self._ensemble(mech) as ens:
            ens.step(1e-8)
            assert len(_shm_entries()) > len(before)
            assert multiprocessing.active_children()
        assert _shm_entries() == before
        assert not multiprocessing.active_children()
