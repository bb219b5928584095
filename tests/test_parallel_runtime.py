"""Shared-memory parallel runtime: worker pools, SharedMemComm
semantics under real concurrency, stateless seeding, and parallel-vs-
serial agreement for decomposed solves, chemistry batches and
ensembles."""

import contextlib
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from repro.chemistry.backends import (DirectBatchBackend, HybridBackend,
                                      ParallelChemistryBackend,
                                      SurrogateBackend)
from repro.core import IdealGasProperties, NoChemistry, build_tgv_case
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
#: the issue's parallel-vs-serial field agreement gate
AGREEMENT_ATOL = 1e-8
#: chunked chemistry agrees with the unsplit batch to roundoff (BLAS
#: kernels may pick batch-shape-dependent summation orders)
CHUNK_ATOL = 1e-12


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
def _comm_worker_factory(arena, barrier):
    """Per-rank factory building a SharedMemComm exercise handler."""

    class _Exercise:
        def __init__(self, rank):
            self.comm = SharedMemComm(arena, rank, barrier, timeout=60.0)

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

    return _Exercise


@pytest.fixture()
def pair():
    """Two forked workers, each holding one SharedMemComm endpoint."""
    arena = SharedArena(2)
    barrier = multiprocessing.get_context("fork").Barrier(2)
    pool = WorkerPool(2, _comm_worker_factory(arena, barrier))
    yield pool
    pool.close()
    arena.close()


class TestSharedMemComm:
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


# ---------------------------------------------------------------------
# written once: the all-rank objects vs the same classes over one-rank
# endpoints, row for row
# ---------------------------------------------------------------------
class _OneRankSystem:
    """Pool handler: worker ``w`` holds a ``DistributedSystem`` (and
    through it a ``HaloExchanger``) over its one-rank endpoint."""

    def __init__(self, rank, dec, mats, arena, barrier):
        comm = SharedMemComm(arena, rank, barrier, timeout=60.0)
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
    barrier = multiprocessing.get_context("fork").Barrier(dec.nparts)
    try:
        with WorkerPool(dec.nparts, lambda w: _OneRankSystem(
                w, dec, mats, arena, barrier)) as pool:
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

    def test_parallel_refuses_chemistry_balancing(self):
        with pytest.raises(ValueError, match="driver-centric"):
            SolverSettings(ranks=2, execution="parallel",
                           balance_chemistry="dynamic")


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

        def build(**overlay):
            return DecomposedSolver(
                build_tgv_case(n=6, mech=mech),
                SolverSettings(ranks=1, **TIGHT).overlay(**overlay),
                properties=IdealGasProperties(mech))

        with build(execution="parallel") as par:
            (handler,) = par._parallel.pool.handlers
            worker = handler.solver
            assert type(worker) is DecomposedSolver
            assert worker.step.__func__ is DecomposedSolver.step
            assert isinstance(worker.comm, SharedMemComm)
            assert worker.comm.ranks == (0,)
            assert worker.decomp is par.decomp
            assert worker._parallel is None and len(worker.ranks) == 1
            driver = build()
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
# process-parallel chemistry batches
# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def chem_batch(mech):
    rng = np.random.default_rng(7)
    n = 24
    y = rng.dirichlet(np.ones(mech.n_species), size=n)
    t = rng.uniform(900.0, 2200.0, size=n)
    p = np.full(n, 101325.0)
    return y, t, p


class TestParallelChemistry:
    DT = 1e-7

    def test_direct_matches_serial(self, mech, chem_batch):
        y, t, p = chem_batch
        y_s, t_s, st_s = DirectBatchBackend(mech).advance(
            y.copy(), t.copy(), p, self.DT)
        for workers in (2, 4):
            with ParallelChemistryBackend(DirectBatchBackend(mech),
                                          workers) as par:
                y_p, t_p, st_p = par.advance(y.copy(), t.copy(), p,
                                             self.DT)
            np.testing.assert_allclose(y_p, y_s, rtol=0, atol=CHUNK_ATOL)
            np.testing.assert_allclose(t_p, t_s, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(st_p.work_per_cell,
                                          st_s.work_per_cell)
            assert st_p.rhs_evals == st_s.rhs_evals
            assert len(st_p.sub_batches) == workers

    def test_empty_chunks_tolerated(self, mech, chem_batch):
        """n < workers leaves some chunks empty; results still land."""
        y, t, p = chem_batch
        y_s, t_s, _ = DirectBatchBackend(mech).advance(
            y[:3].copy(), t[:3].copy(), p[:3], self.DT)
        with ParallelChemistryBackend(DirectBatchBackend(mech), 4) as par:
            y_p, t_p, _ = par.advance(y[:3].copy(), t[:3].copy(), p[:3],
                                      self.DT)
        np.testing.assert_allclose(y_p, y_s, rtol=0, atol=CHUNK_ATOL)

    def test_capacity_growth(self, mech, chem_batch):
        y, t, p = chem_batch
        y_s, t_s, _ = DirectBatchBackend(mech).advance(
            y.copy(), t.copy(), p, self.DT)
        with ParallelChemistryBackend(DirectBatchBackend(mech), 2) as par:
            par.advance(y[:4].copy(), t[:4].copy(), p[:4], self.DT)
            y_p, t_p, _ = par.advance(y.copy(), t.copy(), p, self.DT)
        np.testing.assert_allclose(y_p, y_s, rtol=0, atol=CHUNK_ATOL)

    def _hybrid(self, mech, net):
        return HybridBackend(SurrogateBackend(net),
                             DirectBatchBackend(mech),
                             t_window=(0.0, 1e9),
                             trust_gate="domain+audit",
                             audit_fraction=0.4, audit_seed=11)

    def test_hybrid_audit_worker_count_invariant(self, mech, tiny_odenet):
        """The audited cell set is a pure function of (seed, call,
        cell id): W=1 serial and W=2/4 pools pick identical audits."""
        xs = tiny_odenet._train_x
        sel = np.random.default_rng(0).integers(0, xs.shape[0], size=24)
        t, p, y = xs[sel, 0], xs[sel, 1], xs[sel, 2:]
        serial = self._hybrid(mech, tiny_odenet)
        y_s, t_s, st_s = serial.advance(y.copy(), t.copy(), p, self.DT)
        assert st_s.gate["audited_cells"] > 0
        for workers in (2, 4):
            with ParallelChemistryBackend(
                    self._hybrid(mech, tiny_odenet), workers) as par:
                y_p, t_p, st_p = par.advance(y.copy(), t.copy(), p,
                                             self.DT)
                assert st_p.gate == st_s.gate
                assert par.counters == serial.counters
            np.testing.assert_allclose(y_p, y_s, rtol=0, atol=CHUNK_ATOL)

    def test_hybrid_ood_buffer_drains_across_workers(self, mech,
                                                     tiny_odenet):
        xs = tiny_odenet._train_x
        t, p, y = xs[:24, 0], xs[:24, 1], xs[:24, 2:]
        gated = HybridBackend(SurrogateBackend(tiny_odenet),
                              DirectBatchBackend(mech),
                              t_window=(0.0, 1200.0), trust_gate="domain")
        gated.advance(y.copy(), t.copy(), p, self.DT)
        with ParallelChemistryBackend(
                HybridBackend(SurrogateBackend(tiny_odenet),
                              DirectBatchBackend(mech),
                              t_window=(0.0, 1200.0),
                              trust_gate="domain"), 2) as par:
            par.advance(y.copy(), t.copy(), p, self.DT)
            assert par.ood_size == gated.ood_size
            ds, dp = gated.drain_ood(), par.drain_ood()
            if ds is None:
                assert dp is None
            else:
                np.testing.assert_array_equal(np.sort(ds[0]),
                                              np.sort(dp[0]))
            assert par.ood_size == 0

    def test_settings_wiring(self, mech):
        """chemistry_workers >= 2 wraps the built backend."""
        from repro.core.settings import build_chemistry

        backend = build_chemistry(
            SolverSettings(chemistry="direct", chemistry_workers=2), mech)
        assert isinstance(backend, ParallelChemistryBackend)
        backend.close()
        backend = build_chemistry(
            SolverSettings(chemistry="direct"), mech)
        assert isinstance(backend, DirectBatchBackend)


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
