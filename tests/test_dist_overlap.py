"""Communication-overlapped distributed Krylov: nonblocking wait
handles, ledger-exact collective counts per solver variant,
overlapped-vs-synchronous agreement and the zero-warm-allocation
invariant of the decomposed driver."""

import numpy as np
import pytest

from repro.core import (
    IdealGasProperties,
    NoChemistry,
    SolverSettings,
    build_tgv_case,
)
from repro.dist import (
    KRYLOV_VARIANTS,
    DecomposedSolver,
    Decomposition,
    DistributedSystem,
    HaloExchanger,
    solve_distributed,
)
from repro.runtime import SimulatedComm, alloc, overlapped_phase_time
from repro.solvers import KrylovWorkspace, SolverControls, preconditioners
from repro.solvers.preconditioners import (CachedDICPreconditioner,
                                           DICPreconditioner)
from tests import face_oracle
from tests.conftest import (checkerboard_parts, make_laplacian_ldu,
                            make_random_spd_ldus)

#: converge far below the 1e-8 agreement gates
TIGHT = SolverControls(tolerance=1e-12, max_iterations=800)


def _make_system(mesh, nparts, overlap_halo=False):
    """A DistributedSystem over per-rank Laplacians whose owned rows
    reproduce the global ``make_laplacian_ldu(mesh)`` exactly (owned
    cells carry all their internal faces locally)."""
    dec = Decomposition.from_mesh(mesh, nparts)
    comm = SimulatedComm(nparts)
    mats = [make_laplacian_ldu(s.mesh) for s in dec.subdomains]
    return DistributedSystem(dec, comm, mats, overlap_halo=overlap_halo)


def _stacked_reference(mesh, dec, x):
    """Global-operator product of a *stacked* block, restacked."""
    owned = np.concatenate([s.owned_global for s in dec.subdomains])
    xg = np.empty_like(x)
    xg[owned] = x
    return make_laplacian_ldu(mesh).matvec_multi(xg)[owned]


class TestCommHandles:
    def test_pending_exchange_completes_once(self):
        comm = SimulatedComm(2)
        payload = np.arange(3.0)
        handle = comm.post_halo([{1: payload}, {0: payload * 2}])
        inboxes = handle.wait()
        np.testing.assert_array_equal(inboxes[1][0], payload)
        np.testing.assert_array_equal(inboxes[0][1], payload * 2)
        with pytest.raises(RuntimeError, match="already waited"):
            handle.wait()

    def test_post_halo_tagged_overlappable(self):
        comm = SimulatedComm(2)
        payload = np.arange(4.0)
        comm.halo_exchange([{1: payload}, {0: payload}])
        led = comm.ledger
        assert (led.messages, led.overlap_messages) == (2, 0)
        comm.post_halo([{1: payload}, {0: payload}]).wait()
        assert (led.messages, led.overlap_messages) == (4, 2)
        assert led.overlap_bytes == 2 * payload.nbytes
        assert led.exchanges == 2

    def test_iallreduce_matches_blocking_and_tags(self):
        comm = SimulatedComm(3)
        parts = np.arange(12.0).reshape(3, 4)
        ref = comm.allreduce(parts, op="sum")
        handle = comm.iallreduce(parts, op="sum")
        np.testing.assert_array_equal(handle.wait(), ref)
        with pytest.raises(RuntimeError, match="already waited"):
            handle.wait()
        assert comm.ledger.allreduces == 2
        assert comm.ledger.overlap_allreduces == 1

    def test_overlapped_phase_time_semantics(self):
        # compute-bound: the communication hides entirely
        assert overlapped_phase_time(3.0, 1.0, 0.5) == 3.5
        # comm-bound: the compute hides instead
        assert overlapped_phase_time(1.0, 3.0, 0.5) == 3.5
        # never worse than the serial sum the synchronous model charges
        assert overlapped_phase_time(2.0, 2.0, 1.0) <= 2.0 + 2.0 + 1.0


class TestOverlappedMatvec:
    @pytest.mark.parametrize("nparts", [2, 4])
    def test_post_matches_refresh(self, box_mesh, nparts):
        dec = Decomposition.from_mesh(box_mesh, nparts)
        ex = HaloExchanger(dec, SimulatedComm(nparts))
        rng = np.random.default_rng(0)
        g = rng.normal(size=(box_mesh.n_cells, 2))
        blocking, posted = [], []
        for s in dec.subdomains:
            loc = np.concatenate([g[s.owned_global],
                                  np.full((s.n_halo, 2), np.nan)])
            blocking.append(loc)
            posted.append(loc.copy())
        ex.refresh(blocking)
        handle = ex.post(posted)
        # ghost rows are not readable until wait()
        assert all(np.isnan(p[s.n_owned:]).all()
                   for p, s in zip(posted, dec.subdomains))
        handle.wait()
        for a, b in zip(blocking, posted):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_matvec_matches_global_operator(self, box_mesh, overlap):
        system = _make_system(box_mesh, 4, overlap_halo=overlap)
        x = np.random.default_rng(1).normal(size=(system.n, 3))
        y = system.matvec_multi(x)
        ref = _stacked_reference(box_mesh, system.decomp, x)
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("mesh_name", ["box_mesh", "periodic_mesh"])
    def test_matvec_halves_match_bincount_spelling(self, mesh_name, request):
        """The interior-block CSR and the cut-face CSR vs the parent's
        per-column ``np.bincount`` loops (``tests/face_oracle.py``), on
        asymmetric random coefficients: <= 1e-14 (the CSR rows add in
        column order, the bincounts upper triangle first)."""
        mesh = request.getfixturevalue(mesh_name)
        dec = Decomposition.from_mesh(mesh, 3)
        rng = np.random.default_rng(5)
        mats = make_random_spd_ldus(dec, rng)
        for m in mats:
            m.lower[:] = -(0.5 + rng.random(m.lower.size))
        system = DistributedSystem(dec, SimulatedComm(3), mats)
        for op in system.ops:
            loc = rng.normal(size=(op.sub.n_local, 4))
            interior = np.empty((op.sub.n_owned, 4))
            op.apply_interior(loc, interior)
            total = interior.copy()
            op.apply_boundary(loc, total)
            ref_i, ref_b = face_oracle.rank_matvec_halves(op, loc)
            scale = np.abs(ref_i).max()
            assert np.abs(interior - ref_i).max() <= 1e-14 * scale
            assert np.abs(total - interior - ref_b).max() <= 1e-14 * scale

    def test_rebinding_follows_the_coefficients(self, box_mesh):
        """``bind`` re-gathers the CSR values: the same system, re-bound
        to mutated matrices, multiplies with the new ones."""
        system = _make_system(box_mesh, 2)
        x = np.random.default_rng(6).normal(size=(system.n, 2))
        y = system.matvec_multi(x).copy()
        for m in system.mats:
            m.diag *= 2.0
            m.upper *= 2.0
            m.lower *= 2.0
        system.bind(system.mats)
        np.testing.assert_array_equal(system.matvec_multi(x), 2.0 * y)

    @pytest.mark.parametrize("solver", ["PCG", "PBiCGStab"])
    @pytest.mark.parametrize("variant", KRYLOV_VARIANTS)
    def test_rebound_system_is_a_fresh_one_bitwise(self, box_mesh, solver,
                                                   variant):
        """One persistent system re-bound to new matrices solves
        bitwise like a system freshly built on them, and -- once warm
        -- without a tracked allocation."""
        rng = np.random.default_rng(7)
        dec = Decomposition.from_mesh(box_mesh, 3)
        comm = SimulatedComm(3)
        ws = KrylovWorkspace()
        kept = DistributedSystem(dec, comm, make_random_spd_ldus(dec, rng))
        b = rng.normal(size=(kept.n, 3))
        solve_distributed(kept, b, solver=solver, variant=variant,
                          controls=TIGHT, workspace=ws)   # sizes buffers
        for _ in range(2):
            mats = make_random_spd_ldus(dec, rng)
            before = alloc.snapshot()
            kept.bind(mats)
            x, results = solve_distributed(kept, b, solver=solver,
                                           variant=variant, controls=TIGHT,
                                           workspace=ws)
            assert alloc.snapshot() == before
            x_new, results_new = solve_distributed(
                DistributedSystem(dec, comm, mats), b, solver=solver,
                variant=variant, controls=TIGHT)
            np.testing.assert_array_equal(x, x_new)
            assert [r.iterations for r in results] \
                == [r.iterations for r in results_new]

    def test_overlap_is_bitwise_equal_to_sync(self, box_mesh):
        """Only the post/wait placement differs between the paths; the
        interior/boundary summation order is identical."""
        system = _make_system(box_mesh, 4, overlap_halo=False)
        x = np.random.default_rng(2).normal(size=(system.n, 2))
        y_sync = system.matvec_multi(x).copy()
        system.overlap_halo = True
        np.testing.assert_array_equal(system.matvec_multi(x), y_sync)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_matvec_halo_ledger(self, box_mesh, overlap):
        system = _make_system(box_mesh, 4, overlap_halo=overlap)
        expected = sum(len(s.send) for s in system.decomp.subdomains)
        before = system.comm.ledger.totals()
        system.matvec_multi(np.ones((system.n, 1)))
        d = system.comm.ledger.delta(before)
        assert d["exchanges"] == 1
        assert d["messages"] == expected
        assert d["overlap_messages"] == (expected if overlap else 0)
        assert d["allreduces"] == 0


class TestCollectiveCounts:
    """Ledger-exact allreduce/exchange counts per Krylov iteration.

    ``tolerance=0`` keeps every column running all ``N`` iterations,
    so the counts are deterministic: the communication-avoiding
    variants must hit exactly their advertised collective budget --
    pipelined PCG 1 fused iallreduce per iteration (synchronous: 3
    allreduces), fused PBiCGStab 2 grouped allreduces (synchronous: 6).
    """

    N = 5
    FIXED = SolverControls(tolerance=0.0, max_iterations=N)

    def _run(self, mesh, nparts, solver, variant):
        system = _make_system(mesh, nparts,
                              overlap_halo=(variant == "overlapped"))
        b = np.random.default_rng(3).normal(size=(system.n, 2))
        before = system.comm.ledger.totals()
        _, results = solve_distributed(system, b, solver=solver,
                                       controls=self.FIXED,
                                       variant=variant)
        assert all(r.iterations == self.N and not r.converged
                   for r in results)
        return system.comm.ledger.delta(before)

    @pytest.mark.parametrize("nparts", [2, 4])
    def test_pcg_synchronous(self, box_mesh, nparts):
        d = self._run(box_mesh, nparts, "PCG", "synchronous")
        assert d["allreduces"] == 3 + 3 * self.N
        assert d["exchanges"] == 1 + self.N
        assert d["overlap_allreduces"] == 0
        assert d["overlap_messages"] == 0

    @pytest.mark.parametrize("nparts", [2, 4])
    def test_pcg_pipelined(self, box_mesh, nparts):
        d = self._run(box_mesh, nparts, "PCG", "overlapped")
        # exactly ONE collective per iteration, every one posted
        # nonblocking; the setup costs one extra matvec (w = A u)
        assert d["allreduces"] == self.N
        assert d["overlap_allreduces"] == self.N
        assert d["exchanges"] == 2 + self.N
        assert d["overlap_messages"] == d["messages"]

    @pytest.mark.parametrize("nparts", [2, 4])
    def test_pbicgstab_synchronous(self, box_mesh, nparts):
        d = self._run(box_mesh, nparts, "PBiCGStab", "synchronous")
        assert d["allreduces"] == 2 + 6 * self.N
        assert d["exchanges"] == 1 + 2 * self.N
        assert d["overlap_allreduces"] == 0

    @pytest.mark.parametrize("nparts", [2, 4])
    def test_pbicgstab_fused(self, box_mesh, nparts):
        d = self._run(box_mesh, nparts, "PBiCGStab", "overlapped")
        # TWO grouped collectives per iteration, nothing else; the
        # groups are blocking (no pipelining in BiCGStab's recurrence),
        # so only the halo traffic is overlap-tagged
        assert d["allreduces"] == 2 * self.N
        assert d["overlap_allreduces"] == 0
        assert d["exchanges"] == 1 + 2 * self.N
        assert d["overlap_messages"] == d["messages"]

    @pytest.mark.parametrize("solver", ["PCG", "PBiCGStab"])
    def test_overlapped_allreduces_per_iteration(self, box_mesh, solver):
        """The headline budget: fewer collectives per iteration."""
        sync = self._run(box_mesh, 4, solver, "synchronous")
        ovl = self._run(box_mesh, 4, solver, "overlapped")
        assert ovl["allreduces"] / self.N < sync["allreduces"] / self.N


class TestVariantAgreement:
    @pytest.mark.parametrize("solver", ["PCG", "PBiCGStab"])
    @pytest.mark.parametrize("nparts", [2, 4, 8])
    def test_solve_agreement(self, box_mesh, solver, nparts):
        b = np.random.default_rng(4).normal(size=(box_mesh.n_cells, 3))
        xs = {}
        for variant in KRYLOV_VARIANTS:
            system = _make_system(box_mesh, nparts,
                                  overlap_halo=(variant == "overlapped"))
            x, results = solve_distributed(system, b, solver=solver,
                                           controls=TIGHT, variant=variant)
            assert all(r.converged for r in results)
            xs[variant] = x.copy()
        assert np.abs(xs["overlapped"] - xs["synchronous"]).max() <= 1e-8


class TestDecomposedAgreement:
    """The overlapped execution mode of the full decomposed step."""

    def _solver(self, mech, nparts, variant, **kw):
        settings = SolverSettings(
            ranks=nparts, krylov_variant=variant,
            overlap_halo=(variant == "overlapped"),
            scalar_controls=SolverControls(tolerance=1e-12,
                                           max_iterations=500),
            pressure_controls=SolverControls(tolerance=1e-12,
                                             max_iterations=1000))
        return DecomposedSolver(build_tgv_case(n=6, mech=mech),
                                settings, **kw)

    def _diffs(self, a, b):
        return {f: np.abs(a.gather(f) - b.gather(f)).max()
                for f in ("y", "T", "u", "p", "h")}

    @pytest.mark.parametrize("nparts", [2, 4, 8])
    def test_matches_sync_tgv(self, mech, nparts):
        kw = dict(properties=IdealGasProperties(mech),
                  chemistry=NoChemistry())
        sync = self._solver(mech, nparts, "synchronous", **kw)
        ovl = self._solver(mech, nparts, "overlapped", **kw)
        sync.run(3, 1e-8)
        ovl.run(3, 1e-8)
        diffs = self._diffs(ovl, sync)
        assert all(d <= 1e-8 for d in diffs.values()), diffs
        # the overlapped mode actually ran nonblocking and cheaper
        assert ovl.last_comm["overlap_messages"] > 0
        assert ovl.last_comm["overlap_allreduces"] > 0
        assert ovl.last_comm["allreduces"] < sync.last_comm["allreduces"]
        assert sync.last_comm["overlap_messages"] == 0
        assert sync.last_comm["overlap_allreduces"] == 0

    def test_matches_sync_real_fluid(self, mech):
        """Default (Peng-Robinson) property path, 2 ranks."""
        sync = self._solver(mech, 2, "synchronous",
                            chemistry=NoChemistry())
        ovl = self._solver(mech, 2, "overlapped", chemistry=NoChemistry())
        sync.run(2, 1e-8)
        ovl.run(2, 1e-8)
        diffs = self._diffs(ovl, sync)
        assert all(d <= 1e-8 for d in diffs.values()), diffs


class TestWarmAllocations:
    @pytest.mark.parametrize("variant", KRYLOV_VARIANTS)
    def test_zero_warm_solve_allocations(self, mech, variant):
        """After the first step sized every persistent buffer, warm
        distributed solves perform zero tracked allocations -- with
        each rank's cached block-DIC living in the persistent system."""
        settings = SolverSettings(ranks=4, krylov_variant=variant,
                                  overlap_halo=(variant == "overlapped"))
        solver = DecomposedSolver(
            build_tgv_case(n=6, mech=mech), settings,
            properties=IdealGasProperties(mech), chemistry=NoChemistry())
        solver.step(1e-8)   # sizes scratch buffers and the workspace
        dics = [op.dic for op in solver._system.ops]
        assert all(isinstance(d, CachedDICPreconditioner) for d in dics)
        for _ in range(3):
            solver.step(1e-8)
            assert solver.last_timings.alloc_solving == 0
        assert [op.dic for op in solver._system.ops] == dics


class TestBlockDIC:
    """The per-rank cached block-Jacobi DIC of the distributed PCG."""

    @pytest.mark.parametrize("nparts", [2, 4])
    def test_apply_matches_sequential_oracle(self, box_mesh, nparts):
        """Per rank, bitwise equal to the reference face-loop DIC on
        the owned diagonal block -- also after a value-only refresh
        of the same system (no structure is rebuilt)."""
        rng = np.random.default_rng(nparts)
        dec = Decomposition.from_mesh(box_mesh, nparts)
        comm = SimulatedComm(nparts)
        system = structs = None
        for _ in range(2):      # second pass: new values, same system
            mats = make_random_spd_ldus(dec, rng)
            if system is None:
                system = DistributedSystem(dec, comm, mats)
            else:
                system.bind(mats)
            apply = system.block_dic()
            for r in (rng.standard_normal((system.n, 3)),
                      rng.standard_normal(system.n)):
                got = apply(r)
                for q, (sub, m) in enumerate(zip(dec.subdomains, mats)):
                    sl = dec.rank_slice(q)
                    oracle = DICPreconditioner(sub.interior_matrix(m))
                    assert np.array_equal(got[sl],
                                          oracle.apply_multi(r[sl].copy()))
            if structs is None:
                structs = [op.dic.struct for op in system.ops]
        assert [op.dic.struct for op in system.ops] == structs

    @pytest.mark.parametrize("variant", KRYLOV_VARIANTS)
    def test_structure_built_once_per_rank(self, mech, variant,
                                           monkeypatch):
        built = []
        init = preconditioners.DICStructure.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(preconditioners.DICStructure, "__init__",
                            counting)
        solver = DecomposedSolver(
            build_tgv_case(n=6, mech=mech),
            SolverSettings(ranks=2, krylov_variant=variant),
            properties=IdealGasProperties(mech), chemistry=NoChemistry())
        solver.run(3, 1e-8)
        assert len(built) == 2

    def test_asymmetric_block_rejected(self, box_mesh):
        system = _make_system(box_mesh, 2)
        system.mats[1].upper[system.ops[1].interior[0]] *= 2.0
        with pytest.raises(ValueError, match="symmetric"):
            solve_distributed(system, np.ones((system.n, 1)), solver="PCG")

    def test_no_interior_faces_is_diagonal_scaling(self, box_mesh):
        """A rank whose owned cells share no face gets an empty DIC
        structure: refresh works, apply is plain Jacobi, PCG converges."""
        dec = Decomposition.from_mesh(box_mesh, 2,
                                      parts=checkerboard_parts(box_mesh))
        mats = [make_laplacian_ldu(s.mesh) for s in dec.subdomains]
        system = DistributedSystem(dec, SimulatedComm(2), mats)
        for _ in range(2):      # build, then value-only refresh
            apply = system.block_dic()
        assert all(op.dic.struct.order.size == 0 for op in system.ops)
        rng = np.random.default_rng(0)
        for r in (rng.standard_normal((system.n, 2)),
                  rng.standard_normal(system.n)):
            assert np.array_equal(apply(r), system.jacobi()(r))
        b = rng.standard_normal((system.n, 2))
        x, results = solve_distributed(system, b, solver="PCG",
                                       controls=TIGHT)
        assert all(res.converged for res in results)
        assert np.abs(_stacked_reference(box_mesh, dec, x) - b).max() <= 1e-9


class TestValidation:
    def test_unknown_krylov_variant_rejected(self):
        with pytest.raises(ValueError, match="krylov_variant"):
            SolverSettings(krylov_variant="bogus")

    def test_overlap_halo_must_be_bool(self):
        with pytest.raises(TypeError, match="overlap_halo"):
            SolverSettings(overlap_halo="yes")

    def test_solve_distributed_rejects_unknown_variant(self, box_mesh):
        system = _make_system(box_mesh, 2)
        b = np.ones((system.n, 1))
        with pytest.raises(ValueError, match="variant"):
            solve_distributed(system, b, variant="bogus")
        with pytest.raises(ValueError, match="solver"):
            solve_distributed(system, b, solver="GMRES")
