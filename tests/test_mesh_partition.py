"""Unit tests: meshes, graphs, renumbering, partitioning, decomposition."""

import heapq
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dist.decompose import Decomposition
from repro.io.pipeline import mesh_storage_bytes, storage_comparison
from repro.mesh.graph import cell_graph_from_mesh
from repro.mesh.renumber import bandwidth, cuthill_mckee, partition_renumbering
from repro.mesh.rocket import build_rocket_mesh, nozzle_radius_profile
from repro.mesh.structured import BoxSpec, build_box_mesh
from repro.mesh.unstructured import UnstructuredMesh
from repro.partition.multilevel import bisect_graph, fm_refine
from repro.partition.partitioner import partition_graph
from tests.conftest import partitioned_blocks

ROOT = Path(__file__).resolve().parents[1]


def _cut(mesh, mem):
    """Faces of ``mesh`` the labels ``mem`` cut, as the decomposition
    counts them."""
    mem = np.asarray(mem, dtype=np.int64)
    dec = Decomposition.from_mesh(mesh, int(mem.max()) + 1, parts=mem)
    return dec.stats()["cut_faces"]


def _strided(n, nparts):
    """Ablation baseline: contiguous index blocks."""
    return np.arange(n) * nparts // n


def _random(n, nparts, seed=0):
    """Ablation baseline: balanced uniformly random labels."""
    base = np.repeat(np.arange(nparts), -(-n // nparts))[:n]
    return np.random.default_rng(seed).permutation(base)


def _imbalance(mem):
    counts = np.bincount(mem)
    return counts.max() / counts.mean() - 1.0


class TestBoxMesh:
    def test_counts(self):
        m = build_box_mesh(4, 3, 2)
        assert m.n_cells == 24
        assert m.n_internal_faces == 3 * 3 * 2 + 4 * 2 * 2 + 4 * 3 * 1
        assert m.n_boundary_faces == 2 * (3 * 2 + 4 * 2 + 4 * 3)

    def test_volume_sums_to_box(self):
        m = build_box_mesh(5, 4, 3, lengths=(2.0, 1.0, 0.5))
        assert m.cell_volumes.sum() == pytest.approx(1.0)

    def test_periodic_faces_internal(self):
        m = build_box_mesh(4, 4, 4, periodic=(True, True, True))
        assert m.n_boundary_faces == 0
        assert m.n_internal_faces == 3 * 64

    def test_partial_periodicity(self):
        m = build_box_mesh(4, 4, 4, periodic=(True, False, False))
        assert {p.name for p in m.patches} == {"ymin", "ymax", "zmin", "zmax"}

    def test_general_geometry_matches_analytic(self):
        m = build_box_mesh(3, 3, 3, lengths=(1.5, 0.7, 2.1))
        general = UnstructuredMesh(m.points, m.face_nodes, m.owner,
                                   m.neighbour, m.patches)
        np.testing.assert_allclose(general.cell_volumes, m.cell_volumes,
                                   rtol=1e-12)
        np.testing.assert_allclose(general.cell_centres, m.cell_centres,
                                   atol=1e-12)
        np.testing.assert_allclose(general.face_areas, m.face_areas,
                                   atol=1e-12)

    def test_face_area_divergence_theorem(self):
        """Sum of signed face-area vectors per cell is zero (closedness)."""
        m = build_box_mesh(3, 3, 3)
        acc = np.zeros((m.n_cells, 3))
        np.add.at(acc, m.owner, m.face_areas)
        np.add.at(acc, m.neighbour, -m.face_areas[:m.n_internal_faces])
        assert np.abs(acc).max() < 1e-14

    def test_interpolation_weights_uniform(self):
        m = build_box_mesh(4, 4, 4)
        np.testing.assert_allclose(m.face_interpolation_weights(), 0.5)

    def test_spec_refinement(self):
        spec = BoxSpec(2, 2, 2)
        assert spec.refined(2).n_cells == 8 * 64

    def test_patch_contiguity_enforced(self):
        m = build_box_mesh(2, 2, 2)
        from repro.mesh.unstructured import Patch

        bad = [Patch(p.name, p.start + 1, p.size) for p in m.patches]
        with pytest.raises(ValueError):
            UnstructuredMesh(m.points, m.face_nodes, m.owner, m.neighbour, bad)

    def test_renumbered_permutes_owner(self):
        m = build_box_mesh(3, 3, 3)
        perm = np.random.default_rng(0).permutation(m.n_cells)
        m2 = m.renumbered(perm)
        np.testing.assert_array_equal(m2.owner, perm[m.owner])
        np.testing.assert_allclose(np.sort(m2.cell_volumes),
                                   np.sort(m.cell_volumes))


class TestRocketMesh:
    def test_positive_volumes(self, rocket_mesh):
        assert np.all(rocket_mesh.cell_volumes > 0)

    def test_patch_names(self, rocket_mesh):
        names = {p.name for p in rocket_mesh.patches}
        assert {"injector_plate", "outlet", "chamber_wall"} <= names

    def test_sector_sweep_scales_cells(self):
        m1 = build_rocket_mesh(nr=4, ntheta_per_sector=6, nz=10, n_sectors=1)
        m2 = build_rocket_mesh(nr=4, ntheta_per_sector=6, nz=10, n_sectors=2)
        assert m2.n_cells == 2 * m1.n_cells

    def test_full_annulus_periodic(self):
        m = build_rocket_mesh(nr=3, ntheta_per_sector=4, nz=6, n_sectors=16)
        names = {p.name for p in m.patches}
        assert "sector_start" not in names  # wrapped into internal faces

    def test_nozzle_profile_shape(self):
        z = np.linspace(0, 1, 101)
        r = nozzle_radius_profile(z)
        assert r[0] == pytest.approx(1.0)
        assert r.min() == pytest.approx(0.42, abs=0.01)
        assert r[-1] > r.min()  # diverging exit

    def test_jitter_deterministic(self):
        a = build_rocket_mesh(nr=3, ntheta_per_sector=4, nz=6, seed=7)
        b = build_rocket_mesh(nr=3, ntheta_per_sector=4, nz=6, seed=7)
        np.testing.assert_array_equal(a.points, b.points)

    def test_irregular_volumes(self, rocket_mesh):
        """Jitter + grading makes cells genuinely non-uniform."""
        v = rocket_mesh.cell_volumes
        assert v.max() / v.min() > 3.0


class TestGraph:
    def test_structured_degrees(self, box_mesh):
        deg = np.diff(cell_graph_from_mesh(box_mesh).indptr)
        assert deg.max() == 6
        assert deg.min() == 3  # corners

    def test_edge_count_matches_faces(self, box_mesh):
        g = cell_graph_from_mesh(box_mesh)
        assert g.data.sum() == 2 * box_mesh.n_internal_faces

    def test_symmetry(self, rocket_graph):
        assert (rocket_graph != rocket_graph.T).nnz == 0

    def test_subgraph_preserves_internal_edges(self, box_mesh):
        g = cell_graph_from_mesh(box_mesh)
        verts = np.arange(0, 12)
        sub = g[verts][:, verts].tocoo()
        assert sub.shape == (verts.size, verts.size)
        # every subgraph edge is a face of the mesh between its cells,
        # and every such face is an edge of the subgraph
        nif = box_mesh.n_internal_faces
        own, nb = box_mesh.owner[:nif], box_mesh.neighbour
        inside = np.isin(own, verts) & np.isin(nb, verts)
        faces = set(zip(own[inside].tolist(), nb[inside].tolist()))
        faces |= {(v, u) for u, v in faces}
        edges = set(zip(verts[sub.row].tolist(), verts[sub.col].tolist()))
        assert edges == faces
        assert sub.data.sum() == 2 * inside.sum()


class TestRenumber:
    def test_cm_is_permutation(self, rocket_graph):
        perm = cuthill_mckee(rocket_graph)
        assert np.array_equal(np.sort(perm), np.arange(rocket_graph.shape[0]))

    def test_rcm_reverses(self, rocket_graph):
        """The ordering is a Cuthill-McKee BFS read backwards; the
        reversal moves neither the bandwidth nor the block structure."""
        rcm = cuthill_mckee(rocket_graph)
        n = rocket_graph.shape[0]
        cm = n - 1 - rcm
        assert bandwidth(rocket_graph, cm) == bandwidth(rocket_graph, rcm)
        # in BFS order each vertex's earliest neighbour comes before it,
        # and those parents come in the order their children do
        g = rocket_graph.tocoo()
        first = np.full(n, n, dtype=np.int64)
        np.minimum.at(first, cm[g.row], cm[g.col])
        parent = first[1:]
        assert np.all(parent < np.arange(1, n))
        assert np.all(np.diff(parent) >= 0)

    def test_cm_reduces_bandwidth_random_order(self, rocket_graph):
        rng = np.random.default_rng(0)
        random_perm = rng.permutation(rocket_graph.shape[0])
        bw_random = bandwidth(rocket_graph, random_perm)
        bw_cm = bandwidth(rocket_graph, cuthill_mckee(rocket_graph))
        assert bw_cm < bw_random / 2

    def test_partition_renumbering_groups_parts(self, rocket_graph):
        mem = partition_graph(rocket_graph, 4)
        perm = partition_renumbering(rocket_graph, mem)
        # new index order must list part 0 first, then 1, ...
        part_of_new = mem[np.argsort(perm)]
        assert np.all(np.diff(part_of_new) >= 0)


class TestRefine:
    def test_refined_cell_count(self):
        cmp = storage_comparison(19_000_000, 5)
        assert cmp["fine_cells"] == 19_000_000 * 8**5

    def test_refine_box_geometry(self):
        m = build_box_mesh(2, 2, 2, lengths=(1.0, 1.0, 1.0))
        fine = m.spec.refined(1).build()
        assert fine.n_cells == 64
        assert fine.cell_volumes.sum() == pytest.approx(1.0)

    def test_refine_graph_counts(self, box_mesh):
        g = cell_graph_from_mesh(box_mesh)
        fine = cell_graph_from_mesh(box_mesh.spec.refined(1).build())
        n, n_edges = g.shape[0], g.nnz // 2
        assert fine.shape[0] == 8 * n
        assert fine.nnz // 2 == 12 * n + 4 * n_edges

    def test_refined_graph_degree_bounded(self, box_mesh):
        """Refining the mesh keeps a hex mesh: no cell gains more than
        the hex bound of 6 neighbours, and the mean stays hex-like."""
        fine = cell_graph_from_mesh(box_mesh.spec.refined(1).build())
        deg = np.diff(fine.indptr)
        assert deg.max() <= 6
        assert 4.0 < deg.mean() < 6.5

    def test_storage_reproduces_paper_121tb(self):
        """19 M cells x 8^5 = 618 B cells -> ~121 TB; coarse ~ GBs."""
        fine = mesh_storage_bytes(18_874_368 * 8**5)
        assert 0.7e14 < fine < 2.0e14  # order 121 TB
        coarse = mesh_storage_bytes(18_874_368)
        assert coarse < 20e9  # paper: 16 GB case directory


class TestPartition:
    def test_balance(self, rocket_graph):
        assert _imbalance(partition_graph(rocket_graph, 8)) < 0.10

    def test_all_parts_populated(self, rocket_graph):
        mem = partition_graph(rocket_graph, 8)
        assert len(np.unique(mem)) == 8

    def test_beats_strided_cut_on_shuffled_labels(self, rocket_mesh):
        """Strided decomposition of a mesh whose cell labels carry no
        spatial locality (the generic unstructured situation) is far
        worse than the multilevel partitioner."""
        n = rocket_mesh.n_cells
        shuffled = rocket_mesh.renumbered(
            np.random.default_rng(0).permutation(n))
        ml = _cut(shuffled, partition_graph(cell_graph_from_mesh(shuffled), 8))
        st = _cut(shuffled, _strided(n, 8))
        assert ml < st / 2

    def test_beats_random_by_far(self, rocket_mesh, rocket_graph):
        ml = _cut(rocket_mesh, partition_graph(rocket_graph, 8))
        rd = _cut(rocket_mesh, _random(rocket_mesh.n_cells, 8))
        assert ml < rd / 4

    def test_single_part(self, rocket_graph):
        mem = partition_graph(rocket_graph, 1)
        assert np.all(mem == 0)

    def test_nonpower_of_two(self, rocket_graph):
        mem = partition_graph(rocket_graph, 6)
        assert len(np.unique(mem)) == 6
        assert _imbalance(mem) < 0.12

    def test_deterministic_seed(self, rocket_graph):
        a = partition_graph(rocket_graph, 4, seed=3)
        b = partition_graph(rocket_graph, 4, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_invalid_nparts(self, rocket_graph):
        with pytest.raises(ValueError):
            partition_graph(rocket_graph, 0)
        with pytest.raises(ValueError):
            partition_graph(rocket_graph, rocket_graph.shape[0] + 1)

    def test_offdiag_fraction_improves(self, rocket_mesh, rocket_graph):
        """Fig. 6's metric: multilevel+CM beats naive numbering."""
        ml = partitioned_blocks(rocket_mesh, partition_graph(rocket_graph, 16))
        st = partitioned_blocks(rocket_mesh, _strided(rocket_mesh.n_cells, 16))
        assert ml.offdiag_nnz_fraction() < st.offdiag_nnz_fraction()

    def test_block_occupancy_reduced(self, rocket_mesh, rocket_graph):
        ml = partitioned_blocks(rocket_mesh, partition_graph(rocket_graph, 16))
        rd = partitioned_blocks(rocket_mesh, _random(rocket_mesh.n_cells, 16))
        assert ml.n_nonzero_blocks < rd.n_nonzero_blocks


def _periodic_box(n):
    """The ``n^3`` triply periodic TGV box, plus the ``z`` coordinate
    of each cell centre."""
    mesh = build_box_mesh(n, n, n, periodic=(True, True, True))
    return mesh, mesh.cell_centres[:, 2]


class TestRefinement:
    """Boundary FM refinement: never worse, balanced, bounded work."""

    @staticmethod
    def _inputs(rocket_mesh):
        """Balanced starting bisections: random halves of the rocket
        mesh and of the periodic box, and a wavy plane cut."""
        rng = np.random.default_rng(0)
        box, z = _periodic_box(12)
        wavy = (z + 0.05 * np.sin(40.0 * np.arange(z.size)) > 0.5)
        out = [(box, wavy.astype(np.int64))]
        for m in (rocket_mesh, box):
            for _ in range(2):
                half = rng.permutation(m.n_cells) < m.n_cells // 2
                out.append((m, half.astype(np.int64)))
        return out

    def test_never_raises_cut_and_keeps_balance(self, rocket_mesh):
        for mesh, side in self._inputs(rocket_mesh):
            adj = cell_graph_from_mesh(mesh)
            vwgt = np.ones(mesh.n_cells)
            before = side.copy()
            for frac, imbalance in ((0.5, 0.02), (0.5, 0.1)):
                out = fm_refine(adj, vwgt, side, frac, imbalance)
                np.testing.assert_array_equal(side, before)
                assert _cut(mesh, out) <= _cut(mesh, side)
                total = vwgt.sum()
                slack = vwgt.max()
                for s, target in ((0, frac * total), (1, (1 - frac) * total)):
                    w = vwgt[out == s].sum()
                    assert target * (1 - imbalance) - slack <= w
                    assert w <= target * (1 + imbalance) + slack

    def test_same_seed_same_partition(self, rocket_graph):
        w = np.ones(rocket_graph.shape[0])
        for seed in (0, 5):
            a = bisect_graph(rocket_graph, w, 0.4, np.random.default_rng(seed))
            b = bisect_graph(rocket_graph, w, 0.4, np.random.default_rng(seed))
            np.testing.assert_array_equal(a, b)

    def test_work_follows_the_boundary(self, monkeypatch):
        """On the n = 32 periodic box (32 768 cells) cut by a plane, a
        refinement's heap pops stay within a small multiple of the
        boundary vertices: no pass visits the whole graph."""
        mesh, z = _periodic_box(32)
        side = (z > 0.5).astype(np.int64)
        # two cut planes, one layer of cells on either side of each
        boundary = 4 * 32 * 32
        pops = []
        heappop = heapq.heappop

        def counting_pop(heap):
            pops.append(1)
            return heappop(heap)

        adj = cell_graph_from_mesh(mesh)
        monkeypatch.setattr(heapq, "heappop", counting_pop)
        out = fm_refine(adj, np.ones(mesh.n_cells), side, 0.5)
        assert 0 < len(pops) <= 3 * boundary
        assert _cut(mesh, out) == _cut(mesh, side) == 2 * 32 * 32

    @pytest.mark.parametrize("seed", range(10))
    def test_periodic_box_bisects_at_a_plane(self, seed):
        """The 2-rank TGV mesh (n = 16, triply periodic) splits at two
        planes: 2 x 16 x 16 = 512 cut faces, the minimum for a balanced
        bisection of the torus."""
        mesh, _ = _periodic_box(16)
        mem = partition_graph(cell_graph_from_mesh(mesh), 2, seed=seed)
        assert _cut(mesh, mem) == 512
        assert np.bincount(mem).tolist() == [2048, 2048]


class TestTwoLevel:
    """Sec. 3.1's process level is :class:`Decomposition`; the thread
    level is the partitioner on one subdomain's owned block."""

    @staticmethod
    def _shared_faces(dec):
        """``shared[p, q]``: faces rank ``p`` shares with rank ``q``."""
        shared = np.zeros((dec.nparts, dec.nparts), dtype=np.int64)
        for s in dec.subdomains:
            nif = s.mesh.n_internal_faces
            own = s.mesh.owner[:nif][s.cut_mask]
            nb = s.mesh.neighbour[s.cut_mask]
            halo = np.where(own >= s.n_owned, own, nb) - s.n_owned
            shared[s.rank] = np.bincount(s.halo_owner_rank[halo],
                                         minlength=dec.nparts)
        return shared

    def test_decomposition_structure(self, rocket_mesh):
        dec = Decomposition.from_mesh(rocket_mesh, 4)
        assert dec.nparts == 4
        assert sum(dec.stats()["cells_per_rank"]) == rocket_mesh.n_cells

    def test_thread_membership_local(self, rocket_mesh):
        dec = Decomposition.from_mesh(rocket_mesh, 4)
        for s in dec.subdomains:
            owned = cell_graph_from_mesh(s.mesh)[:s.n_owned, :s.n_owned]
            threads = partition_graph(owned, 4)
            assert threads.shape == (s.n_owned,)
            assert threads.max() < 4

    def test_neighbour_symmetry(self, rocket_mesh):
        dec = Decomposition.from_mesh(rocket_mesh, 4)
        shared = self._shared_faces(dec)
        subs = dec.subdomains
        for p in subs:
            for q in p.neighbours:
                assert p.rank in subs[q].neighbours
                assert shared[q, p.rank] == shared[p.rank, q] > 0
        assert shared.sum() == 2 * dec.stats()["cut_faces"]

    def test_halo_cells_belong_to_neighbour(self, rocket_mesh):
        dec = Decomposition.from_mesh(rocket_mesh, 4)
        for s in dec.subdomains:
            for q, local in s.recv.items():
                cells = s.halo_global[local - s.n_owned]
                assert np.all(dec.parts[cells] == q)

    def test_load_balance_paper_regime(self, rocket_mesh):
        """Sec. 3.1: the process level keeps std/mean small."""
        counts = np.array(
            Decomposition.from_mesh(rocket_mesh, 8).stats()["cells_per_rank"])
        assert counts.std() / counts.mean() < 0.06


def test_rocket_sector_example_runs():
    """``examples/rocket_sector.py`` runs end to end and prints both
    orderings' block statistics from one definition (the block matrix's
    own counts): partitioning + Cuthill-McKee leaves fewer off-diagonal
    non-zeros than the naive ordering."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "rocket_sector.py")],
        env=env, capture_output=True, text=True, timeout=120,
        check=True).stdout
    blocks = re.search(r"partitioned \+ CM (\d+) / ([\d.]+)%, "
                       r"naive ordering (\d+) / ([\d.]+)%", out)
    assert blocks is not None, out
    assert float(blocks[2]) < float(blocks[4])
    assert "process 0's threads" in out
    assert "step 3:" in out
