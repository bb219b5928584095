"""Unit tests: meshes, graphs, renumbering, refinement, partitioning."""

import heapq

import numpy as np
import pytest

from repro.mesh.graph import cell_graph_from_mesh
from repro.mesh.refine import (
    mesh_storage_bytes,
    refine_box,
    refine_cell_graph,
    refined_cell_count,
)
from repro.mesh.renumber import bandwidth, cuthill_mckee, partition_renumbering
from repro.mesh.rocket import build_rocket_mesh, nozzle_radius_profile
from repro.mesh.structured import BoxSpec, build_box_mesh
from repro.mesh.unstructured import UnstructuredMesh
from repro.partition.hierarchical import decompose_two_level
from repro.partition.metrics import (
    balance_stats,
    block_occupancy,
    edge_cut,
    offdiag_fraction,
)
from repro.partition.multilevel import bisect_graph, fm_refine
from repro.partition.partitioner import graph_to_csr, partition_graph


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
        g = cell_graph_from_mesh(box_mesh)
        deg = g.degree()
        assert deg.max() == 6
        assert deg.min() == 3  # corners

    def test_edge_count_matches_faces(self, box_mesh):
        g = cell_graph_from_mesh(box_mesh)
        assert g.n_edges == box_mesh.n_internal_faces

    def test_symmetry(self, rocket_graph):
        g = rocket_graph
        for v in range(0, g.n_vertices, 97):
            for u in g.neighbours(v):
                assert v in g.neighbours(int(u))

    def test_subgraph_preserves_internal_edges(self, box_mesh):
        g = cell_graph_from_mesh(box_mesh)
        verts = np.arange(0, 12)
        sub, l2g = g.subgraph(verts)
        np.testing.assert_array_equal(l2g, verts)
        # every subgraph edge exists in the parent
        for lv in range(sub.n_vertices):
            for lu in sub.neighbours(lv):
                assert l2g[lu] in g.neighbours(int(l2g[lv]))


class TestRenumber:
    def test_cm_is_permutation(self, rocket_graph):
        perm = cuthill_mckee(rocket_graph)
        assert np.array_equal(np.sort(perm), np.arange(rocket_graph.n_vertices))

    def test_rcm_reverses(self, rocket_graph):
        cm = cuthill_mckee(rocket_graph)
        rcm = cuthill_mckee(rocket_graph, reverse=True)
        n = rocket_graph.n_vertices
        np.testing.assert_array_equal(rcm, n - 1 - cm)

    def test_cm_reduces_bandwidth_random_order(self, rocket_graph):
        rng = np.random.default_rng(0)
        random_perm = rng.permutation(rocket_graph.n_vertices)
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
        assert refined_cell_count(19_000_000, 5) == 19_000_000 * 8**5

    def test_refine_box_geometry(self):
        m = build_box_mesh(2, 2, 2, lengths=(1.0, 1.0, 1.0))
        fine = refine_box(m, 1)
        assert fine.n_cells == 64
        assert fine.cell_volumes.sum() == pytest.approx(1.0)

    def test_refine_graph_counts(self, box_mesh):
        g = cell_graph_from_mesh(box_mesh)
        fine = refine_cell_graph(g, 1)
        assert fine.n_vertices == 8 * g.n_vertices
        assert fine.n_edges == 12 * g.n_vertices + 4 * g.n_edges

    def test_refined_graph_degree_bounded(self, box_mesh):
        """Graph-level refinement is approximate: parent-edge axes can
        collide, so child degree may slightly exceed the hex bound of
        6, but the mean stays hex-like."""
        g = cell_graph_from_mesh(box_mesh)
        fine = refine_cell_graph(g, 1)
        assert fine.degree().max() <= 12
        assert 4.0 < fine.degree().mean() < 6.5

    def test_storage_reproduces_paper_121tb(self):
        """19 M cells x 8^5 = 618 B cells -> ~121 TB; coarse ~ GBs."""
        fine = mesh_storage_bytes(refined_cell_count(18_874_368, 5))
        assert 0.7e14 < fine < 2.0e14  # order 121 TB
        coarse = mesh_storage_bytes(18_874_368)
        assert coarse < 20e9  # paper: 16 GB case directory


class TestPartition:
    def test_balance(self, rocket_graph):
        mem = partition_graph(rocket_graph, 8)
        stats = balance_stats(mem)
        assert stats.imbalance < 0.10

    def test_all_parts_populated(self, rocket_graph):
        mem = partition_graph(rocket_graph, 8)
        assert len(np.unique(mem)) == 8

    def test_beats_strided_cut_on_shuffled_labels(self, rocket_graph):
        """Strided decomposition of a mesh whose cell labels carry no
        spatial locality (the generic unstructured situation) is far
        worse than the multilevel partitioner."""
        from repro.mesh.graph import CellGraph

        rng = np.random.default_rng(0)
        perm = rng.permutation(rocket_graph.n_vertices)
        src = np.repeat(np.arange(rocket_graph.n_vertices),
                        np.diff(rocket_graph.xadj))
        keep = src < rocket_graph.adjncy
        shuffled = CellGraph.from_edges(rocket_graph.n_vertices,
                                        perm[src[keep]],
                                        perm[rocket_graph.adjncy[keep]])
        ml = edge_cut(shuffled, partition_graph(shuffled, 8))
        st = edge_cut(shuffled, partition_graph(shuffled, 8,
                                                method="strided"))
        assert ml < st / 2

    def test_beats_random_by_far(self, rocket_graph):
        ml = edge_cut(rocket_graph, partition_graph(rocket_graph, 8))
        rd = edge_cut(rocket_graph, partition_graph(rocket_graph, 8,
                                                    method="random"))
        assert ml < rd / 4

    def test_single_part(self, rocket_graph):
        mem = partition_graph(rocket_graph, 1)
        assert np.all(mem == 0)

    def test_nonpower_of_two(self, rocket_graph):
        mem = partition_graph(rocket_graph, 6)
        stats = balance_stats(mem)
        assert len(np.unique(mem)) == 6
        assert stats.imbalance < 0.12

    def test_deterministic_seed(self, rocket_graph):
        a = partition_graph(rocket_graph, 4, seed=3)
        b = partition_graph(rocket_graph, 4, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_invalid_nparts(self, rocket_graph):
        with pytest.raises(ValueError):
            partition_graph(rocket_graph, 0)
        with pytest.raises(ValueError):
            partition_graph(rocket_graph, rocket_graph.n_vertices + 1)

    def test_offdiag_fraction_improves(self, rocket_graph):
        """Fig. 6's metric: multilevel+CM beats naive numbering."""
        f_ml = offdiag_fraction(rocket_graph,
                                partition_graph(rocket_graph, 16))
        f_st = offdiag_fraction(rocket_graph,
                                partition_graph(rocket_graph, 16,
                                                method="strided"))
        assert f_ml < f_st

    def test_block_occupancy_reduced(self, rocket_graph):
        occ_ml = block_occupancy(rocket_graph,
                                 partition_graph(rocket_graph, 16))
        occ_rd = block_occupancy(rocket_graph,
                                 partition_graph(rocket_graph, 16,
                                                 method="random"))
        assert occ_ml < occ_rd


def _periodic_box_graph(n):
    """Cell graph of the ``n^3`` triply periodic TGV box, plus the
    ``z`` coordinate of each cell centre."""
    mesh = build_box_mesh(n, n, n, periodic=(True, True, True))
    return cell_graph_from_mesh(mesh), mesh.cell_centres[:, 2]


class TestRefinement:
    """Boundary FM refinement: never worse, balanced, bounded work."""

    @staticmethod
    def _inputs(rocket_graph):
        """Balanced starting bisections: random halves of the rocket
        graph and of the periodic box, and a wavy plane cut."""
        rng = np.random.default_rng(0)
        box, z = _periodic_box_graph(12)
        wavy = (z + 0.05 * np.sin(40.0 * np.arange(z.size)) > 0.5)
        out = [(box, wavy.astype(np.int64))]
        for g in (rocket_graph, box):
            for _ in range(2):
                half = rng.permutation(g.n_vertices) < g.n_vertices // 2
                out.append((g, half.astype(np.int64)))
        return out

    def test_never_raises_cut_and_keeps_balance(self, rocket_graph):
        for graph, side in self._inputs(rocket_graph):
            adj = graph_to_csr(graph)
            vwgt = graph.vertex_weights
            before = side.copy()
            for frac, imbalance in ((0.5, 0.02), (0.5, 0.1)):
                out = fm_refine(adj, vwgt, side, frac, imbalance)
                np.testing.assert_array_equal(side, before)
                assert edge_cut(graph, out) <= edge_cut(graph, side)
                total = vwgt.sum()
                slack = vwgt.max()
                for s, target in ((0, frac * total), (1, (1 - frac) * total)):
                    w = vwgt[out == s].sum()
                    assert target * (1 - imbalance) - slack <= w
                    assert w <= target * (1 + imbalance) + slack

    def test_same_seed_same_partition(self, rocket_graph):
        adj = graph_to_csr(rocket_graph)
        w = rocket_graph.vertex_weights
        for seed in (0, 5):
            a = bisect_graph(adj, w, 0.4, np.random.default_rng(seed))
            b = bisect_graph(adj, w, 0.4, np.random.default_rng(seed))
            np.testing.assert_array_equal(a, b)

    def test_work_follows_the_boundary(self, monkeypatch):
        """On the n = 32 periodic box (32 768 cells) cut by a plane, a
        refinement's heap pops stay within a small multiple of the
        boundary vertices: no pass visits the whole graph."""
        graph, z = _periodic_box_graph(32)
        side = (z > 0.5).astype(np.int64)
        # two cut planes, one layer of cells on either side of each
        boundary = 4 * 32 * 32
        pops = []
        heappop = heapq.heappop

        def counting_pop(heap):
            pops.append(1)
            return heappop(heap)

        monkeypatch.setattr(heapq, "heappop", counting_pop)
        out = fm_refine(graph_to_csr(graph), graph.vertex_weights, side, 0.5)
        assert 0 < len(pops) <= 3 * boundary
        assert edge_cut(graph, out) == edge_cut(graph, side) == 2 * 32 * 32

    @pytest.mark.parametrize("seed", range(10))
    def test_periodic_box_bisects_at_a_plane(self, seed):
        """The 2-rank TGV mesh (n = 16, triply periodic) splits at two
        planes: 2 x 16 x 16 = 512 cut faces, the minimum for a balanced
        bisection of the torus."""
        graph, _ = _periodic_box_graph(16)
        mem = partition_graph(graph, 2, seed=seed)
        assert edge_cut(graph, mem) == 512
        assert np.bincount(mem).tolist() == [2048, 2048]


class TestTwoLevel:
    def test_decomposition_structure(self, rocket_mesh):
        dec = decompose_two_level(rocket_mesh, 4, 4)
        assert dec.n_processes == 4
        assert sum(p.n_cells for p in dec.parts) == rocket_mesh.n_cells

    def test_thread_membership_local(self, rocket_mesh):
        dec = decompose_two_level(rocket_mesh, 4, 4)
        for part in dec.parts:
            assert part.thread_membership.shape == (part.n_cells,)
            assert part.thread_membership.max() < 4

    def test_neighbour_symmetry(self, rocket_mesh):
        dec = decompose_two_level(rocket_mesh, 4, 2)
        for p in dec.parts:
            for q in p.neighbours:
                assert p.rank in dec.parts[q].neighbours
                assert dec.parts[q].shared_faces[p.rank] == p.shared_faces[q]

    def test_halo_cells_belong_to_neighbour(self, rocket_mesh):
        dec = decompose_two_level(rocket_mesh, 4, 2)
        for p in dec.parts:
            for q, cells in p.halo_cells.items():
                assert np.all(dec.process_membership[cells] == q)

    def test_load_balance_paper_regime(self, rocket_mesh):
        """Sec. 3.1: the two-level scheme keeps std/mean small."""
        dec = decompose_two_level(rocket_mesh, 8, 2)
        counts = dec.cells_per_process()
        assert counts.std() / counts.mean() < 0.06
