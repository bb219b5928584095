"""Unit tests: machine models, communication, performance model,
scaling drivers, I/O subsystem."""

import numpy as np
import pytest

from repro.io.foamfile import (
    read_all_segments,
    read_collated_header,
    read_rank_segment,
    write_collated,
)
from repro.io.indexing import (
    build_index,
    indexed_read,
    load_index,
    write_index,
)
from repro.io.parallel_io import (
    IOCostModel,
    grouped_parallel_read,
    master_read_scatter,
    measure_strategies,
    parallel_read,
)
from repro.io.pipeline import (
    conventional_pipeline,
    fused_pipeline,
    storage_comparison,
)
from repro.runtime.comm import (
    SimulatedComm,
    allreduce_time,
    halo_exchange_time,
)
from repro.runtime.machine import FUGAKU, LS_PILOT, SUNWAY
from repro.runtime.perf_model import (
    OptimizationConfig,
    PerfModel,
    tgv_workload,
)
from repro.runtime.scaling import strong_scaling, weak_scaling


class TestMachines:
    def test_peak_arithmetic_sunway(self):
        """Paper check: 1.18 EF = 21.8 % peak on 98,304 nodes implies
        ~55.3 TF fp16/node; 438.9 PF = 32.3 % implies fp32 = fp64."""
        assert SUNWAY.peak("fp16", 98_304) == pytest.approx(
            1.1869e18 / 0.218, rel=0.02)
        assert SUNWAY.peak("fp32", 98_304) == pytest.approx(
            438.9e15 / 0.323, rel=0.02)

    def test_peak_arithmetic_fugaku(self):
        assert FUGAKU.peak("fp16", 73_728) == pytest.approx(
            316.5e15 / 0.318, rel=0.02)
        assert FUGAKU.peak("fp32", 73_728) == pytest.approx(
            186.5e15 / 0.374, rel=0.02)

    def test_core_counts_match_paper(self):
        # paper Table 1: 38.3 M Sunway cores, 3.5 M Fugaku cores
        assert SUNWAY.total_cores(98_304) == pytest.approx(38.3e6, rel=0.02)
        assert FUGAKU.total_cores(73_728) == pytest.approx(3.5e6, rel=0.02)

    def test_fugaku_fp64_total(self):
        assert FUGAKU.peak("fp64", FUGAKU.max_nodes) == pytest.approx(
            537e15, rel=0.01)

    def test_mixed_fp16_uses_fp16_peak(self):
        assert SUNWAY.peak("mixed-fp16", 10) == SUNWAY.peak("fp16", 10)


class TestComm:
    def test_simulated_halo_roundtrip(self):
        comm = SimulatedComm(3)
        out = [{1: np.arange(4)}, {0: np.ones(2), 2: np.zeros(3)}, {}]
        inboxes = comm.halo_exchange(out)
        np.testing.assert_array_equal(inboxes[1][0], np.arange(4))
        assert comm.ledger.messages == 3
        assert comm.ledger.bytes_sent == (4 + 2 + 3) * 8

    def test_invalid_destination(self):
        comm = SimulatedComm(2)
        with pytest.raises(ValueError):
            comm.halo_exchange([{5: np.ones(1)}, {}])

    def test_allreduce(self):
        comm = SimulatedComm(4)
        assert comm.allreduce(np.array([1.0, 2.0, 3.0, 4.0])) == 10.0
        assert comm.ledger.allreduces == 1

    def test_allreduce_array_payload(self):
        """Per-rank array contributions reduce elementwise (the form
        distributed residual norms and blocked dot products use)."""
        comm = SimulatedComm(3)
        parts = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(comm.allreduce(parts),
                                      parts.sum(axis=0))
        assert comm.ledger.allreduces == 1
        assert comm.ledger.allreduce_bytes == parts.nbytes

    def test_allreduce_min_max_ops(self):
        comm = SimulatedComm(2)
        parts = np.array([[1.0, 5.0], [3.0, 2.0]])
        np.testing.assert_array_equal(comm.allreduce(parts, op="max"),
                                      [3.0, 5.0])
        np.testing.assert_array_equal(comm.allreduce(parts, op="min"),
                                      [1.0, 2.0])
        assert comm.allreduce(np.array([4.0, -1.0]), op="min") == -1.0
        with pytest.raises(ValueError):
            comm.allreduce(parts, op="prod")

    def test_allreduce_wrong_rank_count(self):
        comm = SimulatedComm(3)
        with pytest.raises(ValueError):
            comm.allreduce(np.ones((2, 4)))

    def test_halo_time_scales_with_volume(self):
        t1 = halo_exchange_time(FUGAKU, 6, 1e4)
        t2 = halo_exchange_time(FUGAKU, 6, 1e6)
        assert t2 > t1

    def test_allreduce_grows_with_ranks(self):
        assert allreduce_time(SUNWAY, 1 << 16) > allreduce_time(SUNWAY, 1 << 8)

    def test_allreduce_single_rank_free(self):
        assert allreduce_time(SUNWAY, 1) == 0.0


class TestPerfModel:
    def test_optimized_faster_than_baseline(self):
        wl = tgv_workload(25_165_824)
        for machine in (SUNWAY, FUGAKU, LS_PILOT):
            model = PerfModel(machine)
            tb = model.report(wl, 64, OptimizationConfig.baseline()).loop_time
            to = model.report(wl, 64, OptimizationConfig.optimized()).loop_time
            assert to < tb / 3.0

    def test_total_speedups_match_paper_band(self):
        """Fig. 11: 7.3x / 3.6x / 8.8x total speedups."""
        wl = tgv_workload(25_165_824)
        targets = {"Sunway": 7.3, "Fugaku": 3.6, "LS": 8.8}
        for machine in (SUNWAY, FUGAKU, LS_PILOT):
            model = PerfModel(machine)
            sp = (model.report(wl, 64, OptimizationConfig.baseline()).loop_time
                  / model.report(wl, 64, OptimizationConfig.optimized()).loop_time)
            assert sp == pytest.approx(targets[machine.name], rel=0.25)

    def test_stage_sequence_monotone(self):
        """Each cumulative optimization stage reduces (or keeps) loop
        time on every machine."""
        wl = tgv_workload(25_165_824)
        for machine in (SUNWAY, FUGAKU, LS_PILOT):
            model = PerfModel(machine)
            times = [model.report(wl, 64, cfg).loop_time
                     for _, cfg in OptimizationConfig.optimized().stage_sequence()]
            assert all(t2 <= t1 * 1.001 for t1, t2 in zip(times, times[1:]))

    def test_pct_peak_bands(self):
        """Fig. 14 anchors: Sunway 21.8 % / 32.3 %, Fugaku 31.8 % / 37.4 %."""
        wl = tgv_workload(19_327_352_832)
        rep = PerfModel(SUNWAY).report(
            wl.scaled(32), 98_304, OptimizationConfig.optimized())
        assert rep.pct_peak(SUNWAY) == pytest.approx(0.218, abs=0.05)
        wl_f = tgv_workload(9_663_676_416)
        rep_f = PerfModel(FUGAKU).report(
            wl_f.scaled(16), 73_728, OptimizationConfig.optimized())
        assert rep_f.pct_peak(FUGAKU) == pytest.approx(0.318, abs=0.05)

    def test_mixed_precision_dnn_faster(self):
        wl = tgv_workload(25_165_824)
        model = PerfModel(SUNWAY)
        b16 = model.loop_breakdown(wl, 64, OptimizationConfig.optimized())
        b32 = model.loop_breakdown(
            wl, 64, OptimizationConfig.optimized(mixed_precision=False))
        assert b16.dnn < b32.dnn
        assert b16.solving == pytest.approx(b32.solving)  # fp64 solver

    def test_tts_definition(self):
        wl = tgv_workload(1e9)
        rep = PerfModel(SUNWAY).report(wl, 1024, OptimizationConfig.optimized())
        expected = rep.loop_time / (wl.dof * wl.flow_cycles_per_step)
        assert rep.time_to_solution == pytest.approx(expected)

    def test_unstructured_slower_than_structured(self):
        """Fig. 12(a): unstructured runs slightly slower (imbalance +
        more neighbours)."""
        model = PerfModel(FUGAKU)
        wl_s = tgv_workload(25_165_824)
        wl_u = tgv_workload(25_165_824, unstructured=True,
                            load_imbalance=0.01)
        ts = model.report(wl_s, 48, OptimizationConfig.optimized()).loop_time
        tu = model.report(wl_u, 48, OptimizationConfig.optimized()).loop_time
        assert ts < tu < ts * 1.15


class TestScalingDrivers:
    def test_strong_scaling_efficiency_decays(self):
        wl = tgv_workload(19_327_352_832)
        series = strong_scaling(SUNWAY, wl,
                                [3072, 6144, 12288, 24576, 49152, 98304])
        eff = series.efficiencies()
        assert eff[0] == pytest.approx(1.0)
        assert all(e2 <= e1 + 1e-9 for e1, e2 in zip(eff, eff[1:]))
        # paper: 40.7 % at 32x (mixed)
        assert eff[-1] == pytest.approx(0.407, abs=0.08)

    def test_strong_scaling_fp32_higher_efficiency(self):
        wl = tgv_workload(19_327_352_832)
        nodes = [3072, 98304]
        e16 = strong_scaling(SUNWAY, wl, nodes).efficiencies()[-1]
        e32 = strong_scaling(SUNWAY, wl, nodes,
                             OptimizationConfig.optimized(False)
                             ).efficiencies()[-1]
        assert e32 > e16  # paper: 66 % vs 40.7 %
        assert e32 == pytest.approx(0.66, abs=0.09)

    def test_weak_scaling_near_flat(self):
        wl = tgv_workload(19_327_352_832)
        series = weak_scaling(SUNWAY, wl,
                              [3072, 6144, 12288, 24576, 49152, 98304])
        eff = series.efficiencies()
        assert eff[-1] == pytest.approx(0.927, abs=0.04)  # paper 92.74 %

    def test_weak_scaling_reaches_618b_cells(self):
        wl = tgv_workload(19_327_352_832)
        series = weak_scaling(SUNWAY, wl, [3072, 98304])
        assert series.points[-1].n_cells == pytest.approx(618.5e9, rel=0.01)

    def test_fugaku_weak_anchors(self):
        wl = tgv_workload(9_663_676_416)
        nodes = [4608, 9216, 18432, 36864, 73728]
        e16 = weak_scaling(FUGAKU, wl, nodes).efficiencies()[-1]
        e32 = weak_scaling(FUGAKU, wl, nodes,
                           OptimizationConfig.optimized(False)
                           ).efficiencies()[-1]
        assert e16 == pytest.approx(0.9359, abs=0.03)
        assert e32 == pytest.approx(0.962, abs=0.03)

    def test_rows_structure(self):
        wl = tgv_workload(1e9)
        series = weak_scaling(FUGAKU, wl, [512, 1024])
        rows = series.rows()
        assert len(rows) == 2
        assert set(rows[0]) >= {"nodes", "PFlop/s", "efficiency"}


@pytest.fixture()
def collated_file(tmp_path):
    rng = np.random.default_rng(0)
    arrays = [rng.random(50 + 10 * r) for r in range(8)]
    path = tmp_path / "field.foamcoll"
    write_collated(path, arrays, "rho")
    return path, arrays


class TestFoamFiles:
    def test_header_roundtrip(self, collated_file):
        path, arrays = collated_file
        header, start = read_collated_header(path)
        assert header["n_ranks"] == 8
        assert header["sizes"] == [a.size for a in arrays]
        assert start > 16

    def test_rank_segment(self, collated_file):
        path, arrays = collated_file
        for r in (0, 3, 7):
            np.testing.assert_array_equal(read_rank_segment(path, r),
                                          arrays[r])

    def test_rank_out_of_range(self, collated_file):
        path, _ = collated_file
        with pytest.raises(IndexError):
            read_rank_segment(path, 99)

    def test_read_all(self, collated_file):
        path, arrays = collated_file
        segs = read_all_segments(path)
        for a, b in zip(segs, arrays):
            np.testing.assert_array_equal(a, b)

    def test_magic_check(self, tmp_path):
        bad = tmp_path / "bad.foamcoll"
        bad.write_bytes(b"NOTFOAM!" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a collated"):
            read_collated_header(bad)


class TestIndexing:
    def test_index_ranges_contiguous(self, collated_file):
        path, arrays = collated_file
        idx = build_index(path)
        for (s1, e1), (s2, _) in zip(idx, idx[1:]):
            assert e1 == s2
        assert e1 <= path.stat().st_size or True

    def test_indexed_read_matches(self, collated_file):
        path, arrays = collated_file
        idx = build_index(path)
        for r in range(8):
            np.testing.assert_array_equal(indexed_read(path, idx, r),
                                          arrays[r])

    def test_index_file_roundtrip(self, collated_file, tmp_path):
        path, arrays = collated_file
        ipath = write_index(path)
        idx = load_index(ipath)
        np.testing.assert_array_equal(indexed_read(path, idx, 5), arrays[5])


class TestReadStrategies:
    def test_all_strategies_agree(self, collated_file):
        path, _ = collated_file
        timings = measure_strategies(path, 8)
        assert set(timings) == {"master_read_scatter", "parallel_read",
                                "grouped_parallel_read"}

    def test_open_counts(self, collated_file):
        path, _ = collated_file
        _, t_master = master_read_scatter(path, 8)
        _, t_par = parallel_read(path, 8)
        _, t_grp = grouped_parallel_read(path, 8)
        assert t_master.file_opens == 1
        assert t_par.file_opens == 8
        assert t_grp.file_opens == 3  # ceil(8 / ceil(sqrt(8)))

    def test_scatter_volumes(self, collated_file):
        path, _ = collated_file
        _, t_master = master_read_scatter(path, 8)
        _, t_grp = grouped_parallel_read(path, 8)
        assert 0 < t_grp.scatter_bytes < t_master.scatter_bytes


class TestIOCostModel:
    def test_grouped_beats_both_at_scale(self):
        """Sec. 3.4: at 589,824 processes grouped-parallel wins."""
        model = IOCostModel()
        p = 589_824
        v = 16e9  # the paper's 16 GB coarse input
        t_m = model.master_read_scatter(v, p)
        t_p = model.parallel_read(v, p)
        t_g = model.grouped_parallel_read(v, p)
        assert t_g < t_p
        assert t_g < t_m

    def test_all_strategies_comparable_at_tiny_scale(self):
        """At 4 ranks there is no meaningful difference -- the paper's
        problem only appears at extreme rank counts."""
        model = IOCostModel()
        times = [model.master_read_scatter(1e6, 4),
                 model.parallel_read(1e6, 4),
                 model.grouped_parallel_read(1e6, 4)]
        assert max(times) < 10 * min(times)

    def test_best_group_near_sqrt(self):
        model = IOCostModel()
        p = 65_536
        best = model.best_group_size(16e9, p)
        assert 32 <= best <= 2048  # sqrt(P)=256 within a broad basin

    def test_open_cost_linear_in_readers(self):
        model = IOCostModel(fs_bandwidth=1e15)  # isolate open/seek
        t1 = model.parallel_read(1.0, 1000)
        t2 = model.parallel_read(1.0, 2000)
        assert t2 - t1 == pytest.approx(
            1000 * (model.open_per_reader + model.seek_per_reader))


class TestPipeline:
    def test_fused_reads_8x_less(self, tmp_path):
        from repro.mesh.structured import BoxSpec

        spec = BoxSpec(4, 4, 4)
        fine_c, cost_c = conventional_pipeline(spec, 1, tmp_path)
        fine_f, cost_f = fused_pipeline(spec, 1, tmp_path)
        assert fine_c.n_cells == fine_f.n_cells == 512
        assert cost_f.bytes_read * 6 < cost_c.bytes_read

    def test_storage_comparison_paper_numbers(self):
        cmp = storage_comparison(18_874_368, 5)
        assert cmp["fine_cells"] == pytest.approx(618.5e9, rel=0.01)
        assert 0.7e14 < cmp["fine_bytes"] < 2.0e14  # ~121 TB
        assert cmp["coarse_bytes"] < 20e9  # ~16 GB incl. metadata
