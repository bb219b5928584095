"""Sec. 3.4: the three I/O optimizations.

* runtime mesh refinement: 121 TB -> 16 GB input reduction (measured
  on-disk at bench scale + the paper-scale accounting),
* Foam file indexing: indexed parallel reads match master-read data
  exactly on real files,
* grouped parallel I/O: P vs sqrt(P) concurrent-reader tradeoff at
  589,824 processes through the filesystem cost model."""

import numpy as np

from repro.io.foamfile import write_collated
from repro.io.parallel_io import IOCostModel, measure_strategies
from repro.io.pipeline import (
    conventional_pipeline,
    fused_pipeline,
    storage_comparison,
)
from repro.mesh.structured import BoxSpec

from .conftest import emit


def test_sec341_runtime_refinement(benchmark, tmp_path):
    spec = BoxSpec(8, 8, 8)
    _, cost_conv = conventional_pipeline(spec, 1, tmp_path)

    def fused():
        return fused_pipeline(spec, 1, tmp_path)

    _, cost_fused = benchmark(fused)
    cmp = storage_comparison(18_874_368, 5)
    lines = [
        f"bench scale: conventional reads {cost_conv.bytes_read} B, "
        f"fused reads {cost_fused.bytes_read} B "
        f"({cost_conv.bytes_read/cost_fused.bytes_read:.1f}x reduction/level)",
        f"paper scale: fine mesh+fields {cmp['fine_bytes']/1e12:.0f} TB "
        f"(paper: ~121 TB) vs coarse {cmp['coarse_bytes']/1e9:.1f} GB "
        "(paper: 16 GB)",
        f"cells {cmp['coarse_cells']/1e6:.0f} M -> "
        f"{cmp['fine_cells']/1e9:.0f} B via 5x 2x2x2 refinement",
    ]
    assert cost_fused.bytes_read * 6 < cost_conv.bytes_read
    assert 0.5e14 < cmp["fine_bytes"] < 2.5e14
    emit("Sec. 3.4.1: runtime mesh refinement", lines)


def test_sec342_343_read_strategies(benchmark, tmp_path):
    rng = np.random.default_rng(0)
    n_ranks = 64
    arrays = [rng.random(2048) for _ in range(n_ranks)]
    path = tmp_path / "fields.foamcoll"
    write_collated(path, arrays, "U")

    timings = benchmark(measure_strategies, path, n_ranks)
    lines = ["measured on disk (64 ranks, identical data verified):"]
    for name, t in timings.items():
        lines.append(f"  {name:24s} {t.wall_time*1e3:8.2f} ms  "
                     f"opens {t.file_opens:3d}  scatter {t.scatter_bytes} B")

    model = IOCostModel()
    p = 589_824
    v = 16e9
    lines.append(f"cost model at P={p}, V=16 GB:")
    rows = {
        "master read + scatter": model.master_read_scatter(v, p),
        "parallel read (indexed)": model.parallel_read(v, p),
        "grouped parallel (sqrt P)": model.grouped_parallel_read(v, p),
    }
    for name, t in rows.items():
        lines.append(f"  {name:26s} {t:9.2f} s")
    lines.append(f"best group size: {model.best_group_size(v, p)} "
                 f"(sqrt(P) = {int(np.sqrt(p))})")
    assert rows["grouped parallel (sqrt P)"] == min(rows.values())
    emit("Sec. 3.4.2-3.4.3: indexing + grouped parallel I/O", lines)
