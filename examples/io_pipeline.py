"""I/O pipeline demo: the three Sec. 3.4 optimizations end to end.

Writes a collated field file, builds its index, reads it back with all
three strategies (verifying identical data), then scales the access
pattern to the paper's 589,824 processes through the filesystem cost
model and shows the runtime-refinement storage reduction.

Run:  python examples/io_pipeline.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.io.foamfile import write_collated
from repro.io.indexing import write_index
from repro.io.parallel_io import IOCostModel, measure_strategies
from repro.io.pipeline import storage_comparison


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rho.foamcoll"
        rng = np.random.default_rng(0)
        n_ranks = 32
        write_collated(path, [rng.random(4096) for _ in range(n_ranks)], "rho")
        ipath = write_index(path)
        print(f"wrote {path.stat().st_size/1e3:.0f} kB collated file "
              f"+ index {ipath.name}")

        print(f"\nreading back with all three strategies ({n_ranks} ranks):")
        for name, t in measure_strategies(path, n_ranks).items():
            print(f"  {name:24s} {t.wall_time*1e3:7.2f} ms, "
                  f"{t.file_opens} opens, scatter {t.scatter_bytes} B")

    print("\ncost model at the paper's scale (589,824 processes, 16 GB):")
    model = IOCostModel()
    p, v = 589_824, 16e9
    print(f"  master read + scatter : {model.master_read_scatter(v, p):9.1f} s")
    print(f"  parallel read         : {model.parallel_read(v, p):9.1f} s")
    print(f"  grouped parallel      : {model.grouped_parallel_read(v, p):9.1f} s"
          f"  (group ~ sqrt(P) = {int(np.sqrt(p))})")

    print("\nruntime mesh refinement (Sec. 3.4.1):")
    cmp = storage_comparison(18_874_368, 5)
    print(f"  {cmp['coarse_cells']/1e6:.0f} M coarse cells -> "
          f"{cmp['fine_cells']/1e9:.0f} B cells after 5 refinements")
    print(f"  on-disk fine mesh+fields: {cmp['fine_bytes']/1e12:.0f} TB "
          "(paper: ~121 TB)")
    print(f"  coarse input actually read: {cmp['coarse_bytes']/1e9:.1f} GB "
          "(paper: 16 GB)")


if __name__ == "__main__":
    main()
