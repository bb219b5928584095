"""Stateless, order-independent random streams for parallel execution.

Call-order-seeded RNGs (``np.random.default_rng(seed)`` advanced by
successive draws) silently change meaning the moment a batch is split
across workers: each chunk sees a different draw prefix, so "the same
run" on 1, 2 or 4 workers samples different cells.  Everything here is
a *counter-based* hash instead -- a splitmix64 finalizer over
``(seed, stream, id)`` triples -- so a sample depends only on the
identity of the thing being sampled (a batch row, a jitter-copy
index), never on how many draws preceded it or which worker computed
it.

Used by the hybrid chemistry backend's spot audits (seeded by batch
row), the training-set jitter (seeded by copy/state index) and the
worker pool's per-worker seeding.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hash_u64",
    "hash_uniform",
    "hash_normal",
    "derive_worker_seed",
]

# splitmix64 constants (Steele, Lea & Flood 2014)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
#: distinct odd multipliers decorrelating the (seed, stream) lanes
_LANE_SEED = np.uint64(0xD1342543DE82EF95)
_LANE_STREAM = np.uint64(0xDA942042E4DD58B5)


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer on a uint64 array (vectorized)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def hash_u64(seed: int, stream: int, ids) -> np.ndarray:
    """Uniform uint64 hash of ``(seed, stream, id)`` per element.

    ``ids`` is an integer array (or scalar); the result has its shape
    (0-d for a scalar).  Two calls agree iff all three coordinates
    agree -- the property that makes a sampling decision independent
    of which process draws it and of how many draws came before.
    """
    ids64 = np.asarray(ids, dtype=np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):
        z = ids64 * _GAMMA
        z += np.uint64(np.int64(seed)) * _LANE_SEED
        z += np.uint64(np.int64(stream)) * _LANE_STREAM
        return _mix(_mix(z) + _GAMMA)


def hash_uniform(seed: int, stream: int, ids) -> np.ndarray:
    """Per-element uniforms in ``[0, 1)`` keyed by ``(seed, stream, id)``."""
    u = hash_u64(seed, stream, ids)
    # top 53 bits fill a float64 mantissa exactly
    return (u >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def hash_normal(seed: int, stream: int, ids) -> np.ndarray:
    """Per-element standard normals keyed by ``(seed, stream, id)``.

    Box-Muller over two decorrelated uniform lanes (sub-streams
    ``2*stream`` and ``2*stream + 1``), so each element's normal is a
    pure function of its identity.
    """
    u1 = hash_uniform(seed, 2 * stream, ids)
    u2 = hash_uniform(seed, 2 * stream + 1, ids)
    # guard log(0): the hash can emit an exact 0.0
    u1 = np.maximum(u1, 2.0 ** -53)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def derive_worker_seed(base_seed: int, worker_id: int) -> int:
    """A decorrelated per-worker seed (deterministic in both inputs)."""
    return int(hash_u64(base_seed, worker_id + 1, worker_id) >> np.uint64(1))
