"""Simulated-HPC runtime: machine models of Sunway/Fugaku/LS, an
alpha-beta communication model, the calibrated per-stage performance
model, the strong/weak scaling drivers, and the shared-memory
execution layer (worker pools, shared arenas, the real-process
:class:`SharedMemComm`)."""

from .comm import (
    CommLedger,
    SimulatedComm,
    allreduce_time,
    halo_exchange_time,
)
from .load_balance import (
    chemistry_balance_report,
    per_rank_imbalance,
    price_comm_totals,
    rank_imbalance,
    work_imbalance,
    workload_with_chemistry,
)
from .executor import WorkerError, WorkerPool
from .machine import FUGAKU, LS_PILOT, MACHINES, SUNWAY, MachineSpec
from .perf_model import (
    CALIBRATION,
    LoopBreakdown,
    OptimizationConfig,
    PerfModel,
    PerfReport,
    WorkloadSpec,
    tgv_workload,
)
from .scaling import ScalingPoint, ScalingSeries, strong_scaling, weak_scaling
from .seeding import derive_worker_seed, hash_normal, hash_u64, hash_uniform
from .shm import SharedArena, SharedMemComm

__all__ = [
    "CALIBRATION",
    "CommLedger",
    "FUGAKU",
    "LS_PILOT",
    "LoopBreakdown",
    "MACHINES",
    "MachineSpec",
    "OptimizationConfig",
    "PerfModel",
    "PerfReport",
    "SUNWAY",
    "ScalingPoint",
    "ScalingSeries",
    "SharedArena",
    "SharedMemComm",
    "SimulatedComm",
    "WorkerError",
    "WorkerPool",
    "WorkloadSpec",
    "allreduce_time",
    "chemistry_balance_report",
    "derive_worker_seed",
    "halo_exchange_time",
    "hash_normal",
    "hash_u64",
    "hash_uniform",
    "per_rank_imbalance",
    "price_comm_totals",
    "rank_imbalance",
    "strong_scaling",
    "tgv_workload",
    "weak_scaling",
    "work_imbalance",
    "workload_with_chemistry",
]
