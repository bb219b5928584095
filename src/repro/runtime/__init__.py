"""Simulated-HPC runtime: machine models of Sunway/Fugaku/LS, an
alpha-beta communication model, the calibrated per-stage performance
model, the strong/weak scaling drivers, and the shared-memory
execution layer (worker pools, shared arenas, the real-process
:class:`SharedMemComm`)."""

__all__ = []
