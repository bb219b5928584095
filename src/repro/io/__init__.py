"""I/O substrate: collated Foam-style files, Foam file indexing, the
three parallel-read strategies with a scale-out cost model, and the
runtime-refinement initialization pipeline."""

__all__ = []
