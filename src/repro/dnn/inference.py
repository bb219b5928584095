"""The optimized inference engine (Sec. 3.3).

The paper implements DNN inference without any third-party framework:
BLAS linear layers + activation, with three optimization knobs this
engine mirrors exactly:

* ``precision``: ``"fp32"`` (baseline) or ``"fp16"`` (mixed-precision
  linear layers, Sec. 3.3.1),
* ``gelu``: ``"exact"`` (tanh) or ``"table"`` (2nd-order tabulation,
  Sec. 3.3.2), plus ``"fused"`` -- the exact tanh form with fused
  dtype-preserving arithmetic, the fastest choice on hosts whose BLAS
  stack ships vectorized transcendentals (the table targets machines
  that lack them),
* ``batch_size``: batched evaluation enabling the double-buffered
  overlap of Sec. 3.3.3 (captured by the performance model).

Every run returns an :class:`InferenceStats` with wall time and the
flop counts the Flop/s reporting uses ("total FLOPs ... collected via
counting the effective FLOPs during neural network inference").
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .gelu_table import GeLUTable
from .layers import GeLU, Linear, gelu_exact, gelu_fused
from .network import MLP
from .quantize import QuantizedMLPWeights

__all__ = ["InferenceStats", "InferenceEngine"]


@dataclass
class InferenceStats:
    """Measured cost of one inference call."""

    n_samples: int
    wall_time: float
    linear_flops: int
    activation_elements: int
    activation_flops: int

    @property
    def total_flops(self) -> int:
        """Linear plus activation flops of the call."""
        return self.linear_flops + self.activation_flops

    @property
    def flops_per_second(self) -> float:
        """Achieved throughput (0 when untimed)."""
        return self.total_flops / self.wall_time if self.wall_time > 0 else 0.0


class InferenceEngine:
    """Framework-free MLP inference with the paper's optimization knobs."""

    def __init__(
        self,
        net: MLP,
        precision: str = "fp32",
        gelu: str = "exact",
        batch_size: int = 8192,
        gelu_table: GeLUTable | None = None,
    ):
        if precision not in ("fp64", "fp32", "fp16"):
            raise ValueError(f"unknown precision {precision!r}")
        if gelu not in ("exact", "fused", "table"):
            raise ValueError(f"unknown gelu mode {gelu!r}")
        self.net = net
        self.precision = precision
        self.gelu_mode = gelu
        self.batch_size = int(batch_size)
        self._quantized = QuantizedMLPWeights(net) if precision == "fp16" else None
        if gelu == "table":
            table_prec = "fp16" if precision == "fp16" else "fp32"
            self.table = gelu_table or GeLUTable(precision=table_prec)
        else:
            self.table = None
        self.last_stats: InferenceStats | None = None

    # ----------------------------------------------------------------
    def _forward_batch(self, x: np.ndarray) -> np.ndarray:
        """The matmul/GeLU stack for one batch.

        Every layer computes ``x @ W^T + b`` in the engine's precision.
        Weights and biases are cast per batch, not cached: the net may
        be fine-tuned in place between runs
        (:func:`~repro.dnn.registry.retrain_incremental`), and an
        engine must see the weights its net holds now.  Output is fp64.
        """
        dt = np.float32 if self.precision == "fp32" else np.float64
        x = np.asarray(x, dtype=dt)
        linear_idx = 0
        for layer in self.net.layers:
            if isinstance(layer, Linear):
                if self._quantized is not None:
                    x = self._quantized.linear(linear_idx, x)
                else:
                    x = np.matmul(x, np.asarray(layer.weight, dtype=dt).T)
                    x += np.asarray(layer.bias, dtype=dt)
                linear_idx += 1
            elif isinstance(layer, GeLU):
                if self.table is not None:
                    x = self.table(x)
                elif self.gelu_mode == "fused":
                    x = gelu_fused(x)
                else:
                    x = gelu_exact(x)
        return np.asarray(x, dtype=np.float64)

    def run(self, x: np.ndarray) -> np.ndarray:
        """Batched inference over all samples; records stats."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        out = np.empty((n, self.net.n_out))
        t0 = time.perf_counter()
        for start in range(0, n, self.batch_size):
            out[start:start + self.batch_size] = self._forward_batch(
                x[start:start + self.batch_size]
            )
        wall = time.perf_counter() - t0
        act_elems = n * self.net.activation_elements_per_sample()
        act_flops_per = (
            GeLUTable.FLOPS_PER_ELEMENT if self.table is not None
            else GeLU.FLOPS_PER_ELEMENT
        )
        self.last_stats = InferenceStats(
            n_samples=n,
            wall_time=wall,
            linear_flops=n * self.net.flops_per_sample(),
            activation_elements=act_elems,
            activation_flops=act_elems * act_flops_per,
        )
        return out

    __call__ = run
