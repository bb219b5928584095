"""Second-order GeLU tabulation (Sec. 3.3.2).

GeLU's tanh makes it the dominant cost of baseline DNN inference on
machines without transcendental accelerators (48 % / 57 % of DNN time
on Sunway / Fugaku).  The paper replaces it with a piecewise quadratic
table on [-3, 3] at interval 0.01, using the asymptotics
``GeLU(x) ~ 0`` for x < -3 and ``GeLU(x) ~ x`` for x > 3.

Each interval stores the 2nd-order Taylor coefficients at its midpoint;
evaluation is one index computation plus a two-term Horner -- no
transcendentals.  FP32 and FP16 table variants match the paper's two
precision modes.
"""

from __future__ import annotations

import numpy as np

from .layers import gelu_exact, gelu_grad

__all__ = ["GeLUTable"]

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_C = 0.044715


def _gelu_second_derivative(x: np.ndarray) -> np.ndarray:
    """Analytic d2 GeLU / dx2 of the tanh form."""
    u = _SQRT_2_OVER_PI * (x + _C * x**3)
    du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _C * x * x)
    d2u = _SQRT_2_OVER_PI * 6.0 * _C * x
    t = np.tanh(u)
    sech2 = 1.0 - t * t
    # f = 0.5 x (1 + t);  f' = 0.5(1+t) + 0.5 x sech2 du
    # f'' = sech2 du + 0.5 x (sech2 d2u - 2 t sech2 du^2)
    return sech2 * du + 0.5 * x * sech2 * (d2u - 2.0 * t * du * du)


class GeLUTable:
    """Piecewise-quadratic GeLU approximation.

    Parameters
    ----------
    x_min, x_max, interval:
        Table range and spacing (paper: [-3, 3] at 0.01).
    precision:
        ``"fp32"`` stores coefficients in float32, ``"fp16"`` in
        float16 (both evaluated in their storage precision, matching
        the paper's Float and Mixed-FP16 modes); ``"fp64"`` for
        reference.
    """

    #: flops per element: index+clip (~2) + 2-term Horner (4).
    FLOPS_PER_ELEMENT = 6

    def __init__(self, x_min: float = -3.0, x_max: float = 3.0,
                 interval: float = 0.01, precision: str = "fp32"):
        self.x_min, self.x_max, self.interval = x_min, x_max, interval
        self.precision = precision
        n = int(round((x_max - x_min) / interval))
        mids = x_min + (np.arange(n) + 0.5) * interval
        dtype = {"fp64": np.float64, "fp32": np.float32,
                 "fp16": np.float16}[precision]
        self._mids = mids.astype(dtype)
        self._a = gelu_exact(mids).astype(dtype)
        self._b = gelu_grad(mids).astype(dtype)
        self._c = (0.5 * _gelu_second_derivative(mids)).astype(dtype)
        self.n_entries = n

    def __call__(self, x):
        """Tabulated GeLU of ``x`` (identity/zero outside the range), in
        the table's precision.

        The hot path is gather-bound: index math runs in fp32 (no
        fp64 round-trip), the interval midpoint is recomputed from the
        index instead of gathered (same formula that built the stored
        midpoints, so bitwise-equal to gathering them at a fraction of
        the memory traffic), and the coefficient lookups are flattened
        ``take`` gathers.
        """
        x = np.asarray(x)
        dt = self._a.dtype
        xq = x.astype(dt, copy=False)
        # explicit in-place updates below: each step reuses its (n, w)
        # temporary
        pos = xq.astype(np.float32, copy=False) \
            - float(np.float32(self.x_min))
        pos *= float(np.float32(1.0 / self.interval))
        idx = np.clip(pos.astype(np.int64), 0, self.n_entries - 1)
        mid = idx.astype(np.float64)
        mid += 0.5
        mid *= self.interval
        mid += self.x_min
        d = xq - mid.astype(dt)
        idx1 = idx.reshape(-1)

        def gather(tab):
            return tab.take(idx1).reshape(xq.shape)

        # a + d (b + d c), two-term Horner
        val = gather(self._c)
        val *= d
        val += gather(self._b)
        val *= d
        val += gather(self._a)
        return np.where(x < self.x_min, dt.type(0),
                        np.where(x > self.x_max, xq, val))

    def max_error(self, n_samples: int = 200_001) -> float:
        """Max absolute error vs. exact GeLU over [x_min-1, x_max+1]."""
        xs = np.linspace(self.x_min - 1.0, self.x_max + 1.0, n_samples)
        return float(np.max(np.abs(
            self(xs).astype(np.float64) - gelu_exact(xs))))

    def table_bytes(self) -> int:
        """Memory footprint of the stored coefficients."""
        return int(self._a.nbytes + self._b.nbytes + self._c.nbytes
                   + self._mids.nbytes)
