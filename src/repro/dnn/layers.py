"""Neural-network layers (numpy, from scratch).

Linear layers and the GeLU activation in the exact tanh form the paper
quotes: ``0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))``.  Each
layer implements ``forward`` and ``backward`` (accumulating parameter
gradients) plus a FLOP count per sample for the performance model.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Linear", "GeLU", "Identity", "gelu_exact", "gelu_fused",
           "gelu_grad"]

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_C = 0.044715


def gelu_exact(x):
    """GeLU via the tanh approximation (the transcendental-heavy form
    whose cost motivates the paper's tabulation).

    Returns fp64: the cube is a ``pow`` in the input dtype (a
    dtype-matched 0-D exponent keeps numpy on ``x**3``'s pow-ufunc
    path), then the tanh argument is promoted to fp64.
    """
    x = np.asarray(x)
    cube = np.pow(x, np.asarray(3.0, dtype=x.dtype))
    inner = float(_SQRT_2_OVER_PI) * (x + _C * cube).astype(np.float64)
    return 0.5 * x.astype(np.float64) * (1.0 + np.tanh(inner))


def gelu_fused(x):
    """The same tanh-form GeLU with fused dtype-preserving arithmetic.

    Mathematically identical to :func:`gelu_exact` but written for
    hosts *with* vectorized transcendentals: the cube is expanded to
    multiplies (numpy's ``x**3`` takes the generic ``pow`` path, two
    orders of magnitude slower than ``x*x*x``) and the Python-scalar
    constants bind to the input dtype, so an fp32 activation stays in
    fp32 all the way through SIMD ``tanh``.  On such hosts this beats
    the paper's table -- the table exists for machines where ``tanh``
    itself is the bottleneck.
    """
    x = np.asarray(x)
    # the cube can overflow narrow dtypes on far-out-of-domain inputs;
    # the inf saturates tanh to +-1, which IS the correct asymptote
    with np.errstate(over="ignore"):
        inner = np.tanh(float(_SQRT_2_OVER_PI) * (x + _C * (x * x * x)))
    return 0.5 * x * (1.0 + inner)


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d GeLU / dx (analytic)."""
    inner = _SQRT_2_OVER_PI * (x + _C * x**3)
    t = np.tanh(inner)
    sech2 = 1.0 - t * t
    return 0.5 * (1.0 + t) + 0.5 * x * sech2 * _SQRT_2_OVER_PI * (
        1.0 + 3.0 * _C * x * x
    )


class Linear:
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        # He-style initialization scaled for GeLU.
        self.weight = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_out, n_in))
        self.bias = np.zeros(n_out)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_out, n_in)`` of the weight matrix."""
        return self.weight.shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """``x W^T + b``; caches ``x`` when ``training``."""
        if training:
            self._x = x
        return x @ self.weight.T + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; return the input gradient."""
        if self._x is None:
            raise RuntimeError("backward before forward(training=True)")
        self.grad_weight += grad_out.T @ self._x
        self.grad_bias += grad_out.sum(axis=0)
        return grad_out @ self.weight

    def zero_grad(self) -> None:
        """Reset accumulated parameter gradients."""
        self.grad_weight[:] = 0.0
        self.grad_bias[:] = 0.0

    def parameters(self):
        """``(value, grad)`` pairs for the optimizer."""
        return [(self.weight, self.grad_weight), (self.bias, self.grad_bias)]

    def flops_per_sample(self) -> int:
        """Dense multiply-add flops per input sample."""
        n_out, n_in = self.weight.shape
        return 2 * n_in * n_out


class GeLU:
    """GeLU activation layer."""

    #: flops charged per element by the performance model (tanh
    #: expansion dominates; the paper's profile attributes ~half the
    #: baseline DNN time to it).
    FLOPS_PER_ELEMENT = 12

    def __init__(self) -> None:
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Elementwise GeLU; caches ``x`` when ``training``."""
        if training:
            self._x = x
        return gelu_exact(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Chain the cached input through the analytic GeLU grad."""
        return grad_out * gelu_grad(self._x)

    def zero_grad(self) -> None:
        """No parameters: a no-op."""

    def parameters(self):
        """No parameters: an empty list."""
        return []

    def flops_per_sample(self) -> int:
        """Zero here -- the engine counts GeLU per element."""
        return 0


class Identity:
    """No-op activation (output layer)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Pass ``x`` through unchanged."""
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Pass the gradient through unchanged."""
        return grad_out

    def zero_grad(self) -> None:
        """No parameters: a no-op."""

    def parameters(self):
        """No parameters: an empty list."""
        return []

    def flops_per_sample(self) -> int:
        """Zero: no arithmetic."""
        return 0
