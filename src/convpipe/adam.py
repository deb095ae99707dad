"""Adaptive-moment weight updates with shared per-batch correction factors.

The bias-correction factors 1/(1-beta^t) involve a pow(), so they are
computed once per mini-batch and reused by both layer updates; both layers
therefore share a single step counter. The small constant is added outside
the square root: step = eta * m_hat / (sqrt(v_hat) + eps).

adam_update is that update as numpy array expressions, one layer at a
time. It is the reference for the compiled kernel and its fallback.

apply_batch_update, the training step's entry point, updates both layers
in one call into the native extension module: adam_update_pair, which
goes over the output layer's elements and then the hidden layer's and
does numpy's operations in numpy's order for each of them, in place. At
the default dims the calling thread shares its chunks of elements with
the module's helper thread, and each element is still updated by one
thread, with the same bytes (see native). The call takes the eight
arrays as they are, copying none, and checks all their buffers before it
writes any. When native.kernels() is unavailable,
or the call rejects a buffer (BufferError: not float64, not aligned, not
C-contiguous or read-only), it runs adam_update on the output layer and
then on the hidden layer instead, with the same bytes.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import native
from .dims import DEFAULT_DIMS


@dataclass(frozen=True)
class AdamHyper:
    beta1: float = 0.9
    beta2: float = 0.999
    eta: float = 0.01
    eps: float = 1e-7

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1/beta2 must lie in (0, 1)")
        if not (0.0 < self.eta < math.inf and 0.0 < self.eps < math.inf):
            raise ValueError(f"eta and eps must be positive and finite, got "
                             f"eta={self.eta}, eps={self.eps}")


@dataclass
class AdamState:
    """First/second moment arrays for both layers plus the shared step count."""

    m_w1: np.ndarray
    v_w1: np.ndarray
    m_w2: np.ndarray
    v_w2: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, dims=DEFAULT_DIMS):
        return cls(m_w1=np.zeros((dims.pool_map, dims.hidden)),
                   v_w1=np.zeros((dims.pool_map, dims.hidden)),
                   m_w2=np.zeros((dims.hidden, dims.classes)),
                   v_w2=np.zeros((dims.hidden, dims.classes)))


@dataclass(frozen=True)
class CorrectionFactors:
    c1: float
    c2: float


def correction_factors(hyper: AdamHyper, t: int) -> CorrectionFactors:
    """Bias-correction multipliers c1 = 1/(1-beta1^t), c2 = 1/(1-beta2^t)."""
    if t < 1:
        raise ValueError(f"step counter must be >= 1 for bias correction, got {t}")
    return CorrectionFactors(c1=1.0 / (1.0 - hyper.beta1 ** t),
                             c2=1.0 / (1.0 - hyper.beta2 ** t))


def _check_shapes(w, m, v, g):
    if not (w.shape == m.shape == v.shape == g.shape):
        raise ValueError(f"shape mismatch: w{w.shape} m{m.shape} "
                         f"v{v.shape} g{g.shape}")


def adam_update(w, m, v, g, corr: CorrectionFactors, hyper: AdamHyper):
    """One elementwise moment + weight update, in place, as numpy array
    expressions: the compiled kernel's reference and fallback.

    m <- beta1*m + (1-beta1)*g
    v <- beta2*v + (1-beta2)*g^2
    w <- w - eta * (m*c1) / (sqrt(v*c2) + eps)

    Returns the number of non-finite weights the update wrote.
    """
    _check_shapes(w, m, v, g)
    m[...] = hyper.beta1 * m + (1.0 - hyper.beta1) * g
    v[...] = hyper.beta2 * v + (1.0 - hyper.beta2) * (g * g)
    w -= hyper.eta * (m * corr.c1) / (np.sqrt(v * corr.c2) + hyper.eps)
    return w.size - int(np.count_nonzero(np.isfinite(w)))


def apply_batch_update(state: AdamState, weights, grads, hyper: AdamHyper):
    """Advance the step counter once and update both layers with shared factors.

    The output layer is updated first: its gradients come out of the backward
    pass first, and its update produces the factors the hidden layer reuses.
    Every shape is checked before the counter moves, so a mis-shaped
    gradient raises ValueError with the state and weights untouched.

    One compiled call updates both layers when it takes every array's
    buffer; otherwise each layer goes through adam_update.
    Returns the number of non-finite weights the two updates wrote.
    """
    layers = ((weights.w2, state.m_w2, state.v_w2, grads.g_w2),
              (weights.w1, state.m_w1, state.v_w1, grads.g_w1))
    for layer in layers:
        _check_shapes(*layer)
    state.step += 1
    corr = correction_factors(hyper, state.step)
    lib = native.kernels()
    if lib is not None:
        try:
            return lib.adam_update_pair(*layers[0], *layers[1], hyper.beta1,
                                        hyper.beta2, hyper.eta, corr.c1,
                                        corr.c2, hyper.eps)
        except BufferError:  # an array it cannot take; nothing was written
            pass
    return sum(adam_update(*layer, corr, hyper) for layer in layers)
