"""Adaptive-moment weight updates with shared per-batch correction factors.

The bias-correction factors 1/(1-beta^t) involve a pow(), so they are
computed once per mini-batch and reused by both layer updates; both layers
therefore share a single step counter. The small constant is added outside
the square root: step = eta * m_hat / (sqrt(v_hat) + eps).

adam_update runs as compiled C from the native module: one pass over the
elements that does numpy's operations in numpy's order for each of them,
in place, with 1-beta1 and 1-beta2 computed here as before. When
native.kernels() is unavailable, or an array is not one the kernel can
update in place, _adam_update_numpy runs instead; it is also the reference
the tests compare the kernel against, byte for byte.
"""

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
        if self.eta <= 0.0 or self.eps <= 0.0:
            raise ValueError("eta and eps must be positive")


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
    t: int


def correction_factors(hyper: AdamHyper, t: int) -> CorrectionFactors:
    """Bias-correction multipliers c1 = 1/(1-beta1^t), c2 = 1/(1-beta2^t)."""
    if t < 1:
        raise ValueError(f"step counter must be >= 1 for bias correction, got {t}")
    return CorrectionFactors(c1=1.0 / (1.0 - hyper.beta1 ** t),
                             c2=1.0 / (1.0 - hyper.beta2 ** t),
                             t=t)


def _adam_update_numpy(w, m, v, g, corr: CorrectionFactors, hyper: AdamHyper):
    """The update as numpy array expressions: the fallback and the reference
    for the compiled kernel. Returns the number of non-finite weights."""
    m[...] = hyper.beta1 * m + (1.0 - hyper.beta1) * g
    v[...] = hyper.beta2 * v + (1.0 - hyper.beta2) * (g * g)
    w -= hyper.eta * (m * corr.c1) / (np.sqrt(v * corr.c2) + hyper.eps)
    return w.size - int(np.count_nonzero(np.isfinite(w)))


def adam_update(w, m, v, g, corr: CorrectionFactors, hyper: AdamHyper):
    """One elementwise moment + weight update, in place.

    m <- beta1*m + (1-beta1)*g
    v <- beta2*v + (1-beta2)*g^2
    w <- w - eta * (m*c1) / (sqrt(v*c2) + eps)

    w, m and v are updated where they are. The compiled kernel runs on
    float64 arrays only, and writes only w, m and v that are aligned,
    writable and C-contiguous; for any other array the numpy body runs.
    Returns the number of non-finite weights the update wrote.
    """
    if not (w.shape == m.shape == v.shape == g.shape):
        raise ValueError(f"shape mismatch: w{w.shape} m{m.shape} "
                         f"v{v.shape} g{g.shape}")
    lib = native.kernels()
    if (lib is None or g.dtype != np.float64
            or not all(a.dtype == np.float64 and a.flags.carray
                       for a in (w, m, v))):
        return _adam_update_numpy(w, m, v, g, corr, hyper)
    if not (g.flags.c_contiguous and g.flags.aligned):
        g = np.require(g, np.float64, ("C", "A"))
    return lib.adam_update(w.size, *map(native.address, (w, m, v, g)),
                           hyper.beta1, 1.0 - hyper.beta1, hyper.beta2,
                           1.0 - hyper.beta2, hyper.eta, corr.c1, corr.c2,
                           hyper.eps)


def apply_batch_update(state: AdamState, weights, grads, hyper: AdamHyper):
    """Advance the step counter once and update both layers with shared factors.

    The output layer is updated first: its gradients come out of the backward
    pass first, and its update produces the factors the hidden layer reuses.
    Returns the number of non-finite weights the two updates wrote.
    """
    state.step += 1
    corr = correction_factors(hyper, state.step)
    return (adam_update(weights.w2, state.m_w2, state.v_w2, grads.g_w2, corr,
                        hyper)
            + adam_update(weights.w1, state.m_w1, state.v_w1, grads.g_w1,
                          corr, hyper))
