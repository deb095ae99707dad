"""Accelerator-side math: FC + ReLU layer, softmax output with loss, backprop.

All matrix products accumulate over the contraction index in ascending
order (see matmul_kseq), so results are bit-identical to a naive scalar
triple loop and fully reproducible across runs and execution modes.

matmul_kseq runs that loop as compiled C from the native module, through
ctypes, which releases the GIL while it runs, so the pipelined producer's
host stage overlaps it. native.kernels() builds the library on the first
product, caches it per machine and returns None, after one RuntimeWarning,
when it cannot; matmul_kseq then runs the numpy loop _matmul_kseq_numpy,
which is also the reference the tests compare against. Both paths give the
same bytes.

There are no bias terms anywhere: both layers are pure weight matrices.
"""

from dataclasses import dataclass

import numpy as np

from . import adam as adam_mod
from . import native
from .adam import AdamHyper, AdamState
from .dims import DEFAULT_DIMS
from .hoststage import ConvBatch

LOG_EPS = 1e-12  # guards ln() against exact-zero probabilities
_FLOAT64 = np.dtype(np.float64)  # native byte order


@dataclass
class Weights:
    w1: np.ndarray  # (pool_map, hidden)
    w2: np.ndarray  # (hidden, classes)


@dataclass
class Gradients:
    g_w1: np.ndarray
    g_w2: np.ndarray


@dataclass
class ForwardTrace:
    """Everything the backward pass and metrics need from one forward pass."""

    v: np.ndarray     # (batch, pool_map)
    h1: np.ndarray    # (batch, hidden), post-ReLU
    h2: np.ndarray    # (batch, classes), post-softmax
    loss: float       # mean cross-entropy over the batch


@dataclass
class ModelState:
    weights: Weights
    adam: AdamState
    hyper: AdamHyper

    @classmethod
    def initial(cls, seed, dims=DEFAULT_DIMS, hyper=None):
        return cls(weights=init_weights(seed, dims),
                   adam=AdamState.zeros(dims),
                   hyper=hyper if hyper is not None else AdamHyper())


def init_weights(seed, dims=DEFAULT_DIMS) -> Weights:
    """Gaussian(0, 0.1^2) init for both layers from one seeded generator."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, 0.1, size=(dims.pool_map, dims.hidden))
    w2 = rng.normal(0.0, 0.1, size=(dims.hidden, dims.classes))
    return Weights(w1, w2)


def _matmul_kseq_numpy(a, b):
    """The ascending-k loop as rank-1 numpy updates: the fallback and the
    reference for the compiled kernel."""
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for k in range(a.shape[1]):
        acc += a[:, k:k + 1] * b[k]
    return acc


def matmul_kseq(a, b):
    """(m, k) @ (k, n) accumulated strictly in ascending k order.

    Equivalent to the scalar loop `for k: acc[i][j] += a[i][k] * b[k][j]`
    bit for bit, starting from acc = +0.0. `a` may be any strided view
    (h1.T and v.T are not copied); `b` is copied only if not C-contiguous.
    """
    # np.require costs ~2 us a call, the flag tests a tenth of that
    if not (type(a) is np.ndarray and a.dtype is _FLOAT64
            and a.flags.aligned):
        a = np.require(a, np.float64, ("A",))
    if not (type(b) is np.ndarray and b.dtype is _FLOAT64
            and b.flags.c_contiguous and b.flags.aligned):
        b = np.require(b, np.float64, ("C", "A"))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    lib = native.kernels()
    if lib is None:
        return _matmul_kseq_numpy(a, b)
    (m, k), n = a.shape, b.shape[1]
    out = np.empty((m, n), dtype=np.float64)
    lib.matmul_kseq(m, k, n, native.address(a), a.strides[0] // a.itemsize,
                    a.strides[1] // a.itemsize, native.address(b),
                    native.address(out))
    return out


def fc_forward(v, w1):
    """Hidden layer: h1 = relu(v @ w1)."""
    if v.shape[1] != w1.shape[0]:
        raise ValueError(f"v {v.shape} does not match w1 {w1.shape}")
    return np.maximum(0.0, matmul_kseq(v, w1))


def out_forward(h1, w2, out_actual):
    """Output layer with fused normalization and loss.

    Logits are max-shifted per row before exponentiation so the exponential
    sums cannot overflow; the shift cancels in the ratio. Loss is the mean
    cross-entropy over the batch.
    """
    if h1.shape[1] != w2.shape[0]:
        raise ValueError(f"h1 {h1.shape} does not match w2 {w2.shape}")
    if out_actual.shape != (h1.shape[0], w2.shape[1]):
        raise ValueError(f"out_actual {out_actual.shape} does not match "
                         f"({h1.shape[0]}, {w2.shape[1]})")
    z = matmul_kseq(h1, w2)
    z_shift = z - z.max(axis=1, keepdims=True)
    e = np.exp(z_shift)
    h2 = e / e.sum(axis=1, keepdims=True)
    n = h1.shape[0]
    loss = float(-(out_actual * np.log(h2 + LOG_EPS)).sum() / n)
    return h2, loss


def backward(trace: ForwardTrace, out_actual, weights: Weights) -> Gradients:
    """Gradients of the mean cross-entropy w.r.t. both weight matrices.

    dZ = (h2 - y) / n;  gW2 = h1^T dZ;  dH1 = dZ W2^T masked where h1 > 0;
    gW1 = v^T dH1.
    """
    n = trace.h2.shape[0]
    dz = (trace.h2 - out_actual) / n
    g_w2 = matmul_kseq(trace.h1.T, dz)
    dh1 = matmul_kseq(dz, weights.w2.T) * (trace.h1 > 0.0)
    g_w1 = matmul_kseq(trace.v.T, dh1)
    return Gradients(g_w1, g_w2)


def accel_kernel(conv: ConvBatch, state: ModelState, is_training: bool):
    """One accelerator invocation: forward always, backward + update when
    training. Mutates and returns the same state object; with
    is_training=False the state is untouched.

    Not safe for concurrent calls on the same state.
    """
    h1 = fc_forward(conv.v, state.weights.w1)
    h2, loss = out_forward(h1, state.weights.w2, conv.out_actual)
    trace = ForwardTrace(v=conv.v, h1=h1, h2=h2, loss=loss)
    if is_training:
        grads = backward(trace, conv.out_actual, state.weights)
        if adam_mod.apply_batch_update(state.adam, state.weights, grads,
                                       state.hyper):
            raise FloatingPointError(
                f"non-finite weights after update at step {state.adam.step}")
    return trace, state


def accuracy(h2, out_actual):
    """Fraction of rows whose argmax matches; ties go to the lowest index."""
    if h2.shape != out_actual.shape:
        raise ValueError(f"shape mismatch: {h2.shape} vs {out_actual.shape}")
    if h2.shape[0] == 0:
        return 0.0
    return float(np.mean(h2.argmax(axis=1) == out_actual.argmax(axis=1)))
