"""Accelerator-side math: FC + ReLU layer, softmax output with loss, backprop.

All matrix products accumulate over the contraction index in ascending
order (see matmul_kseq), so results are bit-identical to a naive scalar
triple loop and fully reproducible across runs and execution modes.

matmul_kseq runs that loop as compiled C from the native extension module,
whose calls release the GIL, so the pipelined producer's host stage
overlaps it. native.kernels() builds the module on the first product,
caches it per machine and returns None, after one RuntimeWarning, when it
cannot; matmul_kseq then runs the numpy loop _matmul_kseq_numpy,
which is also the reference the tests compare against. Both paths give the
same bytes.

The elementwise steps next to a product run in its call, as its epilogue:
fc_forward's ReLU (relu=True) and backward's h1 > 0 mask on dH1
(mask=h1). A training batch therefore makes five matmul_kseq calls and
one adam.apply_batch_update call into the module, with the arrays
themselves, when it loaded. At the default dims, fc_forward's and
grad_w1's products and the Adam update each share their chunks with the
module's helper thread on a second core, with the same bytes (see
native). The softmax and loss stay in numpy, whose exp, log and row sums
a C loop would not match bit for bit.

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


def matmul_kseq(a, b, *, relu=False, mask=None):
    """(m, k) @ (k, n) accumulated strictly in ascending k order.

    Equivalent to the scalar loop `for k: acc[i][j] += a[i][k] * b[k][j]`
    bit for bit, starting from acc = +0.0. The compiled kernel takes the
    arrays as they are: `a` in any strides (h1.T and v.T are not copied),
    `b` and `mask` C-contiguous, each aligned native float64. Any other
    array runs _matmul_kseq_numpy on float64 copies, with the same bytes.

    The epilogue runs on the finished product, in the same call: `relu`
    gives np.maximum(0.0, product), and an (m, n) `mask` then gives
    product * (mask > 0.0), a multiply that turns a negative value under
    a zero mask into -0.0 and keeps a NaN.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    (m, k), n = a.shape, b.shape[1]
    if mask is not None:
        mask = np.asarray(mask)
        if mask.shape != (m, n):
            raise ValueError(f"mask {mask.shape} does not match the "
                             f"product's {(m, n)}")
    lib = native.kernels()
    if lib is not None:
        out = np.empty((m, n), dtype=np.float64)
        try:
            lib.matmul_kseq(a, b, relu, mask, out)
            return out
        except BufferError:  # an array it cannot take; nothing was written
            pass
    out = _matmul_kseq_numpy(np.asarray(a, np.float64),
                             np.asarray(b, np.float64))
    if relu:
        out = np.maximum(0.0, out)
    if mask is not None:
        out = out * (mask > 0.0)
    return out


def fc_forward(v, w1):
    """Hidden layer: h1 = relu(v @ w1)."""
    if v.shape[1] != w1.shape[0]:
        raise ValueError(f"v {v.shape} does not match w1 {w1.shape}")
    return matmul_kseq(v, w1, relu=True)


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
    # the kernel takes b only in C order, so W2^T is copied for it
    dh1 = matmul_kseq(dz, np.ascontiguousarray(weights.w2.T), mask=trace.h1)
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
    # the same Python float as float(np.mean(...)) of the matches, without
    # the float64 reduce
    hits = np.count_nonzero(h2.argmax(axis=1) == out_actual.argmax(axis=1))
    return int(hits) / h2.shape[0]
