"""Accelerator-side math: FC + ReLU layer, softmax output with loss, backprop.

All matrix products accumulate over the contraction index in ascending
order (see matmul_kseq), so results are bit-identical to a naive scalar
triple loop and fully reproducible across runs and execution modes.

matmul_kseq runs that loop as a small C function (_KSEQ_SOURCE), compiled
on the first call with `cc` (or `gcc`) and loaded through ctypes, which
releases the GIL while it runs. The flags are -O3 -std=c99
-ffp-contract=off: without -ffp-contract=off, GCC in its default GNU C
mode fuses `out += x * b` into one fused multiply-add on hardware that has
it, which skips the rounding of the product and changes the bits. The
library is cached as $XDG_CACHE_HOME/convpipe/kseq-<sha256>.so
(~/.cache when XDG_CACHE_HOME is unset), keyed by the source and flags, and
written through a temporary file and os.replace so concurrent first builds
are safe. When there is no compiler, the build fails or the cache directory
cannot be written, one RuntimeWarning is emitted and the numpy loop
(_matmul_kseq_numpy, also the reference the tests compare against) runs
instead. Both paths give the same bytes.

There are no bias terms anywhere: both layers are pure weight matrices.
"""

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adam as adam_mod
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


# out[i][j] starts at +0.0 like the numpy loop: starting from the first
# product instead would turn an all -0.0 sum into -0.0.
_KSEQ_SOURCE = r"""
#include <stddef.h>

void matmul_kseq(ptrdiff_t m, ptrdiff_t k, ptrdiff_t n,
                 const double *a, ptrdiff_t a_row, ptrdiff_t a_col,
                 const double *restrict b, double *restrict out)
{
    for (ptrdiff_t i = 0; i < m; i++) {
        double *restrict o = out + i * n;
        for (ptrdiff_t j = 0; j < n; j++)
            o[j] = 0.0;
        for (ptrdiff_t t = 0; t < k; t++) {
            const double x = a[i * a_row + t * a_col];
            const double *restrict bt = b + t * n;
            for (ptrdiff_t j = 0; j < n; j++)
                o[j] += x * bt[j];
        }
    }
}
"""
_KSEQ_CFLAGS = ("-O3", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")


def _kseq_library_path():
    cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    digest = hashlib.sha256("\0".join((_KSEQ_SOURCE,) + _KSEQ_CFLAGS)
                            .encode()).hexdigest()
    return Path(cache) / "convpipe" / f"kseq-{digest}.so"


def _build_kseq(path):
    """Compile _KSEQ_SOURCE to `path`, atomically."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    # built next to its final name, so os.replace stays on one file system
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        src = Path(tmp) / "kseq.c"
        src.write_text(_KSEQ_SOURCE)
        lib = Path(tmp) / path.name
        subprocess.run([compiler, *_KSEQ_CFLAGS, "-o", str(lib), str(src)],
                       check=True, capture_output=True, timeout=300)
        os.replace(lib, path)


@functools.cache
def _kseq_kernel():
    """The compiled matmul_kseq, built on first use; None if unavailable."""
    try:
        path = _kseq_library_path()  # RuntimeError if there is no home directory
        if not path.exists():
            _build_kseq(path)
        fn = ctypes.CDLL(str(path)).matmul_kseq
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
        warnings.warn(f"compiled matmul_kseq unavailable, using the slower "
                      f"numpy loop: {exc} {stderr}".rstrip(), RuntimeWarning,
                      stacklevel=2)
        return None
    ssize = ctypes.c_ssize_t
    fn.argtypes = (ssize, ssize, ssize, ctypes.c_void_p, ssize, ssize,
                   ctypes.c_void_p, ctypes.c_void_p)
    fn.restype = None
    return fn


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
    a = np.require(a, np.float64, ("A",))
    b = np.require(b, np.float64, ("C", "A"))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    kernel = _kseq_kernel()
    if kernel is None:
        return _matmul_kseq_numpy(a, b)
    (m, k), n = a.shape, b.shape[1]
    out = np.empty((m, n), dtype=np.float64)
    kernel(m, k, n, a.ctypes.data, a.strides[0] // a.itemsize,
           a.strides[1] // a.itemsize, b.ctypes.data, out.ctypes.data)
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
        adam_mod.apply_batch_update(state.adam, state.weights, grads, state.hyper)
        if not (np.isfinite(state.weights.w1).all()
                and np.isfinite(state.weights.w2).all()):
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
