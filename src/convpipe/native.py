"""The compiled kernels: one C source, built on first use, loaded with ctypes.

_SOURCE holds the three hot loops of a training step, each bit-identical to
the numpy code that is its reference and fallback:

- matmul_kseq: `out[i][j] += a[i][t] * b[t][j]` for t ascending, each
  element starting from +0.0 (neuralcore.matmul_kseq, reference
  neuralcore._matmul_kseq_numpy);
- host_stage: valid correlation with the taps added in row-major kernel
  order from +0.0, then a NaN-propagating 2x2 max-pool written straight
  into the flattened (n, pool_map) rows (hoststage.host_stage, reference
  hoststage.conv2d_valid and hoststage.maxpool2x2);
- adam_update: the moment and weight update, in place, with numpy's
  operations in numpy's order for each element (adam.adam_update,
  reference adam._adam_update_numpy).

The source is compiled with `cc` (or `gcc`) and -O3 -std=c99
-ffp-contract=off -fno-math-errno: without -ffp-contract=off, GCC in its
default GNU C mode fuses `acc += x * y` into one fused multiply-add on
hardware that has it, which skips the rounding of the product and changes
the bits. -fno-math-errno only drops the errno write of sqrt(), so that the
Adam loop vectorises; sqrt and division stay correctly rounded.

On x86 each kernel is built as target clones, for AVX-512F, AVX2 and the
baseline, and the dynamic loader picks the widest the CPU has once, when the
library is loaded. The bits are the same on every clone: a vector lane is
an independent output element, each element still accumulates in the same
order from +0.0, and no clone may fuse a multiply and an add. A compiler
without the target_clones attribute builds the baseline loops alone.

The library is cached as $XDG_CACHE_HOME/convpipe/native-<sha256>.so
(~/.cache when XDG_CACHE_HOME is unset), keyed by the source and flags, and
written through a temporary file and os.replace so concurrent first builds
are safe. A build then removes the cache's other native-*.so files (and
kseq-*.so, the old name) not loaded for 30 days, as kernels() touches the
library it loads: checkouts of other sources keep theirs, and a process
that has one loaded keeps using it. ctypes releases the
GIL for the duration of each call, so the pipelined producer and the
accelerator thread run at the same time.

When there is no compiler, the build fails or the cache directory cannot be
written, kernels() emits one RuntimeWarning and returns None, and every
caller runs its numpy code instead. Both paths give the same bytes.
"""

import contextlib
import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

# Every accumulator starts at +0.0 like the numpy loops: starting from the
# first product instead would turn an all -0.0 sum into -0.0.
_SOURCE = r"""
#include <math.h>
#include <stddef.h>

/* One clone per listed target, picked by glibc's loader (an ifunc
   resolver) when the library is loaded. The target names are x86's; on
   other machines or C libraries, or with a compiler without the attribute,
   only the baseline loops are built. */
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GLIBC__)
#if defined(__has_attribute)
#if __has_attribute(target_clones)
#define KERNEL __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#endif
#ifndef KERNEL
#define KERNEL
#endif

KERNEL
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

/* numpy's max: a NaN operand wins, and stays once taken */
static double max_nan(double m, double x)
{
    return (x > m || x != x) ? x : m;
}

/* x is (n, h, w) with element strides x_n, x_h, x_w; the correlation
   output (h-kh+1) x (w-kw+1) must have even dims. rows is scratch for two
   output rows; out is (n, (h-kh+1)/2 * (w-kw+1)/2), row-major. */
KERNEL
void host_stage(ptrdiff_t n, ptrdiff_t h, ptrdiff_t w,
                const double *x, ptrdiff_t x_n, ptrdiff_t x_h, ptrdiff_t x_w,
                const double *restrict k, ptrdiff_t kh, ptrdiff_t kw,
                double *restrict rows, double *restrict out)
{
    const ptrdiff_t oh = h - kh + 1, ow = w - kw + 1;
    double *restrict r0 = rows, *restrict r1 = rows + ow;
    for (ptrdiff_t b = 0; b < n; b++) {
        const double *img = x + b * x_n;
        for (ptrdiff_t r = 0; r < oh; r++) {
            double *restrict o = r % 2 ? r1 : r0;
            for (ptrdiff_t c = 0; c < ow; c++)
                o[c] = 0.0;
            for (ptrdiff_t i = 0; i < kh; i++)
                for (ptrdiff_t j = 0; j < kw; j++) {
                    const double kv = k[i * kw + j];
                    const double *xr = img + (r + i) * x_h + j * x_w;
                    for (ptrdiff_t c = 0; c < ow; c++)
                        o[c] += kv * xr[c * x_w];
                }
            if (r % 2 == 0)
                continue;
            for (ptrdiff_t c = 0; c < ow; c += 2)
                *out++ = max_nan(max_nan(max_nan(r0[c], r0[c + 1]), r1[c]),
                                 r1[c + 1]);
        }
    }
}

/* numpy's order of operations, element by element, on n contiguous
   elements; b1c and b2c are 1-beta1 and 1-beta2 */
KERNEL
void adam_update(ptrdiff_t n, double *restrict w, double *restrict m,
                 double *restrict v, const double *restrict g,
                 double b1, double b1c, double b2, double b2c,
                 double eta, double c1, double c2, double eps)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        const double mi = b1 * m[i] + b1c * g[i];
        const double vi = b2 * v[i] + b2c * (g[i] * g[i]);
        m[i] = mi;
        v[i] = vi;
        w[i] = w[i] - (eta * (mi * c1)) / (sqrt(vi * c2) + eps);
    }
}
"""
_CFLAGS = ("-O3", "-std=c99", "-ffp-contract=off", "-fno-math-errno",
           "-fPIC", "-shared")

_SSIZE, _PTR, _DBL = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
_SIGNATURES = {
    "matmul_kseq": (_SSIZE, _SSIZE, _SSIZE, _PTR, _SSIZE, _SSIZE, _PTR, _PTR),
    "host_stage": (_SSIZE, _SSIZE, _SSIZE, _PTR, _SSIZE, _SSIZE, _SSIZE,
                   _PTR, _SSIZE, _SSIZE, _PTR, _PTR),
    "adam_update": (_SSIZE, _PTR, _PTR, _PTR, _PTR) + (_DBL,) * 8,
}


def _library_path():
    cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    digest = hashlib.sha256("\0".join((_SOURCE,) + _CFLAGS)
                            .encode()).hexdigest()
    return Path(cache) / "convpipe" / f"native-{digest}.so"


def _build(path):
    """Compile _SOURCE to `path`, atomically."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    # built next to its final name, so os.replace stays on one file system
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        src = Path(tmp) / "native.c"
        src.write_text(_SOURCE)
        lib = Path(tmp) / path.name
        subprocess.run([compiler, *_CFLAGS, "-o", str(lib), str(src)],
                       check=True, capture_output=True, timeout=300)
        os.replace(lib, path)
    # libraries of other sources or flags, and of the old single-kernel
    # name, not loaded for 30 days; a process that has one loaded keeps
    # its mapping
    cutoff = path.stat().st_mtime - 30 * 24 * 3600
    for pattern in ("native-*.so", "kseq-*.so"):
        for stale in path.parent.glob(pattern):
            with contextlib.suppress(OSError):
                if stale != path and stale.stat().st_mtime < cutoff:
                    stale.unlink()


def _load(path):
    """The library at `path`, with every kernel's signature set."""
    lib = ctypes.CDLL(str(path))
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, None
    return lib


@functools.cache
def kernels():
    """The compiled library, built on first use, with every kernel typed;
    None (after one RuntimeWarning) if unavailable."""
    try:
        path = _library_path()  # RuntimeError if there is no home directory
        if not path.exists():
            _build(path)
        with contextlib.suppress(OSError):
            os.utime(path)  # in use: a build elsewhere keeps it
        return _load(path)
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
        warnings.warn(f"compiled kernels unavailable, using the slower numpy "
                      f"loops: {exc} {stderr}".rstrip(), RuntimeWarning,
                      stacklevel=2)
        return None
