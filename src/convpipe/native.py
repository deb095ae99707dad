"""The compiled kernels: one C source, built on first use, loaded with ctypes.

_SOURCE holds the two hot loops of a training step, each bit-identical to
the numpy code that is its reference and fallback:

- matmul_kseq: `out[i][j] += a[i][t] * b[t][j]` for t ascending, each
  element starting from +0.0 (neuralcore.matmul_kseq, reference
  neuralcore._matmul_kseq_numpy);
- host_stage: valid correlation with the taps added in row-major kernel
  order from +0.0, then a NaN-propagating 2x2 max-pool written straight
  into the flattened (n, pool_map) rows (hoststage.host_stage, reference
  hoststage.conv2d_valid and hoststage.maxpool2x2).

The source is compiled with `cc` (or `gcc`) and -O3 -std=c99
-ffp-contract=off: without -ffp-contract=off, GCC in its default GNU C mode
fuses `acc += x * y` into one fused multiply-add on hardware that has it,
which skips the rounding of the product and changes the bits. The library
is cached as $XDG_CACHE_HOME/convpipe/native-<sha256>.so (~/.cache when
XDG_CACHE_HOME is unset), keyed by the source and flags, and written
through a temporary file and os.replace so concurrent first builds are
safe. ctypes releases the GIL for the duration of each call, so the
pipelined producer and the accelerator thread run at the same time.

When there is no compiler, the build fails or the cache directory cannot be
written, kernels() emits one RuntimeWarning and returns None, and both
callers run their numpy code instead. Both paths give the same bytes.
"""

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

/* numpy's max: a NaN operand wins, and stays once taken */
static double max_nan(double m, double x)
{
    return (x > m || x != x) ? x : m;
}

/* x is (n, h, w) with element strides x_n, x_h, x_w; the correlation
   output (h-kh+1) x (w-kw+1) must have even dims. rows is scratch for two
   output rows; out is (n, (h-kh+1)/2 * (w-kw+1)/2), row-major. */
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
"""
_CFLAGS = ("-O3", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")

_SSIZE, _PTR = ctypes.c_ssize_t, ctypes.c_void_p
_SIGNATURES = {
    "matmul_kseq": (_SSIZE, _SSIZE, _SSIZE, _PTR, _SSIZE, _SSIZE, _PTR, _PTR),
    "host_stage": (_SSIZE, _SSIZE, _SSIZE, _PTR, _SSIZE, _SSIZE, _SSIZE,
                   _PTR, _SSIZE, _SSIZE, _PTR, _PTR),
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


@functools.cache
def kernels():
    """The compiled library, built on first use, with matmul_kseq and
    host_stage typed; None (after one RuntimeWarning) if unavailable."""
    try:
        path = _library_path()  # RuntimeError if there is no home directory
        if not path.exists():
            _build(path)
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
        warnings.warn(f"compiled kernels unavailable, using the slower numpy "
                      f"loops: {exc} {stderr}".rstrip(), RuntimeWarning,
                      stacklevel=2)
        return None
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, None
    return lib
