"""The compiled kernels: the C source in _native.c, built on first use as
an extension module.

_native.c holds the three hot loops of a training step and the synthetic
fixture's draw, one entry point per loop, and set_background, which marks
the calling thread; its comments say how each loop is tiled and what each
entry point checks. Each kernel gives the bytes of the numpy code that is
its reference and fallback:

- matmul_kseq: neuralcore.matmul_kseq, reference
  neuralcore._matmul_kseq_numpy;
- host_stage: hoststage.host_stage, references hoststage.conv2d_valid and
  hoststage.maxpool2x2; it takes uint8 images, whose byte k it reads as
  k / 255.0 through a table built when the module loads, the value numpy's
  division of the bytes by 255.0 gives, and correlates them with
  dims.SHARPEN_KERNEL, compiled in as KH, KW and TAPS (exact float.hex
  literals);
- adam_update_pair: adam.apply_batch_update, reference adam.adam_update once
  per layer;
- pcg64_pixels: dataio.synthetic_dataset's pixels, reference numpy's
  PCG64.random_raw, bytes 3 and 7 of each word. It runs numpy's PCG64 (the
  128-bit LCG step, then the XSL-RR output) from the generator's state
  and increment, which it takes as four 64-bit halves: a Python int
  wider than 64 bits has no public C conversion. Each chunk of words
  jumps to its first word with the LCG jump-ahead (Brown 1994, numpy's
  pcg_advance_lcg_128) and steps two interleaved chains; the caller then
  advances the generator past the words. A compiler without 128-bit
  integers builds it to return False, and the caller draws through
  numpy.

Every accumulator starts at +0.0 like the numpy loops: starting from the
first product instead would turn an all -0.0 sum into -0.0. A tile or a
SIMD clone only changes which elements are summed when, never the terms of
one element's sum or their order, and padding lanes are never stored, so
every path gives the same bits, but for the sign of a NaN where NaNs of both
signs meet in a product: an x86 add or multiply returns the one its operand
order picks, which differs between tiles, builds and numpy's own loops. No
host stage sum is NaN: bytes in [0, 1] times finite taps.

The module is compiled with `cc` (or `gcc`), the kernel's macros and
-O3 -std=c99 -ffp-contract=off -fno-math-errno: without -ffp-contract=off,
GCC in its default GNU C mode fuses `acc += x * y` into one fused
multiply-add on hardware that has it, which skips the rounding of the
product and changes the bits. -fno-math-errno only drops the errno write of sqrt(), so that the
Adam loop vectorises; sqrt and division stay correctly rounded.

On x86 each kernel is built as target clones, for AVX-512F, AVX2 and the
baseline, and the dynamic loader picks the widest the CPU has once, when the
module is loaded. The bits are the same on every clone: a vector lane is an
independent output element, and no clone may fuse a multiply and an add.
The host stage's block is written with GCC/Clang vectors of four doubles,
as GCC vectorised none of the plain-C forms of its pooling that were tried,
and of eight on a CPU with AVX-512F, in a function compiled for it.

The entry points take the ndarrays themselves, with no third-party
dependency, and release the GIL only around the kernel, so the pipelined
producer and the accelerator thread run at the same time. A buffer that
breaks an entry point's rules raises BufferError naming it, and the Python
wrappers then run their numpy reference.

The two big products of a training batch (fc_forward's and grad_w1's), its
host stage, its Adam pair and the fixture's draw are shared in chunks with
a helper thread on a second core, with the same bytes. A thread marked by set_background(True),
the pipelined producer, does not share its split calls: it queues one at a
time in a background slot and sleeps, and the helper runs that slot's
chunks only when the front job has none left to claim. _native.c's "Two
cores" section says which calls split, how the chunks are claimed, how the
slot yields to the front job, when the helper starts, on which CPUs it may
run, how it polls and sleeps, and why the bytes cannot change. Each loaded
module has its own helper, and a child forked after it started starts its
own, with an empty slot; Python 3.12 and later warn that such a fork is
made in a multi-threaded process.

The module is cached as $XDG_CACHE_HOME/convpipe/native-<sha256>.so
(~/.cache when XDG_CACHE_HOME is unset or, as the XDG base directory spec
says to treat it, relative), keyed by the source, the flags (the kernel's
macros among them) and the interpreter's extension suffix (its ABI tag),
and written through a temporary file and os.replace so concurrent first
builds are safe. It is
compiled with -I the interpreter's include directory, for Python.h, and
imported under the name _convpipe_native, which its init symbol follows,
whatever its file is called; Python keys a loaded extension by its path
too, so builds at other paths load beside it as separate modules. A build
then removes the cache's other native-*.so files not loaded for 30 days,
as kernels() touches the module it loads: checkouts of other sources keep
theirs, and a process that has one loaded keeps using it.

When Python.h or a compiler is missing, the build fails or the cache
directory cannot be written, kernels() emits one RuntimeWarning and
returns None, and every caller runs its numpy code instead. Both paths
give the same bytes.
"""

import contextlib
import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

from .dims import SHARPEN_KERNEL

_SOURCE = Path(__file__).with_name("_native.c").read_text()
_CFLAGS = ("-O3", "-std=c99", "-ffp-contract=off", "-fno-math-errno",
           "-fPIC", "-shared", f"-DKH={SHARPEN_KERNEL.shape[0]}",
           f"-DKW={SHARPEN_KERNEL.shape[1]}",
           "-DTAPS=" + ",".join(map(float.hex, SHARPEN_KERNEL.flat)))

# the extension's name, which its init symbol follows, whatever its file
_MODULE = "_convpipe_native"


def _library_path():
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):  # unset, empty or relative
        cache = Path.home() / ".cache"
    key = (_SOURCE, *_CFLAGS, importlib.machinery.EXTENSION_SUFFIXES[0])
    digest = hashlib.sha256("\0".join(key).encode()).hexdigest()
    return Path(cache) / "convpipe" / f"native-{digest}.so"


def _build(path, source=_SOURCE, flags=()):
    """Compile `source` as the extension module to `path`, atomically,
    with `flags` after _CFLAGS."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    # built next to its final name, so os.replace stays on one file system;
    # the copy keeps the file's name for the compiler's messages
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        src = Path(tmp) / "_native.c"
        src.write_text(source)
        lib = Path(tmp) / path.name
        subprocess.run([compiler, *_CFLAGS, *flags,
                        "-I", sysconfig.get_path("include"), "-o", str(lib),
                        str(src)], check=True, capture_output=True,
                       timeout=300)
        os.replace(lib, path)
    # modules of other sources or flags not loaded for 30 days; a process
    # that has one loaded keeps its mapping
    cutoff = path.stat().st_mtime - 30 * 24 * 3600
    for stale in path.parent.glob("native-*.so"):
        with contextlib.suppress(OSError):
            if stale != path and stale.stat().st_mtime < cutoff:
                stale.unlink()


def _import(path):
    """The extension module at `path`; one at another path loads beside
    it as a separate module."""
    spec = importlib.util.spec_from_file_location(_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def kernels():
    """The compiled kernels, built on first use; None (after one
    RuntimeWarning) if unavailable."""
    try:
        path = _library_path()  # RuntimeError if there is no home directory
        if not path.exists():
            _build(path)
        with contextlib.suppress(OSError):
            os.utime(path)  # in use: a build elsewhere keeps it
        module = _import(path)
    except (ImportError, OSError, RuntimeError,
            subprocess.SubprocessError) as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
        warnings.warn(f"compiled kernels unavailable, using the slower numpy "
                      f"loops: {exc} {stderr}".rstrip(), RuntimeWarning,
                      stacklevel=2)
        return None
    return module
