"""The compiled kernels: the C source in _native.c, built on first use as
an extension module.

_native.c holds the three hot loops of a training step and one entry point
per loop; its comments say how each loop is tiled and what each entry point
checks. Each kernel gives the bytes of the numpy code that is its reference
and fallback:

- matmul_kseq: neuralcore.matmul_kseq, reference
  neuralcore._matmul_kseq_numpy;
- host_stage: hoststage.host_stage, references hoststage.conv2d_valid and
  hoststage.maxpool2x2;
- adam_update_pair: adam.apply_batch_update, reference adam.adam_update once
  per layer.

Every accumulator starts at +0.0 like the numpy loops: starting from the
first product instead would turn an all -0.0 sum into -0.0. A tile or a
SIMD clone only changes which elements are summed when, never the terms of
one element's sum or their order, and padding lanes are never stored, so
every path gives the same bits, but for the sign of a NaN where NaNs of both
signs meet: an x86 add or multiply returns the one its operand order picks,
which differs between tiles, builds and numpy's own loops, and the pool
keeps the last NaN of a window where numpy's max keeps the first.

The module is compiled with `cc` (or `gcc`) and -O3 -std=c99
-ffp-contract=off -fno-math-errno: without -ffp-contract=off, GCC in its
default GNU C mode fuses `acc += x * y` into one fused multiply-add on
hardware that has it, which skips the rounding of the product and changes
the bits. -fno-math-errno only drops the errno write of sqrt(), so that the
Adam loop vectorises; sqrt and division stay correctly rounded.

On x86 each kernel is built as target clones, for AVX-512F, AVX2 and the
baseline, and the dynamic loader picks the widest the CPU has once, when the
module is loaded. The bits are the same on every clone: a vector lane is an
independent output element, and no clone may fuse a multiply and an add.
The host stage's block is written with GCC/Clang vectors of four doubles,
as GCC vectorised none of the plain-C forms of its pooling that were tried.

The entry points take the ndarrays themselves, with no third-party
dependency, and release the GIL only around the kernel, so the pipelined
producer and the accelerator thread run at the same time. A buffer that
breaks an entry point's rules raises BufferError naming it, and the Python
wrappers then run their numpy reference.

The two big products of a training batch (fc_forward's and grad_w1's) and
its Adam pair run on two cores. A product of at least 200k multiply-adds
runs in chunks of 8 rows of out, and an Adam pair of at least 8192
elements in chunks of 2048 elements, over the output layer and then the
hidden layer. The calling thread claims chunks from the front of one
atomic range and a helper thread from its back, so each core keeps the
same rows, and their W1, m and v, from batch to batch, and the caller
never waits for a chunk nobody has claimed. It waits only for the
helper's chunk in progress, before it returns and releases the buffers.
The helper is one pthread per loaded module, started by the first call
that splits: never at import or at load, and never when
sched_getaffinity gives the process one CPU. After its last chunk it polls
for 135 us, yielding the CPU at each poll so that the pipelined producer
keeps its core, and then sleeps on a condition variable. One call at a
time takes it, by a trylock; a concurrent call runs alone. The helper
blocks all signals and touches no Python object. A child forked after the
helper started has none (a pthread_atfork handler clears its state), and
its first split call starts its own; Python 3.12 and later warn that such
a fork is made in a multi-threaded process. The bytes cannot change: a
chunk is one call of the same kernel, and so of the same clone, on a slice
of rows (a multiple of the 4-row tile, so each row is summed by the same
loop as in the whole product) or of elements, so each element is computed
by one thread from the same terms in the same order. The thresholds, chunk
sizes and poll time are constants in _native.c, with no setting.

The module is cached as $XDG_CACHE_HOME/convpipe/native-<sha256>.so
(~/.cache when XDG_CACHE_HOME is unset), keyed by the source, the flags
and the interpreter's extension suffix (its ABI tag), and written through
a temporary file and os.replace so concurrent first builds are safe. It is
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

_SOURCE = Path(__file__).with_name("_native.c").read_text()
_CFLAGS = ("-O3", "-std=c99", "-ffp-contract=off", "-fno-math-errno",
           "-fPIC", "-shared")

# the extension's name, which its init symbol follows, whatever its file
_MODULE = "_convpipe_native"


def _library_path():
    cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
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
