import hashlib
import os
import re
import shutil
import subprocess
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from convpipe import native, neuralcore
from convpipe.accelmodel import ResourceBudget
from convpipe.adam import AdamHyper, adam_update, correction_factors
from convpipe.checkpoint import save_checkpoint
from convpipe.dataio import make_batches, synthetic_dataset
from convpipe.dims import ModelDims
from convpipe.hoststage import ConvBatch, host_stage
from convpipe.neuralcore import (ForwardTrace, ModelState, Weights,
                                 accel_kernel, accuracy, backward, fc_forward,
                                 init_weights, matmul_kseq, out_forward)
from convpipe.pipeline import SEQUENTIAL, run_epoch

from oracles import (finite_diff_gradient, naive_accuracy, naive_matmul,
                     softmax_rows_highprec)

REDUCED = ModelDims(batch=4, image_x=8, image_y=8, kernel_x=3, kernel_y=3,
                    hidden=8, classes=10)  # pool_map = 9


def test_init_weights_deterministic():
    a = init_weights(42)
    b = init_weights(42)
    c = init_weights(43)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert not np.array_equal(a.w1, c.w1)


def test_init_weights_statistics():
    w = init_weights(0)
    assert w.w1.shape == (169, 128) and w.w2.shape == (128, 10)
    entries = np.concatenate([w.w1.ravel(), w.w2.ravel()])
    assert entries.size == 169 * 128 + 128 * 10 == 22912
    assert -0.01 < entries.mean() < 0.01
    assert 0.09 < entries.std() < 0.11


def test_matmul_kseq_matches_triple_loop_bitwise():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2))
    assert matmul_kseq(a, b).tobytes() == naive_matmul(a, b).tobytes()
    a = rng.normal(size=(7, 31))
    b = rng.normal(size=(31, 5))
    assert matmul_kseq(a, b).tobytes() == naive_matmul(a, b).tobytes()


def _production_operands():
    """The five products of one training batch at the default dims, in the
    layouts their call sites pass, with ReLU zeros and -0.0 entries."""
    rng = np.random.default_rng(11)
    v = rng.normal(size=(32, 169))
    v[::3, ::5] = -0.0
    w1 = rng.normal(0.0, 0.1, size=(169, 128))
    w2 = rng.normal(0.0, 0.1, size=(128, 10))
    h1 = fc_forward(v, w1)
    h1[4] = -0.0  # a whole row of -0.0: its products are zeros of either sign
    dz = rng.normal(size=(32, 10)) / 32
    dz[7] = -0.0
    dh1 = matmul_kseq(dz, w2.T) * (h1 > 0.0)
    return {"v@w1": (v, w1), "h1@w2": (h1, w2), "h1.T@dz": (h1.T, dz),
            "dz@w2.T": (dz, w2.T), "v.T@dh1": (v.T, dh1)}


PRODUCTION_SHAPES = {"v@w1": (32, 128), "h1@w2": (32, 10), "h1.T@dz": (128, 10),
                     "dz@w2.T": (32, 128), "v.T@dh1": (169, 128)}


@pytest.mark.parametrize("layout", sorted(PRODUCTION_SHAPES))
def test_matmul_kseq_production_shapes_bitwise(layout):
    a, b = _production_operands()[layout]
    got = matmul_kseq(a, b)
    assert got.shape == PRODUCTION_SHAPES[layout]
    assert got.tobytes() == naive_matmul(a, b).tobytes()
    assert got.tobytes() == neuralcore._matmul_kseq_numpy(a, b).tobytes()


# (m, k, n, layout of a): every m, n and k below, above and at the edges of
# the kernel's 4x32 register tile, with a contiguous, a transposed
# (a_row == 1) and a strided a
TILE_EDGE_CASES = [(1, 169, 32, "C"), (3, 169, 33, "T"), (3, 1, 1, "C"),
                   (4, 169, 32, "C"), (4, 1, 31, "strided"),
                   (4, 169, 128, "strided"), (5, 169, 33, "C"),
                   (5, 0, 65, "C"), (5, 1, 128, "T"), (5, 169, 65, "strided"),
                   (169, 1, 65, "strided"), (169, 169, 1, "T"),
                   (169, 0, 32, "C")]


def _tile_edge_operands():
    """The TILE_EDGE_CASES products, with ReLU zeros in a, a row of -0.0
    and a column of b whose products with it are all -0.0."""
    rng = np.random.default_rng(14)
    operands = {}
    for m, k, n, layout in TILE_EDGE_CASES:
        if layout == "T":
            a = rng.normal(size=(k, m)).T
        elif layout == "strided":
            a = rng.normal(size=(2 * m, 3 * k))[::2, ::3]
        else:
            a = rng.normal(size=(m, k))
        a[...] = np.maximum(a, 0.0)
        a[min(1, m - 1)] = -0.0
        b = rng.normal(size=(k, n))
        b[:, min(3, n - 1)] = np.abs(b[:, min(3, n - 1)])
        operands[f"{m}x{k}x{n}.{layout}"] = (a, b)
    return operands


@pytest.mark.parametrize("name", sorted(_tile_edge_operands()))
def test_matmul_kseq_tile_edges_bitwise(name):
    a, b = _tile_edge_operands()[name]
    got = matmul_kseq(a, b)
    assert got.shape == (a.shape[0], b.shape[1])
    assert got.tobytes() == naive_matmul(a, b).tobytes()
    assert got.tobytes() == neuralcore._matmul_kseq_numpy(a, b).tobytes()


def test_matmul_kseq_negative_zero_sums_to_positive_zero():
    # the accumulator starts at +0.0, so a sum of -0.0 products is +0.0
    got = matmul_kseq(np.full((2, 3), -0.0), np.ones((3, 4)))
    assert got.tobytes() == np.zeros((2, 4)).tobytes()


@pytest.mark.parametrize("m,k,n", [(3, 0, 4), (0, 5, 4), (3, 5, 0)])
def test_matmul_kseq_empty_edges(m, k, n):
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
    got = matmul_kseq(a, b)
    assert got.shape == (m, n)
    assert got.tobytes() == naive_matmul(a, b).tobytes()


def test_matmul_kseq_shape_check():
    with pytest.raises(ValueError):
        matmul_kseq(np.zeros((2, 3)), np.zeros((2, 3)))


# -- the compiled kernels: cache, fallback -----------------------------------

def _read_only(x):
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("view", [
    lambda x: x, lambda x: x.T, lambda x: x[:, ::2], lambda x: x[1:, 1:],
    lambda x: x[2], lambda x: x[:0], _read_only, lambda x: _read_only(x).T,
], ids=["C", "F", "strided", "offset", "row", "empty", "read_only",
        "read_only_F"])
def test_address_is_the_first_element(view):
    x = view(np.arange(20.0).reshape(4, 5))
    assert native.address(x) == x.ctypes.data


def _compiler_on_path():
    return shutil.which("cc") is not None or shutil.which("gcc") is not None


def _epoch_batches():
    images, labels = synthetic_dataset(3, 4 * 32)
    return make_batches(images, labels, 32)


def _epoch_sha(path):
    """sha256 of the checkpoint after a sequential 4-batch training epoch."""
    state, _ = run_epoch(_epoch_batches(), ModelState.initial(3),
                         SEQUENTIAL, True, ResourceBudget())
    save_checkpoint(path, state)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _adam_step_bytes():
    """w, m and v after one update of a 169x128 layer at step 3."""
    rng = np.random.default_rng(13)
    w, m, g = rng.normal(size=(3, 169, 128))
    v = np.abs(rng.normal(size=(169, 128)))
    adam_update(w, m, v, g, correction_factors(AdamHyper(), 3), AdamHyper())
    return w.tobytes() + m.tobytes() + v.tobytes()


def _kernel_outputs():
    """The bytes of all three kernels: the five production products and the
    tile-edge products, the host stage of the epoch's batches, and an Adam
    step."""
    products = {**_production_operands(), **_tile_edge_operands()}
    return ({name: matmul_kseq(a, b).tobytes()
             for name, (a, b) in products.items()},
            [host_stage(batch).v.tobytes() for batch in _epoch_batches()],
            _adam_step_bytes())


@pytest.fixture
def empty_kernel_cache(tmp_path, monkeypatch):
    """Point the kernel cache at an empty directory; the library is loaded
    afresh on the next call and again after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    native.kernels.cache_clear()
    yield tmp_path / "cache" / "convpipe"
    native.kernels.cache_clear()


def test_compiled_kernel_loads_when_a_compiler_is_present():
    if not _compiler_on_path():
        pytest.skip("no cc or gcc on PATH")
    lib = native.kernels()
    assert lib is not None
    assert lib.matmul_kseq.argtypes is not None
    assert lib.host_stage.argtypes is not None
    assert lib.adam_update.argtypes is not None


def _no_compiler(monkeypatch, cache_dir):
    monkeypatch.setattr(shutil, "which", lambda name: None)


def _compiler_fails(monkeypatch, cache_dir):
    def run(cmd, **kwargs):
        raise subprocess.CalledProcessError(1, cmd, stderr=b"cc: internal error")
    monkeypatch.setattr(subprocess, "run", run)


def _cache_not_writable(monkeypatch, cache_dir):
    cache_dir.parent.mkdir(parents=True)
    cache_dir.write_bytes(b"")  # a file where the directory should be


@pytest.mark.parametrize("breakage", [_no_compiler, _compiler_fails,
                                      _cache_not_writable])
def test_numpy_fallback_gives_the_same_bytes(breakage, tmp_path, monkeypatch):
    assert native.kernels() is not None or not _compiler_on_path()
    compiled = _kernel_outputs()
    compiled_sha = _epoch_sha(tmp_path / "compiled.ckpt")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    breakage(monkeypatch, tmp_path / "cache" / "convpipe")
    native.kernels.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="numpy loops") as warned:
            fallback = _kernel_outputs()  # the first call of any kernel warns
        assert len(warned) == 1
        assert native.kernels() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # warned once, not per call
            assert _kernel_outputs() == fallback == compiled
            assert _epoch_sha(tmp_path / "fallback.ckpt") == compiled_sha
    finally:
        native.kernels.cache_clear()


def test_second_load_reuses_the_cached_library(empty_kernel_cache, monkeypatch):
    if not _compiler_on_path():
        pytest.skip("no cc or gcc on PATH")
    assert native.kernels() is not None
    built = sorted(empty_kernel_cache.iterdir())
    assert len(built) == 1 and built[0].name.startswith("native-")
    assert built[0].suffix == ".so"  # no temporary files left behind
    native.kernels.cache_clear()

    def compiler_called(cmd, **kwargs):
        raise AssertionError(f"compiler called on a warm cache: {cmd}")
    monkeypatch.setattr(subprocess, "run", compiler_called)
    assert native.kernels() is not None
    assert sorted(empty_kernel_cache.iterdir()) == built


def test_a_new_build_removes_stale_libraries(empty_kernel_cache):
    """Only libraries unused for longer than 30 days go: a fresh library of
    another source belongs to another checkout and stays."""
    if not _compiler_on_path():
        pytest.skip("no cc or gcc on PATH")
    empty_kernel_cache.mkdir(parents=True)
    aged = time.time() - 31 * 24 * 3600
    for name in ("native-0000.so", "kseq-0000.so", "other.so", "native-0000.c"):
        (empty_kernel_cache / name).write_bytes(b"")
        os.utime(empty_kernel_cache / name, (aged, aged))
    (empty_kernel_cache / "native-1111.so").write_bytes(b"")
    assert native.kernels() is not None
    assert sorted(p.name for p in empty_kernel_cache.iterdir()) == \
        ["native-0000.c", "native-1111.so", native._library_path().name,
         "other.so"]


def test_loading_marks_the_library_in_use(empty_kernel_cache):
    if not _compiler_on_path():
        pytest.skip("no cc or gcc on PATH")
    assert native.kernels() is not None
    path = native._library_path()
    aged = time.time() - 31 * 24 * 3600
    os.utime(path, (aged, aged))
    native.kernels.cache_clear()
    assert native.kernels() is not None
    assert path.stat().st_mtime > aged + 24 * 3600


def _cpu_simd_flags():
    """-mavx2 and -mavx512f, each if /proc/cpuinfo lists it."""
    try:
        words = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return []
    return [f"-m{isa}" for isa in ("avx2", "avx512f") if isa in words]


def test_every_simd_build_gives_the_same_bytes(tmp_path, monkeypatch):
    """The clone the loader picks, a baseline build and a build for each
    SIMD level the CPU has all give the same bytes, for all three kernels."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        pytest.skip("no cc or gcc on PATH")
    assert native.kernels() is not None
    dispatched = _kernel_outputs()
    clones = re.findall(r"__attribute__\(\(target_clones\([^)]*\)\)\)",
                        native._SOURCE)
    assert len(clones) == 1
    src = tmp_path / "single.c"
    src.write_text(native._SOURCE.replace(clones[0], ""))
    for flags in [[], *([f] for f in _cpu_simd_flags())]:
        lib_path = tmp_path / f"single{''.join(flags)}.so"
        subprocess.run([compiler, *native._CFLAGS, *flags, "-o", str(lib_path),
                        str(src)], check=True, capture_output=True)
        lib = native._load(lib_path)
        monkeypatch.setattr(native, "kernels", lambda: lib)
        assert _kernel_outputs() == dispatched, flags


def test_native_source_compiles_without_warnings(tmp_path):
    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no cc on PATH")
    src = tmp_path / "native.c"
    src.write_text(native._SOURCE)
    built = subprocess.run([compiler, *native._CFLAGS, "-Wall", "-Wextra",
                            "-Werror", "-o", str(tmp_path / "native.so"),
                            str(src)], capture_output=True, text=True)
    assert built.returncode == 0, built.stderr


def test_fc_forward_zero_weights():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(4, 9))
    assert np.all(fc_forward(v, np.zeros((9, 8))) == 0.0)


def test_fc_forward_unit_vector_selects_row():
    rng = np.random.default_rng(2)
    w1 = rng.normal(size=(9, 8))
    v = np.zeros((1, 9))
    v[0, 4] = 1.0
    h1 = fc_forward(v, w1)
    assert np.array_equal(h1[0], np.maximum(0.0, w1[4]))


def test_fc_forward_nonnegative():
    rng = np.random.default_rng(3)
    h1 = fc_forward(rng.normal(size=(4, 9)), rng.normal(size=(9, 8)))
    assert np.all(h1 >= 0.0)


def test_out_forward_uniform_logits():
    h1 = np.ones((2, 3))
    w2 = np.zeros((3, 10))  # all logits equal (zero)
    y = np.eye(10)[[2, 7]]
    h2, loss = out_forward(h1, w2, y)
    assert np.allclose(h2, 0.1, atol=1e-15)
    assert loss == pytest.approx(np.log(10.0), rel=1e-9)


def test_out_forward_rows_sum_to_one():
    rng = np.random.default_rng(4)
    h1 = np.abs(rng.normal(size=(32, 128)))
    w2 = rng.normal(size=(128, 10))
    y = np.eye(10)[rng.integers(0, 10, 32)]
    h2, loss = out_forward(h1, w2, y)
    assert np.max(np.abs(h2.sum(axis=1) - 1.0)) < 1e-12
    assert np.all((h2 > 0.0) & (h2 < 1.0))
    assert loss >= 0.0


def test_out_forward_matches_highprec_softmax():
    rng = np.random.default_rng(5)
    h1 = np.abs(rng.normal(size=(8, 16)))
    w2 = rng.normal(size=(16, 10)) * 3
    y = np.eye(10)[rng.integers(0, 10, 8)]
    h2, _ = out_forward(h1, w2, y)
    z = matmul_kseq(h1, w2)
    ref = softmax_rows_highprec(z)
    assert np.max(np.abs(h2 - ref) / np.maximum(np.abs(ref), 1e-300)) < 1e-12


def test_softmax_shift_invariance():
    # shift every logit in a row by the same constant: with all-ones input
    # rows, bumping each class weight by shift/6 adds exactly `shift`
    rng = np.random.default_rng(6)
    w2 = rng.normal(size=(6, 10))
    y = np.eye(10)[[0, 1, 2, 3]]
    h1c = np.ones((4, 6))
    shift = 7.5
    h2b, _ = out_forward(h1c, w2 + shift / 6.0, y)
    h2c, _ = out_forward(h1c, w2, y)
    assert np.max(np.abs(h2b - h2c)) < 1e-12


def test_out_forward_overflow_safe():
    h1 = np.full((1, 4), 300.0)
    w2 = np.eye(4, 10)
    h2, loss = out_forward(h1, w2, np.eye(10)[[0]])
    assert np.isfinite(h2).all() and np.isfinite(loss)


def test_backward_zero_residual_gives_zero_grads():
    rng = np.random.default_rng(7)
    v = rng.normal(size=(4, 9))
    w = Weights(rng.normal(size=(9, 8)), rng.normal(size=(8, 10)))
    h1 = fc_forward(v, w.w1)
    y = np.eye(10)[[1, 2, 3, 4]]
    trace = ForwardTrace(v=v, h1=h1, h2=y.copy(), loss=0.0)
    grads = backward(trace, y, w)
    assert np.all(grads.g_w1 == 0.0) and np.all(grads.g_w2 == 0.0)


def _loss_of(v, y, weights):
    h1 = fc_forward(v, weights.w1)
    _, loss = out_forward(h1, weights.w2, y)
    return loss


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    v = rng.normal(size=(4, 9)) * 0.5
    weights = Weights(rng.normal(size=(9, 8)) * 0.1,
                      rng.normal(size=(8, 10)) * 0.1)
    y = np.eye(10)[rng.integers(0, 10, 4)]
    h1 = fc_forward(v, weights.w1)
    h2, loss = out_forward(h1, weights.w2, y)
    grads = backward(ForwardTrace(v, h1, h2, loss), y, weights)

    for analytic, w in ((grads.g_w1, weights.w1), (grads.g_w2, weights.w2)):
        numeric = finite_diff_gradient(lambda: _loss_of(v, y, weights), w)
        big = np.abs(analytic) > 1e-8
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1e-300)
        assert np.all(rel[big] < 1e-5)
        assert np.all(np.abs(analytic - numeric)[~big] < 1e-9)


def test_backward_row_contributions_are_additive():
    rng = np.random.default_rng(9)
    w = Weights(rng.normal(size=(9, 8)), rng.normal(size=(8, 10)))
    va, vb = rng.normal(size=(2, 1, 9))
    ya = np.eye(10)[[3]]
    yb = np.eye(10)[[6]]

    def grads_times_n(v_rows, y_rows):
        v = np.concatenate(v_rows)
        y = np.concatenate(y_rows)
        h1 = fc_forward(v, w.w1)
        h2, loss = out_forward(h1, w.w2, y)
        g = backward(ForwardTrace(v, h1, h2, loss), y, w)
        return g.g_w2 * v.shape[0]

    two = grads_times_n([va, vb], [ya, yb])
    three = grads_times_n([va, va, vb], [ya, ya, yb])
    contribution_a = grads_times_n([va], [ya])
    # duplicating row a adds exactly one extra copy of its contribution
    assert np.allclose(three - two, contribution_a, rtol=1e-12, atol=1e-12)


def _conv_batch(seed, dims):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(dims.batch, dims.pool_map))
    y = np.eye(dims.classes)[rng.integers(0, dims.classes, dims.batch)]
    return ConvBatch(v, y, 0)


def test_accel_kernel_inference_leaves_state_untouched():
    state = ModelState.initial(0, REDUCED)
    w1_before = state.weights.w1.copy()
    w2_before = state.weights.w2.copy()
    trace, state = accel_kernel(_conv_batch(1, REDUCED), state, False)
    assert np.array_equal(state.weights.w1, w1_before)
    assert np.array_equal(state.weights.w2, w2_before)
    assert state.adam.step == 0
    assert np.all(state.adam.m_w1 == 0.0)
    assert trace.h2.shape == (4, 10)


def test_accel_kernel_zero_residual_training_keeps_weights():
    # force h2 == labels by using uniform probabilities as "labels";
    # zero gradients at t=1 must leave the weights exactly in place
    state = ModelState.initial(3, REDUCED)
    v = np.zeros((4, REDUCED.pool_map))
    uniform = np.full((4, 10), 0.1)
    w1_before = state.weights.w1.copy()
    trace, state = accel_kernel(ConvBatch(v, uniform, 0), state, True)
    assert np.allclose(trace.h2, 0.1, atol=1e-15)
    assert state.adam.step == 1
    assert np.array_equal(state.weights.w1, w1_before)


def test_accel_kernel_training_is_deterministic():
    results = []
    for _ in range(2):
        state = ModelState.initial(5, REDUCED)
        batch = _conv_batch(6, REDUCED)
        for _step in range(3):
            trace, state = accel_kernel(batch, state, True)
        results.append((state.weights.w1.copy(), state.weights.w2.copy(),
                        trace.loss))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])
    assert results[0][2] == results[1][2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_accel_kernel_guards_nonfinite_weights():
    state = ModelState.initial(7, REDUCED)
    state.weights.w1[0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        accel_kernel(_conv_batch(8, REDUCED), state, True)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_accel_kernel_guards_nonfinite_output_weights(compiled, monkeypatch):
    # an infinite moment of w2 alone: the forward and backward passes stay
    # finite, and only w2's update writes a non-finite weight
    if not compiled:
        monkeypatch.setattr(native, "kernels", lambda: None)
    state = ModelState.initial(7, REDUCED)
    state.adam.step = 4
    state.adam.m_w2[3, 2] = np.inf
    with pytest.raises(FloatingPointError, match="at step 5$"):
        accel_kernel(_conv_batch(8, REDUCED), state, True)
    assert np.isfinite(state.weights.w1).all()
    assert not np.isfinite(state.weights.w2[3, 2])


def test_accuracy_exact_match():
    y = np.eye(10)[[0, 3, 9, 5]]
    assert accuracy(y, y) == 1.0


def test_accuracy_tie_breaks_low_index():
    h2 = np.full((4, 10), 0.1)
    y = np.eye(10)[[0, 0, 1, 2]]
    assert accuracy(h2, y) == 0.5  # argmax of a flat row is index 0


def test_accuracy_matches_enumeration():
    rng = np.random.default_rng(10)
    h2 = rng.random((64, 10))
    y = np.eye(10)[rng.integers(0, 10, 64)]
    assert accuracy(h2, y) == naive_accuracy(h2, y)
