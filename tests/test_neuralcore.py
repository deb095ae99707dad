import hashlib
import importlib.machinery
import os
import re
import shutil
import signal
import subprocess
import sys
import sysconfig
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from convpipe import adam as adam_mod
from convpipe import hoststage, native, neuralcore
from convpipe.accelmodel import ResourceBudget
from convpipe.adam import AdamHyper, AdamState, apply_batch_update
from convpipe.checkpoint import load_checkpoint, save_checkpoint
from convpipe.dataio import MiniBatch, make_batches, synthetic_dataset
from convpipe.dims import ModelDims
from convpipe.hoststage import ConvBatch, conv2d_valid, host_stage, maxpool2x2
from convpipe.neuralcore import (ForwardTrace, Gradients, ModelState,
                                 Weights, accel_kernel, accuracy, backward,
                                 fc_forward, init_weights, matmul_kseq,
                                 out_forward)
from convpipe.pipeline import MODES, SEQUENTIAL, run_epoch

from oracles import (finite_diff_gradient, naive_accuracy, naive_matmul,
                     softmax_rows_highprec)

REDUCED = ModelDims(batch=4, image_x=8, image_y=8, hidden=8,
                    classes=10)  # pool_map = 9


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
    layouts their call sites pass, with ReLU zeros and -0.0 entries; and
    W2^T as the F-order view backward copies, which runs the numpy loop."""
    rng = np.random.default_rng(11)
    v = rng.normal(size=(32, 169))
    v[::3, ::5] = -0.0
    w1 = rng.normal(0.0, 0.1, size=(169, 128))
    w2 = rng.normal(0.0, 0.1, size=(128, 10))
    h1 = fc_forward(v, w1)
    h1[4] = -0.0  # a whole row of -0.0: its products are zeros of either sign
    dz = rng.normal(size=(32, 10)) / 32
    dz[7] = -0.0
    w2_t = np.ascontiguousarray(w2.T)
    dh1 = matmul_kseq(dz, w2_t) * (h1 > 0.0)
    return {"v@w1": (v, w1), "h1@w2": (h1, w2), "h1.T@dz": (h1.T, dz),
            "dz@w2.T": (dz, w2_t), "v.T@dh1": (v.T, dh1),
            "dz@w2.T.F": (dz, w2.T)}


PRODUCTION_SHAPES = {"v@w1": (32, 128), "h1@w2": (32, 10), "h1.T@dz": (128, 10),
                     "dz@w2.T": (32, 128), "v.T@dh1": (169, 128),
                     "dz@w2.T.F": (32, 128)}


@pytest.mark.parametrize("layout", sorted(PRODUCTION_SHAPES))
def test_matmul_kseq_production_shapes_bitwise(layout):
    a, b = _production_operands()[layout]
    got = matmul_kseq(a, b)
    assert got.shape == PRODUCTION_SHAPES[layout]
    assert got.tobytes() == naive_matmul(a, b).tobytes()
    assert got.tobytes() == neuralcore._matmul_kseq_numpy(a, b).tobytes()


# (m, k, n, layout of a): every m, n and k below, above and at the edges of
# the kernel's 4x32 register tile, with a contiguous, a transposed
# (a_row == 1) and a strided a; then the n % 32 columns of the narrow
# 4x12 tile: one, two and three 12-column strips, alone and next to 32-column
# tiles, with k below, at and past the 128 rows of b it copies at a time
TILE_EDGE_CASES = [(1, 169, 32, "C"), (3, 169, 33, "T"), (3, 1, 1, "C"),
                   (4, 169, 32, "C"), (4, 1, 31, "strided"),
                   (4, 169, 128, "strided"), (5, 169, 33, "C"),
                   (5, 0, 65, "C"), (5, 1, 128, "T"), (5, 169, 65, "strided"),
                   (169, 1, 65, "strided"), (169, 169, 1, "T"),
                   (169, 0, 32, "C"),
                   (4, 128, 1, "C"), (5, 1, 9, "T"), (32, 128, 10, "C"),
                   (128, 32, 10, "T"), (7, 0, 10, "strided"),
                   (6, 129, 11, "strided"), (8, 300, 12, "T"),
                   (9, 1, 16, "C"), (4, 256, 17, "strided"), (13, 0, 31, "T"),
                   (3, 169, 31, "C"), (11, 169, 42, "C"),
                   (12, 257, 42, "T"), (5, 1, 42, "strided")]


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
    # the same messages for an array the kernel takes, one it refuses and
    # a list
    for convert in (np.asarray, np.asfortranarray, np.float32,
                    np.ndarray.tolist):
        with pytest.raises(ValueError, match=r"^cannot multiply \(2, 3\) by "
                                             r"\(2, 3\)$"):
            matmul_kseq(convert(np.zeros((2, 3))), convert(np.zeros((2, 3))))
        with pytest.raises(ValueError, match=r"^mask \(4, 2\) does not match "
                                             r"the product's \(2, 4\)$"):
            matmul_kseq(np.zeros((2, 3)), np.zeros((3, 4)),
                        mask=convert(np.ones((4, 2))))


# (m, k, n, layout of a): the two production products that carry an
# epilogue (fc_forward's ReLU, backward's dH1 mask), and one that runs the
# wide tile, the narrow tile and the rows past the last block of 4; then
# products past the kernel's split threshold (200k multiply-adds) with m
# one chunk of 8 rows less one, one, one plus a row, two plus a row and
# 169, grad_w1's m, so that the last chunk holds 7, 8, 1, 1 and 1 rows
EPILOGUE_CASES = [(32, 169, 128, "C"), (32, 10, 128, "C"), (7, 130, 45, "T"),
                  (7, 240, 130, "T"), (8, 200, 130, "C"), (9, 200, 130, "T"),
                  (17, 200, 130, "C"), (169, 200, 130, "T")]


def _epilogue_operands(m, k, n, layout):
    """a and b whose product holds NaN, +-inf, +0.0, negatives and
    positives, and an (m, n) mask that puts each of 0.0, -0.0, NaN, +-inf,
    a negative, a positive and the smallest subnormal over every row."""
    rng = np.random.default_rng(m + k + n)
    a = rng.normal(size=(k, m)).T if layout == "T" else rng.normal(size=(m, k))
    b = rng.normal(size=(k, n))
    a[0, 0], a[1, 0], a[2, 0], a[3] = np.nan, np.inf, -np.inf, 0.0
    # a cycle of values that starts anew in each row, in the C order the
    # kernel takes
    mask = np.resize([0.0, -0.0, np.nan, np.inf, -np.inf, -1.5, 2.0, 5e-324],
                     (m, n + 1))[:, :n].copy()
    return a, b, mask


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
@pytest.mark.parametrize("case", EPILOGUE_CASES,
                         ids=["{}x{}x{}.{}".format(*c) for c in EPILOGUE_CASES])
def test_matmul_kseq_epilogues_match_numpy(case, compiled, monkeypatch):
    if not compiled:
        monkeypatch.setattr(native, "kernels", lambda: None)
    a, b, mask = _epilogue_operands(*case)
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0.0
        product = neuralcore._matmul_kseq_numpy(a, b)
        relu = np.maximum(0.0, product)
        want = {"relu": relu, "mask": product * (mask > 0.0),
                "both": relu * (mask > 0.0)}
        got = {"relu": matmul_kseq(a, b, relu=True),
               "mask": matmul_kseq(a, b, mask=mask),
               # a numpy bool, as a comparison gives, is a flag too
               "both": matmul_kseq(a, b, relu=np.True_, mask=mask)}
    assert np.isnan(product).any() and np.isposinf(product).any()
    assert np.isneginf(product).any() and (product < 0.0).any()
    assert not np.signbit(product[product == 0.0]).any()  # sums from +0.0
    # a negative value under a zero mask is -0.0: a multiply, not a select
    assert np.signbit(got["mask"][got["mask"] == 0.0]).any()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("case", EPILOGUE_CASES,
                         ids=["{}x{}x{}.{}".format(*c) for c in EPILOGUE_CASES])
def test_a_shared_product_gives_the_bytes_of_one_thread(case,
                                                        unsplit_kernels):
    """A product shared with the helper thread, in chunks of rows, gives
    the bytes of the same call in a build where it runs on one thread,
    with each epilogue and without, NaN signs included."""
    if unsplit_kernels is None:
        pytest.skip("no compiled kernels")
    a, b, mask = _epilogue_operands(*case)
    for relu, masked in ((False, None), (True, None), (False, mask),
                         (True, mask)):
        got, want = (np.empty((a.shape[0], b.shape[1])) for _ in range(2))
        native.kernels().matmul_kseq(a, b, relu, masked, got)
        unsplit_kernels.matmul_kseq(a, b, relu, masked, want)
        assert got.tobytes() == want.tobytes(), (relu, masked is not None)


# correlation output widths below, at and above the host stage's 16-column
# block, and not a multiple of it; the last block overlaps the one before
HOST_EDGE_WIDTHS = (4, 8, 16, 24, 26, 30, 50)


def _host_edge_inputs():
    """(images, kernel) for each HOST_EDGE_WIDTHS output width, contiguous
    and as a strided view, with NaN pixels and a random 3x3 kernel, so that
    another order of the taps changes the bits."""
    rng = np.random.default_rng(15)
    inputs = {}
    for ow in HOST_EDGE_WIDTHS:
        kernel = rng.normal(size=(3, 3))
        h, w = 8, ow + 2
        base = rng.normal(size=(6, 2 * h, 3 * w))
        for layout, v in (("C", base[:3, :h, :w].copy()),
                          ("strided", base[::2, ::2, ::3])):
            v[1, 3, 5] = v[2, h - 1, w - 2] = np.nan
            inputs[f"{ow}.{layout}"] = (v, kernel)
    return inputs


@pytest.mark.parametrize("name", sorted(_host_edge_inputs()))
def test_host_stage_block_edges_bitwise(name):
    v, kernel = _host_edge_inputs()[name]
    assert v.flags.c_contiguous == name.endswith(".C")
    got = host_stage(MiniBatch(v, np.zeros((3, 10)), 0), kernel).v
    want = maxpool2x2(conv2d_valid(v, kernel))
    assert np.isnan(got).any()
    assert got.tobytes() == want.reshape(got.shape).tobytes()


# -- the compiled kernels: cache, fallback -----------------------------------

def _read_only(x):
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("view", [
    lambda x: x, lambda x: x.T, lambda x: x[:, ::2], lambda x: x[1:, 1:],
    lambda x: x[2:3], lambda x: x[:0], lambda x: x[::-1], _read_only,
    lambda x: _read_only(x).T,
], ids=["C", "F", "strided", "offset", "row", "empty", "reversed",
        "read_only", "read_only_F"])
def test_any_view_of_a_gives_the_numpy_bytes(view):
    # the entry point reads a through its own strides, without a copy
    lib = native.kernels()
    if lib is None:
        pytest.skip("no compiled kernels")
    rng = np.random.default_rng(18)
    a = view(rng.normal(size=(6, 8)))
    b = rng.normal(size=(a.shape[1], 5))
    out = np.empty((a.shape[0], 5))
    lib.matmul_kseq(a, b, False, None, out)
    assert out.tobytes() == neuralcore._matmul_kseq_numpy(a, b).tobytes()


def _misaligned(x):
    """A writable copy of x one byte past an aligned address."""
    return np.frombuffer(bytearray(b"\0" + x.tobytes()), x.dtype, x.size,
                         offset=1).reshape(x.shape)


# -- the entry points' checks: each raises before it writes anything -------

def _matmul_args():
    rng = np.random.default_rng(20)
    return {"a": rng.normal(size=(6, 5)), "b": rng.normal(size=(5, 7)),
            "relu": True, "mask": rng.normal(size=(6, 7)),
            "out": np.full((6, 7), 3.0)}


def _host_args():
    rng = np.random.default_rng(21)
    return {"x": rng.random((2, 8, 8)), "k": rng.normal(size=(3, 3)),
            "out": np.full((2, 9), 3.0)}


def _adam_args():
    # the 8 arrays in call order, then b1, b2, eta, c1, c2 and eps
    rng = np.random.default_rng(22)
    arrays = {f"{name}{layer}": rng.random(shape)
              for layer, shape in ((2, (4, 3)), (1, (5, 6)))
              for name in "wmvg"}
    return {**arrays, "b1": 0.9, "b2": 0.999, "eta": 0.01, "c1": 10.0,
            "c2": 1000.0, "eps": 1e-7}


ENTRY_ARGS = {"matmul_kseq": _matmul_args, "host_stage": _host_args,
              "adam_update_pair": _adam_args}


def _byte_strides(x):
    """An array of x's shape whose row stride is not a multiple of 8."""
    rows, cols = x.shape
    buf = bytearray(rows * (8 * cols + 4))
    return np.ndarray(x.shape, np.float64, buf, 0, (8 * cols + 4, 8))


BAD_BUFFERS = {
    "float32": lambda x: x.astype(np.float32),
    "int64": lambda x: x.astype(np.int64),
    "big_endian": lambda x: x.astype(">f8"),
    "misaligned": _misaligned,
    "F": np.asfortranarray,
    "strided": lambda x: np.repeat(x, 2, axis=-1)[..., ::2],
    "read_only": lambda x: _read_only(x.copy()),
    "byte_strides": _byte_strides,
}
_ANY = ("float32", "int64", "big_endian", "misaligned")
_NOT_C = ("F", "strided")
_OUT = _ANY + _NOT_C + ("read_only",)
BAD_BUFFER_CASES = {
    "matmul_kseq": {"a": _ANY + ("byte_strides",), "b": _ANY + _NOT_C,
                    "mask": _ANY + _NOT_C, "out": _OUT},
    "host_stage": {"x": _ANY + _NOT_C, "k": _ANY + _NOT_C, "out": _OUT},
    "adam_update_pair": {f"{name}{layer}": _ANY + _NOT_C if name == "g"
                         else _OUT for layer in (2, 1) for name in "wmvg"},
}
BAD_SHAPES = {
    "matmul_kseq": {"b": [(6, 7), (5,)], "a": [(30,), (6, 5, 1)],
                    "out": [(6, 8), (5, 7), (6, 7, 1)], "mask": [(6, 6)]},
    "host_stage": {"x": [(8, 8), (2, 2, 8), (2, 9, 8)], "k": [(1, 3, 3)],
                   "out": [(2, 8), (3, 9), (2, 9, 1)]},
    "adam_update_pair": {"w2": [(4, 4)], "g2": [(3,)], "v1": [(5, 5)],
                         "g1": [(31,)]},
}


def _call_and_check_nothing_written(entry, args, error, match=None):
    lib = native.kernels()
    if lib is None:
        pytest.skip("no compiled kernels")
    arrays = [x for x in args.values() if isinstance(x, np.ndarray)]
    before = [x.tobytes() for x in arrays]
    with pytest.raises(error, match=match):
        getattr(lib, entry)(*args.values())
    assert [x.tobytes() for x in arrays] == before


@pytest.mark.parametrize("entry, name, bad", [
    (entry, name, bad) for entry, names in BAD_BUFFER_CASES.items()
    for name, bads in names.items() for bad in bads])
def test_an_entry_point_rejects_a_buffer_before_writing(entry, name, bad):
    """A rejected buffer raises and leaves every array as it was: for an
    Adam call whose last array (g1) is rejected, the other seven too."""
    args = ENTRY_ARGS[entry]()
    args[name] = BAD_BUFFERS[bad](args[name])
    _call_and_check_nothing_written(entry, args, BufferError, f"^{name} is ")


@pytest.mark.parametrize("entry, name, shape", [
    (entry, name, shape) for entry, names in BAD_SHAPES.items()
    for name, shapes in names.items() for shape in shapes],
    ids=lambda x: "x".join(map(str, x)) if isinstance(x, tuple) else None)
def test_an_entry_point_rejects_a_shape_before_writing(entry, name, shape):
    args = ENTRY_ARGS[entry]()
    args[name] = np.full(shape, 0.5)
    _call_and_check_nothing_written(entry, args, ValueError)


@pytest.mark.parametrize("entry", sorted(ENTRY_ARGS))
def test_an_entry_point_checks_its_arguments_before_writing(entry):
    args = ENTRY_ARGS[entry]()
    short = dict(list(args.items())[:-1])
    _call_and_check_nothing_written(entry, short, TypeError, "arguments")
    if entry == "adam_update_pair":
        _call_and_check_nothing_written(entry, {**args, "eps": "1e-7"},
                                        TypeError)


@pytest.mark.parametrize("entry", sorted(ENTRY_ARGS))
def test_an_entry_point_takes_the_unbroken_arguments(entry):
    lib = native.kernels()
    if lib is None:
        pytest.skip("no compiled kernels")
    args = ENTRY_ARGS[entry]()
    out = args["out" if "out" in args else "w1"]
    before = out.tobytes()
    getattr(lib, entry)(*args.values())
    assert out.tobytes() != before


# -- the wrappers: an array the kernel refuses runs the numpy reference -------

# each way an array can break the entry point's rules, and a list, which
# np.asarray makes an array the kernel takes
REFUSED = {**{bad: BAD_BUFFERS[bad] for bad in _ANY + _NOT_C},
           "list": np.ndarray.tolist}
REFUSED_CASES = [(name, kind, masked) for name in ("a", "b", "mask")
                 for kind in REFUSED
                 for masked in ((True,) if name == "mask" else (False, True))]


def _wrapper_operands():
    """a, b and mask of a 9x130x45 product: past 128 rows of b and through
    both tiles, with values an int64 cast keeps apart."""
    rng = np.random.default_rng(23)
    return {"a": rng.normal(size=(9, 130)) * 3,
            "b": rng.normal(size=(130, 45)) * 3,
            "mask": rng.normal(size=(9, 45)) * 3}


@pytest.mark.parametrize("relu", [False, True], ids=["plain", "relu"])
@pytest.mark.parametrize("name, kind, masked", REFUSED_CASES,
                         ids=[f"{n}-{k}-{'mask' if m else 'nomask'}"
                              for n, k, m in REFUSED_CASES])
def test_matmul_kseq_runs_numpy_on_an_array_the_kernel_refuses(
        name, kind, masked, relu, monkeypatch):
    args = _wrapper_operands()
    if not masked:
        args["mask"] = None
    args[name] = REFUSED[kind](args[name])
    a, b = (np.asarray(args[x], np.float64) for x in "ab")
    want = neuralcore._matmul_kseq_numpy(a, b)
    if relu:
        want = np.maximum(0.0, want)
    if masked:
        want = want * (np.asarray(args["mask"], np.float64) > 0.0)
    calls = []
    reference = neuralcore._matmul_kseq_numpy
    monkeypatch.setattr(neuralcore, "_matmul_kseq_numpy",
                        lambda a, b: calls.append(1) or reference(a, b))
    got = matmul_kseq(args["a"], args["b"], relu=relu, mask=args["mask"])
    assert got.tobytes() == want.tobytes()
    # a takes any strides, and a list becomes a C-order float64 array
    taken = kind == "list" or (name == "a" and kind in _NOT_C)
    assert bool(calls) == (native.kernels() is None or not taken)


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran: the kernel refused an array")
    return refuse


def _train_then_test(mode, path):
    """The checkpoint after a 4-batch training epoch, and the loss and
    accuracy of a test epoch on that checkpoint loaded back."""
    budget = ResourceBudget()
    state, _ = run_epoch(_epoch_batches(), ModelState.initial(3), mode, True,
                         budget)
    save_checkpoint(path, state)
    _, test = run_epoch(_epoch_batches(), load_checkpoint(path), mode, False,
                        budget)
    return path.read_bytes(), test.mean_loss, test.accuracy


@pytest.mark.parametrize("mode", MODES)
def test_a_production_epoch_never_falls_back(mode, tmp_path, monkeypatch):
    """Every array a training or a test epoch passes is one its kernel
    takes: with the numpy references made to raise, both epochs give an
    unpatched run's checkpoint and result. An array that fell back, such
    as W2^T left uncopied, would otherwise show only as a slower epoch."""
    if native.kernels() is None:
        pytest.skip("no compiled kernels")
    want = _train_then_test(mode, tmp_path / "want.ckpt")
    monkeypatch.setattr(neuralcore, "_matmul_kseq_numpy",
                        _refuse("_matmul_kseq_numpy"))
    monkeypatch.setattr(hoststage, "conv2d_valid", _refuse("conv2d_valid"))
    monkeypatch.setattr(adam_mod, "adam_update", _refuse("adam_update"))
    assert _train_then_test(mode, tmp_path / "got.ckpt") == want


def test_a_kernel_call_lets_other_threads_run():
    """Pipelined mode overlaps the producer's host stage with the
    accelerator's products only if a kernel call releases the GIL: a call
    that held it would stop every other thread for the whole call."""
    if native.kernels() is None:
        pytest.skip("no compiled kernels")
    a, b = np.random.default_rng(17).normal(size=(2, 600, 600))
    stamps, stop = [], threading.Event()

    def spin():
        while not stop.is_set():
            stamps.append(time.perf_counter())
    thread = threading.Thread(target=spin)
    thread.start()
    try:
        while not stamps:
            time.sleep(0.001)
        start = time.perf_counter()
        matmul_kseq(a, b)
        end = time.perf_counter()
    finally:
        stop.set()
        thread.join()
    # the spinning thread's longest pause during the call
    pause = np.diff([start, *(t for t in stamps if start < t < end), end])
    assert pause.max() < (end - start) / 2, (pause.max(), end - start)


def _split_work():
    """The bytes of grad_w1's product and of a batch's Adam pair: both past
    the kernel's split thresholds."""
    rng = np.random.default_rng(19)
    v, dh1 = rng.normal(size=(32, 169)), rng.normal(size=(32, 128))
    return matmul_kseq(v.T, dh1).tobytes() + _paired_adam_bytes()


def _numpy_split_work(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(native, "kernels", lambda: None)
        return _split_work()


def test_concurrent_split_calls_give_the_numpy_bytes(monkeypatch):
    """More threads than cores make split calls at once: one call at a
    time shares its chunks with the helper and the others run alone. Each
    gives numpy's bytes, and none waits on another's job."""
    if native.kernels() is None:
        pytest.skip("no compiled kernels")
    want, results = _numpy_split_work(monkeypatch), {}

    def work(i):
        results[i] = [_split_work() == want for _ in range(30)]
    threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {i: [True] * 30 for i in range(3)}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_makes_its_own_split_calls(monkeypatch):
    """A child forked after a split call, while another thread makes more,
    inherits neither the helper nor a held lock: its split calls give
    numpy's bytes and start its own helper, given two CPUs, and it exits
    in time."""
    if native.kernels() is None:
        pytest.skip("no compiled kernels")
    tasks = Path("/proc/self/task")

    def threads():
        return len(list(tasks.iterdir())) if tasks.is_dir() else 0
    # the helper the child's first split call starts, where it can be seen
    started = int(tasks.is_dir() and len(os.sched_getaffinity(0)) > 1)
    want = _numpy_split_work(monkeypatch)
    assert _split_work() == want  # the helper runs from here on
    stop = threading.Event()

    def busy():
        while not stop.is_set():
            _split_work()
    thread = threading.Thread(target=busy)
    thread.start()
    try:
        with warnings.catch_warnings():
            # Python 3.12 and later warn of a fork in a threaded process
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                before = threads()
                same = _split_work() == want
                status = 0 if same and threads() - before == started else 1
            finally:
                os._exit(status)
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    deadline = time.monotonic() + 60
    while (ended := os.waitpid(pid, os.WNOHANG))[0] == 0 \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    if ended[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert ended[0] == pid, "the child hung"
    assert os.waitstatus_to_exitcode(ended[1]) == 0


# prints the epoch's checkpoint sha256 and the process's thread count at
# start, after the imports, after loading the kernels and after the epoch;
# argv[1] == "one" pins the process to one CPU before numpy's import
_THREADS_OF_AN_EPOCH = """
import os, sys
from pathlib import Path
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
counts = [len(os.listdir("/proc/self/task"))]
import test_neuralcore
from convpipe import native
counts.append(len(os.listdir("/proc/self/task")))
native.kernels()
counts.append(len(os.listdir("/proc/self/task")))
sha = test_neuralcore._epoch_sha(Path(sys.argv[2]))
counts.append(len(os.listdir("/proc/self/task")))
print(sha, *counts)
"""


@pytest.mark.parametrize("cpus", ["one", "all"])
def test_the_helper_starts_at_the_first_split_call_given_two_cpus(cpus,
                                                                  tmp_path):
    """Neither import nor loading the kernels starts a thread; the first
    split call starts one helper, unless the process may use one CPU
    only. The epoch's bytes are the same with the helper and without."""
    if native.kernels() is None or not hasattr(os, "sched_setaffinity") \
            or not Path("/proc/self/task").is_dir():
        pytest.skip("no compiled kernels, or no CPU affinity")
    if cpus == "all" and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU")
    paths = (Path(neuralcore.__file__).parents[1], Path(__file__).parent)
    run = subprocess.run(
        [sys.executable, "-c", _THREADS_OF_AN_EPOCH, cpus,
         str(tmp_path / "child.ckpt")], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))},
        timeout=120)
    assert run.returncode == 0, run.stderr
    sha, *counts = run.stdout.split()
    assert sha == _epoch_sha(tmp_path / "parent.ckpt")
    start, imported, loaded, trained = map(int, counts)
    assert start == 1 and loaded == imported
    assert trained == loaded + (cpus == "all")


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


def _paired_adam_bytes():
    """Both layers' w, m and v after one batch update at step 3, with a
    NaN, an inf and huge gradient entries."""
    rng = np.random.default_rng(16)
    weights = init_weights(16)
    state = AdamState(*(rng.normal(size=s) * 0.01 for s in
                        ((169, 128), (169, 128), (128, 10), (128, 10))))
    state.v_w1, state.v_w2, state.step = abs(state.v_w1), abs(state.v_w2), 2
    grads = Gradients(rng.normal(size=(169, 128)), rng.normal(size=(128, 10)))
    grads.g_w1[3, :3], grads.g_w2[5, :3] = (np.nan, np.inf, 1e300), -1e308
    with np.errstate(all="ignore"):
        apply_batch_update(state, weights, grads, AdamHyper())
    return b"".join(x.tobytes() for x in (weights.w1, weights.w2, state.m_w1,
                                          state.v_w1, state.m_w2, state.v_w2))


def _kernel_outputs():
    """The bytes of all three kernels: the five production products, the
    tile-edge products and the epilogue products, the host stage of the
    epoch's batches and of the block-edge images, and a paired batch
    update."""
    products = {**_production_operands(), **_tile_edge_operands()}
    with np.errstate(invalid="ignore"):
        epilogues = {case: matmul_kseq(a, b, relu=True, mask=mask).tobytes()
                     for case in EPILOGUE_CASES
                     for a, b, mask in [_epilogue_operands(*case)]}
    return ({name: matmul_kseq(a, b).tobytes()
             for name, (a, b) in products.items()}, epilogues,
            [host_stage(batch).v.tobytes() for batch in _epoch_batches()],
            {name: host_stage(MiniBatch(v, np.zeros((3, 10)), 0), kernel)
             .v.tobytes() for name, (v, kernel) in _host_edge_inputs().items()},
            _paired_adam_bytes())


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
    assert sorted(name for name in dir(lib) if not name.startswith("_")) == \
        ["adam_update_pair", "host_stage", "matmul_kseq"]


def _no_compiler(monkeypatch, cache_dir):
    monkeypatch.setattr(shutil, "which", lambda name: None)


def _compiler_fails(monkeypatch, cache_dir):
    def run(cmd, **kwargs):
        raise subprocess.CalledProcessError(1, cmd, stderr=b"cc: internal error")
    monkeypatch.setattr(subprocess, "run", run)


def _cache_not_writable(monkeypatch, cache_dir):
    cache_dir.parent.mkdir(parents=True)
    cache_dir.write_bytes(b"")  # a file where the directory should be


def _no_python_h(monkeypatch, cache_dir):
    headers = cache_dir.parent / "include"  # an empty include directory
    headers.mkdir(parents=True)
    get_path = sysconfig.get_path
    monkeypatch.setattr(sysconfig, "get_path", lambda name, *args, **kw:
                        str(headers) if name == "include"
                        else get_path(name, *args, **kw))


@pytest.mark.parametrize("breakage", [_no_compiler, _compiler_fails,
                                      _cache_not_writable, _no_python_h])
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
    """Only modules unused for longer than 30 days go: a fresh module of
    another source belongs to another checkout and stays, and so does a
    file of any other name."""
    if not _compiler_on_path():
        pytest.skip("no cc or gcc on PATH")
    empty_kernel_cache.mkdir(parents=True)
    aged = time.time() - 31 * 24 * 3600
    for name in ("native-0000.so", "kseq-0000.so", "other.so", "native-0000.c"):
        (empty_kernel_cache / name).write_bytes(b"")
        os.utime(empty_kernel_cache / name, (aged, aged))
    (empty_kernel_cache / "native-1111.so").write_bytes(b"")
    assert native.kernels() is not None
    assert {p.name for p in empty_kernel_cache.iterdir()} == \
        {"native-0000.c", "native-1111.so", native._library_path().name,
         "kseq-0000.so", "other.so"}


def test_the_kernel_source_and_flags_are_pinned():
    """The cached module's name keys on _SOURCE, _CFLAGS and the ABI tag,
    and a rebuilt module moves the kernels' timings on its own: a change
    to either is deliberate, and updates these pins."""
    assert hashlib.sha256(native._SOURCE.encode()).hexdigest() == \
        "5ff0c9f4b63ff612f19a5d347d08f47fce3e6d9d62cba3fa014b584f186fc1f5"
    assert native._CFLAGS == ("-O3", "-std=c99", "-ffp-contract=off",
                              "-fno-math-errno", "-fPIC", "-shared")
    if importlib.machinery.EXTENSION_SUFFIXES[0] == \
            ".cpython-311-x86_64-linux-gnu.so":
        assert native._library_path().name == (
            "native-839bc871602a2f266e693eb332565c1d1dc329e783029ad8f5874f3b"
            "1864d5b3.so")


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
    SIMD level the CPU has all give the same bytes, for all three kernels,
    with the host stage's AVX2 block and with the plain loop that a CPU
    without AVX2 runs instead."""
    if not _compiler_on_path():
        pytest.skip("no cc or gcc on PATH")
    assert native.kernels() is not None
    dispatched = _kernel_outputs()
    clones = re.findall(r"__attribute__\(\(target_clones\([^)]*\)\)\)",
                        native._SOURCE)
    assert len(clones) == 1
    single = native._SOURCE.replace(clones[0], "")
    plain = single.replace('__builtin_cpu_supports("avx2")', "0")
    assert plain != single
    for name, source in (("single", single), ("plain", plain)):
        for flags in [[], *([f] for f in _cpu_simd_flags())]:
            path = tmp_path / f"{name}{''.join(flags)}.so"
            native._build(path, source, flags)
            module = native._import(path)  # next to the dispatched build
            monkeypatch.setattr(native, "kernels", lambda: module)
            assert _kernel_outputs() == dispatched, (name, flags)


def test_native_source_compiles_without_warnings(tmp_path):
    """The file itself, where the compiler's messages name its lines."""
    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no cc on PATH")
    src = Path(native.__file__).with_name("_native.c")
    assert src.read_text() == native._SOURCE
    built = subprocess.run([compiler, *native._CFLAGS, "-Wall", "-Wextra",
                            "-Werror", "-I", sysconfig.get_path("include"),
                            "-o", str(tmp_path / "native.so"), str(src)],
                           capture_output=True, text=True)
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


@pytest.mark.parametrize("n", [1, 3, 7, 31, 32, 33, 97])
def test_accuracy_is_the_mean_of_the_matches(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        h2 = rng.random((n, 10))
        y = np.eye(10)[rng.integers(0, 10, n)]
        h2[y.astype(bool)] += rng.random(n) < 0.5  # about half the rows hit
        got = accuracy(h2, y)
        assert type(got) is float
        assert got == float(np.mean(h2.argmax(axis=1) == y.argmax(axis=1)))


def test_accuracy_matches_enumeration():
    rng = np.random.default_rng(10)
    h2 = rng.random((64, 10))
    y = np.eye(10)[rng.integers(0, 10, 64)]
    assert accuracy(h2, y) == naive_accuracy(h2, y)


def test_one_training_batch_calls_every_traced_entry_point(monkeypatch):
    """perfbench/tracing.py times a training batch by replacing these
    module attributes with wrappers: a change that stops calling one of
    them, or calls matmul_kseq in other shapes, must teach the tracer and
    its tests first."""
    calls = []

    def count(module, name, label=None):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(label(args) if label else name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    count(neuralcore, "matmul_kseq",
          lambda args: "{}x{}x{}".format(*args[0].shape, args[1].shape[1]))
    for name in ("fc_forward", "out_forward", "backward"):
        count(neuralcore, name)
    count(adam_mod, "apply_batch_update")
    images, labels = synthetic_dataset(3, 32)
    run_epoch(make_batches(images, labels, 32), ModelState.initial(3),
              SEQUENTIAL, True, ResourceBudget())
    assert calls == ["fc_forward", "32x169x128", "out_forward", "32x128x10",
                     "backward", "128x32x10", "32x10x128", "169x32x128",
                     "apply_batch_update"]
