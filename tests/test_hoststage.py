import re
import threading
import time

import numpy as np
import pytest

from convpipe import native
from convpipe.dataio import MiniBatch, synthetic_dataset, make_batches
from convpipe.hoststage import SHARPEN_KERNEL, conv2d_valid, host_stage, maxpool2x2
from convpipe.neuralcore import matmul_kseq
from convpipe.pipeline import RunConfig, load_datasets

from oracles import naive_conv2d, naive_maxpool2x2


def test_kernel_constant():
    assert SHARPEN_KERNEL.shape == (3, 3)
    assert SHARPEN_KERNEL.sum() == 1.0
    assert SHARPEN_KERNEL[1, 1] == 5.0
    with pytest.raises(ValueError):
        SHARPEN_KERNEL[0, 0] = 2.0  # read-only


def test_conv_all_ones_is_identity_surface():
    out = conv2d_valid(np.ones((28, 28)))
    assert out.shape == (26, 26)
    assert np.all(out == 1.0)


def test_conv_all_zero():
    assert np.all(conv2d_valid(np.zeros((28, 28))) == 0.0)


def test_conv_impulse_reproduces_kernel_pattern():
    image = np.zeros((28, 28))
    image[13, 13] = 1.0
    out = conv2d_valid(image)
    expected = naive_conv2d(image, np.asarray(SHARPEN_KERNEL))
    assert np.array_equal(out, expected)
    # the impulse paints the (180-degree rotated) kernel around (12, 12);
    # this kernel is symmetric, so the raw pattern appears as-is
    assert out[12, 12] == 5.0
    for r, c in ((11, 12), (13, 12), (12, 11), (12, 13)):
        assert out[r, c] == -1.0
    assert out[11, 11] == 0.0
    assert abs(out).sum() == 9.0


def test_conv_matches_scalar_oracle_bitwise():
    rng = np.random.default_rng(0)
    image = rng.normal(size=(28, 28))
    assert np.array_equal(conv2d_valid(image), naive_conv2d(image, np.asarray(SHARPEN_KERNEL)))


def test_conv_linearity():
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=(28, 28))
        y = rng.normal(size=(28, 28))
        a, b = rng.normal(size=2)
        lhs = conv2d_valid(a * x + b * y)
        rhs = a * conv2d_valid(x) + b * conv2d_valid(y)
        denom = np.maximum(np.abs(rhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / denom) < 1e-12


def test_conv_rejects_bad_shapes():
    with pytest.raises(ValueError):
        conv2d_valid(np.zeros((2, 2)))  # smaller than the kernel
    with pytest.raises(ValueError):
        conv2d_valid(np.zeros(5))


def test_maxpool_2x2_block():
    assert maxpool2x2(np.array([[1.0, 2.0], [3.0, 4.0]])).tolist() == [[4.0]]


def test_maxpool_constant():
    out = maxpool2x2(np.full((26, 26), 3.25))
    assert out.shape == (13, 13)
    assert np.all(out == 3.25)


def test_maxpool_ramp_matches_oracle():
    r, c = np.meshgrid(np.arange(26), np.arange(26), indexing="ij")
    feature = (26 * r + c).astype(np.float64)
    out = maxpool2x2(feature)
    assert np.array_equal(out, naive_maxpool2x2(feature))
    for i in range(13):
        for j in range(13):
            assert out[i, j] == 26 * (2 * i + 1) + (2 * j + 1)


def test_maxpool_dominates_inputs():
    rng = np.random.default_rng(2)
    feature = rng.normal(size=(26, 26))
    out = maxpool2x2(feature)
    for i in range(13):
        for j in range(13):
            block = feature[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            assert out[i, j] >= block.max() - 0.0
            assert out[i, j] in block


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ValueError, match="even"):
        maxpool2x2(np.zeros((25, 26)))


def test_maxpool_rejects_a_4d_feature():
    with pytest.raises(ValueError, match=r"^feature must be 2-d or 3-d, got "
                                         r"shape \(1, 2, 2, 2\)$"):
        maxpool2x2(np.zeros((1, 2, 2, 2)))


def test_host_stage_zero_batch():
    batch = MiniBatch(np.zeros((32, 28, 28), np.uint8),
                      np.eye(10)[np.zeros(32, int)], 0)
    conv = host_stage(batch)
    assert conv.v.shape == (32, 169)
    assert np.all(conv.v == 0.0)
    assert conv.index == 0
    assert conv.out_actual is batch.out_actual


def test_host_stage_output_width():
    images, labels = synthetic_dataset(5, 32)
    batch = make_batches(images, labels, 32)[0]
    assert host_stage(batch).v.shape[1] == 169


def test_host_stage_replicated_image_gives_identical_rows():
    images, labels = synthetic_dataset(6, 1)
    rep = MiniBatch(np.repeat(images.pixels, 32, axis=0),
                    np.eye(10)[np.zeros(32, int)], 0)
    v = host_stage(rep).v
    assert all(np.array_equal(v[0], v[i]) for i in range(32))


def test_host_stage_pure():
    images, labels = synthetic_dataset(8, 32)
    batch = make_batches(images, labels, 32)[0]
    assert np.array_equal(host_stage(batch).v, host_stage(batch).v)


def test_host_stage_flatten_is_row_major():
    images, labels = synthetic_dataset(9, 1)
    batch = MiniBatch(images.pixels, np.eye(10)[[0]], 0)
    pooled = maxpool2x2(conv2d_valid(images.pixels[0] / 255.0))
    assert np.array_equal(host_stage(batch).v[0], pooled.reshape(-1))


# -- the fused pass against its numpy reference ------------------------------

def _reference_bytes(v):
    """The reference's bytes for the uint8 images v."""
    pooled = maxpool2x2(conv2d_valid(v / 255.0))
    n, ph, pw = pooled.shape
    return pooled.reshape(n, ph * pw).tobytes()


def _batch(v):
    return MiniBatch(v, np.zeros((v.shape[0], 10)), 0)


def _bytes(rng, shape):
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_host_stage_matches_reference_on_every_fixture_batch(seed):
    # the fixture's batches are bytes, byte k meaning the pixel value k / 255
    train, test = load_datasets(RunConfig(seed=seed))
    for batch in train + test:
        assert batch.v_raw.dtype == np.uint8
        assert host_stage(batch).v.tobytes() == _reference_bytes(batch.v_raw)


def test_host_stage_negative_taps_on_zero_images_give_positive_zero():
    # the -1.0 taps' products are -0.0; sums start from +0.0, so none is -0.0
    v = np.zeros((4, 28, 28), np.uint8)
    got = host_stage(_batch(v)).v
    assert got.shape == (4, 169)
    assert got.tobytes() == _reference_bytes(v)
    assert got.tobytes() == np.zeros_like(got).tobytes()


def test_host_stage_strided_views_match_reference():
    base = _bytes(np.random.default_rng(4), (6, 60, 31))
    for v in (base[::2, 1::2, 2:30], base[:3, 28:0:-1, ::-1][:, :, 1:29],
              base[:3, :28, :28].transpose(0, 2, 1)):
        assert not v.flags.c_contiguous
        assert host_stage(_batch(v)).v.tobytes() == _reference_bytes(v)


def test_host_stage_empty_batch():
    conv = host_stage(_batch(np.zeros((0, 28, 28), np.uint8)))
    assert conv.v.shape == (0, 169)


def _native_constant(name):
    return int(re.search(rf"#define {name} (\d+)\n", native._SOURCE)[1])


CHUNK_IMAGES = _native_constant("CHUNK_IMAGES")
SPLIT_HOST = _native_constant("SPLIT_HOST")
KH, KW = SHARPEN_KERNEL.shape
# (n, oh, ow): n images whose correlation is oh x ow. At 50x50,
# CHUNK_IMAGES + 1 images pass SPLIT_HOST; at 20x20 the batch is the first
# that reaches it. 8x8 is narrower than the AVX2 block, so each chunk sums
# its rows in its own scratch; the first batch that splits is just above
# the threshold.
_AT_SPLIT = -(-SPLIT_HOST // (20 * 20 * KH * KW))
_NARROW_SPLIT = -(-SPLIT_HOST // (8 * 8 * KH * KW))
SPLIT_HOST_CASES = {
    "one": (1, 50, 50),
    "chunk-1": (CHUNK_IMAGES - 1, 50, 50),
    "chunk": (CHUNK_IMAGES, 50, 50),
    "chunk+1": (CHUNK_IMAGES + 1, 50, 50),
    "short_last": (3 * CHUNK_IMAGES + 2, 50, 50),
    "at_split": (_AT_SPLIT, 20, 20),
    "below_split": (_NARROW_SPLIT - 1, 8, 8),
    "narrow_split": (_NARROW_SPLIT, 8, 8),
}


def _split_case(name, seed):
    """The uint8 images of SPLIT_HOST_CASES[name]."""
    n, oh, ow = SPLIT_HOST_CASES[name]
    return _bytes(np.random.default_rng(seed), (n, oh + KH - 1, ow + KW - 1))


def _host_stage_bytes(kernels, v):
    n, h, w = v.shape
    got = np.empty((n, (h - KH + 1) * (w - KW + 1) // 4))
    kernels.host_stage(v, got)
    return got.tobytes()


@pytest.mark.parametrize("name", SPLIT_HOST_CASES)
def test_a_shared_host_stage_gives_the_bytes_of_one_thread(
        name, unsplit_kernels, on_a_marked_thread):
    """A host stage shared with the helper thread, in chunks of images,
    or queued for it from a marked thread, gives numpy's bytes and those of
    the same call in a build where it runs on one thread: one image, a
    chunk and its neighbours, a short last chunk, and the batches just
    below and at the split threshold."""
    v = _split_case(name, 7)
    want = _reference_bytes(v)
    assert _host_stage_bytes(native.kernels(), v) == want
    assert _host_stage_bytes(unsplit_kernels, v) == want
    assert on_a_marked_thread(
        lambda: _host_stage_bytes(native.kernels(), v)) == want


def test_the_kernels_byte_values_are_the_divisions_by_255():
    """Each byte's pixel value in the compiled pass is numpy's k / 255.0,
    read back through the fixed taps: image k of the batch is 4x4 with byte
    k at (1, 1), under the 5.0 tap of its first output only, so it pools to
    +0.0 + 5.0 * p, and every other sum is 0.0 or -p."""
    lib = native.kernels()
    if lib is None:
        pytest.skip("no compiled kernels")
    assert SHARPEN_KERNEL[1, 1] == 5.0
    images = np.zeros((256, 4, 4), np.uint8)
    images[:, 1, 1] = np.arange(256)
    got = np.empty((256, 1))
    lib.host_stage(images, got)
    assert got.ravel().tobytes() == (5.0 * (np.arange(256) / 255.0)).tobytes()
    assert got.tobytes() == _reference_bytes(images)


def _byte_paths(unsplit_kernels, on_a_marked_thread, monkeypatch):
    """host_stage(_batch(v)).v's bytes as a function of v, on each path by
    name: the compiled pass as built, shared with the helper where the
    batch splits; the build where it never splits; queued from a marked
    thread; and the numpy fallback."""
    def compiled(lib):
        def run(v):
            with monkeypatch.context() as patch:
                patch.setattr(native, "kernels", lambda: lib)
                return host_stage(_batch(v)).v.tobytes()
        return run
    return {"split": compiled(native.kernels()),
            "unsplit": compiled(unsplit_kernels),
            "marked": lambda v: on_a_marked_thread(
                lambda: _host_stage_bytes(native.kernels(), v)),
            "numpy": compiled(None)}


@pytest.mark.parametrize("name", SPLIT_HOST_CASES)
def test_a_byte_batch_gives_the_bytes_of_its_pixel_values(
        name, unsplit_kernels, on_a_marked_thread, monkeypatch):
    """A uint8 batch gives the bytes of the same batch divided by 255.0, on
    every path, at every chunk edge of the split."""
    v = _split_case(name, 10)
    want = _reference_bytes(v)
    for path, run in _byte_paths(unsplit_kernels, on_a_marked_thread,
                                 monkeypatch).items():
        assert run(v) == want, path


def test_a_strided_byte_batch_runs_numpy_with_the_same_bytes(monkeypatch):
    """The compiled pass takes C-contiguous bytes only: a strided uint8
    batch is refused and runs the numpy reference on v_raw / 255.0."""
    v = _bytes(np.random.default_rng(11), (6, 60, 31))[::2, 1::2, 2:30]
    assert not v.flags.c_contiguous
    lib = native.kernels()
    if lib is not None:
        with pytest.raises(BufferError, match="^x is not C-contiguous$"):
            lib.host_stage(v, np.empty((3, 169)))
    calls = []
    monkeypatch.setattr("convpipe.hoststage.conv2d_valid", lambda x:
                        calls.append(x.dtype) or conv2d_valid(x))
    assert host_stage(_batch(v)).v.tobytes() == _reference_bytes(v)
    assert calls == [np.float64]


def test_a_queued_host_stage_finishes_while_products_keep_the_helper_busy(
        on_a_marked_thread):
    """The helper runs a queued chunk only when the front job has none to
    claim; a thread that makes split products back to back still leaves
    it those gaps, so the queued host stage ends, with numpy's bytes."""
    rng = np.random.default_rng(8)
    v = _bytes(rng, (64, 28, 28))
    want = _reference_bytes(v)
    a, b = rng.normal(size=(2, 200, 200))  # 8M multiply-adds: they split
    stop = threading.Event()

    def products():
        while not stop.is_set():
            matmul_kseq(a, b)
    thread = threading.Thread(target=products)
    thread.start()
    try:
        for _ in range(20):
            assert on_a_marked_thread(
                lambda: _host_stage_bytes(native.kernels(), v)) == want
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()


def test_a_second_marked_call_runs_without_waiting_for_the_slot():
    """There is one slot: a marked call made while another holds it runs
    on its own thread, so it ends first, and both give numpy's bytes."""
    lib = native.kernels()
    if lib is None:
        pytest.skip("no compiled kernels")
    rng = np.random.default_rng(9)
    # ~90M tap multiply-adds, against the second call's ~0.2M
    long_v, short_v = _bytes(rng, (400, 160, 160)), _bytes(rng, (32, 28, 28))
    got, ended, started = {}, {}, threading.Event()

    def marked(name, v, before=None):
        lib.set_background(True)
        if before is not None:
            assert before.wait(timeout=60)
            time.sleep(0.002)  # the first call is in the slot
        else:
            started.set()
        got[name] = _host_stage_bytes(lib, v)
        ended[name] = time.perf_counter()
    threads = [threading.Thread(target=marked, args=args, daemon=True)
               for args in (("long", long_v), ("short", short_v, started))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {"long": _reference_bytes(long_v),
                   "short": _reference_bytes(short_v)}
    assert ended["short"] < ended["long"]


def _no_kernels():
    raise AssertionError("native kernels reached with a bad batch")


@pytest.mark.parametrize("shape,match", [((2, 27, 28), "even"),
                                         ((2, 28, 27), "even"),
                                         ((2, 2, 28), "smaller than kernel"),
                                         ((28, 28), "3-d")])
def test_host_stage_rejects_bad_shapes_before_calling_c(shape, match, monkeypatch):
    monkeypatch.setattr(native, "kernels", _no_kernels)
    with pytest.raises(ValueError, match=match):
        host_stage(_batch(np.zeros(shape, np.uint8)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int8,
                                   np.uint16, np.bool_])
def test_host_stage_rejects_images_that_are_not_bytes(dtype, monkeypatch):
    monkeypatch.setattr(native, "kernels", _no_kernels)
    with pytest.raises(ValueError, match=f"^v_raw must be uint8, got "
                                         f"{np.dtype(dtype)}$"):
        host_stage(_batch(np.zeros((2, 28, 28), dtype)))
