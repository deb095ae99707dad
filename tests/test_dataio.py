import gzip
import hashlib
import re
import zlib

import numpy as np
import pytest

from convpipe import dataio, native
from convpipe.dataio import (FormatError, ImageSet, LabelSet,
                             load_idx_images, load_idx_labels, make_batches,
                             synthetic_dataset, write_idx_images,
                             write_idx_labels)
from convpipe.pipeline import RunConfig, load_split

from conftest import find_mnist_dir


def _image_file(tmp_path, pixels_bytes, count, rows=28, cols=28,
                magic=0x00000803, name="imgs.idx"):
    path = tmp_path / name
    with open(path, "wb") as f:
        f.write(magic.to_bytes(4, "big"))
        f.write(count.to_bytes(4, "big"))
        f.write(rows.to_bytes(4, "big"))
        f.write(cols.to_bytes(4, "big"))
        f.write(pixels_bytes)
    return path


def _label_file(tmp_path, label_bytes, count, magic=0x00000801, name="lbl.idx"):
    path = tmp_path / name
    with open(path, "wb") as f:
        f.write(magic.to_bytes(4, "big"))
        f.write(count.to_bytes(4, "big"))
        f.write(label_bytes)
    return path


def test_all_zero_image_loads_as_zeros(tmp_path):
    path = _image_file(tmp_path, bytes(28 * 28), 1)
    images = load_idx_images(path)
    assert images.count == 1
    assert images.pixels.shape == (1, 28, 28)
    assert np.all(images.pixels == 0.0)


def test_byte_scaling_is_div_255(tmp_path):
    # the loader keeps the file's bytes; byte k is the pixel value k / 255.0,
    # which the host stage computes
    raw = bytearray(28 * 28)
    raw[0] = 255
    raw[1] = 51
    images = load_idx_images(_image_file(tmp_path, bytes(raw), 1))
    assert images.pixels.dtype == np.uint8
    assert images.pixels.tobytes() == bytes(raw)
    assert images.pixels[0, 0, 0] / 255.0 == 1.0
    assert images.pixels[0, 0, 1] / 255.0 == 51 / 255  # == 0.2
    assert images.pixels[0, 0, 1] / 255.0 == 0.2


def test_bad_image_magic_reports_offset(tmp_path):
    path = _image_file(tmp_path, bytes(28 * 28), 1, magic=0x00000801)
    with pytest.raises(FormatError) as err:
        load_idx_images(path)
    assert err.value.offset == 0
    assert "bad image magic 0x00000801, expected 0x00000803" in str(err.value)


def test_truncated_image_file(tmp_path):
    path = _image_file(tmp_path, bytes(100), 1)  # wants 784 bytes
    with pytest.raises(FormatError) as err:
        load_idx_images(path)
    assert "truncated" in str(err.value)


def test_truncated_label_file(tmp_path):
    path = _label_file(tmp_path, bytes([1, 2]), 5)
    with pytest.raises(FormatError) as err:
        load_idx_labels(path)
    assert str(err.value) == (f"{path}: byte 8: truncated label data: 5 "
                              f"bytes needed, 2 left")


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gzip"])
def test_huge_declared_count_fails_at_the_data_offset(tmp_path, compressed):
    # 0xFFFFFFFF images of 28x28 declare ~3.4 TB of pixels; 100 bytes follow
    path = _image_file(tmp_path, bytes(100), 0xFFFFFFFF)
    if compressed:
        path.write_bytes(gzip.compress(path.read_bytes()))
    with pytest.raises(FormatError) as err:
        load_idx_images(path)
    assert err.value.offset == 16
    assert str(err.value).startswith(f"{path}: byte 16: truncated pixel data")
    assert "100 left" in str(err.value)
    # the label payload starts right after the count
    path = _label_file(tmp_path, bytes(100), 0xFFFFFFFF)
    if compressed:
        path.write_bytes(gzip.compress(path.read_bytes()))
    with pytest.raises(FormatError) as err:
        load_idx_labels(path)
    assert err.value.offset == 8
    assert str(err.value).startswith(f"{path}: byte 8: truncated label data: "
                                     f"4294967295 bytes needed")


def test_dimension_mismatch_rejected(tmp_path):
    path = _image_file(tmp_path, bytes(16 * 16), 1, rows=16, cols=16)
    with pytest.raises(FormatError) as err:
        load_idx_images(path)
    assert err.value.offset == 8
    # but loads fine when the caller opts out of the geometry check
    images = load_idx_images(path, expected_rows=None, expected_cols=None)
    assert images.pixels.shape == (1, 16, 16)
    # rows that match leave the cols to fail at their own offset
    path = _image_file(tmp_path, bytes(28 * 16), 1, rows=28, cols=16)
    with pytest.raises(FormatError) as err:
        load_idx_images(path)
    assert err.value.offset == 12
    assert "col count 16 != expected 28" in str(err.value)
    assert load_idx_images(path, expected_cols=None).pixels.shape == \
        (1, 28, 16)


def test_single_label_byte(tmp_path):
    labels = load_idx_labels(_label_file(tmp_path, bytes([7]), 1))
    assert labels.count == 1
    assert labels.labels[0] == 7


def test_label_out_of_range_is_corrupt(tmp_path):
    path = _label_file(tmp_path, bytes([3, 12]), 2)
    with pytest.raises(FormatError) as err:
        load_idx_labels(path)
    assert "corrupt" in str(err.value)


def test_bad_label_magic(tmp_path):
    path = _label_file(tmp_path, bytes([1]), 1, magic=0x00000803)
    with pytest.raises(FormatError) as err:
        load_idx_labels(path)
    assert err.value.offset == 0
    assert "bad label magic 0x00000803, expected 0x00000801" in str(err.value)


def test_count_mismatch_rejected_at_pairing():
    images, _ = synthetic_dataset(0, 40)
    _, labels = synthetic_dataset(0, 39)
    with pytest.raises(ValueError, match="mismatch"):
        make_batches(images, labels, 32)


def test_make_batches_rejects_a_zero_batch_size():
    images, labels = synthetic_dataset(0, 4)
    with pytest.raises(ValueError, match="^batch_size must be >= 1, got 0$"):
        make_batches(images, labels, 0)


@pytest.mark.parametrize("make, message", [
    (lambda: ImageSet(np.zeros((2, 2), np.uint8)),
     r"pixels must be 3-d, got shape \(2, 2\)"),
    (lambda: ImageSet(np.zeros((1, 2, 2, 2), np.uint8)),
     r"pixels must be 3-d, got shape \(1, 2, 2, 2\)"),
    (lambda: LabelSet(np.zeros((2, 1), np.int64)),
     r"labels must be 1-d, got shape \(2, 1\)"),
    (lambda: LabelSet(np.array([0, 10])),
     r"labels outside \[0, 10\): min 0, max 10"),
    (lambda: LabelSet(np.array([3, -1]), num_classes=4),
     r"labels outside \[0, 4\): min -1, max 3"),
], ids=["2d_pixels", "4d_pixels", "2d_labels", "label_too_large",
        "negative_label"])
def test_a_set_of_the_wrong_rank_or_range_is_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("load, kind", [(load_idx_images, "image"),
                                        (load_idx_labels, "label")])
def test_a_missing_idx_file_is_named(tmp_path, load, kind):
    missing = tmp_path / "nowhere-idx-ubyte"
    message = f"{kind} file not found: {missing}"
    with pytest.raises(FileNotFoundError, match=f"^{re.escape(message)}$"):
        load(missing)


def _expected_batches(count, batch_size):
    # enumeration oracle: walk full windows off the front of the dataset
    starts = []
    pos = 0
    while pos + batch_size <= count:
        starts.append(pos)
        pos += batch_size
    return starts


def test_batch_count_matches_enumeration():
    assert len(_expected_batches(60000, 32)) == 1875
    images, labels = synthetic_dataset(3, 600)
    batches = make_batches(images, labels, 32)
    assert len(batches) == len(_expected_batches(600, 32)) == 18


def test_small_dataset_yields_no_batches():
    images, labels = synthetic_dataset(0, 10)
    assert make_batches(images, labels, 32) == []


def test_one_hot_encoding():
    images, _ = synthetic_dataset(0, 32)
    labels = LabelSet(np.full(32, 3, dtype=np.int64))
    batch = make_batches(images, labels, 32)[0]
    row = batch.out_actual[0]
    assert row.tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
    assert np.all(batch.out_actual.sum(axis=1) == 1.0)
    assert np.all((batch.out_actual == 0.0) | (batch.out_actual == 1.0))


def test_batches_preserve_dataset_order():
    images, labels = synthetic_dataset(7, 130)
    batches = make_batches(images, labels, 32)
    assert [b.index for b in batches] == [0, 1, 2, 3]
    stitched = np.concatenate([b.v_raw for b in batches])
    assert np.array_equal(stitched, images.pixels[:128])
    stitched_labels = np.concatenate([b.out_actual.argmax(axis=1)
                                      for b in batches])
    assert np.array_equal(stitched_labels, labels.labels[:128])


def test_batch_labels_are_row_slices_of_one_one_hot_array():
    images, labels = synthetic_dataset(5, 130, num_classes=7)
    batches = make_batches(images, labels, 32)
    one_hot = batches[0].out_actual.base
    assert isinstance(one_hot, np.ndarray)
    for b in batches:
        lo = 32 * b.index
        assert np.shares_memory(b.out_actual, one_hot)
        assert b.out_actual.flags.c_contiguous
        assert b.out_actual.dtype == np.float64
        assert np.array_equal(b.out_actual, np.eye(7)[labels.labels[lo:lo + 32]])


def test_synthetic_determinism_and_seed_sensitivity():
    a_img, a_lab = synthetic_dataset(1, 64)
    b_img, b_lab = synthetic_dataset(1, 64)
    c_img, _ = synthetic_dataset(2, 64)
    assert np.array_equal(a_img.pixels, b_img.pixels)
    assert np.array_equal(a_lab.labels, b_lab.labels)
    assert not np.array_equal(a_img.pixels, c_img.pixels)
    assert a_img.pixels.dtype == np.uint8


def test_synthetic_empty():
    images, labels = synthetic_dataset(0, 0)
    assert images.count == 0 and labels.count == 0


def integers_fixture(seed, n, rows, cols, num_classes):
    """The fixture as numpy's integers() draws it, its pixels as uint8: the
    reference that synthetic_dataset's raw-word draw must equal byte for
    byte."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, rows, cols)).astype(np.uint8)
    return pixels, rng.integers(0, num_classes, size=n).astype(np.int64)


def assert_same_fixture(seed, n, rows, cols, num_classes):
    images, labels = synthetic_dataset(seed, n, rows, cols, num_classes)
    pixels, want_labels = integers_fixture(seed, n, rows, cols, num_classes)
    for got, want in ((images.pixels, pixels), (labels.labels, want_labels)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# the two default splits, empty sets, single pixels, odd pixel counts
# (whose last pixel leaves half a raw word buffered for the labels' draw)
# and a set with no pixels but one label
@pytest.mark.parametrize("n, rows, cols, num_classes", [
    (512, 28, 28, 10), (2048, 28, 28, 10), (0, 28, 28, 10), (1, 1, 1, 1),
    (5, 5, 5, 3), (7, 3, 3, 2), (3, 1, 1, 10), (33, 30, 16, 37),
    (1, 0, 5, 2)])
@pytest.mark.parametrize("seed", range(6))
def test_synthetic_pixels_are_the_integers_draw(seed, n, rows, cols,
                                                num_classes):
    assert_same_fixture(seed, n, rows, cols, num_classes)


# sha256 of the little-endian pixel values and label bytes of the train and
# test splits a seed-0 run builds. The pixel values are the bytes divided
# by 255.0, as float64: exact on every CPU, so only a change to numpy's
# generator or to the draw moves them.
@pytest.mark.parametrize("seed, n, pixels_sha, labels_sha", [
    (1, 2048,
     "6d28c6c9e97754c4671c6fc9866208946aa6bfb2d4f157ea8e9f1eab22b5274a",
     "d79a163f4f5f1573ae7f321eee72353a89ec6a9381234f7c0d5e152337663728"),
    (2, 512,
     "42a50677b9b3815a7b0d5f8453bbeed6ec168dec23b017633eb3982eab942f8c",
     "b392b0f0e35ff3d9b3119cc0c172825332794038bba6a65f2452624265ae1084"),
])
def test_synthetic_fixture_bytes_are_pinned(seed, n, pixels_sha, labels_sha):
    images, labels = synthetic_dataset(seed, n)
    assert hashlib.sha256(
        (images.pixels / 255.0).astype("<f8").tobytes()).hexdigest() == \
        pixels_sha
    assert hashlib.sha256(
        labels.labels.astype("<i8").tobytes()).hexdigest() == labels_sha


def _source_constant(name):
    return int(re.search(rf"#define {name} (\d+)\n", native._SOURCE)[1])


CHUNK_WORDS = _source_constant("CHUNK_WORDS")
SPLIT_WORDS = _source_constant("SPLIT_WORDS")
# (n, rows, cols) fixtures of a PCG64 draw's edge word counts: each chain
# edge, a chunk's edges, the split threshold's, and the default splits;
# the odd ones draw their last pixel through integers()
DRAW_SHAPES = {
    **{f"{w}_words": (1, 2, w)
       for w in (0, 1, 7, 8, 9, CHUNK_WORDS - 1, CHUNK_WORDS + 1,
                 SPLIT_WORDS - 1, SPLIT_WORDS + 1)},
    **{f"{w}_words_odd": (1, 1, 2 * w + 1) for w in (0, 9, SPLIT_WORDS + 1)},
    "test_split": (512, 28, 28), "train_split": (2048, 28, 28)}


def _fixture_bytes(seed, shape):
    images, labels = synthetic_dataset(seed, *shape)
    return images.pixels.tobytes(), labels.labels.tobytes()


@pytest.mark.parametrize("shape", DRAW_SHAPES.values(), ids=DRAW_SHAPES)
def test_the_compiled_draw_gives_the_numpy_bytes(
        shape, unsplit_kernels, on_a_marked_thread, monkeypatch):
    """The compiled PCG64 draw, split with the helper, queued from a
    marked thread and on one thread alone, gives random_raw's pixels and
    labels, and leaves the generator in random_raw's state."""
    with monkeypatch.context() as patched:
        patched.setattr(native, "kernels", lambda: None)
        want = _fixture_bytes(5, shape)
    assert _fixture_bytes(5, shape) == want
    assert on_a_marked_thread(lambda: _fixture_bytes(5, shape)) == want
    compiled, reference = np.random.PCG64(5), np.random.PCG64(5)
    pixels = np.empty(np.prod(shape), dtype=np.uint8)
    assert dataio._compiled_raw_bytes(compiled, pixels)
    reference.random_raw(pixels.size // 2)
    assert compiled.state == reference.state
    monkeypatch.setattr(native, "kernels", lambda: unsplit_kernels)
    assert _fixture_bytes(5, shape) == want


def test_a_generator_that_is_not_pcg64_draws_through_numpy(monkeypatch):
    if native.kernels() is None:
        pytest.skip("no compiled kernels")
    pcg64 = _fixture_bytes(6, (64, 28, 28))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: np.random.
                        Generator(np.random.PCG64DXSM(seed)))
    got = _fixture_bytes(6, (64, 28, 28))
    monkeypatch.setattr(native, "kernels", lambda: None)
    assert got == _fixture_bytes(6, (64, 28, 28)) != pcg64


def test_a_build_without_128_bit_integers_draws_through_numpy(
        tmp_path, monkeypatch):
    """Without __SIZEOF_INT128__ the entry point draws nothing and returns
    False, and synthetic_dataset takes random_raw's words instead."""
    if native.kernels() is None:
        pytest.skip("no compiled kernels")
    path = tmp_path / "no_int128.so"
    native._build(path, flags=["-U__SIZEOF_INT128__"])
    lib = native._import(path)
    out = np.full(9, 7, dtype=np.uint8)
    assert lib.pcg64_pixels(0, 1, 0, 3, out) is False
    assert np.all(out == 7)
    want = _fixture_bytes(7, (3, 28, 28))
    monkeypatch.setattr(native, "kernels", lambda: lib)
    assert _fixture_bytes(7, (3, 28, 28)) == want


@pytest.mark.parametrize("halves, out, error", [
    ((0, 1, 0, 3), np.zeros(4, dtype=np.float64), BufferError),
    ((0, 1, 0, 3), np.zeros(4, dtype=np.uint8)[::2], BufferError),
    ((0, 1, 0, 3), np.frombuffer(bytes(4), dtype=np.uint8), BufferError),
    ((0, -1, 0, 3), np.zeros(4, dtype=np.uint8), OverflowError),
    ((1 << 64, 1, 0, 3), np.zeros(4, dtype=np.uint8), OverflowError),
], ids=["float64", "strided", "read_only", "negative", "over_64_bits"])
def test_the_draw_rejects_what_it_cannot_take(halves, out, error):
    lib = native.kernels()
    if lib is None:
        pytest.skip("no compiled kernels")
    with pytest.raises(error):
        lib.pcg64_pixels(*halves, out)


@pytest.mark.parametrize("args, message", [
    ((-1, 28, 28, 10), "n must be >= 0, got -1"),
    ((2, -1, 28, 10), "rows must be >= 0, got -1"),
    ((2, 28, -3, 10), "cols must be >= 0, got -3"),
    # two negative sizes multiply to a positive pixel count
    ((2, -2, -3, 10), "rows must be >= 0, got -2"),
    ((2, 28, 28, 0), "num_classes must be >= 1, got 0"),
    ((0, 28, 28, -1), "num_classes must be >= 1, got -1"),
])
def test_synthetic_rejects_a_bad_size(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        synthetic_dataset(0, *args)


def test_idx_round_trip_exact(tmp_path):
    images, labels = synthetic_dataset(11, 50)
    img_path = tmp_path / "rt-images.idx"
    lab_path = tmp_path / "rt-labels.idx"
    write_idx_images(images, img_path)
    write_idx_labels(labels, lab_path)
    back_img = load_idx_images(img_path)
    back_lab = load_idx_labels(lab_path)
    assert back_img.pixels.dtype == np.uint8
    assert back_img.pixels.tobytes() == images.pixels.tobytes()
    assert np.array_equal(back_lab.labels, labels.labels)
    # rows != cols, so a swap of the two in the header would show
    raw = np.random.default_rng(12).integers(0, 256, (5, 7, 11), np.uint8)
    write_idx_images(ImageSet(raw), img_path)
    assert img_path.read_bytes()[:16] == bytes.fromhex(
        "00000803 00000005 00000007 0000000b")
    back = load_idx_images(img_path, expected_rows=7, expected_cols=11)
    assert back.pixels.tobytes() == raw.tobytes()


def test_bytes_are_written_as_they_are(tmp_path):
    pixels = np.arange(256, dtype=np.uint8)[::-1].reshape(1, 16, 16)
    write_idx_images(ImageSet(pixels), tmp_path / "imgs.idx")
    assert (tmp_path / "imgs.idx").read_bytes()[16:] == pixels.tobytes()


def test_an_image_set_of_bytes_takes_every_byte():
    # every byte is a pixel value in [0, 1]
    assert ImageSet(np.arange(256, dtype=np.uint8).reshape(4, 8, 8)).count \
        == 4


@pytest.mark.parametrize("source", ["synthetic", "idx"])
def test_load_split_batches_hold_the_bytes(tmp_path, source):
    """Both sources keep uint8 images up to the host stage: each batch's
    v_raw is a uint8 view of one array, never a float copy."""
    data_dir = None
    if source == "idx":
        data_dir = str(tmp_path)
        for split, stem, seed, n in (("train", "train", 1, 64),
                                     ("test", "t10k", 2, 32)):
            images, labels = synthetic_dataset(seed, n)
            write_idx_images(images, tmp_path / f"{stem}-images-idx3-ubyte")
            write_idx_labels(labels, tmp_path / f"{stem}-labels-idx1-ubyte")
    cfg = RunConfig(data_dir=data_dir, synthetic_train=64, synthetic_test=32)
    for split, seed, n in (("train", 1, 64), ("test", 2, 32)):
        batches = load_split(cfg, split)
        want = synthetic_dataset(seed, n)[0].pixels
        assert len(batches) == n // 32
        for i, batch in enumerate(batches):
            assert batch.v_raw.dtype == np.uint8
            assert batch.v_raw.base is batches[0].v_raw.base is not None
            assert batch.v_raw.tobytes() == want[32 * i:32 * (i + 1)].tobytes()


def test_gzip_transparency(tmp_path):
    images, _ = synthetic_dataset(4, 8)
    plain = tmp_path / "imgs.idx"
    write_idx_images(images, plain)
    gz = tmp_path / "imgs.idx.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    back = load_idx_images(gz).pixels
    assert back.dtype == np.uint8
    assert back.tobytes() == images.pixels.tobytes()


def _gzip_idx(tmp_path, kind):
    """A compressible 64-entry IDX file of `kind`, "images" or "labels",
    gzipped."""
    rng = np.random.default_rng(5)
    plain = tmp_path / kind
    if kind == "images":
        pixels = np.zeros((64, 28, 28), np.uint8)
        pixels[:, 10:18, 10:18] = rng.integers(0, 256, (64, 8, 8))
        write_idx_images(ImageSet(pixels), plain)
    else:
        write_idx_labels(LabelSet(rng.integers(0, 10, 64)), plain)
    gz = tmp_path / f"{kind}.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes(), mtime=0))
    return gz


def _load(kind, path):
    """The data array of the IDX file of `kind` at path."""
    if kind == "images":
        return load_idx_images(path).pixels
    return load_idx_labels(path).labels


@pytest.mark.parametrize("kind", ["images", "labels"])
def test_truncated_gzip_fails_with_its_path(tmp_path, kind):
    gz = _gzip_idx(tmp_path, kind)
    raw = gz.read_bytes()
    # cuts in the header, the deflate data and the CRC and length trailer
    for cut in [*range(1, len(raw), max(1, len(raw) // 40)), len(raw) - 1]:
        gz.write_bytes(raw[:cut])
        with pytest.raises(FormatError) as err:
            _load(kind, gz)
        assert str(err.value).startswith(f"{gz}: "), cut


@pytest.mark.parametrize("n", [64, 128, 2048])
def test_cut_gzip_fails_at_its_break(tmp_path, n):
    # the offset is the uncompressed byte where the stream breaks, which
    # zlib decodes from the cut stream; the last two 2048-image cuts fall
    # past the first 1 MiB chunk the reader asks for
    images, _ = synthetic_dataset(0, n)
    plain = tmp_path / "imgs.idx"
    write_idx_images(images, plain)
    raw = gzip.compress(plain.read_bytes(), mtime=0)
    gz = tmp_path / "imgs.idx.gz"
    for share in (0.1, 0.3, 0.5, 0.7, 0.95):
        cut = raw[:int(len(raw) * share)]
        gz.write_bytes(cut)
        with pytest.raises(FormatError) as err:
            load_idx_images(gz)
        at = len(zlib.decompressobj(31).decompress(cut))
        assert 16 < at < 16 + n * 28 * 28, share
        assert err.value.offset == at, share
        assert str(err.value).startswith(f"{gz}: byte {at}: corrupt gzip "
                                         f"stream while reading pixel data")


@pytest.mark.parametrize("kind", ["images", "labels"])
def test_bit_flipped_gzip_fails_or_loads_unchanged(tmp_path, kind):
    # gzip checks its CRC only at the end of the stream, so a flip in the
    # deflate data can decompress to other bytes without an error before it
    gz = _gzip_idx(tmp_path, kind)
    raw = gz.read_bytes()
    want = _load(kind, gz)
    rng = np.random.default_rng(6)
    bits = rng.choice(8 * len(raw), min(8 * len(raw), 400), replace=False)
    failed = 0
    for bit in bits:
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        gz.write_bytes(flipped)
        try:
            got = _load(kind, gz)
        except FormatError as err:
            assert str(err).startswith(f"{gz}: ")
            failed += 1
            continue
        # a flip that loads changed no data: it hit a header field that
        # nothing checks, such as the modification time, or deflate bits
        # that the decoder skips
        assert np.array_equal(got, want), bit
    assert failed > len(bits) // 2


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gz"])
@pytest.mark.parametrize("kind", ["images", "labels"])
def test_bytes_after_the_payload_fail_with_their_offset(tmp_path, kind,
                                                        packed):
    # a count lowered from 64 to 40 leaves 24 entries after the payload,
    # and one byte appended to a well-formed file is one too many
    gz = _gzip_idx(tmp_path, kind)
    raw = gzip.decompress(gz.read_bytes())
    header, entry = (16, 28 * 28) if kind == "images" else (8, 1)
    path = tmp_path / ("bad.gz" if packed else "bad")
    for data, end in ((raw[:7] + bytes([40]) + raw[8:], header + 40 * entry),
                      (raw + b"\0", len(raw))):
        path.write_bytes(gzip.compress(data) if packed else data)
        with pytest.raises(FormatError) as err:
            _load(kind, path)
        assert str(err.value).startswith(f"{path}: byte {end}: bytes after "
                                         f"the ")
        assert err.value.offset == end


def test_pixel_range_enforced():
    # only bytes make a set, so every pixel is a value in [0, 1]: no other
    # dtype is taken, whatever its values
    for dtype in (np.float64, np.float32, np.int64, np.int8, np.uint16):
        with pytest.raises(ValueError, match=f"^pixels must be uint8, got "
                                             f"{np.dtype(dtype)}$"):
            ImageSet(np.zeros((1, 2, 2), dtype))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_pixels_rejected(bad):
    pixels = np.full((2, 2, 2), 0.5)
    pixels[1, 0, 1] = bad
    with pytest.raises(ValueError, match="^pixels must be uint8, got float64$"):
        ImageSet(pixels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.1],
                         ids=["nan", "+inf", "-inf", "-0.1", "1.1"])
def test_bad_pixel_messages(bad):
    # a float set is refused by its dtype, not by the value or place of a
    # pixel, so one message names it
    for where in ((0, 0, 0), (1, 1, 1)):  # the first pixel and the last
        pixels = np.full((2, 2, 2), 0.5)
        pixels[where] = bad
        with pytest.raises(ValueError) as err:
            ImageSet(pixels)
        assert str(err.value) == "pixels must be uint8, got float64"


@pytest.mark.skipif(find_mnist_dir() is None,
                    reason="MNIST IDX files not available")
def test_real_mnist_counts():
    data = find_mnist_dir()
    from conftest import MNIST_FILES

    def existing(stem):
        p = data / stem
        return p if p.exists() else data / (stem + ".gz")

    train = load_idx_images(existing(MNIST_FILES[0]))
    assert train.count == 60000
    test_lab = load_idx_labels(existing(MNIST_FILES[3]))
    assert test_lab.count == 10000
