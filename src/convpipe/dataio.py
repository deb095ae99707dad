"""IDX file loading, synthetic fixtures, and mini-batch assembly.

IDX is the classic big-endian binary format: u32 magic, u32 count,
(for images) u32 rows, u32 cols, then raw unsigned bytes. Magics are
0x00000803 for image files and 0x00000801 for label files. One reader and
one writer cover both kinds; the public loaders and writers only convert
the uint8 payload. Files may be plain or gzip-compressed; compression is
detected from the 1f 8b prefix.

Images stay bytes from the file to the host stage: an ImageSet holds
uint8 pixels only, and it and the MiniBatch.v_raw sliced from it hold byte
k for the pixel value k / 255.0, which hoststage.host_stage computes per
image as it runs. A 60,000-image MNIST training set is 47 MB as bytes,
against 376 MB as float64.

The payload must end the file where the header's count says; a gzip
stream is read to its end, where gzip checks its CRC and length. A
malformed IDX file or checkpoint (checkpoint reads through _read_exact
and _read_to_end) raises FormatError with its path and the byte offset
of the field that failed, in the uncompressed stream for a .gz; a corrupt
or cut gzip stream fails at the uncompressed byte where it breaks.
"""

import gzip
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import native
from .dims import DEFAULT_DIMS

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class FormatError(ValueError):
    """A malformed IDX file or checkpoint, with the byte offset of the
    field that failed."""

    def __init__(self, path, offset, message):
        super().__init__(f"{path}: byte {offset}: {message}")
        self.path = path
        self.offset = offset


@dataclass
class ImageSet:
    """Images, shape (count, rows, cols), of uint8 bytes, byte k meaning
    the pixel value k / 255.0, so every pixel is a value in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.ndim != 3:
            raise ValueError(f"pixels must be 3-d, got shape {self.pixels.shape}")
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {self.pixels.dtype}")

    @property
    def count(self):
        return self.pixels.shape[0]


@dataclass
class LabelSet:
    """Class indices, shape (count,) int64."""

    labels: np.ndarray
    num_classes: int = DEFAULT_DIMS.classes

    def __post_init__(self):
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be 1-d, got shape {self.labels.shape}")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise ValueError(
                f"labels outside [0, {self.num_classes}): "
                f"min {self.labels.min()}, max {self.labels.max()}")

    @property
    def count(self):
        return self.labels.shape[0]


@dataclass
class MiniBatch:
    """One unit of processing: raw images plus one-hot labels.

    v_raw is (batch, rows, cols), as its ImageSet holds it: uint8 bytes,
    byte k meaning the pixel value k / 255.0; out_actual is
    (batch, classes) one-hot float64; index is the batch ordinal within the
    epoch.
    """

    v_raw: np.ndarray
    out_actual: np.ndarray
    index: int


_READ_CHUNK = 1 << 20
_GZIP_ERRORS = (EOFError, zlib.error, gzip.BadGzipFile)


def _read_exact(f, n, path, what):
    """n bytes from f, read a chunk at a time, so that a corrupt size in a
    header never allocates more than the bytes the file holds."""
    offset, data = f.tell(), bytearray()
    try:
        while len(data) < n:
            chunk = f.read(min(n - len(data), _READ_CHUNK))
            if not chunk:
                raise FormatError(path, offset, f"truncated {what}: {n} bytes "
                                                f"needed, {len(data)} left")
            data += chunk
    except _GZIP_ERRORS as exc:
        raise FormatError(path, f.tell(), f"corrupt gzip stream while "
                                          f"reading {what}: {exc}") from exc
    return data


def _read_to_end(f, path, what):
    """Check that the file ends after `what`: a byte after it fails with
    its offset. A gzip stream is read to its end, where gzip checks its
    CRC and length; offsets count uncompressed bytes."""
    offset = f.tell()
    try:
        extra = f.read(1)
    except _GZIP_ERRORS as exc:
        raise FormatError(path, offset, f"corrupt gzip stream after the "
                                        f"{what}: {exc}") from exc
    if extra:
        raise FormatError(path, offset, f"bytes after the {what}, where the "
                                        f"file must end")


def _read_idx(path, kind, magic, dims, payload):
    """The uint8 payload of an IDX file of kind "image" or "label", shaped
    as its header says. dims holds a (name, expected size or None) pair per
    dimension after the count; payload names the data in errors."""
    if not Path(path).exists():
        raise FileNotFoundError(f"{kind} file not found: {path}")
    with open(path, "rb") as probe:
        packed = probe.read(2) == b"\x1f\x8b"
    with (gzip.open if packed else open)(path, "rb") as f:
        got = int.from_bytes(_read_exact(f, 4, path, "magic"), "big")
        if got != magic:
            raise FormatError(path, 0, f"bad {kind} magic 0x{got:08x}, "
                                       f"expected 0x{magic:08x}")
        shape = [int.from_bytes(_read_exact(f, 4, path, what), "big")
                 for what in ("count", *(f"{name}s" for name, _ in dims))]
        for i, ((name, expected), size) in enumerate(zip(dims, shape[1:])):
            if expected is not None and size != expected:
                raise FormatError(path, 8 + 4 * i, f"{name} count {size} "
                                                   f"!= expected {expected}")
        data = _read_exact(f, math.prod(shape), path, payload)
        _read_to_end(f, path, payload)
    return np.frombuffer(data, dtype=np.uint8).reshape(shape)


def _write_idx(path, magic, data):
    """Write magic, each size of uint8 array data's shape, then its bytes."""
    with open(path, "wb") as f:
        for field in (magic, *data.shape):
            f.write(field.to_bytes(4, "big"))
        f.write(data.tobytes())


def load_idx_images(path, expected_rows=DEFAULT_DIMS.image_x,
                    expected_cols=DEFAULT_DIMS.image_y):
    """Load an IDX image file into an ImageSet of its uint8 bytes, byte k
    meaning the pixel value k / 255.0.

    Pass expected_rows/expected_cols=None to accept any geometry.
    """
    return ImageSet(_read_idx(path, "image", IMAGE_MAGIC,
                              (("row", expected_rows), ("col", expected_cols)),
                              "pixel data"))


def load_idx_labels(path, num_classes=DEFAULT_DIMS.classes):
    """Load an IDX label file into a LabelSet, checking the class range."""
    labels = _read_idx(path, "label", LABEL_MAGIC, (), "label data").astype(
        np.int64)
    if labels.size and labels.max() >= num_classes:
        bad = int(np.argmax(labels >= num_classes))
        raise FormatError(path, 8 + bad,
                          f"corrupt label {labels[bad]} >= {num_classes}")
    return LabelSet(labels, num_classes)


def write_idx_images(images: ImageSet, path):
    """Write an ImageSet's bytes to an IDX file (inverse of
    load_idx_images)."""
    _write_idx(path, IMAGE_MAGIC, images.pixels)


def write_idx_labels(labels: LabelSet, path):
    _write_idx(path, LABEL_MAGIC, labels.labels.astype(np.uint8))


def make_batches(images: ImageSet, labels: LabelSet,
                 batch_size=DEFAULT_DIMS.batch):
    """Slice a dataset into fixed-size mini-batches in dataset order.

    No shuffling, ever: epoch k sees exactly the same batch sequence as
    epoch 0. A final group smaller than batch_size is dropped because every
    downstream array is statically sized to the batch. Each batch's
    out_actual is a row slice, C-contiguous, of one one-hot array of every
    batched label.
    """
    if images.count != labels.count:
        raise ValueError(f"image/label count mismatch: "
                         f"{images.count} images vs {labels.count} labels")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = images.count // batch_size * batch_size
    one_hot = np.zeros((n, labels.num_classes), dtype=np.float64)
    one_hot[np.arange(n), labels.labels[:n]] = 1.0
    return [MiniBatch(images.pixels[lo:lo + batch_size],
                      one_hot[lo:lo + batch_size], b)
            for b, lo in enumerate(range(0, n, batch_size))]


def _compiled_raw_bytes(bit_generator, pixels):
    """Whether the compiled kernel drew pixels' len // 2 raw words of a
    PCG64 bit_generator, bytes 3 and 7 of each, and advanced it past them;
    from a generator with no buffered half word, such as a new one, that
    is the state random_raw leaves. False, with nothing drawn, without the
    kernels, for another bit generator, or from a build without 128-bit
    integers."""
    lib = native.kernels()
    if lib is None or type(bit_generator) is not np.random.PCG64:
        return False
    state = bit_generator.state["state"]
    halves = [half for value in (state["state"], state["inc"])
              for half in (value >> 64, value & 0xFFFFFFFFFFFFFFFF)]
    if not lib.pcg64_pixels(*halves, pixels):
        return False
    bit_generator.advance(pixels.size // 2)
    return True


def synthetic_dataset(seed, n, rows=DEFAULT_DIMS.image_x,
                      cols=DEFAULT_DIMS.image_y,
                      num_classes=DEFAULT_DIMS.classes):
    """Deterministic random dataset for fixtures: uint8 pixels, byte k
    meaning the pixel value k / 255.0, and labels uniform over the classes.

    The pixels are the values of rng.integers(0, 256, size=(n, rows, cols)),
    as uint8, taken straight from PCG64's raw words. For int64 output,
    integers() draws each value from one 32-bit half of a 64-bit word, low
    half first, by Lemire's method; a range of 256 never rejects, and the
    value is the half's top byte, byte 3 or 7 of the little-endian word. The
    compiled kernel native's pcg64_pixels steps the generator's state in C
    and stores those bytes straight into the pixels, then the generator is
    advanced past its words; without it, or for a generator that is not
    PCG64, the words come from random_raw, the reference. An odd count
    draws its last pixel through integers() itself, which leaves the word's
    high half buffered in the generator where integers() would have left
    it, so the labels' draw gives the labels integers() alone would give."""
    for name, value, least in (("n", n, 0), ("rows", rows, 0),
                               ("cols", cols, 0),
                               ("num_classes", num_classes, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    rng = np.random.default_rng(seed)
    count = n * rows * cols
    words = count // 2
    pixels = np.empty(count, dtype=np.uint8)
    if not _compiled_raw_bytes(rng.bit_generator, pixels):
        pixels[:2 * words] = (rng.bit_generator.random_raw(words)
                              .astype("<u8", copy=False).view(np.uint8)[3::4])
    if count % 2:
        pixels[-1] = rng.integers(0, 256)
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    return (ImageSet(pixels.reshape(n, rows, cols)),
            LabelSet(labels, num_classes))
