"""IDX file loading, synthetic fixtures, and mini-batch assembly.

IDX is the classic big-endian binary format: u32 magic, u32 count,
(for images) u32 rows, u32 cols, then raw unsigned bytes. Magics are
0x00000803 for image files and 0x00000801 for label files. Files may be
plain or gzip-compressed; compression is detected from the 1f 8b prefix.
"""

import gzip
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dims import DEFAULT_DIMS

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file; carries the byte offset where parsing failed."""

    def __init__(self, message, path, offset):
        super().__init__(f"{path}: {message} (at byte offset {offset})")
        self.path = str(path)
        self.offset = offset


@dataclass
class ImageSet:
    """Pixel data scaled to [0, 1], shape (count, rows, cols) float64."""

    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.ndim != 3:
            raise ValueError(f"pixels must be 3-d, got shape {self.pixels.shape}")
        # NaN compares false with everything, so the range check cannot see it
        if not np.isfinite(self.pixels).all():
            raise ValueError("pixel values must be finite (NaN or inf found)")
        if self.pixels.size and (self.pixels.min() < 0.0 or self.pixels.max() > 1.0):
            raise ValueError("pixel values out of [0, 1]")

    @property
    def count(self):
        return self.pixels.shape[0]

    @property
    def rows(self):
        return self.pixels.shape[1]

    @property
    def cols(self):
        return self.pixels.shape[2]


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

    v_raw is (batch, rows, cols) float64 in [0, 1]; out_actual is
    (batch, classes) one-hot float64; index is the batch ordinal within
    the epoch.
    """

    v_raw: np.ndarray
    out_actual: np.ndarray
    index: int


def _read_exact(f, n, path, what):
    data = f.read(n)
    if len(data) != n:
        raise IdxFormatError(f"truncated file while reading {what}: "
                             f"wanted {n} bytes, got {len(data)}",
                             path, f.tell() - len(data))
    return data


def _open_idx(path):
    with open(path, "rb") as probe:
        head = probe.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_idx_images(path, expected_rows=DEFAULT_DIMS.image_x,
                    expected_cols=DEFAULT_DIMS.image_y):
    """Load an IDX image file into an ImageSet with pixels scaled by 1/255.

    Pass expected_rows/expected_cols=None to accept any geometry.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"image file not found: {path}")
    with _open_idx(path) as f:
        magic = int.from_bytes(_read_exact(f, 4, path, "magic"), "big")
        if magic != IMAGE_MAGIC:
            raise IdxFormatError(
                f"bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}",
                path, 0)
        count = int.from_bytes(_read_exact(f, 4, path, "count"), "big")
        rows = int.from_bytes(_read_exact(f, 4, path, "rows"), "big")
        cols = int.from_bytes(_read_exact(f, 4, path, "cols"), "big")
        if expected_rows is not None and rows != expected_rows:
            raise IdxFormatError(f"row count {rows} != expected {expected_rows}",
                                 path, 8)
        if expected_cols is not None and cols != expected_cols:
            raise IdxFormatError(f"col count {cols} != expected {expected_cols}",
                                 path, 12)
        data = _read_exact(f, count * rows * cols, path, "pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8).astype(np.float64) / 255.0
    return ImageSet(pixels.reshape(count, rows, cols))


def load_idx_labels(path, num_classes=DEFAULT_DIMS.classes):
    """Load an IDX label file into a LabelSet, checking the class range."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"label file not found: {path}")
    with _open_idx(path) as f:
        magic = int.from_bytes(_read_exact(f, 4, path, "magic"), "big")
        if magic != LABEL_MAGIC:
            raise IdxFormatError(
                f"bad label magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}",
                path, 0)
        count = int.from_bytes(_read_exact(f, 4, path, "count"), "big")
        data = _read_exact(f, count, path, "label data")
    labels = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    if labels.size and labels.max() >= num_classes:
        bad = int(np.argmax(labels >= num_classes))
        raise IdxFormatError(
            f"corrupt label {labels[bad]} >= {num_classes}", path, 8 + bad)
    return LabelSet(labels, num_classes)


def write_idx_images(images: ImageSet, path):
    """Write an ImageSet back to IDX bytes (inverse of load_idx_images).

    Pixels are quantized with round(p * 255); sets loaded from IDX files
    round-trip exactly.
    """
    data = np.rint(images.pixels * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(IMAGE_MAGIC.to_bytes(4, "big"))
        f.write(images.count.to_bytes(4, "big"))
        f.write(images.rows.to_bytes(4, "big"))
        f.write(images.cols.to_bytes(4, "big"))
        f.write(data.tobytes())


def write_idx_labels(labels: LabelSet, path):
    with open(path, "wb") as f:
        f.write(LABEL_MAGIC.to_bytes(4, "big"))
        f.write(labels.count.to_bytes(4, "big"))
        f.write(labels.labels.astype(np.uint8).tobytes())


def make_batches(images: ImageSet, labels: LabelSet,
                 batch_size=DEFAULT_DIMS.batch):
    """Slice a dataset into fixed-size mini-batches in dataset order.

    No shuffling, ever: epoch k sees exactly the same batch sequence as
    epoch 0. A final group smaller than batch_size is dropped because every
    downstream array is statically sized to the batch.
    """
    if images.count != labels.count:
        raise ValueError(f"image/label count mismatch: "
                         f"{images.count} images vs {labels.count} labels")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n_batches = images.count // batch_size
    batches = []
    for b in range(n_batches):
        lo = b * batch_size
        hi = lo + batch_size
        one_hot = np.zeros((batch_size, labels.num_classes), dtype=np.float64)
        one_hot[np.arange(batch_size), labels.labels[lo:hi]] = 1.0
        batches.append(MiniBatch(images.pixels[lo:hi], one_hot, b))
    return batches


def synthetic_dataset(seed, n, rows=DEFAULT_DIMS.image_x,
                      cols=DEFAULT_DIMS.image_y,
                      num_classes=DEFAULT_DIMS.classes):
    """Deterministic random dataset for fixtures: byte-quantized pixels in
    [0, 1] and labels uniform over the classes."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, rows, cols)).astype(np.float64) / 255.0
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    return ImageSet(pixels), LabelSet(labels, num_classes)
