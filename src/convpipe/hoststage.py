"""Host-side stage: fixed-kernel 2-D convolution, 2x2 max-pool, flatten.

The convolution kernel is a constant sharpening filter; it is never
learned. All functions here are pure, so the pipelined runner can safely
overlap this stage with the accelerator stage.

host_stage runs all three steps as one compiled C pass from the native
module, writing each pooled value straight into its flattened row. It is
called through ctypes, which releases the GIL while it runs, so in
pipelined mode the producer's host stage and the accelerator thread's
matmuls run at the same time. conv2d_valid and maxpool2x2 are the numpy
reference the tests compare it against, byte for byte, and the fallback
host_stage runs when native.kernels() is unavailable.
"""

from dataclasses import dataclass

import numpy as np

from . import native
from .dataio import MiniBatch

# Center-heavy sharpening filter. Entries sum to 1, and the pattern is
# symmetric under 180-degree rotation, so correlation vs. convolution is
# numerically indistinguishable here (we use correlation, no flip).
SHARPEN_KERNEL = np.array([[0.0, -1.0, 0.0],
                           [-1.0, 5.0, -1.0],
                           [0.0, -1.0, 0.0]])
SHARPEN_KERNEL.setflags(write=False)


@dataclass
class ConvBatch:
    """Flattened pooled features: v is (batch, pool_map) float64.

    out_actual and index are carried through from the MiniBatch unchanged.
    """

    v: np.ndarray
    out_actual: np.ndarray
    index: int


def conv2d_valid(image, kernel=SHARPEN_KERNEL):
    """Valid cross-correlation, stride 1, no padding.

    image may be a single (H, W) array or a stack (N, H, W); the kernel
    window accumulates in row-major kernel order, matching the scalar
    triple loop bit for bit.
    """
    image = np.asarray(image, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    kh, kw = kernel.shape
    if image.ndim == 2:
        return conv2d_valid(image[None], kernel)[0]
    if image.ndim != 3:
        raise ValueError(f"image must be 2-d or 3-d, got shape {image.shape}")
    n, h, w = image.shape
    if h < kh or w < kw:
        raise ValueError(f"image {h}x{w} smaller than kernel {kh}x{kw}")
    oh, ow = h - kh + 1, w - kw + 1
    out = np.zeros((n, oh, ow), dtype=np.float64)
    for a in range(kh):
        for b in range(kw):
            out += kernel[a, b] * image[:, a:a + oh, b:b + ow]
    return out


def maxpool2x2(feature):
    """Non-overlapping 2x2 max-pool; requires even spatial dims."""
    feature = np.asarray(feature, dtype=np.float64)
    if feature.ndim == 2:
        return maxpool2x2(feature[None])[0]
    if feature.ndim != 3:
        raise ValueError(f"feature must be 2-d or 3-d, got shape {feature.shape}")
    n, h, w = feature.shape
    if h % 2 or w % 2:
        raise ValueError(f"feature dims {h}x{w} must be even for 2x2 pooling")
    return feature.reshape(n, h // 2, 2, w // 2, 2).max(axis=(2, 4))


def host_stage(batch: MiniBatch, kernel=SHARPEN_KERNEL) -> ConvBatch:
    """conv -> pool -> row-major flatten for every image in the batch.

    v_raw is (n, rows, cols) and may be any strided view; v is
    (n, pool_map), bit-identical to maxpool2x2(conv2d_valid(v_raw, kernel))
    flattened per image.
    """
    images = np.require(batch.v_raw, np.float64, ("A",))
    kernel = np.require(kernel, np.float64, ("C", "A"))
    if images.ndim != 3:
        raise ValueError(f"v_raw must be 3-d (batch, rows, cols), "
                         f"got shape {images.shape}")
    (n, h, w), (kh, kw) = images.shape, kernel.shape
    if h < kh or w < kw:
        raise ValueError(f"image {h}x{w} smaller than kernel {kh}x{kw}")
    oh, ow = h - kh + 1, w - kw + 1
    if oh % 2 or ow % 2:
        raise ValueError(f"feature dims {oh}x{ow} must be even for 2x2 pooling")
    lib = native.kernels()
    if lib is None:
        v = maxpool2x2(conv2d_valid(images, kernel)).reshape(n, oh * ow // 4)
    else:
        v = np.empty((n, oh * ow // 4), dtype=np.float64)
        rows = np.empty(2 * ow, dtype=np.float64)  # two correlation rows
        lib.host_stage(n, h, w, native.address(images),
                       *(s // images.itemsize for s in images.strides),
                       native.address(kernel), kh, kw, native.address(rows),
                       native.address(v))
    return ConvBatch(v, batch.out_actual, batch.index)
