"""Host-side stage: fixed-kernel 2-D convolution, 2x2 max-pool, flatten.

The convolution kernel is SHARPEN_KERNEL, a constant sharpening filter; it
is never learned. All functions here are pure, so the pipelined runner can
safely overlap this stage with the accelerator stage.

host_stage takes uint8 images only (dataio's ImageSet and MiniBatch hold
bytes, byte k meaning the pixel value k / 255.0) and runs all three steps
as one compiled C pass from the native extension module, which has
SHARPEN_KERNEL's taps compiled in. It writes each pooled value straight
into its flattened row; the call takes the batch's array itself, and its
scratch is allocated in C. Each image is scaled there, one at a time,
through a table of the 256 values into the scratch of the chunk that runs
it; the numpy fallback computes v_raw / 255.0, the same correctly rounded
divisions. No sum is NaN (bytes in [0, 1] times finite taps), so the pool
needs no NaN rule. The call releases the GIL while it runs. A batch of at
least 100k tap multiply-adds (32 images of the default 28x28 at 3x3 are
194,688) runs in chunks of 4 images. In sequential mode the call shares
them with the kernels' helper thread, when that thread is free. In
pipelined mode the producer's thread is marked (native's set_background):
its call queues the chunks for the helper and sleeps, and the helper runs
them between the accelerator thread's products, on the other core. Each
image is computed by one thread either way, with the same bytes.
conv2d_valid and maxpool2x2 are the numpy reference the tests compare it
against, byte for byte, and the fallback host_stage runs when
native.kernels() is unavailable or the batch's array is not C-contiguous.
"""

from dataclasses import dataclass

import numpy as np

from . import native
from .dataio import MiniBatch
from .dims import SHARPEN_KERNEL


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


def host_stage(batch: MiniBatch) -> ConvBatch:
    """conv -> pool -> row-major flatten for every image in the batch.

    v_raw is (n, rows, cols) uint8 bytes, byte k meaning the pixel value
    k / 255.0. v is (n, pool_map), bit-identical to
    maxpool2x2(conv2d_valid(v_raw / 255.0)) flattened per image. The
    compiled pass takes a C-contiguous v_raw as it is and scales the bytes
    itself, one image at a time; any other layout runs that numpy
    reference.
    """
    images = np.asarray(batch.v_raw)
    if images.dtype != np.uint8:
        raise ValueError(f"v_raw must be uint8, got {images.dtype}")
    if images.ndim != 3:
        raise ValueError(f"v_raw must be 3-d (batch, rows, cols), "
                         f"got shape {images.shape}")
    (n, h, w), (kh, kw) = images.shape, SHARPEN_KERNEL.shape
    if h < kh or w < kw:
        raise ValueError(f"image {h}x{w} smaller than kernel {kh}x{kw}")
    oh, ow = h - kh + 1, w - kw + 1
    if oh % 2 or ow % 2:
        raise ValueError(f"feature dims {oh}x{ow} must be even for 2x2 pooling")
    lib = native.kernels()
    if lib is not None:
        v = np.empty((n, oh * ow // 4), dtype=np.float64)
        try:
            lib.host_stage(images, v)
            return ConvBatch(v, batch.out_actual, batch.index)
        except BufferError:  # an array it cannot take; nothing was written
            pass
    v = maxpool2x2(conv2d_valid(images / 255.0)).reshape(n, oh * ow // 4)
    return ConvBatch(v, batch.out_actual, batch.index)
