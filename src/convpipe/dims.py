"""Model size constants shared by every stage of the system."""

from dataclasses import dataclass, field, fields

import numpy as np

# The host stage's fixed convolution kernel, a center-heavy sharpening
# filter. Entries sum to 1, and the pattern is symmetric under 180-degree
# rotation, so correlation vs. convolution is numerically indistinguishable
# here (we use correlation, no flip). It is never learned, so its shape is a
# constant of the design, not a parameter.
SHARPEN_KERNEL = np.array([[0.0, -1.0, 0.0],
                           [-1.0, 5.0, -1.0],
                           [0.0, -1.0, 0.0]])
SHARPEN_KERNEL.setflags(write=False)


@dataclass(frozen=True)
class ModelDims:
    """Array sizes for the whole train/infer path.

    Defaults are the validated 28x28 / 10-class configuration; other sizes are
    accepted as long as the conv output has even sides (2x2 pooling needs it).
    The kernel dims are SHARPEN_KERNEL's shape and pool_map follows from
    them and the image dims; none of the three can be set.
    """

    batch: int = 32
    image_x: int = 28
    image_y: int = 28
    kernel_x: int = field(init=False, default=SHARPEN_KERNEL.shape[0])
    kernel_y: int = field(init=False, default=SHARPEN_KERNEL.shape[1])
    # length of one flattened pooled feature map (169 at the defaults)
    pool_map: int = field(init=False)
    hidden: int = 128
    classes: int = 10

    def __post_init__(self):
        for f in fields(self):
            if f.init and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be positive, got {getattr(self, f.name)}")
        if self.kernel_x > self.image_x or self.kernel_y > self.image_y:
            raise ValueError("kernel larger than image")
        if self.conv_x % 2 or self.conv_y % 2:
            raise ValueError(
                f"conv output {self.conv_x}x{self.conv_y} not even, cannot 2x2-pool")
        object.__setattr__(self, "pool_map", self.pool_x * self.pool_y)

    @property
    def conv_x(self) -> int:
        return self.image_x - self.kernel_x + 1

    @property
    def conv_y(self) -> int:
        return self.image_y - self.kernel_y + 1

    @property
    def pool_x(self) -> int:
        return self.conv_x // 2

    @property
    def pool_y(self) -> int:
        return self.conv_y // 2


DEFAULT_DIMS = ModelDims()
