"""Model size constants shared by every stage of the system."""

from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class ModelDims:
    """Array sizes for the whole train/infer path.

    Defaults are the validated 28x28 / 10-class configuration; other sizes are
    accepted as long as the conv output has even sides (2x2 pooling needs it).
    """

    batch: int = 32
    image_x: int = 28
    image_y: int = 28
    kernel_x: int = 3
    kernel_y: int = 3
    # length of one flattened pooled feature map (169 at the defaults),
    # derived from the image and kernel dims
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
