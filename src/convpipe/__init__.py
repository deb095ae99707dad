"""convpipe: split CNN training with a modeled accelerator stage.

The host side computes a fixed-kernel convolution + pooling; the
accelerator side (functionally emulated, timing modeled in cycles) runs
the dense layers, the loss, and the optimizer. Epochs can run
sequentially or with the two sides overlapped.
"""

__version__ = "0.1.0"
