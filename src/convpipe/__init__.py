"""convpipe: split CNN training with a modeled accelerator stage.

The host side computes a fixed-kernel convolution + pooling; the
accelerator side (functionally emulated, timing modeled in cycles) runs
the dense layers, the loss, and the optimizer. Epochs can run
sequentially or with the two sides overlapped.
"""

from .accelmodel import (LoopNestSpec, ResourceBudget, check_port_conflicts,
                         estimate_pass, model_transfer, schedule)
from .adam import AdamHyper, AdamState, adam_update, apply_batch_update, correction_factors
from .dataio import (ImageSet, LabelSet, MiniBatch, load_idx_images,
                     load_idx_labels, make_batches, synthetic_dataset)
from .dims import DEFAULT_DIMS, ModelDims
from .hoststage import SHARPEN_KERNEL, ConvBatch, conv2d_valid, host_stage, maxpool2x2
from .neuralcore import (ForwardTrace, Gradients, ModelState, Weights,
                         accel_kernel, accuracy, backward, fc_forward,
                         init_weights, out_forward)
from .pipeline import RunConfig, run_epoch, run_training, speedup_summary

__version__ = "0.1.0"
