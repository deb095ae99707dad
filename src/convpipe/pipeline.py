"""Epoch orchestration in sequential and system-level-pipelined modes.

Training epochs, test epochs and `convpipe test` share run_epoch's one loop
over a stream of host-stage results. The modes differ only in where that
stream is produced (inline, or on a producer thread that runs up to
_HIGH_WATER batches ahead), so their numeric results are bit-identical. The
producer marks its thread for the compiled kernels: its host stage queues
for the kernels' helper thread, which runs it on the other core whenever
the consumer's kernels leave it free, while the producer sleeps. Each epoch
also books an analytic latency model: measured host wall-times are
machine-dependent, and in pipelined mode include the producer's wait for
the helper; the accelerator side is modeled in cycles. The model keeps the
paper's depth-1 hand-off buffer whatever the thread's lead.
"""

import queue
import threading
import time
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import checkpoint as ckpt_mod
from . import native
from .accelmodel import (PassEstimate, ResourceBudget, cycles_to_seconds,
                         estimate_pass)
from .adam import AdamHyper
from .dataio import load_idx_images, load_idx_labels, make_batches, synthetic_dataset
from .dims import DEFAULT_DIMS, ModelDims
from .hoststage import host_stage
from .neuralcore import ModelState, accel_kernel, accuracy

SEQUENTIAL = "sequential"
PIPELINED = "pipelined"
MODES = (SEQUENTIAL, PIPELINED)


def sequential_seconds(host_times, accel_times):
    """Total when each stage waits for the other: plain sum."""
    return sum(host_times) + sum(accel_times)


def two_stage_pipeline_seconds(host_times, accel_times):
    """Completion time of a two-stage pipeline with a depth-1 hand-off buffer.

    The producer starts batch k+1 as soon as batch k is in the buffer; the
    buffer accepts a batch once the consumer has taken the previous one.
    Reduces to constant_stage_seconds' form for constant stage times.
    """
    if len(host_times) != len(accel_times):
        raise ValueError("per-batch time lists differ in length")
    if not host_times:
        return 0.0
    host_start = 0.0
    prev_take = prev_done = 0.0
    for k, (h, a) in enumerate(zip(host_times, accel_times)):
        ready = host_start + h
        place = ready if k == 0 else max(ready, prev_take)
        take = max(place, prev_done)
        done = take + a
        host_start = place  # producer moves on once the batch is buffered
        prev_take, prev_done = take, done
    return prev_done


def constant_stage_seconds(n, host, accel):
    """sequential_seconds and two_stage_pipeline_seconds of n batches that
    each take `host` and `accel` seconds, in closed form, so any n is cheap."""
    return n * (host + accel), n * max(host, accel) + min(host, accel)


@dataclass
class EpochResult:
    n_batches: int
    mean_loss: float
    accuracy: float
    host_seconds: float            # measured, sum over batches
    accel_cycles: int              # modeled, sum over batches
    accel_seconds: float           # accel_cycles at the budget clock
    sequential_seconds: float      # analytic: host + accel
    pipelined_seconds: float       # analytic: two-stage overlap
    wall_seconds: float            # actually elapsed
    estimate: PassEstimate         # the modeled pass of each batch


def _host_stream(batches):
    """(ConvBatch, measured host seconds) of each batch, in order."""
    for batch in batches:
        t0 = time.perf_counter()
        conv = host_stage(batch)
        yield conv, time.perf_counter() - t0


_DONE = ("done", None, 0.0)  # the producer's end marker

# The producer parks once _HIGH_WATER batches wait and resumes when the
# consumer has taken the queue down to _LOW_WATER, so it is woken a few
# times per epoch instead of once per batch; a waiting batch holds ~43 KB.
_HIGH_WATER = 32
_LOW_WATER = 8


def _prefetched(stream):
    """stream's items, each produced on a thread that runs up to _HIGH_WATER
    items ahead of the consumer and refills in bursts. Closing the generator
    stops and joins the thread."""
    q = queue.Queue()
    stop = threading.Event()
    refill = threading.Event()  # set by the consumer at the low-water mark

    def produce():
        try:
            lib = native.kernels()
            if lib is not None:
                # this thread's split calls run on the kernels' helper only
                # when the consumer's calls leave it free
                lib.set_background(True)
            for conv, host_dt in stream:
                q.put(("batch", conv, host_dt))
                if q.qsize() >= _HIGH_WATER:
                    # clear before each check, so a set after it ends the wait
                    refill.clear()
                    while q.qsize() > _LOW_WATER and not stop.is_set():
                        refill.wait()
                        refill.clear()
                if stop.is_set():
                    break
            q.put(_DONE)
        except BaseException as exc:  # re-raised in the consumer thread
            q.put(("error", exc, 0.0))

    worker = threading.Thread(target=produce, daemon=True)
    worker.start()
    try:
        for tag, payload, host_dt in iter(q.get, _DONE):
            if tag == "error":
                raise payload
            if q.qsize() <= _LOW_WATER:
                refill.set()
            yield payload, host_dt
    finally:
        # stop before refill: a parked producer wakes and sees stop; the
        # queue is unbounded, so its last put cannot block
        stop.set()
        refill.set()
        worker.join()


def run_epoch(batches, state: ModelState, mode, is_training,
              budget: ResourceBudget, dims: ModelDims = DEFAULT_DIMS):
    """Run every batch through host stage + accelerator kernel, in order.

    Weight updates happen in batch order in both modes; they differ only in
    where the host stage runs.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not batches:
        raise ValueError("empty batch sequence")

    estimate = estimate_pass("training" if is_training else "inference",
                             budget, dims)
    accel_secs = cycles_to_seconds(estimate.total_cycles, budget)

    losses = []
    accs = []
    host_times = []  # measured host seconds of each batch
    wall_start = time.perf_counter()
    stream = _host_stream(batches)
    if mode == PIPELINED:
        stream = _prefetched(stream)
    with closing(stream):
        for conv, host_dt in stream:
            trace, state = accel_kernel(conv, state, is_training)
            losses.append(trace.loss)
            accs.append(accuracy(trace.h2, conv.out_actual))
            host_times.append(host_dt)

    wall = time.perf_counter() - wall_start
    n = len(host_times)
    accel_times = [accel_secs] * n
    return state, EpochResult(
        n_batches=n,
        mean_loss=sum(losses) / len(losses),
        accuracy=sum(accs) / len(accs),
        host_seconds=sum(host_times),
        accel_cycles=estimate.total_cycles * n,
        accel_seconds=accel_secs * n,
        sequential_seconds=sequential_seconds(host_times, accel_times),
        pipelined_seconds=two_stage_pipeline_seconds(host_times, accel_times),
        wall_seconds=wall,
        estimate=estimate,
    )


@dataclass
class RunConfig:
    """Everything a run needs; defaults reproduce the reference setup."""

    # metadata "min": the lowest value allowed; "key": the field's name in
    # reports and config files
    data_dir: str | None = None   # directory with IDX files; None -> synthetic
    # used only when data_dir is None
    synthetic_train: int = field(default=2048, metadata={"min": 0})
    synthetic_test: int = field(default=512, metadata={"min": 0})
    epochs: int = field(default=1, metadata={"min": 0})
    batch_size: int = field(init=False)  # derived: dims.batch
    seed: int = field(default=0, metadata={"min": 0})
    mode: str = PIPELINED
    dims: ModelDims = DEFAULT_DIMS
    hyper: AdamHyper = field(default_factory=AdamHyper, metadata={"key": "adam"})
    budget: ResourceBudget = field(default_factory=ResourceBudget)
    checkpoint_path: str | None = None
    report_path: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.data_dir == "":  # Path("") would be the working directory
            raise ValueError("data_dir must name a directory, got \"\"")
        self.batch_size = self.dims.batch
        for f in fields(self):
            low, value = f.metadata.get("min"), getattr(self, f.name)
            if low is not None and value < low:
                raise ValueError(f"{f.name} must be >= {low}, got {value}")

    def as_dict(self):
        """The report's config section: every field under its key."""
        return {f.metadata.get("key", f.name): value
                for f, value in zip(fields(self), asdict(self).values())}


_IDX_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _find_idx(data_dir, stem):
    for name in (stem, stem + ".gz"):
        path = Path(data_dir) / name
        if path.exists():
            return path
    raise FileNotFoundError(
        f"{stem}[.gz] not found in data dir {data_dir}")


def _split_batches(cfg: RunConfig, split):
    """(batches, image count, image file or "synthetic") of one split,
    "train" or "test", from IDX files or the synthetic fixture."""
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    dims = cfg.dims
    if cfg.data_dir is not None:
        if not Path(cfg.data_dir).is_dir():
            if Path(cfg.data_dir).exists():
                raise NotADirectoryError(
                    f"data dir is not a directory: {cfg.data_dir}")
            raise FileNotFoundError(f"data dir does not exist: {cfg.data_dir}")
        source = _find_idx(cfg.data_dir, _IDX_NAMES[f"{split}_images"])
        images = load_idx_images(source, dims.image_x, dims.image_y)
        label_path = _find_idx(cfg.data_dir, _IDX_NAMES[f"{split}_labels"])
        labels = load_idx_labels(label_path, dims.classes)
        if images.count != labels.count:
            raise ValueError(f"image/label count mismatch: {images.count} "
                             f"images in {source} vs {labels.count} labels "
                             f"in {label_path}")
    else:
        seed, count = ((cfg.seed + 1, cfg.synthetic_train) if split == "train"
                       else (cfg.seed + 2, cfg.synthetic_test))
        images, labels = synthetic_dataset(seed, count, dims.image_x,
                                           dims.image_y, dims.classes)
        source = "synthetic"
    return make_batches(images, labels, cfg.batch_size), images.count, source


def load_split(cfg: RunConfig, split):
    """The batches of one split, "train" or "test", from IDX files or the
    synthetic fixture; ValueError if it holds less than one batch."""
    batches, count, source = _split_batches(cfg, split)
    if not batches:
        raise ValueError(f"{split} split ({source}) has {count} images, "
                         f"fewer than one batch of {cfg.batch_size}")
    return batches


def load_datasets(cfg: RunConfig):
    """(train_batches, test_batches) from IDX files or the synthetic fixture;
    unlike load_split, a split too small for one batch is left empty."""
    return _split_batches(cfg, "train")[0], _split_batches(cfg, "test")[0]


@dataclass
class RunReport:
    config: dict
    epochs: list
    latency_model: dict
    schedule_reports: list

    def as_dict(self):
        return asdict(self)


# (report key after the train_ or test_ prefix, EpochResult field); a test
# epoch's entry leaves out the last, the wall time
_EPOCH_KEYS = (("loss", "mean_loss"), ("accuracy", "accuracy"),
               ("host_seconds", "host_seconds"),
               ("accel_seconds_modeled", "accel_seconds"),
               ("sequential_seconds", "sequential_seconds"),
               ("pipelined_seconds", "pipelined_seconds"),
               ("wall_seconds", "wall_seconds"))


def _epoch_entry(epoch, train: EpochResult, test: EpochResult):
    entry = {"epoch": epoch}
    for prefix, res, keys in (("train", train, _EPOCH_KEYS),
                              ("test", test, _EPOCH_KEYS[:-1])):
        if res is not None:
            entry.update({f"{prefix}_{key}": getattr(res, name)
                          for key, name in keys})
    return entry


def run_training(cfg: RunConfig) -> RunReport:
    """Train for the configured epoch count, scoring the test set after each
    epoch (test inference is always booked sequentially). Saves a checkpoint
    when a path is configured."""
    # both splits are checked before any work; epochs=0 needs no training split
    train_batches = load_split(cfg, "train") if cfg.epochs else []
    test_batches = load_split(cfg, "test")
    state = ModelState.initial(cfg.seed, cfg.dims, cfg.hyper)

    entries = []
    train_totals = {"host_seconds": 0.0, "accel_seconds": 0.0,
                    "sequential_seconds": 0.0, "pipelined_seconds": 0.0}
    if cfg.epochs == 0:
        state, test_res = run_epoch(test_batches, state, SEQUENTIAL, False,
                                    cfg.budget, cfg.dims)
        entries.append(_epoch_entry(0, None, test_res))
    for epoch in range(1, cfg.epochs + 1):
        state, train_res = run_epoch(train_batches, state, cfg.mode, True,
                                     cfg.budget, cfg.dims)
        state, test_res = run_epoch(test_batches, state, SEQUENTIAL, False,
                                    cfg.budget, cfg.dims)
        entries.append(_epoch_entry(epoch, train_res, test_res))
        for key in train_totals:
            train_totals[key] += getattr(train_res, key)

    train_est = estimate_pass("training", cfg.budget, cfg.dims)
    infer_est = estimate_pass("inference", cfg.budget, cfg.dims)
    latency_model = {
        "clock_ns": cfg.budget.clock_ns,
        "per_batch_cycles_training": train_est.total_cycles,
        "per_batch_cycles_inference": infer_est.total_cycles,
        "train_totals": train_totals,
        "speedup": speedup_summary(train_totals),
    }
    report = RunReport(
        config=cfg.as_dict(),
        epochs=entries,
        latency_model=latency_model,
        schedule_reports=[r.as_dict() for r in train_est.reports],
    )
    if cfg.checkpoint_path:
        ckpt_mod.save_checkpoint(cfg.checkpoint_path, state)
    return report


def speedup_summary(totals):
    """Derived ratios for a phase's latency totals; zero-safe."""
    host = totals.get("host_seconds", 0.0)
    accel = totals.get("accel_seconds", 0.0)
    seq = totals.get("sequential_seconds", 0.0)
    pipe = totals.get("pipelined_seconds", 0.0)
    return {
        "sequential_over_pipelined": (seq / pipe) if pipe > 0 else None,
        "host_over_accel": (host / accel) if accel > 0 else None,
        "bottleneck": ("host" if host >= accel else "accelerator")
                      if (host or accel) else None,
    }
