"""Epoch orchestration in sequential and system-level-pipelined modes.

Both modes run the identical batch sequence through host_stage and the
accelerator kernel in order, so the numeric results are bit-identical; the
modes differ only in overlap. Pipelined mode really overlaps the two stages
(producer thread + depth-1 queue) and additionally books an analytic
latency model, since measured host wall-times are machine-dependent while
the accelerator side is modeled in cycles.
"""

import queue
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import checkpoint as ckpt_mod
from .accelmodel import ResourceBudget, cycles_to_seconds, estimate_pass
from .adam import AdamHyper
from .dataio import load_idx_images, load_idx_labels, make_batches, synthetic_dataset
from .dims import DEFAULT_DIMS, ModelDims
from .hoststage import SHARPEN_KERNEL, host_stage
from .neuralcore import ModelState, accel_kernel, accuracy

SEQUENTIAL = "sequential"
PIPELINED = "pipelined"
MODES = (SEQUENTIAL, PIPELINED)


@dataclass
class StageLatency:
    """Per-batch stage costs: measured host seconds, modeled accel cycles."""

    index: int
    host_seconds: float
    accel_cycles: int


def sequential_seconds(host_times, accel_times):
    """Total when each stage waits for the other: plain sum."""
    return sum(host_times) + sum(accel_times)


def two_stage_pipeline_seconds(host_times, accel_times):
    """Completion time of a two-stage pipeline with a depth-1 hand-off buffer.

    The producer starts batch k+1 as soon as batch k is in the buffer; the
    buffer accepts a batch once the consumer has taken the previous one.
    Reduces to n*max(h,a) + min(h,a) for constant stage times.
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
    mode: str
    stage_latencies: list = field(default_factory=list)


def _host_worker(batches, out_q, stop):
    try:
        for batch in batches:
            if stop.is_set():
                break
            t0 = time.perf_counter()
            conv = host_stage(batch)
            dt = time.perf_counter() - t0
            out_q.put(("batch", conv, dt))
        out_q.put(("done", None, 0.0))
    except BaseException as exc:  # surface in the consumer thread
        out_q.put(("error", exc, 0.0))


def run_epoch(batches, state: ModelState, mode, is_training,
              budget: ResourceBudget, dims: ModelDims = DEFAULT_DIMS):
    """Run every batch through host stage + accelerator kernel, in order.

    Weight updates happen in batch order in both modes; only the latency
    accounting and the real overlap differ.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not batches:
        raise ValueError("empty batch sequence")

    per_batch_cycles = estimate_pass(
        "training" if is_training else "inference", budget, dims).total_cycles
    accel_secs = cycles_to_seconds(per_batch_cycles, budget)

    losses = []
    accs = []
    latencies = []
    wall_start = time.perf_counter()

    if mode == SEQUENTIAL:
        for batch in batches:
            t0 = time.perf_counter()
            conv = host_stage(batch)
            host_dt = time.perf_counter() - t0
            trace, state = accel_kernel(conv, state, is_training)
            losses.append(trace.loss)
            accs.append(accuracy(trace.h2, conv.out_actual))
            latencies.append(StageLatency(batch.index, host_dt, per_batch_cycles))
    else:
        q = queue.Queue(maxsize=1)
        stop = threading.Event()
        worker = threading.Thread(target=_host_worker, args=(batches, q, stop),
                                  daemon=True)
        worker.start()
        try:
            while True:
                tag, payload, host_dt = q.get()
                if tag == "done":
                    break
                if tag == "error":
                    raise payload
                conv = payload
                trace, state = accel_kernel(conv, state, is_training)
                losses.append(trace.loss)
                accs.append(accuracy(trace.h2, conv.out_actual))
                latencies.append(StageLatency(conv.index, host_dt,
                                              per_batch_cycles))
        finally:
            # tell the producer to wind down, and keep draining so one
            # blocked on the full queue can finish
            stop.set()
            while worker.is_alive():
                try:
                    q.get_nowait()
                except queue.Empty:
                    pass
                worker.join(timeout=0.005)

    wall = time.perf_counter() - wall_start
    host_times = [l.host_seconds for l in latencies]
    accel_times = [accel_secs] * len(latencies)
    result = EpochResult(
        n_batches=len(latencies),
        mean_loss=sum(losses) / len(losses),
        accuracy=sum(accs) / len(accs),
        host_seconds=sum(host_times),
        accel_cycles=per_batch_cycles * len(latencies),
        accel_seconds=accel_secs * len(latencies),
        sequential_seconds=sequential_seconds(host_times, accel_times),
        pipelined_seconds=two_stage_pipeline_seconds(host_times, accel_times),
        wall_seconds=wall,
        mode=mode,
        stage_latencies=latencies,
    )
    return state, result


@dataclass
class RunConfig:
    """Everything a run needs; defaults reproduce the reference setup.
    The batch size is dims.batch."""

    # metadata "min": the lowest value allowed; "key": the field's name in
    # reports and config files
    data_dir: str | None = None   # directory with IDX files; None -> synthetic
    # used only when data_dir is None
    synthetic_train: int = field(default=2048, metadata={"min": 0})
    synthetic_test: int = field(default=512, metadata={"min": 0})
    epochs: int = field(default=1, metadata={"min": 0})
    seed: int = 0
    mode: str = PIPELINED
    dims: ModelDims = DEFAULT_DIMS
    hyper: AdamHyper = field(default_factory=AdamHyper, metadata={"key": "adam"})
    budget: ResourceBudget = field(default_factory=ResourceBudget)
    checkpoint_path: str | None = None
    report_path: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for f in fields(self):
            low, value = f.metadata.get("min"), getattr(self, f.name)
            if low is not None and value < low:
                raise ValueError(f"{f.name} must be >= {low}, got {value}")
        # the host stage always applies the fixed sharpening kernel
        kernel = (self.dims.kernel_y, self.dims.kernel_x)
        if kernel != SHARPEN_KERNEL.shape:
            raise ValueError(f"kernel dims {kernel} do not match the host "
                             f"stage's fixed {SHARPEN_KERNEL.shape} kernel")

    @property
    def batch_size(self):
        return self.dims.batch

    def as_dict(self):
        """The report's config section: every field under its key, and the
        derived batch_size after epochs."""
        config = {}
        for f, value in zip(fields(self), asdict(self).values()):
            config[f.metadata.get("key", f.name)] = value
            if f.name == "epochs":
                config["batch_size"] = self.batch_size
        return config


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
            raise FileNotFoundError(f"data dir does not exist: {cfg.data_dir}")
        source = _find_idx(cfg.data_dir, _IDX_NAMES[f"{split}_images"])
        images = load_idx_images(source, dims.image_x, dims.image_y)
        labels = load_idx_labels(
            _find_idx(cfg.data_dir, _IDX_NAMES[f"{split}_labels"]), dims.classes)
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
        return {"config": self.config, "epochs": self.epochs,
                "latency_model": self.latency_model,
                "schedule_reports": self.schedule_reports}


def _epoch_entry(epoch, train: EpochResult, test: EpochResult):
    entry = {"epoch": epoch}
    if train is not None:
        entry.update({
            "train_loss": train.mean_loss,
            "train_accuracy": train.accuracy,
            "train_host_seconds": train.host_seconds,
            "train_accel_seconds_modeled": train.accel_seconds,
            "train_sequential_seconds": train.sequential_seconds,
            "train_pipelined_seconds": train.pipelined_seconds,
            "train_wall_seconds": train.wall_seconds,
        })
    entry.update({
        "test_loss": test.mean_loss,
        "test_accuracy": test.accuracy,
        "test_host_seconds": test.host_seconds,
        "test_accel_seconds_modeled": test.accel_seconds,
        "test_sequential_seconds": test.sequential_seconds,
        "test_pipelined_seconds": test.pipelined_seconds,
    })
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
        train_totals["host_seconds"] += train_res.host_seconds
        train_totals["accel_seconds"] += train_res.accel_seconds
        train_totals["sequential_seconds"] += train_res.sequential_seconds
        train_totals["pipelined_seconds"] += train_res.pipelined_seconds

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
