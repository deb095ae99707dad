"""Spans around convpipe's layers, recorded from outside the program.

``patched(tracer)`` replaces each traced function by a wrapper on the module
attribute its caller looks it up through, and puts every original back on
exit.  A ``from`` import binds the function in the importing module, so
``pipeline.host_stage`` and ``cli.host_stage`` are patched, not
``hoststage.host_stage``; functions called through their own module
(``neuralcore.matmul_kseq``, ``adam.apply_batch_update``, ...) are patched
in place.  The hand-off queue is timed by swapping ``pipeline.queue`` for a
copy of the ``queue`` module whose ``Queue`` records its get and put calls.

Spans stay in memory until the run ends; ``per_layer`` turns them into the
benchmark's per-layer metrics.
"""

import functools
import queue
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager

from convpipe import accelmodel, adam, checkpoint, cli, hoststage, neuralcore, pipeline

MATMUL_SHAPES = ("32x169x128", "32x128x10", "128x32x10", "32x10x128", "169x32x128")

# Layers whose cost is paid in set-up; reported per set-up, not per operation.
SETUP_LAYERS = ("dataio.synthetic_dataset", "dataio.make_batches",
                "checkpoint.save_checkpoint", "checkpoint.load_checkpoint")


def _batch_index(args):
    return getattr(args[0], "index", None) if args else None


def _matmul_shape(args):
    (m, k), (_, n) = args[0].shape, args[1].shape
    return f"{m}x{k}x{n}"


# (module, attribute, span name, batch index of args, detail of args)
TARGETS = [
    (pipeline, "run_epoch", "pipeline.run_epoch", None, None),
    (pipeline, "host_stage", "hoststage.host_stage", _batch_index, None),
    (cli, "host_stage", "hoststage.host_stage", _batch_index, None),
    (hoststage, "conv2d_valid", "hoststage.conv2d_valid", None, None),
    (hoststage, "maxpool2x2", "hoststage.maxpool2x2", None, None),
    (pipeline, "accel_kernel", "neuralcore.accel_kernel", _batch_index, None),
    (cli, "accel_kernel", "neuralcore.accel_kernel", _batch_index, None),
    (neuralcore, "fc_forward", "neuralcore.fc_forward", None, None),
    (neuralcore, "out_forward", "neuralcore.out_forward", None, None),
    (neuralcore, "backward", "neuralcore.backward", None, None),
    (neuralcore, "matmul_kseq", "neuralcore.matmul_kseq", None, _matmul_shape),
    (adam, "apply_batch_update", "adam.apply_batch_update", None, None),
    (accelmodel, "estimate_pass", "accelmodel.estimate_pass", None, None),
    (pipeline, "estimate_pass", "accelmodel.estimate_pass", None, None),
    (cli, "estimate_pass", "accelmodel.estimate_pass", None, None),
    (accelmodel, "schedule", "accelmodel.schedule", None, None),
    (accelmodel, "check_port_conflicts", "accelmodel.check_port_conflicts", None, None),
    (pipeline, "synthetic_dataset", "dataio.synthetic_dataset", None, None),
    (pipeline, "make_batches", "dataio.make_batches", None, None),
    (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", None, None),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None, None),
    (cli, "load_checkpoint", "checkpoint.load_checkpoint", None, None),
]


class Span:
    """One timed call: wall interval, thread CPU time, and the open span of
    the same thread it ran inside (its parent).  Spans of one batch share
    its batch index; a child inherits its parent's."""

    __slots__ = ("name", "start", "end", "cpu", "parent", "thread", "batch",
                 "phase", "detail")

    def __init__(self, name, start=0.0, end=0.0, parent=None, cpu=0.0,
                 thread=0, batch=None, phase="", detail=""):
        self.name, self.start, self.end, self.cpu = name, start, end, cpu
        self.parent, self.thread, self.batch = parent, thread, batch
        self.phase, self.detail = phase, detail


class Tracer:
    """Collects spans; ``phase`` labels each new span with the benchmark
    phase (set-up, timed or check) it started in."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._local = threading.local()

    @contextmanager
    def span(self, name, batch=None, detail=""):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if batch is None and parent is not None:
            batch = parent.batch
        sp = Span(name, parent=parent, thread=threading.get_ident(), batch=batch,
                  phase=self.phase, detail=detail)
        stack.append(sp)
        cpu0 = time.thread_time()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.cpu = time.thread_time() - cpu0
            stack.pop()
            self.spans.append(sp)


def _traced(tracer, name, fn, batch_of, detail_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, batch_of(args) if batch_of else None,
                         detail_of(args) if detail_of else ""):
            return fn(*args, **kwargs)
    return wrapper


def _queue_index(item):
    # pipeline hands ("batch", ConvBatch, host seconds) tuples to the consumer
    return getattr(item[1], "index", None) if isinstance(item, tuple) and len(item) > 1 else None


def _traced_queue_module(tracer):
    class TracedQueue(queue.Queue):
        def get(self, block=True, timeout=None):
            with tracer.span("pipeline.queue.get") as sp:
                item = super().get(block, timeout)
                sp.batch = _queue_index(item)
                return item

        def put(self, item, block=True, timeout=None):
            with tracer.span("pipeline.queue.put", _queue_index(item)):
                super().put(item, block, timeout)

    shim = types.ModuleType("queue")
    shim.__dict__.update(vars(queue))
    shim.Queue = TracedQueue
    return shim


@contextmanager
def patched(tracer):
    """Trace every layer while the block runs; yields the targets that were
    absent (a refactor moved them) and so could not be traced."""
    saved, absent = [], []
    try:
        for module, attr, name, batch_of, detail_of in TARGETS:
            if not hasattr(module, attr):
                absent.append(f"{module.__name__}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _traced(tracer, name, original, batch_of, detail_of))
        if hasattr(pipeline, "queue"):
            saved.append((pipeline, "queue", pipeline.queue))
            pipeline.queue = _traced_queue_module(tracer)
        else:
            absent.append("convpipe.pipeline.queue")
        yield absent
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans):
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once), keyed by id()."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[id(sp.parent)].append((sp.start, sp.end))
    result = {}
    for sp in spans:
        covered, reach = 0.0, sp.start
        for lo, hi in sorted(children.get(id(sp), ())):
            lo, hi = max(lo, reach), min(hi, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[id(sp)] = sp.end - sp.start - covered
    return result


def aggregate(spans):
    """name -> [calls, busy_s, cpu_s, self_s]; a span with a detail also
    counts under ``name.detail``."""
    spans = list(spans)
    selfs = self_times(spans)
    totals = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for sp in spans:
        keys = (sp.name, f"{sp.name}.{sp.detail}") if sp.detail else (sp.name,)
        for key in keys:
            t = totals[key]
            t[0] += 1
            t[1] += sp.end - sp.start
            t[2] += sp.cpu
            t[3] += selfs[id(sp)]
    return totals


STATS = {"calls": 0, "busy_s": 1, "cpu_s": 2, "self_s": 3}

# (metric name, unit, better) in BENCHMARK.json order.
PER_LAYER = (
    [(f"hoststage.host_stage.{s}", u, "lower") for s, u in
     (("calls", "count"), ("busy_s", "s"), ("cpu_s", "s"))]
    + [("hoststage.conv2d_valid.busy_s", "s", "lower"),
       ("hoststage.maxpool2x2.busy_s", "s", "lower")]
    + [(f"neuralcore.accel_kernel.{s}", u, "lower") for s, u in
       (("calls", "count"), ("busy_s", "s"), ("cpu_s", "s"))]
    + [(f"neuralcore.{f}.busy_s", "s", "lower") for f in
       ("fc_forward", "out_forward", "backward")]
    + [("neuralcore.matmul_kseq.calls", "count", "lower"),
       ("neuralcore.matmul_kseq.busy_s", "s", "lower")]
    + [(f"neuralcore.matmul_kseq.{shape}.busy_s", "s", "lower") for shape in MATMUL_SHAPES]
    + [("adam.apply_batch_update.calls", "count", "lower"),
       ("adam.apply_batch_update.busy_s", "s", "lower"),
       ("pipeline.run_epoch.self_s", "s", "lower"),
       ("pipeline.queue_get_wait_s", "s", "lower"),
       ("pipeline.queue_put_wait_s", "s", "lower"),
       ("pipeline.overlap", "ratio", "higher")]
    + [(f"accelmodel.{f}.{s}", u, "lower") for f in
       ("estimate_pass", "schedule", "check_port_conflicts")
       for s, u in (("calls", "count"), ("busy_s", "s"))]
    + [(f"{layer}.busy_s", "s", "lower") for layer in SETUP_LAYERS]
)

_RENAMED = {"pipeline.queue_get_wait_s": "pipeline.queue.get.busy_s",
            "pipeline.queue_put_wait_s": "pipeline.queue.put.busy_s"}


def per_layer(timed, setup, n_ops, op_wall_s, n_setups):
    """Per-layer metrics from the aggregates of the timed and set-up
    phases: timed totals divided by the number of timed operations, except
    the set-up layers, whose set-up totals are divided by the number of
    set-ups.  ``pipeline.overlap`` is (host_stage busy + accel_kernel busy)
    over the wall time of the timed operations; above 1 the two stages
    really ran at once."""
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "pipeline.overlap":
            busy = timed["hoststage.host_stage"][1] + timed["neuralcore.accel_kernel"][1]
            value = busy / op_wall_s if op_wall_s else 0.0
        else:
            layer, stat = _RENAMED.get(name, name).rsplit(".", 1)
            in_setup = layer in SETUP_LAYERS
            totals = (setup if in_setup else timed)[layer]
            value = totals[STATS[stat]] / max(1, n_setups if in_setup else n_ops)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
