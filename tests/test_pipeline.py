import math
import sys
import threading
import time

import numpy as np
import pytest

from convpipe import pipeline
from convpipe.accelmodel import ResourceBudget
from convpipe.dataio import MiniBatch, make_batches, synthetic_dataset
from convpipe.dims import SHARPEN_KERNEL, ModelDims
from convpipe.neuralcore import ModelState
from convpipe.pipeline import (PIPELINED, SEQUENTIAL, RunConfig, load_datasets,
                               run_epoch, run_training, sequential_seconds,
                               speedup_summary, two_stage_pipeline_seconds)

from oracles import simulate_two_stage

BUDGET = ResourceBudget()


def _batches(seed, n_images):
    images, labels = synthetic_dataset(seed, n_images)
    return make_batches(images, labels, 32)


# -- latency algebra ----------------------------------------------------------

def test_constant_stage_times_formula():
    for h, a in ((1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (0.1, 3.0)):
        n = 25
        total = two_stage_pipeline_seconds([h] * n, [a] * n)
        assert total == pytest.approx(max(h, a) * n + min(h, a), rel=1e-12)


def test_pipeline_recurrence_matches_discrete_event_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        hosts = rng.uniform(0.01, 2.0, n).tolist()
        accels = rng.uniform(0.01, 2.0, n).tolist()
        ours = two_stage_pipeline_seconds(hosts, accels)
        oracle = simulate_two_stage(hosts, accels)
        assert math.isclose(ours, oracle, rel_tol=1e-12, abs_tol=1e-12)


def test_pipelined_never_exceeds_sequential():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        hosts = rng.uniform(0.0, 2.0, n).tolist()
        accels = rng.uniform(0.0, 2.0, n).tolist()
        assert two_stage_pipeline_seconds(hosts, accels) <= \
            sequential_seconds(hosts, accels) + 1e-12


def test_empty_and_mismatched_stage_lists():
    assert two_stage_pipeline_seconds([], []) == 0.0
    with pytest.raises(ValueError):
        two_stage_pipeline_seconds([1.0], [])


def test_speedup_summary_balanced_stages():
    n = 100
    h = a = 1.0
    totals = {"host_seconds": h * n, "accel_seconds": a * n,
              "sequential_seconds": sequential_seconds([h] * n, [a] * n),
              "pipelined_seconds": two_stage_pipeline_seconds([h] * n, [a] * n)}
    summary = speedup_summary(totals)
    assert summary["sequential_over_pipelined"] == pytest.approx(
        2 * n / (n + 1), rel=1e-12)


def test_speedup_summary_dominated_cases():
    n = 50
    # accelerator-dominated: total tracks the accelerator
    pipe = two_stage_pipeline_seconds([0.1] * n, [3.0] * n)
    assert pipe == pytest.approx(3.0 * n + 0.1, rel=1e-12)
    # host-dominated: total tracks the host
    pipe = two_stage_pipeline_seconds([3.0] * n, [0.1] * n)
    assert pipe == pytest.approx(3.0 * n + 0.1, rel=1e-12)


def test_speedup_summary_zero_guard():
    summary = speedup_summary({"host_seconds": 0.0, "accel_seconds": 0.0,
                               "sequential_seconds": 0.0,
                               "pipelined_seconds": 0.0})
    assert summary["sequential_over_pipelined"] is None
    assert summary["host_over_accel"] is None
    assert summary["bottleneck"] is None


# -- run_epoch ----------------------------------------------------------------

def test_modes_produce_bit_identical_states():
    batches = _batches(0, 6 * 32)
    finals = {}
    for mode in (SEQUENTIAL, PIPELINED):
        state = ModelState.initial(0)
        state, res = run_epoch(batches, state, mode, True, BUDGET)
        finals[mode] = (state.weights.w1.copy(), state.weights.w2.copy(),
                        res.mean_loss, res.accuracy)
    assert np.array_equal(finals[SEQUENTIAL][0], finals[PIPELINED][0])
    assert np.array_equal(finals[SEQUENTIAL][1], finals[PIPELINED][1])
    assert finals[SEQUENTIAL][2] == finals[PIPELINED][2]
    assert finals[SEQUENTIAL][3] == finals[PIPELINED][3]


def test_inference_epoch_keeps_state():
    batches = _batches(1, 3 * 32)
    state = ModelState.initial(1)
    w1 = state.weights.w1.copy()
    state, res = run_epoch(batches, state, PIPELINED, False, BUDGET)
    assert np.array_equal(state.weights.w1, w1)
    assert state.adam.step == 0
    assert 0.0 <= res.accuracy <= 1.0


def test_epoch_latency_identities():
    batches = _batches(2, 4 * 32)
    state = ModelState.initial(2)
    _, res = run_epoch(batches, state, SEQUENTIAL, True, BUDGET)
    assert res.n_batches == 4
    assert res.sequential_seconds == pytest.approx(
        res.host_seconds + res.accel_seconds, rel=1e-12)
    assert res.pipelined_seconds <= res.sequential_seconds + 1e-12
    assert res.accel_cycles == 4 * res.estimate.total_cycles


def test_run_epoch_rejects_bad_input():
    state = ModelState.initial(0)
    with pytest.raises(ValueError):
        run_epoch([], state, SEQUENTIAL, True, BUDGET)
    with pytest.raises(ValueError):
        run_epoch(_batches(0, 32), state, "overlapped", True, BUDGET)


def _new_threads(before):
    return [t for t in threading.enumerate() if t not in before and t.is_alive()]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pipelined_consumer_failure_does_not_hang():
    # a failing accelerator stage must propagate promptly while the producer
    # thread is still running: 8 batches never reach the high-water mark
    batches = _batches(4, 8 * 32)
    state = ModelState.initial(4)
    state.weights.w1[0, 0] = np.inf
    before = threading.enumerate()
    # the exception bound to failure keeps run_epoch's frame alive, so only
    # an explicit close can have stopped the producer
    with pytest.raises(FloatingPointError) as failure:
        run_epoch(batches, state, PIPELINED, True, BUDGET)
    assert _new_threads(before) == []


def _wait_until(condition, timeout=30.0):
    """Poll condition until it holds; False if timeout passes first."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pipelined_consumer_failure_while_the_producer_is_parked(monkeypatch):
    # the accelerator stage fails on batch 0 only after the producer has
    # filled the queue to the high-water mark; batch 1 waits until the
    # consumer holds batch 0, so the producer parks at batch 32
    high = pipeline._HIGH_WATER
    hosted, accel_started = [], threading.Event()
    host_stage, accel_kernel = pipeline.host_stage, pipeline.accel_kernel

    def counting_host_stage(batch):
        if batch.index == 1:
            assert accel_started.wait(timeout=30)
        conv = host_stage(batch)
        hosted.append(batch.index)
        return conv

    def accel_kernel_after_park(*args):
        accel_started.set()
        assert _wait_until(lambda: len(hosted) == high + 1)
        return accel_kernel(*args)

    monkeypatch.setattr(pipeline, "host_stage", counting_host_stage)
    monkeypatch.setattr(pipeline, "accel_kernel", accel_kernel_after_park)
    state = ModelState.initial(4)
    state.weights.w1[0, 0] = np.inf
    before = threading.enumerate()
    # as above, failure keeps run_epoch's frame alive
    with pytest.raises(FloatingPointError) as failure:
        run_epoch(_batches(4, 40 * 32), state, PIPELINED, True, BUDGET)
    assert _new_threads(before) == []
    assert hosted == list(range(high + 1))  # stopped while parked


def _counting_stream(n, produced, first_taken):
    """(i, 0.0) for each i < n, appending i to produced as it is made; item
    1 waits for first_taken, so the consumer holds item 0 before the
    producer runs ahead."""
    for i in range(n):
        if i == 1:
            assert first_taken.wait(timeout=30)
        produced.append(i)
        yield i, 0.0


def test_closing_the_prefetched_stream_stops_a_parked_producer():
    high = pipeline._HIGH_WATER
    produced, first_taken = [], threading.Event()
    before = threading.enumerate()
    items = pipeline._prefetched(_counting_stream(40, produced, first_taken))
    assert next(items) == (0, 0.0)
    first_taken.set()
    assert _wait_until(lambda: len(produced) == high + 1)
    items.close()
    assert _new_threads(before) == []
    assert len(produced) == high + 1


def test_prefetched_refills_between_the_water_marks():
    high, low = pipeline._HIGH_WATER, pipeline._LOW_WATER
    n = 3 * high
    produced, first_taken = [], threading.Event()
    before = threading.enumerate()
    items = pipeline._prefetched(_counting_stream(n, produced, first_taken))
    got, leads = [], []

    def take():
        got.append(next(items)[0])
        # the queue holds at most high items, the producer one more in flight
        leads.append(len(produced) - len(got))

    take()
    first_taken.set()
    # parked with items 1..high waiting
    assert _wait_until(lambda: len(produced) == high + 1)
    while len(got) < high - low:
        take()
    time.sleep(0.05)
    assert len(produced) == high + 1  # low + 1 waiting: still parked
    take()  # low waiting: the producer resumes
    assert _wait_until(lambda: len(produced) > high + 1)
    while len(got) < n:
        take()
    assert next(items, None) is None
    assert got == list(range(n))
    assert max(leads) <= high + 1
    assert _new_threads(before) == []


def test_prefetched_hand_off_under_frequent_thread_switches():
    # more producer and consumer threads than cores, switching every few
    # microseconds: a lost wake-up leaves a consumer stuck past the join
    n, consumers = 400, 4
    results = [None] * consumers

    def consume(k):
        items = pipeline._prefetched((i, 0.0) for i in range(n))
        results[k] = [item for item, _ in items]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=consume, args=(k,), daemon=True)
                   for k in range(consumers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [list(range(n))] * consumers


@pytest.mark.parametrize("mode", [SEQUENTIAL, PIPELINED])
def test_host_stage_failure_propagates_in_both_modes(mode):
    good = _batches(5, 2 * 32)
    flat = MiniBatch(np.zeros((32, 28 * 28)), good[0].out_actual, 2)
    before = threading.enumerate()
    with pytest.raises(ValueError, match="v_raw must be 3-d"):
        run_epoch(good + [flat], ModelState.initial(5), mode, True, BUDGET)
    assert _new_threads(before) == []


def test_training_epoch_updates_once_per_batch():
    batches = _batches(3, 5 * 32)
    state = ModelState.initial(3)
    state, _ = run_epoch(batches, state, PIPELINED, True, BUDGET)
    assert state.adam.step == 5


# -- run_training -------------------------------------------------------------

def _tiny_config(**kw):
    defaults = dict(data_dir=None, synthetic_train=4 * 32, synthetic_test=2 * 32,
                    epochs=1, seed=0, mode=PIPELINED)
    defaults.update(kw)
    return RunConfig(**defaults)


def test_run_training_report_shape():
    report = run_training(_tiny_config(epochs=2))
    assert len(report.epochs) == 2
    first = report.epochs[0]
    assert {"epoch", "train_loss", "train_accuracy", "test_accuracy",
            "train_host_seconds"} <= set(first)
    assert report.latency_model["per_batch_cycles_training"] > \
        report.latency_model["per_batch_cycles_inference"]
    assert report.config["epochs"] == 2
    names = [r["name"] for r in report.schedule_reports]
    assert "fc_forward" in names and "out_forward" in names


def test_run_training_zero_epochs_reports_chance_accuracy():
    report = run_training(_tiny_config(epochs=0, synthetic_test=32 * 32))
    assert len(report.epochs) == 1
    entry = report.epochs[0]
    assert entry["epoch"] == 0
    assert "train_loss" not in entry
    # untrained weights on balanced random labels: chance level, 10% +- 3
    assert abs(entry["test_accuracy"] - 0.10) < 0.03


def test_run_training_is_reproducible():
    a = run_training(_tiny_config())
    b = run_training(_tiny_config())
    for key in ("train_loss", "train_accuracy", "test_accuracy", "test_loss"):
        assert a.epochs[0][key] == b.epochs[0][key]


def test_run_training_saves_checkpoint(tmp_path):
    from convpipe.checkpoint import load_checkpoint

    path = tmp_path / "final.ckpt"
    report = run_training(_tiny_config(checkpoint_path=str(path)))
    assert path.exists()
    state = load_checkpoint(path)
    assert state.adam.step == 4  # one epoch of 4 batches
    assert report.epochs[-1]["epoch"] == 1


def test_load_datasets_synthetic_counts():
    train, test = load_datasets(_tiny_config())
    assert len(train) == 4 and len(test) == 2


def test_batch_size_comes_from_dims():
    cfg = _tiny_config(synthetic_train=64, synthetic_test=64,
                       dims=ModelDims(batch=16))
    assert cfg.batch_size == 16
    train, test = load_datasets(cfg)
    assert len(train) == len(test) == 4
    assert all(b.out_actual.shape == (16, 10) for b in train + test)
    report = run_training(cfg)
    assert report.latency_model["per_batch_cycles_training"] == 82640
    assert report.config["batch_size"] == 16


def test_kernel_dims_must_match_host_kernel():
    with pytest.raises(TypeError, match="kernel_x"):
        ModelDims(kernel_x=5)
    dims = ModelDims(image_x=8, image_y=10)
    assert (dims.kernel_x, dims.kernel_y) == SHARPEN_KERNEL.shape
    assert (dims.conv_x, dims.conv_y) == (6, 8)


@pytest.mark.parametrize("name", ["synthetic_train", "synthetic_test", "epochs"])
def test_run_config_rejects_negative_counts(name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -5$"):
        RunConfig(**{name: -5})


def test_load_datasets_missing_dir():
    with pytest.raises(FileNotFoundError, match="no/such/dir"):
        load_datasets(_tiny_config(data_dir="no/such/dir"))
