"""Acceptance suite: one test per criterion, each printing a PASS line on
success (run with -v -s for the checklist view).

Criterion 1 needs the real MNIST IDX files; point CONVPIPE_DATA_DIR at a
directory containing train-images-idx3-ubyte, train-labels-idx1-ubyte,
t10k-images-idx3-ubyte and t10k-labels-idx1-ubyte (plain or .gz). Without
them that test reports itself as skipped, loudly. A supplementary
learnability check (not a criterion substitute) still exercises end-to-end
training on a separable synthetic dataset.

Absolute wall-clock seconds and device resource counts are out of scope by
design; criteria 5-7 validate the latency/resource model against
brute-force simulation instead.
"""

import math

import numpy as np
import pytest

from convpipe.accelmodel import (ResourceBudget, check_port_conflicts,
                                 ArrayAccess, default_partitions, pass_nests,
                                 schedule)
from convpipe.adam import (AdamHyper, AdamState, adam_update,
                           apply_batch_update, correction_factors)
from convpipe.checkpoint import save_checkpoint
from convpipe.dataio import ImageSet, LabelSet, make_batches, synthetic_dataset
from convpipe.dims import ModelDims
from convpipe.neuralcore import (ForwardTrace, Gradients, ModelState, Weights,
                                 backward, fc_forward, out_forward)
from convpipe.pipeline import (PIPELINED, SEQUENTIAL, RunConfig, run_epoch,
                               run_training, sequential_seconds,
                               two_stage_pipeline_seconds)

from conftest import find_mnist_dir
from oracles import (enumerate_bank_conflicts, finite_diff_gradient,
                     make_random_nest, scalar_adam_run, simulate_nest_cycles,
                     simulate_two_stage)


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


# -- criterion 1: MNIST accuracy ----------------------------------------------

MNIST_SKIP_NOTICE = (
    "ACCEPTANCE 1 NOT VERIFIED: MNIST IDX files not found. "
    "Set CONVPIPE_DATA_DIR (or place files under tests/data) with "
    "train-images-idx3-ubyte, train-labels-idx1-ubyte, "
    "t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte and rerun.")


@pytest.mark.skipif(find_mnist_dir() is None, reason=MNIST_SKIP_NOTICE)
def test_criterion_1_mnist_accuracy():
    data_dir = str(find_mnist_dir())
    epoch1 = []
    epoch10 = []
    for seed in (0, 1, 2):
        cfg = RunConfig(data_dir=data_dir, epochs=10, seed=seed,
                        mode=PIPELINED)
        report = run_training(cfg)
        accs = {e["epoch"]: e["test_accuracy"] for e in report.epochs}
        epoch1.append(accs[1])
        epoch10.append(accs[10])
    mean1 = sum(epoch1) / len(epoch1)
    mean10 = sum(epoch10) / len(epoch10)
    assert mean1 >= 0.88, f"epoch-1 accuracy {mean1:.4f} (per seed {epoch1})"
    assert mean10 >= 0.92, f"epoch-10 accuracy {mean10:.4f} (per seed {epoch10})"
    _report(1, f"test accuracy {mean1:.3f} @1 epoch, {mean10:.3f} @10 epochs "
               f"(3-seed mean)")


def _learnable_dataset(seed, n):
    """Separable fixture: each class lights a class-specific block; the
    pixel values are quantized to bytes, as an IDX file holds them."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n).astype(np.int64)
    pixels = rng.random((n, 28, 28)) * 0.3
    for i, c in enumerate(labels):
        r, q = divmod(int(c), 5)
        pixels[i, 4 + 12 * r:12 + 12 * r, 2 + 5 * q:7 + 5 * q] += 0.7
    pixels = np.rint(np.clip(pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    return ImageSet(pixels), LabelSet(labels)


def test_supplementary_end_to_end_learnability():
    # not a criterion: in-sandbox stand-in showing the full train loop learns
    train = make_batches(*_learnable_dataset(0, 64 * 32), 32)
    test = make_batches(*_learnable_dataset(1, 16 * 32), 32)
    state = ModelState.initial(0)
    for _ in range(2):
        state, _ = run_epoch(train, state, PIPELINED, True, ResourceBudget())
    state, res = run_epoch(test, state, SEQUENTIAL, False, ResourceBudget())
    assert res.accuracy > 0.90, f"synthetic held-out accuracy {res.accuracy}"
    print(f"\nSUPPLEMENTARY: PASS - separable-synthetic accuracy "
          f"{res.accuracy:.3f} after 2 epochs")


# -- criterion 2: gradient correctness ----------------------------------------

def test_criterion_2_gradients_match_finite_differences():
    dims = ModelDims(batch=4, image_x=8, image_y=8, hidden=8,
                     classes=10)  # pool_map = 9
    rng = np.random.default_rng(12)
    v = rng.normal(size=(dims.batch, dims.pool_map)) * 0.5
    weights = Weights(rng.normal(size=(dims.pool_map, dims.hidden)) * 0.1,
                      rng.normal(size=(dims.hidden, dims.classes)) * 0.1)
    y = np.eye(dims.classes)[rng.integers(0, dims.classes, dims.batch)]

    h1 = fc_forward(v, weights.w1)
    h2, loss = out_forward(h1, weights.w2, y)
    grads = backward(ForwardTrace(v, h1, h2, loss), y, weights)

    def loss_now():
        h = fc_forward(v, weights.w1)
        return out_forward(h, weights.w2, y)[1]

    checked = 0
    for analytic, w in ((grads.g_w1, weights.w1), (grads.g_w2, weights.w2)):
        numeric = finite_diff_gradient(loss_now, w, step_scale=1e-6)
        for idx in np.ndindex(w.shape):
            a, n = analytic[idx], numeric[idx]
            if abs(a) > 1e-8:
                assert abs(a - n) / abs(a) < 1e-5, (idx, a, n)
            else:
                assert abs(a - n) < 1e-9, (idx, a, n)
            checked += 1
    assert checked == 9 * 8 + 8 * 10
    _report(2, f"all {checked} gradient entries within tolerance of "
               f"central differences")


# -- criterion 3: optimizer oracle equivalence --------------------------------

def test_criterion_3_adam_bit_exact_scalar_steps():
    hyper = AdamHyper()
    rng = np.random.default_rng(3)
    grads = rng.normal(size=1000) * 10.0 ** rng.integers(-4, 3, size=1000)

    w = np.array([[0.25]])
    m = np.zeros((1, 1))
    v = np.zeros((1, 1))
    first_update = None
    for t, g in enumerate(grads, start=1):
        adam_update(w, m, v, np.array([[g]]), correction_factors(hyper, t),
                    hyper)
        if t == 1:
            first_update = (w[0, 0], m[0, 0], v[0, 0])
            # telescoping at t=1: corrected moments equal g and g^2
            corr = correction_factors(hyper, 1)
            assert m[0, 0] * corr.c1 == pytest.approx(grads[0], rel=1e-12)
            assert v[0, 0] * corr.c2 == pytest.approx(grads[0] ** 2, rel=1e-12)

    ew, em, ev = scalar_adam_run(0.25, grads)
    assert w[0, 0] == ew and m[0, 0] == em and v[0, 0] == ev

    ew1, em1, ev1 = scalar_adam_run(0.25, grads[:1])
    assert first_update == (ew1, em1, ev1)

    # the same steps through the training step's entry point (the compiled
    # kernel when it loads), on 1x1 layers: the output layer takes the
    # sequence, the hidden layer takes it reversed
    weights = Weights(np.array([[-0.5]]), np.array([[0.25]]))
    state = AdamState(*np.zeros((4, 1, 1)))
    for g2, g1 in zip(grads, grads[::-1]):
        apply_batch_update(state, weights, Gradients(np.array([[g1]]),
                                                     np.array([[g2]])), hyper)
    assert (weights.w2[0, 0], state.m_w2[0, 0], state.v_w2[0, 0]) == \
        (ew, em, ev)
    assert (weights.w1[0, 0], state.m_w1[0, 0], state.v_w1[0, 0]) == \
        scalar_adam_run(-0.5, grads[::-1])
    assert state.step == 1000
    _report(3, "1000 scalar steps bit-identical to the independent oracle, "
               "t=1 included, per layer and through the batch update")


# -- criterion 4: execution-mode equivalence ----------------------------------

def test_criterion_4_modes_produce_identical_checkpoints(tmp_path):
    images, labels = synthetic_dataset(41, 100 * 32)
    batches = make_batches(images, labels, 32)
    assert len(batches) == 100
    paths = {}
    for mode in (SEQUENTIAL, PIPELINED):
        state = ModelState.initial(7)
        state, _ = run_epoch(batches, state, mode, True, ResourceBudget())
        paths[mode] = tmp_path / f"{mode}.ckpt"
        save_checkpoint(paths[mode], state)
    seq_bytes = paths[SEQUENTIAL].read_bytes()
    pipe_bytes = paths[PIPELINED].read_bytes()
    assert seq_bytes == pipe_bytes
    _report(4, f"100-batch runs agree byte-for-byte "
               f"({len(seq_bytes)} byte checkpoints)")


# -- criterion 5: schedule formula vs event simulator -------------------------

def test_criterion_5_schedule_formula_vs_brute_force():
    parts = default_partitions()
    budget25 = ResourceBudget()
    nests = {n.name: n for n in pass_nests("inference")}

    fc = schedule(nests["fc_forward"], parts, budget25)
    assert fc.effective_ii == 1 and fc.multipliers_demanded == 16
    assert fc.cycles == simulate_nest_cycles(nests["fc_forward"], parts,
                                             budget25)

    out = schedule(nests["out_forward"], parts, budget25)
    assert out.multipliers_demanded == 40 and out.effective_ii == 2
    assert out.cycles == simulate_nest_cycles(nests["out_forward"], parts,
                                              budget25)

    rng = np.random.default_rng(5)
    caps = [ResourceBudget(max_multipliers=4, max_adders=4),
            ResourceBudget(),
            ResourceBudget(max_multipliers=10 ** 9, max_adders=10 ** 9)]
    checked = 0
    for i in range(210):
        nest, nest_parts = make_random_nest(rng, name=f"acc{i}")
        for budget in caps:
            formula = schedule(nest, nest_parts, budget).cycles
            simulated = simulate_nest_cycles(nest, nest_parts, budget)
            assert formula == simulated, (nest, budget)
            checked += 1
    assert checked >= 200 * 3
    _report(5, f"exact cycle agreement on {checked} nest/cap combinations "
               f"plus both reference nests")


# -- criterion 6: partition feasibility ---------------------------------------

def test_criterion_6_partition_feasibility():
    # stride-1 sweeps, brute-force bank enumeration
    assert enumerate_bank_conflicts(128, 4, 4) == []
    assert enumerate_bank_conflicts(10, 10, 10) == []
    conflicted = enumerate_bank_conflicts(128, 4, 2)
    assert conflicted and all(n >= 1 for _, _, n in conflicted)

    # the model agrees with the enumeration
    ok4 = check_port_conflicts(
        [ArrayAccess("a", (128,), 0, (0, 1, 2, 3), "read")],
        {("a", 0): 4})
    assert ok4.conflicts == []
    ok10 = check_port_conflicts(
        [ArrayAccess("b", (10,), 0, tuple(range(10)), "read")],
        {("b", 0): 10})
    assert ok10.conflicts == []
    bad = check_port_conflicts(
        [ArrayAccess("c", (128,), 0, (0, 1, 2, 3), "read")],
        {("c", 0): 2})
    assert len(bad.conflicts) == 2 and bad.stall_cycles == 2
    _report(6, "unroll4/cyclic4 and unroll10/cyclic10 conflict-free; "
               "unroll4/cyclic2 double-hits two banks")


# -- criterion 7: pipeline algebra --------------------------------------------

def test_criterion_7_pipeline_algebra():
    n = 100
    rng = np.random.default_rng(7)
    # exact two-stage formula and ordering vs the discrete-event oracle
    for h, a in ((1.0, 0.8), (0.8, 1.0), (1.0, 1.0), (2.0, 0.3), (0.3, 2.0)):
        hosts, accels = [h] * n, [a] * n
        pipe = two_stage_pipeline_seconds(hosts, accels)
        seq = sequential_seconds(hosts, accels)
        assert math.isclose(pipe, max(h, a) * n + min(h, a),
                            rel_tol=1e-12, abs_tol=1e-12)
        assert pipe <= seq + 1e-12
        assert math.isclose(pipe, simulate_two_stage(hosts, accels),
                            rel_tol=1e-12, abs_tol=1e-12)
    # jittered stage times still satisfy the ordering and the oracle
    for _ in range(20):
        hosts = rng.uniform(0.5, 1.5, n).tolist()
        accels = rng.uniform(0.5, 1.5, n).tolist()
        pipe = two_stage_pipeline_seconds(hosts, accels)
        assert pipe <= sequential_seconds(hosts, accels) + 1e-12
        assert math.isclose(pipe, simulate_two_stage(hosts, accels),
                            rel_tol=1e-12, abs_tol=1e-12)
    # near-balanced stages recover the headline ~2x overlap win
    for ratio in (0.75, 0.8, 0.9, 1.0):
        hosts, accels = [1.0] * n, [ratio] * n
        speedup = sequential_seconds(hosts, accels) / \
            two_stage_pipeline_seconds(hosts, accels)
        assert 1.6 <= speedup <= 2.0, (ratio, speedup)
    _report(7, "two-stage totals match max(h,a)*n + min(h,a), never exceed "
               "sequential, and balanced stages speed up 1.6-2.0x")
