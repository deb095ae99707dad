"""Correctness gate of the benchmark: pinned values and an independent oracle.

A speed-up must not come from changed numerics or a changed model, so every
operation the benchmark times is compared, exactly, with a reference:

* ``pinned.json`` holds the accelerator model's per-nest and total cycles at
  every ``estimate_sweep`` grid point, and the outputs of one training epoch
  and one test run for seeds 0 and 1 (checkpoint sha256, loss, accuracy).
* For any other seed the oracle below re-derives those outputs with plain
  numpy and no convpipe code.  It mirrors the program's arithmetic order
  operation for operation (ascending-k matmul accumulation, the same
  softmax, loss and Adam expressions), so results agree bit for bit.  The
  benchmark's tests hold the oracle to the pinned seeds.

Run ``python3 perfbench/reference.py`` to print pinned.json from the
program at the current commit; do so only for a deliberate model change.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"

# The reference configuration: convpipe's defaults (RunConfig, ModelDims,
# AdamHyper, ResourceBudget), restated here so the oracle shares no code.
BATCH = 32
IMAGE = 28
HIDDEN = 128
CLASSES = 10
POOL_MAP = ((IMAGE - 2) // 2) ** 2
N_TRAIN = 2048
N_TEST = 512
BETA1, BETA2, ETA, EPS = 0.9, 0.999, 0.01, 1e-7
LOG_EPS = 1e-12
KERNEL = np.array([[0.0, -1.0, 0.0],
                   [-1.0, 5.0, -1.0],
                   [0.0, -1.0, 0.0]])

# estimate_sweep grid: multiplier caps x hidden-layer (batch, hidden)
# unrolls, both passes.  (25, (4, 4)) is the default design point.
MULTIPLIERS = (8, 16, 25, 64)
FC_UNROLLS = ((1, 1), (2, 2), (4, 4), (8, 8))
PASSES = ("inference", "training")
DEFAULT_POINT = (25, (4, 4))


def judge(seen, expected):
    """Gate verdict on a Counter of (key, output) pairs, one count per
    operation: (attempted, failed, [(key, got, wanted), ...])."""
    attempted = failed = 0
    mismatches = []
    for (key, got), count in seen.items():
        attempted += count
        if key not in expected or expected[key] != got:
            failed += count
            mismatches.append((key, got, expected.get(key)))
    return attempted, failed, mismatches


def load_pinned():
    return json.loads(PINNED_PATH.read_text())


def estimate_key(mode, max_multipliers, fc_unroll):
    return f"{mode}/m{max_multipliers}/u{fc_unroll[0]}x{fc_unroll[1]}"


# -- oracle -------------------------------------------------------------------

def fixture(seed, n):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, IMAGE, IMAGE)).astype(np.float64) / 255.0
    labels = rng.integers(0, CLASSES, size=n).astype(np.int64)
    return pixels, labels


def batches(pixels, labels):
    for lo in range(0, len(labels) - BATCH + 1, BATCH):
        one_hot = np.zeros((BATCH, CLASSES))
        one_hot[np.arange(BATCH), labels[lo:lo + BATCH]] = 1.0
        yield pixels[lo:lo + BATCH], one_hot


def host(images):
    n, side = len(images), IMAGE - 2
    conv = np.zeros((n, side, side))
    for a in range(3):
        for b in range(3):
            conv += KERNEL[a, b] * images[:, a:a + side, b:b + side]
    return conv.reshape(n, side // 2, 2, side // 2, 2).max(axis=(2, 4)).reshape(n, -1)


def matmul(a, b):
    acc = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        acc += a[:, k:k + 1] * b[k]
    return acc


def forward(v, w1, w2, y):
    h1 = np.maximum(0.0, matmul(v, w1))
    z = matmul(h1, w2)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    h2 = e / e.sum(axis=1, keepdims=True)
    loss = float(-(y * np.log(h2 + LOG_EPS)).sum() / len(v))
    acc = float(np.mean(h2.argmax(axis=1) == y.argmax(axis=1)))
    return h1, h2, loss, acc


def adam(w, m, v, g, c1, c2):
    m[...] = BETA1 * m + (1.0 - BETA1) * g
    v[...] = BETA2 * v + (1.0 - BETA2) * (g * g)
    w -= ETA * (m * c1) / (np.sqrt(v * c2) + EPS)


def checkpoint_bytes(w1, w2, moments, step):
    """The CNNW v1 layout: w1, w2, step, then mW1, vW1, mW2, vW2 by name."""
    def arr(a):
        return struct.pack("<II", *a.shape) + np.ascontiguousarray(a, "<f8").tobytes()
    named = b"".join(struct.pack("<I", len(name)) + name.encode() + arr(a)
                     for name, a in moments.items())
    return (b"CNNW" + struct.pack("<I", 1) + arr(w1) + arr(w2)
            + struct.pack("<QI", step, len(moments)) + named)


def train_epoch(seed, n_images=N_TRAIN):
    """One training epoch from the seed's initial weights over its fixture.

    Returns (w1, w2, epoch outputs) where the outputs are the checkpoint's
    sha256, the mean batch loss and the mean batch accuracy.
    """
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, 0.1, size=(POOL_MAP, HIDDEN))
    w2 = rng.normal(0.0, 0.1, size=(HIDDEN, CLASSES))
    moments = {name: np.zeros_like(w) for name, w in
               (("mW1", w1), ("vW1", w1), ("mW2", w2), ("vW2", w2))}
    losses, accs, step = [], [], 0
    for images, y in batches(*fixture(seed + 1, n_images)):
        v = host(images)
        h1, h2, loss, acc = forward(v, w1, w2, y)
        dz = (h2 - y) / len(v)
        g_w2 = matmul(h1.T, dz)
        g_w1 = matmul(v.T, matmul(dz, w2.T) * (h1 > 0.0))
        step += 1
        c1 = 1.0 / (1.0 - BETA1 ** step)
        c2 = 1.0 / (1.0 - BETA2 ** step)
        adam(w2, moments["mW2"], moments["vW2"], g_w2, c1, c2)
        adam(w1, moments["mW1"], moments["vW1"], g_w1, c1, c2)
        losses.append(loss)
        accs.append(acc)
    sha = hashlib.sha256(checkpoint_bytes(w1, w2, moments, step)).hexdigest()
    return w1, w2, {"checkpoint_sha256": sha,
                    "train_loss": sum(losses) / len(losses),
                    "train_accuracy": sum(accs) / len(accs)}


def scores(seed, w1, w2):
    """Scores of the trained weights on the seed's test fixture: the mean
    batch loss and accuracy of an inference epoch, and the image-weighted
    accuracy that ``convpipe test`` reports."""
    losses, accs, correct, n = [], [], 0.0, 0
    for images, y in batches(*fixture(seed + 2, N_TEST)):
        _, _, loss, acc = forward(host(images), w1, w2, y)
        losses.append(loss)
        accs.append(acc)
        correct += acc * BATCH
        n += BATCH
    return {"test_loss": sum(losses) / len(losses),
            "test_accuracy": sum(accs) / len(accs),
            "cli_test_accuracy": correct / n}


def seed_outputs(seed):
    """Pinned outputs for the seed if there are any, else the oracle's."""
    pinned = load_pinned()["seeds"].get(str(seed))
    if pinned is not None:
        return pinned
    return oracle_outputs(seed)


def oracle_outputs(seed):
    w1, w2, out = train_epoch(seed)
    out.update(scores(seed, w1, w2))
    return out


# -- pinning --------------------------------------------------------------------

def pin_from_program(seeds=(0, 1)):
    """pinned.json's content, computed by convpipe itself."""
    import tempfile

    from convpipe import accelmodel, cli, pipeline
    from convpipe.checkpoint import save_checkpoint
    from convpipe.neuralcore import ModelState

    estimates = {}
    for mode in PASSES:
        for mults in MULTIPLIERS:
            for unroll in FC_UNROLLS:
                est = accelmodel.estimate_pass(
                    mode, accelmodel.ResourceBudget(max_multipliers=mults),
                    fc_unroll=unroll)
                estimates[estimate_key(mode, mults, unroll)] = {
                    "nest_cycles": [[r.name, r.cycles] for r in est.reports],
                    "total_cycles": est.total_cycles}
    seed_table = {}
    with tempfile.TemporaryDirectory(dir=PINNED_PATH.parent.parent) as tmp:
        ckpt, report = Path(tmp) / "w.ckpt", Path(tmp) / "r.json"
        for seed in seeds:
            cfg = pipeline.RunConfig(seed=seed)
            train, test = pipeline.load_datasets(cfg)
            state, tr = pipeline.run_epoch(train, ModelState.initial(seed), "sequential",
                                           True, cfg.budget)
            save_checkpoint(ckpt, state)
            state, te = pipeline.run_epoch(test, state, "sequential", False, cfg.budget)
            if cli.main(["test", "--synthetic", "--seed", str(seed), "--checkpoint",
                         str(ckpt), "--report", str(report)]) != 0:
                raise RuntimeError("convpipe test failed")
            seed_table[str(seed)] = {
                "checkpoint_sha256": hashlib.sha256(ckpt.read_bytes()).hexdigest(),
                "train_loss": tr.mean_loss, "train_accuracy": tr.accuracy,
                "test_loss": te.mean_loss, "test_accuracy": te.accuracy,
                "cli_test_accuracy": json.loads(report.read_text())["test_accuracy"]}
    return {"estimates": estimates, "seeds": seed_table}


if __name__ == "__main__":
    import contextlib
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with contextlib.redirect_stdout(sys.stderr):
        pinned = pin_from_program()
    print(json.dumps(pinned, indent=1, sort_keys=True))
