"""Tests of the benchmark itself: tracing, self-time arithmetic, the
correctness gate and the output contract.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from convpipe import checkpoint, pipeline  # noqa: E402
from convpipe.neuralcore import ModelState  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_patched_restores_module_attributes():
    targets = [(m, a) for m, a, *_ in tracing.TARGETS] + [(pipeline, "queue")]
    originals = [getattr(m, a) for m, a in targets]
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()) as absent:
            assert absent == []
            assert all(getattr(m, a) is not o for (m, a), o in zip(targets, originals))
            raise RuntimeError("leave the block early")
    assert all(getattr(m, a) is o for (m, a), o in zip(targets, originals))


def test_traced_pipelined_epoch_records_threads_batches_and_queue():
    cfg = pipeline.RunConfig(synthetic_train=64, synthetic_test=0)
    batches, _ = pipeline.load_datasets(cfg)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        pipeline.run_epoch(batches, ModelState.initial(0), pipeline.PIPELINED, True, cfg.budget)
    by_name = Counter(sp.name for sp in tracer.spans)
    assert by_name["hoststage.host_stage"] == by_name["neuralcore.accel_kernel"] == 2
    assert by_name["neuralcore.matmul_kseq"] == 10
    assert by_name["pipeline.queue.put"] == 3  # two batches and the end marker
    host = [sp for sp in tracer.spans if sp.name == "hoststage.host_stage"]
    accel = [sp for sp in tracer.spans if sp.name == "neuralcore.accel_kernel"]
    assert [sp.batch for sp in host] == [sp.batch for sp in accel] == [0, 1]
    assert host[0].thread != accel[0].thread and host[0].parent is None
    assert all(sp.parent.name == "pipeline.run_epoch" for sp in accel)
    shapes = {sp.detail for sp in tracer.spans if sp.name == "neuralcore.matmul_kseq"}
    assert shapes == set(tracing.MATMUL_SHAPES)


def test_self_time_subtracts_the_union_of_child_intervals():
    root = tracing.Span("root", 0.0, 10.0)
    a = tracing.Span("a", 1.0, 3.0, parent=root)
    b = tracing.Span("b", 2.0, 5.0, parent=root)   # overlaps a: [1, 5] counted once
    c = tracing.Span("c", 8.0, 12.0, parent=root)  # clipped to the parent's end
    grandchild = tracing.Span("g", 2.5, 4.0, parent=b)
    other = tracing.Span("other", 0.0, 10.0)       # no children
    spans = [root, a, b, c, grandchild, other]
    selfs = tracing.self_times(spans)
    assert selfs[id(root)] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[id(b)] == pytest.approx(3.0 - 1.5)
    assert selfs[id(a)] == pytest.approx(2.0)
    assert selfs[id(other)] == pytest.approx(10.0)
    totals = tracing.aggregate(spans)
    assert totals["root"][tracing.STATS["self_s"]] == pytest.approx(4.0)
    assert totals["b"][tracing.STATS["busy_s"]] == pytest.approx(3.0)


def test_gate_flags_a_perturbed_checkpoint_byte(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["train_seq"]
    ctx = workload.setup(0, tmp_path)
    expected = workload.expected(ctx)
    _, outputs = workload.op(ctx)
    assert reference.judge(Counter(outputs.items()), expected)[:2] == (1, 0)

    save = checkpoint.save_checkpoint

    def save_with_one_byte_flipped(path, state):
        save(path, state)
        data = bytearray(Path(path).read_bytes())
        data[100] ^= 1
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(checkpoint, "save_checkpoint", save_with_one_byte_flipped)
    _, outputs = workload.op(ctx)
    attempted, failed, mismatches = reference.judge(Counter(outputs.items()), expected)
    assert (attempted, failed) == (1, 1)
    assert mismatches[0][0] == "epoch"


@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_reproduces_the_pinned_seeds(seed):
    assert reference.oracle_outputs(seed) == reference.load_pinned()["seeds"][str(seed)]


def test_pinned_default_design_point():
    pinned = reference.load_pinned()["estimates"]
    training = dict(pinned["training/m25/u4x4"]["nest_cycles"])
    assert training["fc_forward"] == 45056 and training["grad_w1"] == 53664
    assert pinned["training/m25/u4x4"]["total_cycles"] == 143592


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_metrics_benchmark_json_lists(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", "estimate_sweep", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert "metric failed_ratio 0.0 ratio" in proc.stdout


def test_per_layer_list_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "train_seq", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
