"""convpipe benchmark.

One workload, in this process:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints readable lines (environment, what was run, every metric with its
unit, the gate's verdict) and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

Every workload, each in its own process, untraced and then traced:

    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

adds the tracing overhead.  README.md describes the workloads, the metrics
and the correctness gate.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

# Load comes from one process with at most two threads (the pipelined
# mode's producer and consumer), so numerical libraries get one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import convpipe  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import convpipe from {ROOT / 'src'}: {exc}")
if Path(convpipe.__file__).resolve().parent != ROOT / "src" / "convpipe":
    sys.exit(f"perfbench: convpipe was imported from {convpipe.__file__}, "
             f"not from {ROOT / 'src'}")

import numpy  # noqa: E402

import calibration  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Measured, not calibrated: import time is mostly file access and process
# memory set-up, which the probes do not track.
IMPORT_S = time.perf_counter() - _START
SETUP_REPEATS = 3
END_TO_END = (("samples_per_s", "images/s"), ("estimates_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def environment():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "numpy": numpy.__version__,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}


def measure(workload, seed, seconds, tracer, workdir):
    """Set up SETUP_REPEATS times, run operations for `seconds`, then judge
    every output against the reference.  Each set-up and each operation is
    followed by the workload's calibration probe, which gives its slowdown."""
    setups, ctx = [], None
    for _ in range(SETUP_REPEATS):
        ctx = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        ctx = workload.setup(seed, workdir)
        wall = time.perf_counter() - t0
        setups.append(wall / calibration.slowdown(workload.probe))

    tracer.phase = "timed"
    ops, seen, raised = [], Counter(), 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not (ops or raised):
        try:
            op, outputs = workload.op(ctx)
        except Exception:
            if not raised:
                traceback.print_exc()
            raised += 1
            continue
        op.slowdown = calibration.slowdown(workload.probe)
        ops.append(op)
        seen.update(outputs.items())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer.phase = "check"
    try:
        seen.update(workload.verify(ctx).items())
    except Exception:
        traceback.print_exc()
        raised += 1
    attempted, failed, mismatches = reference.judge(seen, workload.expected(ctx))
    return dict(setups=setups, ops=ops, peak_rss_mb=peak_rss_mb, attempted=attempted + raised,
                failed=failed + raised, mismatches=mismatches)


def _median_rate(ops, field):
    """Median over operations of work per second at nominal machine speed."""
    return statistics.median(getattr(op, field) * op.slowdown / op.wall_s
                             for op in ops) if ops else 0.0


def end_to_end(m):
    values = {"samples_per_s": _median_rate(m["ops"], "samples"),
              "estimates_per_s": _median_rate(m["ops"], "estimates"),
              "setup_s": IMPORT_S + statistics.median(m["setups"]),
              "peak_rss_mb": m["peak_rss_mb"]}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def print_timing(ops):
    if not ops:
        return
    walls = sorted(op.wall_s / op.slowdown for op in ops)
    n = len(walls)
    line = f"timing: {n} operations, nominal wall median {statistics.median(walls):.6f} s"
    if n > 10:  # highest percentile with at least ten operations beyond it
        line += f", p{100 * (n - 10) / n:.0f} {walls[n - 11]:.6f} s"
    print(line + f"; measured wall median {statistics.median(op.wall_s for op in ops):.6f} s "
          f"at slowdown median {statistics.median(op.slowdown for op in ops):.3f}")


def print_accounting(timed, n_ops, op_wall_s):
    """Where an epoch's wall time went.  In pipelined mode host_stage runs
    in the producer thread, so the shares can add up to more than 100%."""
    if not n_ops or "pipeline.run_epoch" not in timed:
        return
    busy, own = tracing.STATS["busy_s"], tracing.STATS["self_s"]
    parts = {"host_stage": timed["hoststage.host_stage"][busy],
             "accel_kernel": timed["neuralcore.accel_kernel"][busy],
             "estimate_pass": timed["accelmodel.estimate_pass"][busy],
             "run_epoch self": timed["pipeline.run_epoch"][own]}
    print(f"trace: per epoch of {op_wall_s / n_ops:.4f} s wall: "
          + " + ".join(f"{k} {v / n_ops:.4f} s" for k, v in parts.items())
          + f" = {sum(parts.values()) / op_wall_s:.1%} of the wall")


def run_one(args):
    workload = WORKLOADS[args.workload]
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {workload.describe()}")
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp, \
            (tracing.patched(tracer) if args.trace else nullcontext([])) as absent:
        m = measure(workload, args.seed, args.seconds, tracer, Path(tmp))
    for key, got, wanted in m["mismatches"][:5]:
        print(f"gate: {key} gave {got!r}, reference {wanted!r}", file=sys.stderr)

    print_timing(m["ops"])
    print(f"setup: imports {IMPORT_S:.4f} s measured, set-ups "
          + ", ".join(f"{s:.4f}" for s in m["setups"]) + " s at nominal speed")
    metrics = end_to_end(m)
    if args.trace:
        if absent:
            print("trace: not traced (absent): " + ", ".join(absent))
        timed = tracing.aggregate(s for s in tracer.spans if s.phase == "timed")
        setup = tracing.aggregate(s for s in tracer.spans if s.phase == "setup")
        n_ops, op_wall_s = len(m["ops"]), sum(op.wall_s for op in m["ops"])
        print_accounting(timed, n_ops, op_wall_s)
        print(f"trace: {len(tracer.spans)} spans")
        shown = {workload.primary: metrics[workload.primary]}
        metrics = tracing.per_layer(timed, setup, n_ops, op_wall_s, SETUP_REPEATS)
        shown.update(metrics)
    else:
        shown = dict(metrics)
    shown["failed_ratio"] = {"value": m["failed"] / m["attempted"], "unit": "ratio"}
    for name, metric in shown.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(f"gate: {m['failed']} of {m['attempted']} operations failed")
    print(json.dumps({"correct": m["failed"] == 0, "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, untraced then traced."""
    status = 0
    for name, workload in WORKLOADS.items():
        primary = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=args.seconds + 600)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
                if line.startswith(f"metric {workload.primary} "):
                    primary[trace] = float(line.split()[2])
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print(f"[{name} trace={trace}] FAILED (exit {proc.returncode})\n{proc.stderr}")
                status = 1
        if len(primary) == 2:
            print(f"[{name}] tracing overhead: {workload.primary} {primary[1]:.1f} traced "
                  f"against {primary[0]:.1f} untraced = {1 - primary[1] / primary[0]:.1%} slower")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
