"""Command-line entry point: train, test, and estimate workflows.

Configuration precedence is dataclass defaults < CONVPIPE_DATA_DIR (the
data-dir fallback) < JSON config file (--config) < command-line flags. The
file takes a report's config keys and rejects any other key, a value of
the wrong JSON type, or one below its field's "min", by its dotted path.
Reports are JSON with top-level keys config, epochs, latency_model and
schedule_reports; --epochs-csv additionally exports the epochs table.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import fields, is_dataclass

from .accelmodel import cycles_to_seconds, estimate_pass
from .checkpoint import load_checkpoint
from .neuralcore import accuracy as _accuracy
from .neuralcore import accel_kernel
from .hoststage import host_stage
from .pipeline import (MODES, RunConfig, load_split, run_training,
                       sequential_seconds, speedup_summary,
                       two_stage_pipeline_seconds)

ENV_DATA_DIR = "CONVPIPE_DATA_DIR"

# field type -> (its JSON type, the Python types json.load gives for it)
_JSON_TYPES = {int: ("an integer", int), float: ("a number", (int, float)),
               str: ("a string", str),
               str | None: ("a string or null", (str, type(None)))}

# report keys that are derived values, not fields; load_config checks them
_DERIVED = {"batch_size": int}


def _field_values(cls, data, path, problems):
    """data's values for dataclass cls by field name, each nested dataclass
    as a dict of its own, plus any _DERIVED key; appends each unknown key
    and ill-typed value to problems."""
    if not isinstance(data, dict):
        problems.append(f"{path} must be an object, got {json.dumps(data)}")
        return {}
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls)}
    values = {}
    for key, value in data.items():
        dotted = f"{path}.{key}" if path else key
        f = by_key.get(key)
        kind = f.type if f else _DERIVED.get(dotted)
        if kind is None:
            problems.append(f"unknown key {dotted}")
        elif is_dataclass(kind):
            values[f.name] = _field_values(kind, value, dotted, problems)
        else:
            name, accepted = _JSON_TYPES[kind]
            low = f.metadata.get("min") if f else None
            if isinstance(value, bool) or not isinstance(value, accepted):
                problems.append(f"{dotted} must be {name}, got "
                                f"{json.dumps(value)}")
            elif low is not None and value < low:
                problems.append(f"{dotted} must be >= {low}, got {value}")
            values[f.name if f else key] = value
    return values


def _build(cls, values):
    """cls(**values), each nested dict built as its field's dataclass."""
    types = {f.name: f.type for f in fields(cls)}
    return cls(**{name: _build(types[name], v) if isinstance(v, dict) else v
                  for name, v in values.items()})


def _parse_unroll(spec, name):
    """(a, b) from "a,b" or [a, b], each a positive integer."""
    if isinstance(spec, str):
        spec = [int(p) if p.strip().isdigit() else p for p in spec.split(",")]
    if not (isinstance(spec, list) and len(spec) == 2
            and all(type(f) is int and f > 0 for f in spec)):
        raise ValueError(f"{name} expects two positive integers, e.g. 4,4")
    return tuple(spec)


def load_config(args):
    """(RunConfig, fc_unroll) from args' flags, the config file,
    $CONVPIPE_DATA_DIR and the dataclass defaults, highest first;
    --synthetic forces data_dir to None."""
    path, values, fc_unroll, problems = args.config, {}, None, []
    if path:
        try:
            with open(path) as f:
                data = json.load(f)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: the config must be a JSON object, "
                             f"got {json.dumps(data)}")
        if "unroll_fc" in data:
            fc_unroll = _parse_unroll(data.pop("unroll_fc"),
                                      f"{path}: unroll_fc")
        values = _field_values(RunConfig, data, "", problems)
        if problems:
            raise ValueError(f"{path}: " + "; ".join(problems))
    dims = values.setdefault("dims", {})
    pool_map = dims.pop("pool_map", None)
    batch = values.pop("batch_size", None)
    if batch is not None and dims.setdefault("batch", batch) != batch:
        raise ValueError(f"{path}: batch_size {batch} disagrees with "
                         f"dims.batch {dims['batch']}")
    if ENV_DATA_DIR in os.environ:
        values.setdefault("data_dir", os.environ[ENV_DATA_DIR])
    names = {f.name for f in fields(RunConfig)}
    for key, value in vars(args).items():  # a flag's dest is its config key
        group, _, name = key.rpartition(".")
        if value is not None and (group or name) in names:
            (values.setdefault(group, {}) if group else values)[name] = value
    if getattr(args, "synthetic", False):
        values["data_dir"] = None
    if getattr(args, "unroll_fc", None):
        fc_unroll = _parse_unroll(args.unroll_fc, "--unroll-fc")
    cfg = _build(RunConfig, values)
    if pool_map is not None and pool_map != cfg.dims.pool_map:
        raise ValueError(f"{path}: dims.pool_map {pool_map} does not match "
                         f"{cfg.dims.pool_map} derived from image/kernel dims")
    return cfg, fc_unroll


def _write_report(report_dict, path):
    with open(path, "w") as f:
        json.dump(report_dict, f, indent=2)
        f.write("\n")


def _write_epochs_csv(epochs, path):
    keys = []
    for entry in epochs:
        for k in entry:
            if k not in keys:
                keys.append(k)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=keys)
        writer.writeheader()
        writer.writerows(epochs)


def cmd_train(args):
    cfg, _ = load_config(args)
    report = run_training(cfg)
    for entry in report.epochs:
        if "train_loss" in entry:
            print(f"epoch {entry['epoch']:3d}  "
                  f"loss {entry['train_loss']:.4f}  "
                  f"train acc {entry['train_accuracy']:.4f}  "
                  f"test acc {entry['test_accuracy']:.4f}  "
                  f"host {entry['train_host_seconds']:.3f}s  "
                  f"accel(model) {entry['train_accel_seconds_modeled']:.3f}s")
        else:
            print(f"epoch {entry['epoch']:3d}  (no training)  "
                  f"test acc {entry['test_accuracy']:.4f}")
    summary = report.latency_model["speedup"]
    if summary["sequential_over_pipelined"] is not None:
        print(f"modeled speedup sequential/pipelined: "
              f"{summary['sequential_over_pipelined']:.2f} "
              f"(bottleneck: {summary['bottleneck']})")
    if cfg.report_path:
        _write_report(report.as_dict(), cfg.report_path)
        print(f"report written to {cfg.report_path}")
    if getattr(args, "epochs_csv", None):
        _write_epochs_csv(report.epochs, args.epochs_csv)
        print(f"epoch table written to {args.epochs_csv}")
    if cfg.checkpoint_path:
        print(f"checkpoint written to {cfg.checkpoint_path}")
    return 0


def cmd_test(args):
    cfg, _ = load_config(args)
    state = load_checkpoint(cfg.checkpoint_path, cfg.hyper, cfg.dims)
    test_batches = load_split(cfg, "test")
    correct_sum = 0.0
    n = 0
    for batch in test_batches:
        conv = host_stage(batch)
        trace, state = accel_kernel(conv, state, False)
        correct_sum += _accuracy(trace.h2, conv.out_actual) * conv.v.shape[0]
        n += conv.v.shape[0]
    acc = correct_sum / n
    est = estimate_pass("inference", cfg.budget, cfg.dims)
    per_batch_s = cycles_to_seconds(est.total_cycles, cfg.budget)
    print(f"test accuracy: {acc:.4f} over {n} images")
    print(f"modeled inference latency: {est.total_cycles} cycles/batch "
          f"({per_batch_s * 1e6:.1f} us/batch, "
          f"{per_batch_s * len(test_batches):.4f} s total)")
    if cfg.report_path:
        _write_report({"config": cfg.as_dict(),
                       "test_accuracy": acc,
                       "images": n,
                       "inference": est.as_dict()}, cfg.report_path)
    return 0


def _print_estimate(est, budget):
    print(f"== {est.mode} pass ==")
    for r in est.reports:
        stalls = f", stalls {len(r.stall_events)}" if r.stall_events else ""
        print(f"  {r.name:18s} cycles {r.cycles:8d}  II {r.effective_ii}  "
              f"tiles {r.tiles:5d}  launches {r.launches_per_tile:4d}  "
              f"mult {r.multipliers_used:3d}/{r.multipliers_demanded:<3d} "
              f"add {r.adders_used:3d}/{r.adders_demanded:<3d}{stalls}")
    print(f"  transfer {est.transfer_cycles} cycles, compute "
          f"{est.compute_cycles} cycles, total {est.total_cycles} cycles "
          f"({cycles_to_seconds(est.total_cycles, budget) * 1e6:.1f} us/batch)")
    print(f"  resource peak: {est.peak_multipliers} multipliers, "
          f"{est.peak_adders} adders")
    print(f"  storage words: {est.storage_totals}")


def cmd_estimate(args):
    cfg, fc_unroll = load_config(args)
    infer = estimate_pass("inference", cfg.budget, cfg.dims, fc_unroll)
    train = estimate_pass("training", cfg.budget, cfg.dims, fc_unroll)
    _print_estimate(infer, cfg.budget)
    _print_estimate(train, cfg.budget)

    n = args.num_batches
    accel_train = cycles_to_seconds(train.total_cycles, cfg.budget)
    accel_infer = cycles_to_seconds(infer.total_cycles, cfg.budget)
    host = args.host_batch_seconds
    if host is not None:
        for label, accel in (("training", accel_train), ("inference", accel_infer)):
            hs, as_ = [host] * n, [accel] * n
            seq = sequential_seconds(hs, as_)
            pipe = two_stage_pipeline_seconds(hs, as_)
            summary = speedup_summary({"host_seconds": host * n,
                                       "accel_seconds": accel * n,
                                       "sequential_seconds": seq,
                                       "pipelined_seconds": pipe})
            print(f"{label}: n={n} host={host:.6f}s/batch "
                  f"accel={accel:.6f}s/batch -> sequential {seq:.3f}s, "
                  f"pipelined {pipe:.3f}s, speedup "
                  f"{summary['sequential_over_pipelined']:.2f} "
                  f"(bottleneck: {summary['bottleneck']})")
    if cfg.report_path:
        _write_report({"config": cfg.as_dict(),
                       "inference": infer.as_dict(),
                       "training": train.as_dict()}, cfg.report_path)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="convpipe",
        description="Split CNN trainer with a modeled accelerator stage")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_data=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--report", dest="report_path",
                       help="write a JSON report here")
        p.add_argument("--max-multipliers", dest="budget.max_multipliers",
                       type=int)
        p.add_argument("--pipeline-depth", dest="budget.pipeline_depth",
                       type=int)
        p.add_argument("--clock-ns", dest="budget.clock_ns", type=float)
        if with_data:
            p.add_argument("--data-dir",
                           help=f"directory with IDX files "
                                f"(fallback: ${ENV_DATA_DIR})")
            p.add_argument("--batch-size", dest="dims.batch", type=int)
            p.add_argument("--synthetic", action="store_true",
                           help="ignore data dir and use the synthetic fixture")

    p_train = sub.add_parser("train", help="train and score each epoch")
    common(p_train)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--mode", choices=list(MODES), default=None)
    p_train.add_argument("--checkpoint", dest="checkpoint_path",
                         help="write final weights here")
    p_train.add_argument("--epochs-csv", help="also write the epoch table as CSV")
    p_train.set_defaults(func=cmd_train)

    p_test = sub.add_parser("test", help="inference-only scoring of a checkpoint")
    common(p_test)
    p_test.add_argument("--checkpoint", dest="checkpoint_path", required=True)
    p_test.set_defaults(func=cmd_test)

    p_est = sub.add_parser("estimate",
                           help="schedule/resource estimates, no dataset needed")
    common(p_est, with_data=False)
    p_est.add_argument("--unroll-fc",
                       help="override hidden-layer nest unroll, e.g. 4,4")
    p_est.add_argument("--host-batch-seconds", type=float, default=None,
                       help="hypothetical host time per batch for mode algebra")
    p_est.add_argument("--num-batches", type=int, default=1875)
    p_est.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
