"""Command-line entry point: train, test, and estimate workflows.

Configuration precedence is defaults < JSON config file (--config) <
command-line flags. CONVPIPE_DATA_DIR serves as the data-dir fallback.
Reports are JSON with top-level keys config, epochs, latency_model and
schedule_reports; --epochs-csv additionally exports the epochs table.
"""

import argparse
import csv
import json
import os
import sys

from .accelmodel import ResourceBudget, cycles_to_seconds, estimate_pass
from .adam import AdamHyper
from .checkpoint import load_checkpoint
from .dims import ModelDims
from .neuralcore import accuracy as _accuracy
from .neuralcore import accel_kernel
from .hoststage import host_stage
from .pipeline import (MODES, PIPELINED, RunConfig, load_datasets,
                       run_training, sequential_seconds, speedup_summary,
                       two_stage_pipeline_seconds)

ENV_DATA_DIR = "CONVPIPE_DATA_DIR"


def _dims_from_dict(d):
    dims = ModelDims(
        batch=d.get("batch", 32),
        image_x=d.get("image_x", 28),
        image_y=d.get("image_y", 28),
        kernel_x=d.get("kernel_x", 3),
        kernel_y=d.get("kernel_y", 3),
        hidden=d.get("hidden", 128),
        classes=d.get("classes", 10),
    )
    if "pool_map" in d and d["pool_map"] != dims.pool_map:
        raise ValueError(f"configured pool_map {d['pool_map']} does not match "
                         f"value {dims.pool_map} derived from image/kernel dims")
    return dims


def _load_config_file(path):
    with open(path) as f:
        return json.load(f)


def build_run_config(args):
    """Merge defaults, config file, environment and flags into a RunConfig."""
    file_cfg = _load_config_file(args.config) if args.config else {}

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            return file_cfg[key]
        return default

    data_dir = pick(getattr(args, "data_dir", None), "data_dir",
                    os.environ.get(ENV_DATA_DIR))
    if getattr(args, "synthetic", False):
        data_dir = None

    adam_cfg = file_cfg.get("adam", {})
    hyper = AdamHyper(beta1=adam_cfg.get("beta1", 0.9),
                      beta2=adam_cfg.get("beta2", 0.999),
                      eta=adam_cfg.get("eta", 0.01),
                      eps=adam_cfg.get("eps", 1e-7))
    budget_cfg = file_cfg.get("budget", {})

    def pick_budget(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return budget_cfg.get(key, default)

    budget = ResourceBudget(
        max_multipliers=pick_budget(args.max_multipliers, "max_multipliers", 25),
        max_adders=budget_cfg.get("max_adders", 25),
        pipeline_depth=pick_budget(args.pipeline_depth, "pipeline_depth", 8),
        clock_ns=pick_budget(args.clock_ns, "clock_ns", 10.0),
        interface_cycles_per_word=budget_cfg.get("interface_cycles_per_word", 2),
    )
    dims_cfg = file_cfg.get("dims", {})
    batch = pick(getattr(args, "batch_size", None), "batch_size",
                 dims_cfg.get("batch", 32))
    return RunConfig(
        data_dir=data_dir,
        synthetic_train=file_cfg.get("synthetic_train", 2048),
        synthetic_test=file_cfg.get("synthetic_test", 512),
        epochs=pick(getattr(args, "epochs", None), "epochs", 1),
        seed=pick(args.seed, "seed", 0),
        mode=pick(getattr(args, "mode", None), "mode", PIPELINED),
        dims=_dims_from_dict({**dims_cfg, "batch": batch}),
        hyper=hyper,
        budget=budget,
        checkpoint_path=pick(getattr(args, "checkpoint", None),
                             "checkpoint_path", None),
        report_path=pick(getattr(args, "report", None), "report_path", None),
    )


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
    cfg = build_run_config(args)
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
    cfg = build_run_config(args)
    if not getattr(args, "checkpoint", None):
        raise ValueError("test requires --checkpoint")
    state = load_checkpoint(args.checkpoint, cfg.hyper, cfg.dims)
    _, test_batches = load_datasets(cfg)
    correct_sum = 0.0
    n = 0
    for batch in test_batches:
        conv = host_stage(batch)
        trace, state = accel_kernel(conv, state, False)
        correct_sum += _accuracy(trace.h2, conv.out_actual) * conv.v.shape[0]
        n += conv.v.shape[0]
    acc = correct_sum / n if n else 0.0
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


def _parse_unroll(spec):
    if isinstance(spec, (list, tuple)):
        parts = list(spec)
    else:
        parts = str(spec).split(",")
    if len(parts) != 2:
        raise ValueError("unroll-fc expects two comma-separated factors")
    return int(parts[0]), int(parts[1])


def cmd_estimate(args):
    cfg = build_run_config(args)
    file_cfg = _load_config_file(args.config) if args.config else {}
    fc_unroll = None
    if getattr(args, "unroll_fc", None):
        fc_unroll = _parse_unroll(args.unroll_fc)
    elif "unroll_fc" in file_cfg:
        fc_unroll = _parse_unroll(file_cfg["unroll_fc"])
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
        p.add_argument("--report", help="write a JSON report here")
        p.add_argument("--max-multipliers", type=int, default=None)
        p.add_argument("--pipeline-depth", type=int, default=None)
        p.add_argument("--clock-ns", type=float, default=None)
        if with_data:
            p.add_argument("--data-dir",
                           help=f"directory with IDX files "
                                f"(fallback: ${ENV_DATA_DIR})")
            p.add_argument("--batch-size", type=int, default=None)
            p.add_argument("--synthetic", action="store_true",
                           help="ignore data dir and use the synthetic fixture")

    p_train = sub.add_parser("train", help="train and score each epoch")
    common(p_train)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--mode", choices=list(MODES), default=None)
    p_train.add_argument("--checkpoint", help="write final weights here")
    p_train.add_argument("--epochs-csv", help="also write the epoch table as CSV")
    p_train.set_defaults(func=cmd_train)

    p_test = sub.add_parser("test", help="inference-only scoring of a checkpoint")
    common(p_test)
    p_test.add_argument("--checkpoint", required=True)
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
