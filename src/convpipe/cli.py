"""Command-line entry point: train, test, and estimate workflows.

Configuration precedence is dataclass defaults < CONVPIPE_DATA_DIR (the
data-dir fallback) < JSON config file (--config) < command-line flags. The
file takes a report's config keys and rejects any other key, a value of
the wrong JSON type, or one its dataclass rejects, by its dotted path. A
derived key (batch_size, dims.kernel_x, dims.kernel_y, dims.pool_map) sets
nothing: the file may state it only at the value its own values derive.
Reports are JSON with top-level keys config, epochs, latency_model and
schedule_reports; --epochs-csv additionally exports the epochs table.

Each command's options are a row of COMMANDS. main gives options only to
the command its first word names, so a run builds no other command's; the
parser keeps a subparser for every command, so usage lines and errors name
them all, and any other first word gets the full parser, build_parser().
"""

import argparse
import csv
import json
import math
import operator
import os
import shutil
import stat
import sys
from dataclasses import fields, is_dataclass
from functools import partial, reduce

from .accelmodel import cycles_to_seconds, estimate_pass
from .checkpoint import load_checkpoint
# unused here; perfbench/tracing.py patches cli.host_stage and cli.accel_kernel
from .hoststage import host_stage
from .neuralcore import accel_kernel
from .pipeline import (MODES, SEQUENTIAL, RunConfig, constant_stage_seconds,
                       load_split, run_epoch, run_training, speedup_summary)

ENV_DATA_DIR = "CONVPIPE_DATA_DIR"

# field type -> (its JSON type, the Python types json.load gives for it)
_JSON_TYPES = {int: ("an integer", int), float: ("a number", (int, float)),
               str: ("a string", str),
               str | None: ("a string or null", (str, type(None)))}


def _field_values(cls, data, path, problems, derived):
    """data's values for dataclass cls's init fields by name, each nested
    dataclass as a dict of its own; appends each unknown key, ill-typed
    value and value its dataclass rejects to problems, and the (dotted key,
    value) of each derived (init=False) field to derived."""
    if not isinstance(data, dict):
        problems.append(f"{path} must be an object, got {json.dumps(data)}")
        return {}
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls)}
    values = {}
    for key, value in data.items():
        dotted = f"{path}.{key}" if path else key
        f = by_key.get(key)
        if f is None:
            problems.append(f"unknown key {dotted}")
        elif is_dataclass(f.type):
            values[f.name] = _field_values(f.type, value, dotted, problems,
                                           derived)
        else:
            name, accepted = _JSON_TYPES[f.type]
            if isinstance(value, bool) or not isinstance(value, accepted):
                problems.append(f"{dotted} must be {name}, got "
                                f"{json.dumps(value)}")
            elif not f.init:
                derived.append((dotted, value))
            else:
                try:  # the value alone, every other field at its default
                    cls(**{f.name: value})
                except ValueError as exc:
                    problems.append(f"{dotted}: {exc}")
                values[f.name] = value
    return values


def _build(cls, values):
    """cls(**values), each nested dict built as its field's dataclass."""
    built = {}
    for f in fields(cls):
        if f.name in values:
            value = values[f.name]
            if isinstance(value, dict):
                value = _build(f.type, value)
            built[f.name] = value
    return cls(**built)


def _parse_unroll(spec, name):
    """(a, b) from "a,b" or [a, b], each a positive integer."""
    if isinstance(spec, str):
        spec = [int(p) if p.strip().isdecimal() else p for p in spec.split(",")]
    if not (isinstance(spec, list) and len(spec) == 2
            and all(type(f) is int and f > 0 for f in spec)):
        raise ValueError(f"{name} expects two positive integers, e.g. 4,4")
    return tuple(spec)


def load_config(args):
    """(RunConfig, fc_unroll) from args' flags, the config file,
    $CONVPIPE_DATA_DIR and the dataclass defaults, highest first;
    --synthetic forces data_dir to None."""
    path, values, fc_unroll, problems, derived = args.config, {}, None, [], []
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
        values = _field_values(RunConfig, data, "", problems, derived)
        if not problems:  # each derived key against the file's own values
            report = _build(RunConfig, values).as_dict()
            for dotted, value in derived:
                want = reduce(operator.getitem, dotted.split("."), report)
                if value != want:
                    problems.append(f"{dotted} {value} differs from its "
                                    f"derived value {want}")
        if problems:
            raise ValueError(f"{path}: " + "; ".join(problems))
    if os.environ.get(ENV_DATA_DIR):  # an empty value counts as unset
        values.setdefault("data_dir", os.environ[ENV_DATA_DIR])
    names = {f.name for f in fields(RunConfig)}
    for key, value in vars(args).items():  # a flag's dest is its config key
        group, _, name = key.rpartition(".")
        if value is not None and (group or name) in names:
            (values.setdefault(group, {}) if group else values)[name] = value
    if getattr(args, "synthetic", False):
        values["data_dir"] = None
    if getattr(args, "unroll_fc", None) is not None:
        fc_unroll = _parse_unroll(args.unroll_fc, "--unroll-fc")
    return _build(RunConfig, values), fc_unroll


def _check_outputs(*paths):
    """Fail before any work on an output path that names a directory or
    lies in a directory that does not exist; None and "" write nothing."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path is a directory: {path}")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"output directory not found: {path}")


def _write_report(report_dict, path):
    """report_dict as JSON indented by 2, then a newline, encoded whole;
    json.dump would write each chunk of the same encoder's output.

    An existing file is rewritten in place and then cut to the new length,
    with the mode open(path, "w") gives a new one. Truncating it on open,
    or writing a temporary file and renaming it over the old, frees the
    old blocks: on an ext4 file system mounted with discard, rewriting a
    5 KB report took 65-86 us that way against 3.5 us in place. Only a
    regular file is cut, so that a device such as /dev/null takes the
    report too."""
    data = (json.dumps(report_dict, indent=2) + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_epochs_csv(epochs, path):
    """The epochs table under the first entry's keys, which every entry of
    one report shares."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(epochs[0]))
        writer.writeheader()
        writer.writerows(epochs)


def cmd_train(args):
    cfg, _ = load_config(args)
    _check_outputs(cfg.report_path, cfg.checkpoint_path,
                   getattr(args, "epochs_csv", None))
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
    _check_outputs(cfg.report_path)
    state = load_checkpoint(cfg.checkpoint_path, cfg.hyper, cfg.dims)
    _, res = run_epoch(load_split(cfg, "test"), state, SEQUENTIAL, False,
                       cfg.budget, cfg.dims)
    n, est = res.n_batches * cfg.batch_size, res.estimate
    print(f"test accuracy: {res.accuracy:.4f} over {n} images")
    print(f"modeled inference latency: {est.total_cycles} cycles/batch "
          f"({cycles_to_seconds(est.total_cycles, cfg.budget) * 1e6:.1f} "
          f"us/batch, {res.accel_seconds:.4f} s total)")
    if cfg.report_path:
        _write_report({"config": cfg.as_dict(),
                       "test_accuracy": res.accuracy,
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
    if args.num_batches < 1:
        raise ValueError(f"--num-batches must be >= 1, got {args.num_batches}")
    host = args.host_batch_seconds
    if host is not None and not 0 <= host < math.inf:
        raise ValueError(f"--host-batch-seconds must be finite and >= 0, "
                         f"got {host}")
    cfg, fc_unroll = load_config(args)
    _check_outputs(cfg.report_path)
    infer = estimate_pass("inference", cfg.budget, cfg.dims, fc_unroll)
    train = estimate_pass("training", cfg.budget, cfg.dims, fc_unroll)
    _print_estimate(infer, cfg.budget)
    _print_estimate(train, cfg.budget)

    n = args.num_batches
    accel_train = cycles_to_seconds(train.total_cycles, cfg.budget)
    accel_infer = cycles_to_seconds(infer.total_cycles, cfg.budget)
    if host is not None:
        for label, accel in (("training", accel_train), ("inference", accel_infer)):
            seq, pipe = constant_stage_seconds(n, host, accel)
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
        config = cfg.as_dict()
        if fc_unroll:  # so the config section reruns this estimate
            config["unroll_fc"] = list(fc_unroll)
        _write_report({"config": config,
                       "inference": infer.as_dict(),
                       "training": train.as_dict()}, cfg.report_path)
    return 0


# options every command takes, then those of the data commands (train, test)
_SHARED = (
    ("--config", {"help": "JSON config file"}),
    ("--report", {"dest": "report_path", "help": "write a JSON report here"}),
    ("--max-multipliers", {"dest": "budget.max_multipliers", "type": int}),
    ("--max-adders", {"dest": "budget.max_adders", "type": int}),
    ("--pipeline-depth", {"dest": "budget.pipeline_depth", "type": int}),
    ("--clock-ns", {"dest": "budget.clock_ns", "type": float}),
)
_DATA = (
    ("--seed", {"type": int, "default": None}),
    ("--data-dir", {"help": f"directory with IDX files "
                            f"(fallback: ${ENV_DATA_DIR})"}),
    ("--batch-size", {"dest": "dims.batch", "type": int}),
    ("--synthetic", {"action": "store_true",
                     "help": "ignore data dir and use the synthetic fixture"}),
)

# command -> (its help, its handler, its options in help order)
COMMANDS = {
    "train": ("train and score each epoch", cmd_train, (
        *_SHARED, *_DATA,
        ("--epochs", {"type": int, "default": None}),
        ("--mode", {"choices": list(MODES), "default": None}),
        ("--checkpoint", {"dest": "checkpoint_path",
                          "help": "write final weights here"}),
        ("--epochs-csv", {"help": "also write the epoch table as CSV"}))),
    "test": ("inference-only scoring of a checkpoint", cmd_test, (
        *_SHARED, *_DATA,
        ("--checkpoint", {"dest": "checkpoint_path", "required": True}))),
    "estimate": ("schedule/resource estimates, no dataset needed",
                 cmd_estimate, (
        *_SHARED,
        ("--unroll-fc", {"help": "override hidden-layer nest unroll, "
                                 "e.g. 4,4"}),
        ("--host-batch-seconds", {
            "type": float, "default": None,
            "help": "hypothetical host time per batch for mode algebra"}),
        ("--num-batches", {"type": int, "default": 1875}))),
}


def build_parser(command=None):
    """The convpipe parser, with a subparser for every command in COMMANDS,
    so that usage lines and errors name them all. Given a command's name,
    only that command's subparser takes its options; with None, every one
    does."""
    # argparse makes a formatter for each argument it adds, and the stock
    # formatter measures the terminal each time: this is the stock formatter
    # at the width it measures, measured once per build
    formatter = partial(argparse.HelpFormatter,
                        width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="convpipe",
        description="Split CNN trainer with a modeled accelerator stage",
        formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        p.set_defaults(func=func)
        if command in (None, name):
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # options for the command being run only; anything else parses in full
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
