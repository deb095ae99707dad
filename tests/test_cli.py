import argparse
import csv
import gzip
import json
import math
import os
import shutil
import zlib

import pytest

from convpipe import cli
from convpipe.accelmodel import ResourceBudget, cycles_to_seconds, estimate_pass
from convpipe.checkpoint import save_checkpoint
from convpipe.cli import build_parser, main
from convpipe.dataio import (LabelSet, synthetic_dataset, write_idx_images,
                             write_idx_labels)
from convpipe.dims import ModelDims
from convpipe.neuralcore import ModelState


@pytest.fixture()
def data_dir(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    train_img, train_lab = synthetic_dataset(100, 4 * 32)
    test_img, test_lab = synthetic_dataset(200, 2 * 32)
    write_idx_images(train_img, d / "train-images-idx3-ubyte")
    write_idx_labels(train_lab, d / "train-labels-idx1-ubyte")
    write_idx_images(test_img, d / "t10k-images-idx3-ubyte")
    write_idx_labels(test_lab, d / "t10k-labels-idx1-ubyte")
    return d


def test_train_writes_report_and_checkpoint(data_dir, tmp_path, capsys):
    report_path = tmp_path / "out.json"
    ckpt_path = tmp_path / "model.ckpt"
    rc = main(["train", "--data-dir", str(data_dir), "--epochs", "1",
               "--seed", "0", "--mode", "pipelined",
               "--report", str(report_path), "--checkpoint", str(ckpt_path)])
    assert rc == 0
    assert ckpt_path.exists()
    report = json.loads(report_path.read_text())
    assert set(report) == {"config", "epochs", "latency_model",
                           "schedule_reports"}
    assert len(report["epochs"]) == 1
    assert report["config"]["seed"] == 0
    assert "epoch   1" in capsys.readouterr().out


def test_train_missing_data_dir_fails_with_path(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    rc = main(["train", "--data-dir", str(missing), "--epochs", "1"])
    assert rc != 0
    assert str(missing) in capsys.readouterr().err


def test_an_empty_data_dir_variable_counts_as_unset(tmp_path, monkeypatch):
    monkeypatch.setenv("CONVPIPE_DATA_DIR", "")
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "out.json"
    assert main(["train", "--epochs", "0", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["config"]["data_dir"] is None


def test_an_empty_data_dir_flag_fails_before_any_work(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "out.json"
    assert main(["train", "--data-dir", "", "--epochs", "0",
                 "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == 'error: data_dir must name a directory, got ""\n'
    assert captured.out == ""
    assert not report.exists()


def test_a_data_dir_that_is_a_file_is_named(tmp_path, capsys):
    not_a_dir = tmp_path / "hostname"
    not_a_dir.write_text("host\n")
    assert main(["train", "--data-dir", str(not_a_dir), "--epochs", "0"]) == 2
    assert capsys.readouterr().err == (
        f"error: data dir is not a directory: {not_a_dir}\n")


@pytest.mark.parametrize("stem", ["train-labels-idx1-ubyte",
                                  "t10k-images-idx3-ubyte"])
def test_a_missing_idx_file_names_the_file_and_the_dir(data_dir, capsys,
                                                       stem):
    (data_dir / stem).unlink()
    assert main(["train", "--data-dir", str(data_dir), "--epochs", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: {stem}[.gz] not found in data dir {data_dir}\n")


def test_train_multi_epoch_report(data_dir, tmp_path):
    report_path = tmp_path / "out.json"
    rc = main(["train", "--data-dir", str(data_dir), "--epochs", "3",
               "--seed", "1", "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert [e["epoch"] for e in report["epochs"]] == [1, 2, 3]


@pytest.mark.parametrize("epochs", ["2", "0"],
                         ids=["two_epochs", "zero_epochs"])
def test_train_epochs_csv(data_dir, tmp_path, epochs):
    csv_path, report_path = tmp_path / "epochs.csv", tmp_path / "out.json"
    rc = main(["train", "--data-dir", str(data_dir), "--epochs", epochs,
               "--epochs-csv", str(csv_path), "--report", str(report_path)])
    assert rc == 0
    entries = json.loads(report_path.read_text())["epochs"]
    with open(csv_path, newline="") as f:
        header, *rows = csv.reader(f)
    assert len(rows) == len(entries) == max(int(epochs), 1)
    assert header == list(entries[0])
    # json round-trips floats by repr, which is also their str()
    assert rows == [[str(v) for v in entry.values()] for entry in entries]


def test_env_var_fallback(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("CONVPIPE_DATA_DIR", str(data_dir))
    report_path = tmp_path / "env.json"
    rc = main(["train", "--epochs", "1", "--report", str(report_path)])
    assert rc == 0
    assert json.loads(report_path.read_text())["config"]["data_dir"] == \
        str(data_dir)


def test_config_file_and_flag_precedence(data_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data_dir": str(data_dir), "epochs": 5,
                                    "seed": 7}))
    report_path = tmp_path / "out.json"
    rc = main(["train", "--config", str(cfg_path), "--epochs", "1",
               "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert len(report["epochs"]) == 1  # flag beats config file
    assert report["config"]["seed"] == 7  # config file beats default


def test_config_rejects_inconsistent_pool_map(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dims": {"pool_map": 100}}))
    rc = main(["train", "--config", str(cfg_path), "--synthetic"])
    assert rc != 0
    assert "pool_map" in capsys.readouterr().err


def test_test_command_matches_training_accuracy(data_dir, tmp_path):
    train_report = tmp_path / "train.json"
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data-dir", str(data_dir), "--epochs", "2",
                 "--seed", "3", "--report", str(train_report),
                 "--checkpoint", str(ckpt)]) == 0
    test_report = tmp_path / "test.json"
    assert main(["test", "--data-dir", str(data_dir),
                 "--checkpoint", str(ckpt), "--report", str(test_report)]) == 0
    final = json.loads(train_report.read_text())["epochs"][-1]["test_accuracy"]
    scored = json.loads(test_report.read_text())["test_accuracy"]
    assert scored == final


def test_test_command_matches_training_accuracy_at_batch_20(tmp_path):
    # 25 test batches of 20: a mean over batches and one over images can
    # differ in the last bit, so both commands must use the same one
    train_report, test_report = tmp_path / "train.json", tmp_path / "test.json"
    ckpt = tmp_path / "model.ckpt"
    common = ["--synthetic", "--seed", "1", "--batch-size", "20"]
    assert main(["train", *common, "--epochs", "1", "--report",
                 str(train_report), "--checkpoint", str(ckpt)]) == 0
    assert main(["test", *common, "--checkpoint", str(ckpt),
                 "--report", str(test_report)]) == 0
    final = json.loads(train_report.read_text())["epochs"][-1]["test_accuracy"]
    scored = json.loads(test_report.read_text())
    assert scored["test_accuracy"] == final
    assert scored["images"] == 25 * 20


def test_test_command_corrupt_checkpoint(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    rc = main(["test", "--data-dir", str(data_dir), "--checkpoint", str(bad)])
    assert rc != 0
    assert "bad.ckpt" in capsys.readouterr().err


def test_test_command_fresh_weights_near_chance(data_dir, tmp_path, capsys):
    from convpipe.checkpoint import save_checkpoint
    from convpipe.neuralcore import ModelState

    ckpt = tmp_path / "fresh.ckpt"
    save_checkpoint(ckpt, ModelState.initial(9))
    rc = main(["test", "--data-dir", str(data_dir), "--checkpoint", str(ckpt)])
    assert rc == 0
    out = capsys.readouterr().out
    acc = float(out.split("test accuracy:")[1].split()[0])
    assert 0.0 <= acc < 0.35  # random labels, tiny sample: loosely near chance


def test_estimate_defaults(capsys):
    assert main(["estimate"]) == 0
    out = capsys.readouterr().out
    fc_lines = [l for l in out.splitlines() if "fc_forward" in l]
    assert fc_lines and "II 1" in fc_lines[0]
    assert "16/16" in fc_lines[0]
    out_lines = [l for l in out.splitlines() if "out_forward" in l]
    assert "II 2" in out_lines[0] and "25/40" in out_lines[0]


def test_estimate_multiplier_cap_override(capsys):
    assert main(["estimate", "--max-multipliers", "10"]) == 0
    out = capsys.readouterr().out
    fc_line = next(l for l in out.splitlines() if "fc_forward" in l)
    assert "II 2" in fc_line  # ceil(16 / 10)


def test_estimate_unroll_override_costs_more(tmp_path):
    base_path = tmp_path / "base.json"
    slow_path = tmp_path / "slow.json"
    assert main(["estimate", "--report", str(base_path)]) == 0
    assert main(["estimate", "--unroll-fc", "1,1",
                 "--report", str(slow_path)]) == 0
    base = json.loads(base_path.read_text())
    slow = json.loads(slow_path.read_text())
    assert slow["inference"]["total_cycles"] > base["inference"]["total_cycles"]


@pytest.mark.parametrize("argv", [[], ["--unroll-fc", "1,1"]],
                         ids=["default", "unroll_fc"])
def test_estimate_report_config_reruns_the_estimate(tmp_path, argv):
    report_path, cfg_path = tmp_path / "est.json", tmp_path / "cfg.json"
    assert main(["estimate", *argv, "--report", str(report_path)]) == 0
    first = report_path.read_text()
    cfg_path.write_text(json.dumps(json.loads(first)["config"]))
    report_path.unlink()  # the config's report_path names it again
    assert main(["estimate", "--config", str(cfg_path)]) == 0
    assert report_path.read_text() == first


def test_estimate_unroll_beyond_the_axis_runs(tmp_path):
    # 64 exceeds the 32-row batch axis, so it costs what 32 does
    wide, whole = tmp_path / "wide.json", tmp_path / "whole.json"
    assert main(["estimate", "--unroll-fc", "64,4", "--report", str(wide)]) == 0
    assert main(["estimate", "--unroll-fc", "32,4", "--report", str(whole)]) == 0
    wide, whole = json.loads(wide.read_text()), json.loads(whole.read_text())
    for mode in ("inference", "training"):
        assert wide[mode] == whole[mode]


def test_train_with_a_batch_below_the_default_unroll():
    # the 4-way batch unroll and partitions clamp to a batch of 2
    assert main(["train", "--synthetic", "--batch-size", "2",
                 "--epochs", "0"]) == 0


def test_estimate_mode_algebra(capsys):
    assert main(["estimate", "--host-batch-seconds", "0.0015",
                 "--num-batches", "100"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out and "bottleneck" in out


def test_estimate_mode_algebra_of_a_trillion_batches(capsys):
    # constant stage times in closed form: no list of n per-batch times
    n, host, budget = 10 ** 12, 0.001, ResourceBudget()
    assert main(["estimate", "--host-batch-seconds", str(host),
                 "--num-batches", str(n)]) == 0
    out = capsys.readouterr().out
    for mode in ("training", "inference"):
        accel = cycles_to_seconds(estimate_pass(mode, budget).total_cycles,
                                  budget)
        seq, pipe = n * (host + accel), n * max(host, accel) + min(host, accel)
        assert (f"{mode}: n={n} host={host:.6f}s/batch accel={accel:.6f}s/batch"
                f" -> sequential {seq:.3f}s, pipelined {pipe:.3f}s, speedup "
                f"{seq / pipe:.2f}") in out


@pytest.mark.parametrize("argv, message", [
    (["--host-batch-seconds", "0.001", "--num-batches", "0"],
     "--num-batches must be >= 1, got 0"),
    (["--host-batch-seconds", "0.001", "--num-batches", "-3"],
     "--num-batches must be >= 1, got -3"),
    (["--host-batch-seconds", "-0.5"],
     "--host-batch-seconds must be finite and >= 0, got -0.5"),
    (["--host-batch-seconds", "nan"],
     "--host-batch-seconds must be finite and >= 0, got nan"),
    (["--host-batch-seconds", "inf"],
     "--host-batch-seconds must be finite and >= 0, got inf"),
], ids=["zero_batches", "negative_batches", "negative_host", "nan_host",
        "inf_host"])
def test_estimate_bad_mode_algebra_flags_fail_before_output(capsys, argv,
                                                             message):
    assert main(["estimate", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_estimate_bad_unroll_flag(capsys):
    # "²" is a digit to str.isdigit, but int() rejects it; "" is a given
    # flag, not a missing one
    for spec in ("1,2,3", "²,4", ""):
        rc = main(["estimate", "--unroll-fc", spec])
        assert rc != 0
        assert "unroll-fc" in capsys.readouterr().err, spec


def test_estimate_takes_no_seed(capsys):
    # estimate reads no data and draws no weights: a seed would change nothing
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_estimate_unroll_from_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"unroll_fc": [1, 1],
                                    "budget": {"pipeline_depth": 4}}))
    report_path = tmp_path / "est.json"
    assert main(["estimate", "--config", str(cfg_path),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    fc = next(n for n in report["inference"]["nests"]
              if n["name"] == "fc_forward")
    assert fc["multipliers_demanded"] == 1  # unroll 1x1
    assert report["config"]["budget"]["pipeline_depth"] == 4


def test_test_command_rejects_checkpoint_of_other_dims(tmp_path, capsys):
    ckpt = tmp_path / "h64.ckpt"
    save_checkpoint(ckpt, ModelState.initial(0, ModelDims(hidden=64)))
    rc = main(["test", "--synthetic", "--checkpoint", str(ckpt)])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"{ckpt}: byte 8: w1 is 169x64, expected 169x128" in captured.err
    assert "test accuracy" not in captured.out


def test_test_command_builds_only_the_test_split(data_dir, tmp_path, monkeypatch,
                                                  capsys):
    from convpipe import pipeline

    ckpt = tmp_path / "model.ckpt"
    train_report = tmp_path / "train.json"
    assert main(["train", "--data-dir", str(data_dir), "--epochs", "1",
                 "--seed", "4", "--report", str(train_report),
                 "--checkpoint", str(ckpt)]) == 0
    final = json.loads(train_report.read_text())["epochs"][-1]["test_accuracy"]
    loaded, synthesized = [], []

    def record(calls, fn, key):
        def wrapper(*args):
            calls.append(key(*args))
            return fn(*args)
        return wrapper
    monkeypatch.setattr(pipeline, "load_idx_images",
                        record(loaded, pipeline.load_idx_images,
                               lambda path, *_: path.name))
    monkeypatch.setattr(pipeline, "synthetic_dataset",
                        record(synthesized, pipeline.synthetic_dataset,
                               lambda seed, n, *_: (seed, n)))
    capsys.readouterr()

    test_report = tmp_path / "test.json"
    assert main(["test", "--data-dir", str(data_dir), "--checkpoint", str(ckpt),
                 "--report", str(test_report)]) == 0
    assert loaded == ["t10k-images-idx3-ubyte"]
    assert json.loads(test_report.read_text())["test_accuracy"] == final
    assert f"test accuracy: {final:.4f} over 64 images" in capsys.readouterr().out

    assert main(["test", "--synthetic", "--seed", "4",
                 "--checkpoint", str(ckpt)]) == 0
    assert synthesized == [(4 + 2, 512)]  # the test split's seed and count
    assert "over 512 images" in capsys.readouterr().out
    assert loaded == ["t10k-images-idx3-ubyte"]


@pytest.mark.parametrize("config, fragments", [
    ({"budget": {"max_multiplier": 8}, "dims": {"hiden": 64}, "epoch": 3},
     ["unknown key budget.max_multiplier", "unknown key dims.hiden",
      "unknown key epoch"]),
    ([{"epochs": 2}],
     ['the config must be a JSON object, got [{"epochs": 2}]']),
    ({"epochs": "2"}, ['epochs must be an integer, got "2"']),
    ({"dims": {"hidden": "64"}}, ['dims.hidden must be an integer, got "64"']),
    ({"budget": {"max_adders": True}},
     ["budget.max_adders must be an integer, got true"]),
    ({"adam": {"eta": "0.1"}}, ['adam.eta must be a number, got "0.1"']),
    ({"dims": [32]}, ["dims must be an object, got [32]"]),
    ({"batch_size": 16, "dims": {"batch": 32}},
     ["batch_size 16 differs from its derived value 32"]),
    ({"unroll_fc": [1, 2, 3]}, ["unroll_fc expects two positive integer"]),
    ({"unroll_fc": "4,²"}, ["unroll_fc expects two positive integer"]),
    ({"synthetic_test": -5}, ["synthetic_test must be >= 0, got -5"]),
    ({"data_dir": ""}, ['data_dir: data_dir must name a directory, got ""']),
    ({"seed": -1}, ["seed: seed must be >= 0, got -1"]),
    ({"dims": {"hidden": 0}}, ["dims.hidden: hidden must be positive, got 0"]),
    ({"mode": "fast"}, ["mode: mode must be one of"]),
    ({"adam": {"eta": -1}}, ["adam.eta: eta and eps must be positive"]),
    ({"budget": {"clock_ns": 0}, "dims": {"image_x": 27}},
     ["budget.clock_ns: clock_ns must be positive",
      "dims.image_x: conv output 25x26 not even"]),
    ({"batch_size": 0}, ["batch_size 0 differs from its derived value 32"]),
    ({"batch_size": 16}, ["batch_size 16 differs from its derived value 32"]),
    ({"dims": {"kernel_x": 5, "kernel_y": 5}},
     ["dims.kernel_x 5 differs from its derived value 3; "
      "dims.kernel_y 5 differs from its derived value 3"]),
    ({"dims": {"image_x": 2}}, ["dims.image_x: kernel larger than image"]),
    ({"budget": {"clock_ns": math.inf}},
     ["budget.clock_ns: clock_ns must be positive and finite, got inf"]),
    ({"budget": {"clock_ns": math.nan}},
     ["budget.clock_ns: clock_ns must be positive and finite, got nan"]),
    ({"adam": {"eps": math.inf}},
     ["adam.eps: eta and eps must be positive and finite"]),
    ({"adam": {"eta": math.nan}},
     ["adam.eta: eta and eps must be positive and finite"]),
], ids=["misspelled_keys", "top_level_list", "string_int", "nested_string_int",
        "bool_for_int", "string_for_float", "list_for_object",
        "batch_size_mismatch", "bad_unroll", "bad_unroll_digit",
        "negative_fixture_size", "empty_data_dir",
        "negative_seed",
        "zero_hidden", "unknown_mode", "negative_eta", "zero_clock_odd_image",
        "zero_batch_size", "batch_size_alone", "kernel_dims_together",
        "kernel_larger_than_image",
        "infinite_clock", "nan_clock", "infinite_eps", "nan_eta"])
@pytest.mark.parametrize("command", [["estimate"], ["train", "--synthetic"]],
                         ids=["estimate", "train"])
def test_bad_config_file_is_rejected_by_path_and_key(tmp_path, capsys, config,
                                                     fragments, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main([*command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg_path}: ")
    for fragment in fragments:
        assert fragment in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("config, dotted, derived", [
    ({"batch_size": 32}, "batch_size", 32),
    ({"dims": {"batch": 16}, "batch_size": 16}, "batch_size", 16),
    ({"dims": {"kernel_x": 3}}, "dims.kernel_x", 3),
    ({"dims": {"kernel_y": 3}}, "dims.kernel_y", 3),
    ({"dims": {"pool_map": 169}}, "dims.pool_map", 169),
    ({"dims": {"image_x": 8, "image_y": 10, "pool_map": 12}},
     "dims.pool_map", 12),
], ids=["batch_size", "batch_size_of_dims_batch", "kernel_x", "kernel_y",
        "pool_map", "pool_map_of_image_dims"])
def test_derived_key_is_checked_and_sets_nothing(tmp_path, capsys, config,
                                                 dotted, derived):
    group, _, key = dotted.rpartition(".")
    cfg_path, report = tmp_path / "cfg.json", tmp_path / "est.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["estimate", "--config", str(cfg_path),
                 "--report", str(report)]) == 0
    written = json.loads(report.read_text())["config"]
    assert (written[group] if group else written)[key] == derived
    for other in (derived - 1, derived + 1):
        (config[group] if group else config)[key] = other
        cfg_path.write_text(json.dumps(config))
        assert main(["estimate", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: {dotted} {other} differs from its derived "
            f"value {derived}\n")


def test_batch_size_flag_beats_a_file_batch_size(tmp_path):
    cfg_path, report = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg_path.write_text(json.dumps({"batch_size": 32, "epochs": 0}))
    assert main(["train", "--synthetic", "--config", str(cfg_path),
                 "--batch-size", "16", "--report", str(report)]) == 0
    config = json.loads(report.read_text())["config"]
    assert config["batch_size"] == config["dims"]["batch"] == 16


def test_malformed_json_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"epochs": 2,}')
    assert main(["estimate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: invalid JSON")


@pytest.mark.parametrize("argv, config, message", [
    (["--epochs", "-1"], {}, "epochs must be >= 0, got -1"),
    (["--seed", "-1"], {}, "seed must be >= 0, got -1"),
    (["--batch-size", "0"], {}, "batch must be positive, got 0"),
    (["--clock-ns", "nan"], {}, "clock_ns must be positive and finite, got nan"),
    ([], {"mode": "fast"}, "{path}: mode: mode must be one of "
                           "('sequential', 'pipelined'), got 'fast'"),
], ids=["negative_epochs", "negative_seed_flag", "zero_batch_flag",
        "nan_clock_flag", "unknown_mode"])
def test_bad_run_values_fail_before_any_work(tmp_path, monkeypatch, capsys,
                                             argv, config, message):
    from convpipe import pipeline

    def no_dataset(*args):
        raise AssertionError("a dataset was built")
    monkeypatch.setattr(pipeline, "synthetic_dataset", no_dataset)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    report = tmp_path / "out.json"
    assert main(["train", "--synthetic", "--config", str(cfg_path), *argv,
                 "--report", str(report)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=cfg_path)}\n"
    assert not report.exists()


def test_split_smaller_than_a_batch_fails_before_training(tmp_path, monkeypatch,
                                                          capsys):
    from convpipe import pipeline

    def no_epoch(*args):
        raise AssertionError("an epoch ran")
    monkeypatch.setattr(pipeline, "run_epoch", no_epoch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"synthetic_test": 10}))
    message = ("error: test split (synthetic) has 10 images, "
               "fewer than one batch of 32\n")
    assert main(["train", "--synthetic", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == message

    ckpt = tmp_path / "fresh.ckpt"
    save_checkpoint(ckpt, ModelState.initial(0))
    assert main(["test", "--synthetic", "--config", str(cfg_path),
                 "--checkpoint", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert "test accuracy" not in captured.out


def test_idx_split_smaller_than_a_batch_names_the_file(data_dir, tmp_path,
                                                       capsys):
    ckpt = tmp_path / "fresh.ckpt"
    save_checkpoint(ckpt, ModelState.initial(0))
    assert main(["test", "--data-dir", str(data_dir), "--batch-size", "128",
                 "--checkpoint", str(ckpt)]) == 2
    assert capsys.readouterr().err == (
        f"error: test split ({data_dir / 't10k-images-idx3-ubyte'}) has 64 "
        f"images, fewer than one batch of 128\n")


def test_truncated_gzip_split_fails_with_its_path(data_dir, capsys):
    plain = data_dir / "train-images-idx3-ubyte"
    packed = gzip.compress(plain.read_bytes())
    plain.unlink()
    gz = data_dir / "train-images-idx3-ubyte.gz"
    cut = packed[:len(packed) // 2]
    gz.write_bytes(cut)
    assert main(["train", "--data-dir", str(data_dir), "--epochs", "1"]) == 2
    at = len(zlib.decompressobj(31).decompress(cut))  # where the stream breaks
    assert capsys.readouterr().err.startswith(f"error: {gz}: byte {at}: "
                                              f"corrupt gzip")


def test_split_longer_than_its_header_fails_with_its_path(data_dir, capsys):
    # both files say 96 of their 128 entries: a loader that stopped at the
    # count would train on a consistent prefix
    for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
        raw = bytearray((data_dir / name).read_bytes())
        raw[7] = 96
        (data_dir / name).write_bytes(raw)
    images = data_dir / "train-images-idx3-ubyte"
    assert main(["train", "--data-dir", str(data_dir), "--epochs", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: {images}: byte {16 + 96 * 28 * 28}: bytes after the pixel "
        f"data, where the file must end\n")


def test_count_mismatch_names_both_files(data_dir, capsys):
    labels = data_dir / "t10k-labels-idx1-ubyte"
    write_idx_labels(LabelSet(synthetic_dataset(200, 40)[1].labels), labels)
    assert main(["train", "--data-dir", str(data_dir), "--epochs", "0"]) == 2
    assert capsys.readouterr().err == (
        f"error: image/label count mismatch: 64 images in "
        f"{data_dir / 't10k-images-idx3-ubyte'} vs 40 labels in {labels}\n")


def test_zero_epochs_needs_no_training_split(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"synthetic_train": 10, "epochs": 0}))
    assert main(["train", "--synthetic", "--config", str(cfg_path)]) == 0


def test_report_config_round_trips_through_config(tmp_path, monkeypatch):
    report = tmp_path / "out.json"
    assert main(["train", "--synthetic", "--epochs", "0", "--seed", "5",
                 "--batch-size", "16", "--max-multipliers", "8",
                 "--max-adders", "12", "--clock-ns", "5",
                 "--report", str(report)]) == 0
    budget = json.loads(report.read_text())["config"]["budget"]
    assert (budget["max_multipliers"], budget["max_adders"]) == (8, 12)
    config = json.dumps(json.loads(report.read_text())["config"], indent=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config)
    report.unlink()
    # the file's "data_dir": null beats the environment, as any file value does
    monkeypatch.setenv("CONVPIPE_DATA_DIR", str(tmp_path / "nowhere"))
    assert main(["train", "--config", str(cfg_path)]) == 0  # report_path too
    assert json.dumps(json.loads(report.read_text())["config"],
                      indent=2) == config


@pytest.mark.parametrize("argv, output", [
    (["train", "--synthetic", "--epochs", "2", "--report"], "missing/r.json"),
    (["train", "--synthetic", "--epochs", "2", "--checkpoint"],
     "missing/m.ckpt"),
    (["train", "--synthetic", "--epochs", "2", "--epochs-csv"],
     "missing/e.csv"),
    (["train", "--synthetic", "--epochs", "2", "--report"], "."),
    (["estimate", "--report"], "missing/e.json"),
    (["test", "--synthetic", "--checkpoint", "fresh.ckpt", "--report"],
     "missing/t.json"),
    (["train", "--synthetic", "--epochs", "2", "--config"], "missing/c.json"),
], ids=["train_report", "train_checkpoint", "train_epochs_csv",
        "train_report_is_a_directory", "estimate_report", "test_report",
        "config_report"])
def test_output_paths_fail_before_any_work(tmp_path, monkeypatch, capsys, argv,
                                           output):
    from convpipe import pipeline

    def no_dataset(*args):
        raise AssertionError("a dataset was built")
    monkeypatch.setattr(pipeline, "synthetic_dataset", no_dataset)
    monkeypatch.chdir(tmp_path)
    save_checkpoint("fresh.ckpt", ModelState.initial(0))
    path = tmp_path / output
    if argv[-1] == "--config":  # the file's report_path is the output
        config = {"report_path": str(path)}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main([*argv, "cfg.json"]) == 2
    else:
        assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert str(path) in captured.err
    assert captured.out == ""
    assert {p.name for p in tmp_path.iterdir()} <= {"fresh.ckpt", "cfg.json"}


def _subparsers(parser):
    """parser's subparsers by command name."""
    [commands] = [action.choices for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return commands


@pytest.mark.parametrize("columns", ["40", "100"])
def test_help_is_the_stock_formatters_from_one_terminal_measure(
        monkeypatch, columns):
    """build_parser measures the terminal once, and the help of the program
    and of every command is what argparse's own formatter gives."""
    monkeypatch.setenv("COLUMNS", columns)
    measures = []
    measure = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *args: measures.append(1) or measure(*args))
    parser = build_parser()
    assert len(measures) == 1
    commands = _subparsers(parser)
    parsers = [parser, *commands.values()]
    assert sorted(commands) == ["estimate", "test", "train"]
    got = [p.format_help() for p in parsers]
    for p in parsers:
        p.formatter_class = argparse.HelpFormatter
    assert got == [p.format_help() for p in parsers]


def _parse_exit(parse, capsys):
    """The exit status, stdout and stderr of parse(), which exits."""
    with pytest.raises(SystemExit) as exc:
        parse()
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("columns", ["40", "100"])
@pytest.mark.parametrize("argv", [
    ["train", "--help"], ["test", "--help"], ["estimate", "--help"],
    ["test", "--synthetic"],
    ["test", "--checkpoint", "m.ckpt", "--epochs", "1"],
    ["train", "--seed", "x"],
    [], ["--help"], ["tset"], ["estimate", "--bogus"],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_main_parses_as_the_full_parser(monkeypatch, capsys, columns, argv):
    """main gives options to the command it runs only, and exits, prints
    help and fails as the parser with every command's options does."""
    monkeypatch.setenv("COLUMNS", columns)
    assert _parse_exit(lambda: main(argv), capsys) == \
        _parse_exit(lambda: build_parser().parse_args(argv), capsys)


def test_main_gives_options_to_the_command_it_runs_only(monkeypatch,
                                                        tmp_path):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda *args: built.append(build(*args)) or built[-1])
    assert main(["test", "--synthetic",
                 "--checkpoint", str(tmp_path / "missing.ckpt")]) == 2
    [parser] = built
    options = {name: [a.option_strings for a in p._actions]
               for name, p in _subparsers(parser).items()}
    assert sorted(options) == ["estimate", "test", "train"]
    assert options["train"] == options["estimate"] == [["-h", "--help"]]
    assert ["--checkpoint"] in options["test"]


@pytest.mark.parametrize("argv", [
    ["train", "--synthetic", "--epochs", "1"],
    ["test", "--synthetic", "--checkpoint", "fresh.ckpt"],
    ["estimate", "--unroll-fc", "2,2"],
], ids=["train", "test", "estimate"])
def test_a_report_is_what_json_dump_writes(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    save_checkpoint("fresh.ckpt", ModelState.initial(0))
    reports, write = [], cli._write_report
    monkeypatch.setattr(cli, "_write_report",
                        lambda report, path: reports.append(report)
                        or write(report, path))
    assert main([*argv, "--report", "r.json"]) == 0
    [report] = reports
    with open("want.json", "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    assert (tmp_path / "r.json").read_bytes() == \
        (tmp_path / "want.json").read_bytes()


def test_a_shorter_report_over_a_longer_one_leaves_only_its_bytes(tmp_path):
    path = tmp_path / "r.json"
    cli._write_report({"key": "x" * 5000}, path)
    cli._write_report({"key": "y"}, path)
    assert path.read_bytes() == b'{\n  "key": "y"\n}\n'


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
def test_a_new_report_has_the_mode_open_gives_it(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "opened.json", "w"):
            pass
        cli._write_report({}, tmp_path / "r.json")
    finally:
        os.umask(old)
    assert (tmp_path / "r.json").stat().st_mode == \
        (tmp_path / "opened.json").stat().st_mode


def test_a_report_can_go_to_dev_null():
    if not os.path.exists(os.devnull):
        pytest.skip(f"no {os.devnull}")
    cli._write_report({"key": 1}, os.devnull)  # a device: written, never cut
