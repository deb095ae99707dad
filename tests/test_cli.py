import json

import pytest

from convpipe.checkpoint import save_checkpoint
from convpipe.cli import main
from convpipe.dataio import synthetic_dataset, write_idx_images, write_idx_labels
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


def test_train_multi_epoch_report(data_dir, tmp_path):
    report_path = tmp_path / "out.json"
    rc = main(["train", "--data-dir", str(data_dir), "--epochs", "3",
               "--seed", "1", "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert [e["epoch"] for e in report["epochs"]] == [1, 2, 3]


def test_train_epochs_csv(data_dir, tmp_path):
    csv_path = tmp_path / "epochs.csv"
    rc = main(["train", "--data-dir", str(data_dir), "--epochs", "2",
               "--epochs-csv", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 epochs
    assert lines[0].startswith("epoch,")


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


def test_estimate_mode_algebra(capsys):
    assert main(["estimate", "--host-batch-seconds", "0.0015",
                 "--num-batches", "100"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out and "bottleneck" in out


def test_estimate_bad_unroll_flag(capsys):
    rc = main(["estimate", "--unroll-fc", "1,2,3"])
    assert rc != 0
    assert "unroll-fc" in capsys.readouterr().err


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
     ["batch_size 16 disagrees with dims.batch 32"]),
    ({"unroll_fc": [1, 2, 3]}, ["unroll_fc expects two positive integer"]),
    ({"synthetic_test": -5}, ["synthetic_test must be >= 0, got -5"]),
], ids=["misspelled_keys", "top_level_list", "string_int", "nested_string_int",
        "bool_for_int", "string_for_float", "list_for_object",
        "batch_size_mismatch", "bad_unroll", "negative_fixture_size"])
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


def test_malformed_json_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"epochs": 2,}')
    assert main(["estimate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: invalid JSON")


@pytest.mark.parametrize("argv, config, message", [
    (["--epochs", "-1"], {}, "epochs must be >= 0, got -1"),
    ([], {"mode": "fast"}, "mode must be one of ('sequential', 'pipelined'), "
                           "got 'fast'"),
], ids=["negative_epochs", "unknown_mode"])
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
    assert capsys.readouterr().err == f"error: {message}\n"
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


def test_zero_epochs_needs_no_training_split(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"synthetic_train": 10, "epochs": 0}))
    assert main(["train", "--synthetic", "--config", str(cfg_path)]) == 0


def test_report_config_round_trips_through_config(tmp_path, monkeypatch):
    report = tmp_path / "out.json"
    assert main(["train", "--synthetic", "--epochs", "0", "--seed", "5",
                 "--batch-size", "16", "--max-multipliers", "8",
                 "--clock-ns", "5", "--report", str(report)]) == 0
    config = json.dumps(json.loads(report.read_text())["config"], indent=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config)
    report.unlink()
    # the file's "data_dir": null beats the environment, as any file value does
    monkeypatch.setenv("CONVPIPE_DATA_DIR", str(tmp_path / "nowhere"))
    assert main(["train", "--config", str(cfg_path)]) == 0  # report_path too
    assert json.dumps(json.loads(report.read_text())["config"],
                      indent=2) == config
