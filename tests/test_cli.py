"""CLI surface: subcommands, exit codes, run-directory artifacts."""

import argparse
import filecmp
import json
import os

import numpy as np
import pytest

from dynssm.cli import _pin_threads, _resolve, build_parser, main
from dynssm.config import apply_override, default_config, resolve_config
from dynssm.data import load_dataset, null_synth_spec, synth_generate
from dynssm.errors import ConfigError


def run_cli(*argv):
    return main(list(argv))


class TestConfigLayers:
    def test_unknown_key_rejected_in_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"model": {"d_latt": 32}}')
        with pytest.raises(ConfigError, match="d_latt"):
            resolve_config(config_path=path)

    def test_unknown_override_rejected(self):
        cfg = default_config()
        with pytest.raises(ConfigError):
            apply_override(cfg, "model.nope=1")
        with pytest.raises(ConfigError, match="backend"):
            apply_override(cfg, "backend=parallel")
        with pytest.raises(ConfigError, match="threads"):   # a flag only
            apply_override(cfg, "threads=2")

    def test_override_wins_over_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"model": {"d_lat": 24}, "train": {"epochs": 3}}')
        cfg = resolve_config(config_path=path, overrides=["model.d_lat=48"])
        assert cfg["model"]["d_lat"] == 48
        assert cfg["train"]["epochs"] == 3

    def test_profiles(self):
        desk = default_config("desk")
        paper = default_config("paper")
        assert desk["model"]["d_lat"] == 16
        assert paper["model"]["d_lat"] == 128
        assert paper["model"]["lora_rank"] == 16
        assert paper["train"]["learning_rate"] == 1e-4

    def test_profile_is_not_an_override(self, tmp_path):
        with pytest.raises(ConfigError, match="profile"):
            resolve_config(overrides=["profile=paper"])
        path = tmp_path / "c.json"
        path.write_text('{"profile": "paper"}')
        for cfg in (resolve_config(profile="paper"), resolve_config(config_path=path)):
            assert cfg["profile"] == "paper" and cfg["model"]["d_lat"] == 128

    def test_value_parsing(self):
        cfg = default_config()
        apply_override(cfg, "model.attention_enabled=false")
        assert cfg["model"]["attention_enabled"] is False
        apply_override(cfg, "train.learning_rate=0.005")
        assert cfg["train"]["learning_rate"] == 0.005


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def resolved_threads(*argv):
    return _resolve(build_parser().parse_args(["train", *argv]))["threads"]


class TestThreadPinning:
    def test_default_pins_what_config_records(self, monkeypatch):
        for var in THREAD_VARS:   # monkeypatch restores the environment afterwards
            monkeypatch.delenv(var, raising=False)
        _pin_threads([])
        assert [os.environ.get(var) for var in THREAD_VARS] == ["1"] * 3
        assert resolved_threads() == 1

    def test_flag_wins(self, monkeypatch):
        for var in THREAD_VARS:
            monkeypatch.setenv(var, "7")
        _pin_threads(["train", "--threads", "2"])
        assert [os.environ.get(var) for var in THREAD_VARS] == ["2"] * 3
        assert resolved_threads("--threads", "2") == 2

    @pytest.mark.parametrize("argv", [("--threads", "0"), ("--threads", "-1"),
                                      ("--threads=0",), ("--threads=-1",)])
    def test_count_below_one_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        for var in THREAD_VARS:
            monkeypatch.setenv(var, "7")
        _pin_threads(["train", *argv])
        assert [os.environ.get(var) for var in THREAD_VARS] == ["7"] * 3
        out = tmp_path / "r"
        assert run_cli("train", *argv, "--out", str(out), "--quiet") == 1
        assert [os.environ.get(var) for var in THREAD_VARS] == ["7"] * 3
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()


# Every long option of every subcommand. A flag joins a subcommand only when
# its handler reads it.
SUBCOMMAND_FLAGS = {
    "generate-data": {"--config", "--set", "--seed", "--threads", "--out", "--quiet",
                      "--json", "--null"},
    "train": {"--config", "--set", "--seed", "--profile", "--threads", "--out", "--quiet",
              "--json", "--data", "--variant", "--epochs", "--lr", "--save-epochs"},
    "evaluate": {"--threads", "--out", "--quiet", "--json", "--run", "--data",
                 "--checkpoint"},
    "ablate": {"--config", "--set", "--seed", "--profile", "--threads", "--out", "--quiet",
               "--json", "--data", "--variants", "--epochs", "--lr"},
    "scan-bench": {"--config", "--set", "--seed", "--threads", "--out", "--quiet",
                   "--lengths", "--d-h", "--repeats"},
    "gradcheck": {"--config", "--set", "--seed", "--threads", "--quiet", "--json",
                  "--seeds", "--tol", "--only"},
    "report": {"--out", "--quiet"},
}

# Flags that no handler of the subcommand reads, with a value where one is due.
UNREAD_FLAGS = [
    ("generate-data", "--profile", "paper"),
    ("evaluate", "--config", "c.json"),
    ("evaluate", "--set", "seed=1"),
    ("evaluate", "--seed", "1"),
    ("evaluate", "--profile", "paper"),
    ("scan-bench", "--profile", "paper"),
    ("scan-bench", "--json"),
    ("gradcheck", "--profile", "paper"),
    ("gradcheck", "--out", "out"),
    ("report", "--config", "c.json"),
    ("report", "--set", "seed=1"),
    ("report", "--seed", "1"),
    ("report", "--profile", "paper"),
    ("report", "--threads", "2"),
    ("report", "--json"),
]

# Cheap arguments that each subcommand would otherwise run with.
BASE_ARGV = {
    "generate-data": ["--set", "data.subjects_per_class=2", "--set", "data.length=16"],
    "evaluate": ["--run", "run"],
    "scan-bench": ["--lengths", "8", "--repeats", "1"],
    "gradcheck": ["--seeds", "1", "--only", "matmul"],
    "report": ["run"],
}


class TestFlags:
    def test_each_subcommand_has_exactly_its_flags(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {name: {opt for action in p._actions for opt in action.option_strings
                        if opt.startswith("--") and opt != "--help"}
                 for name, p in sub.choices.items()}
        assert found == SUBCOMMAND_FLAGS

    @pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=lambda argv: f"{argv[0]}:{argv[1]}")
    def test_unread_flag_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        command, flag, *value = argv
        monkeypatch.chdir(tmp_path)
        for var in THREAD_VARS:   # monkeypatch restores the environment afterwards
            monkeypatch.delenv(var, raising=False)
        assert run_cli(command, *BASE_ARGV[command], "--quiet", flag, *value) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


CONFIG_WITHOUT_DATA_LENGTH = default_config()
del CONFIG_WITHOUT_DATA_LENGTH["data"]["length"]


# A count that is not an integer, or a rate that is not a number
MISTYPED = [
    ("train.batch_size=2.5", "batch_size must be an integer, got 2.5"),
    ("train.epochs=1.5", "epochs must be an integer, got 1.5"),
    ("train.epochs=true", "epochs must be an integer, got True"),
    ("train.accumulation_steps=2.0", "accumulation_steps must be an integer, got 2.0"),
    ('train.learning_rate="abc"', "learning_rate must be a number, got 'abc'"),
    ('train.beta2="0.9"', "beta2 must be a number, got '0.9'"),
    ("data.length=40.5", "data.length must be an integer, got 40.5"),
    ("data.subjects_per_class=2.5", "data.subjects_per_class must be an integer, got 2.5"),
    ("data.n_rois=12.0", "data.n_rois must be an integer, got 12.0"),
    ('data.noise_std="abc"', "data.noise_std must be a number, got 'abc'"),
]


class TestExitCodes:
    def test_epochs_zero_is_usage_error(self, tmp_path):
        out = tmp_path / "r"
        assert run_cli("train", "--epochs", "0", "--out", str(out),
                       "--quiet", "--set", "data.subjects_per_class=2",
                       "--set", "data.length=16") == 1
        assert not out.exists()   # rejected before touching the filesystem

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("train", "--bogus-flag") == 1

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert run_cli("train", "--data", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "r"), "--quiet") == 2

    @pytest.mark.parametrize("text", ['[]', '{"subjects": [{"subject_id": "s0"}]}'])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        assert run_cli("train", "--data", str(manifest),
                       "--out", str(tmp_path / "r"), "--quiet") == 2
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("train", "--lr", "nan"),
                                      ("train", "--set", "train.beta1=NaN"),
                                      ("train", "--set", "train.eps=0"),
                                      ("ablate", "--lr", "nan"),
                                      ("train", "--set", "train.val_fraction=NaN"),
                                      ("train", "--set", "train.val_fraction=-0.1"),
                                      ("train", "--set", "train.val_fraction=1.0")],
                             ids=["train-lr", "train-beta1", "train-eps", "ablate-lr",
                                  "val-fraction-nan", "val-fraction-negative",
                                  "val-fraction-one"])
    def test_bad_adam_setting_is_config_error_before_any_file(self, tmp_path,
                                                               capsys, argv):
        out = tmp_path / "r"
        assert run_cli(*argv, "--out", str(out), "--epochs", "1", "--quiet",
                       "--set", "data.subjects_per_class=3",
                       "--set", "data.length=24") == 1
        assert not out.exists()
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["data.noise_std=-1", "data.noise_std=Infinity",
                                          "data.switch_rate=NaN", "data.switch_rate=-0.5"])
    def test_bad_synthetic_rate_is_config_error_before_any_file(self, tmp_path, capsys,
                                                                override):
        out = tmp_path / "r"
        assert run_cli("train", "--out", str(out), "--epochs", "1", "--quiet",
                       "--set", override, "--set", "data.subjects_per_class=3",
                       "--set", "data.length=24") == 1
        assert not out.exists()
        assert override.split("=")[0].split(".")[1] in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["d_k", "conv_features", "kernel_size", "k_tokens"])
    def test_zero_model_size_is_config_error_before_any_file(self, tmp_path, capsys, key):
        out = tmp_path / "r"
        assert run_cli("train", "--out", str(out), "--epochs", "1", "--quiet",
                       "--set", f"model.{key}=0", "--set", "data.subjects_per_class=3",
                       "--set", "data.length=24") == 1
        assert not out.exists()
        assert f"{key} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ["model.surrogate_heads=0"], ["model.surrogate_blocks=0"], ["model.lora_rank=0"],
        ["model.d_h=0"], ["model.d_lat=0"], ["model.encoder_heads=0"], ["model.ssm_blocks=0"],
        ["model.context_cap=4"], ["model.d_lat=30"], ["model.d_k=30"],
        ["model.backbone=transformer", "model.d_h=30"], ["model.lora_rank=65"],
        ["model.lora_dropout=1"], ["model.kernel_size=2"], ["model.d_k=2.5"],
    ], ids=lambda overrides: ",".join(o.split(".", 1)[1] for o in overrides))
    def test_bad_model_size_is_config_error_before_any_file(self, tmp_path, capsys, overrides):
        out = tmp_path / "r"
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert run_cli("train", "--out", str(out), "--epochs", "1", "--quiet", *sets,
                       "--set", "data.subjects_per_class=3", "--set", "data.length=24") == 1
        err = capsys.readouterr().err
        assert err.startswith("dynssm: ") and "Traceback" not in err
        assert not out.exists()

    def test_bad_variant_model_is_config_error_before_any_file(self, tmp_path, capsys):
        # the base model is fine; its transformer variant cannot split d_h into 4 heads
        out = tmp_path / "abl"
        assert run_cli("ablate", "--out", str(out), "--variants", "full,backbone:transformer",
                       "--epochs", "1", "--quiet", "--set", "model.d_h=30",
                       "--set", "data.subjects_per_class=3", "--set", "data.length=24") == 1
        assert "transformer backbone's 4 heads" in capsys.readouterr().err
        assert not out.exists()

    def test_report_on_a_line_that_is_not_json_is_data_error(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "logs.jsonl").write_text('{"epoch": 1, "split": "train"}\n{"epoch": 2,\n')
        assert run_cli("report", str(run_dir), "--quiet") == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "logs.jsonl" in err

    @pytest.mark.parametrize("text", ['{"seed": 1,', '[1, 2]'])
    def test_evaluate_on_a_corrupt_config_is_data_error(self, tmp_path, capsys, text):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "config.resolved").write_text(text)
        assert run_cli("evaluate", "--run", str(run_dir), "--quiet") == 2
        assert "config.resolved" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg,missing", [({"seed": 1}, "variant"),
                                             (CONFIG_WITHOUT_DATA_LENGTH, "data.length")])
    def test_evaluate_on_a_config_missing_a_key_is_data_error(self, tmp_path, capsys,
                                                               cfg, missing):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "config.resolved").write_text(json.dumps(cfg))
        assert run_cli("evaluate", "--run", str(run_dir), "--quiet") == 2
        err = capsys.readouterr().err
        assert "config.resolved" in err and f"missing key {missing}" in err

    def test_gradcheck_clean_exit(self):
        assert run_cli("gradcheck", "--seeds", "1", "--quiet",
                       "--only", "matmul,linear") == 0

    def test_gradcheck_failure_exit(self, capsys):
        # impossible tolerance forces the numerical-failure exit code
        assert run_cli("gradcheck", "--seeds", "1", "--tol", "0",
                       "--only", "end_to_end_loss", "--quiet") == 3

    def test_gradcheck_nan_tolerance_fails(self, capsys):
        # no error is below NaN, so the printed FAIL sets the exit code
        assert run_cli("gradcheck", "--seeds", "1", "--tol", "nan", "--only", "add") == 3
        assert capsys.readouterr().out.startswith("FAIL add ")

    @pytest.mark.parametrize("flags,message", [
        (("--seeds", "0"), "seeds must be >= 1, got 0"),
        (("--seeds", "-3"), "seeds must be >= 1, got -3"),
        (("--only", "bogus"), "unknown check 'bogus'; options: add, sub"),
        (("--only", "add,"), "unknown check ''; options: add, sub"),
        (("--only", ""), "unknown check ''; options: add, sub"),
    ], ids=["zero-seeds", "negative-seeds", "unknown-check", "trailing-comma", "empty"])
    def test_gradcheck_that_would_run_nothing_is_config_error(self, capsys, flags, message):
        assert run_cli("gradcheck", "--seeds", "1", "--only", "add", *flags, "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("dynssm: ") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("override,message", MISTYPED,
                             ids=[override.split("=")[0] for override, _ in MISTYPED])
    def test_mistyped_train_or_data_value_is_config_error_before_any_file(
            self, tmp_path, capsys, override, message):
        out = tmp_path / "r"
        assert run_cli("train", "--out", str(out), "--quiet",
                       "--set", "data.subjects_per_class=3", "--set", "data.length=24",
                       "--set", override) == 1
        err = capsys.readouterr().err
        assert err.startswith("dynssm: ") and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("variants", [",", ""], ids=["comma", "empty"])
    def test_ablate_with_no_variant_is_config_error_before_any_file(self, tmp_path, capsys,
                                                                     variants):
        out = tmp_path / "abl"
        assert run_cli("ablate", "--out", str(out), "--variants", variants, "--quiet") == 1
        assert "--variants names no variant" in capsys.readouterr().err
        assert not out.exists()


class TestGenerateData:
    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("generate-data", "--seed", "5", "--out", str(a), "--quiet",
                       "--set", "data.subjects_per_class=3",
                       "--set", "data.length=24") == 0
        assert run_cli("generate-data", "--seed", "5", "--out", str(b), "--quiet",
                       "--set", "data.subjects_per_class=3",
                       "--set", "data.length=24") == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert not mismatch and not errors

    def test_dyns_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DYNS_SEED", "5")
        via_env = tmp_path / "env"
        assert run_cli("generate-data", "--out", str(via_env), "--quiet",
                       "--set", "data.subjects_per_class=2",
                       "--set", "data.length=16") == 0
        monkeypatch.delenv("DYNS_SEED")
        via_flag = tmp_path / "flag"
        assert run_cli("generate-data", "--seed", "5", "--out", str(via_flag),
                       "--quiet", "--set", "data.subjects_per_class=2",
                       "--set", "data.length=16") == 0
        names = sorted(p.name for p in via_env.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(via_env, via_flag, names,
                                                   shallow=False)
        assert not mismatch and not errors

    def test_non_integer_dyns_seed_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DYNS_SEED", "abc")
        assert run_cli("generate-data", "--out", str(tmp_path / "ds"), "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("dynssm: ") and "DYNS_SEED" in err and "'abc'" in err
        assert not (tmp_path / "ds").exists()

    def test_null_dataset_flag(self, tmp_path):
        out = tmp_path / "null"
        assert run_cli("generate-data", "--null", "--seed", "1", "--out", str(out),
                       "--quiet", "--set", "data.subjects_per_class=2",
                       "--set", "data.length=16") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["subjects"]) == 4

    def test_null_dataset_takes_the_data_settings(self, tmp_path):
        out = tmp_path / "null"
        assert run_cli("generate-data", "--null", "--seed", "1", "--out", str(out),
                       "--quiet", "--set", "data.subjects_per_class=2",
                       "--set", "data.length=16", "--set", "data.noise_std=0.9",
                       "--set", "data.switch_rate=0", "--set", "data.separation=1.0") == 0
        generator = json.loads((out / "manifest.json").read_text())["generator"]
        assert generator["noise_std"] == 0.9 and generator["switch_rate"] == 0
        assert generator["separation"] == 1.0
        expected = synth_generate(null_synth_spec(
            seed=1, subjects_per_class=2, length=16, noise_std=0.9, switch_rate=0,
            separation=1.0))
        written = load_dataset(out / "manifest.json")
        assert [s.subject_id for s in written] == [s.subject_id for s in expected]
        for got, want in zip(written, expected):
            np.testing.assert_array_equal(got.values, want.values)


@pytest.mark.slow
class TestTrainEvaluateFlow:
    def test_train_writes_run_dir_and_evaluate_reads_it(self, tmp_path):
        data_dir = tmp_path / "data"
        assert run_cli("generate-data", "--seed", "3", "--out", str(data_dir),
                       "--quiet", "--set", "data.subjects_per_class=5",
                       "--set", "data.length=32") == 0
        run_dir = tmp_path / "run"
        assert run_cli("train", "--data", str(data_dir / "manifest.json"),
                       "--out", str(run_dir), "--seed", "3", "--epochs", "2",
                       "--quiet") == 0
        assert (run_dir / "config.resolved").exists()
        assert (run_dir / "logs.jsonl").exists()
        assert (run_dir / "metrics.json").exists()
        assert (run_dir / "checkpoints" / "final.dyns").exists()
        resolved = json.loads((run_dir / "config.resolved").read_text())
        assert resolved["seed"] == 3 and "version" in resolved

        metrics = json.loads((run_dir / "metrics.json").read_text())
        for key in ("accuracy", "precision", "recall", "f1", "params"):
            assert key in metrics

        logs = [json.loads(l) for l in (run_dir / "logs.jsonl").read_text().splitlines()]
        assert {"epoch", "split", "loss"} <= set(logs[0])

        assert run_cli("evaluate", "--run", str(run_dir),
                       "--data", str(data_dir / "manifest.json"), "--quiet",
                       "--out", str(tmp_path / "eval.json")) == 0
        evaluated = json.loads((tmp_path / "eval.json").read_text())
        assert 0.0 <= evaluated["accuracy"] <= 1.0

    def test_train_determinism_fixed_seed_single_thread(self, tmp_path):
        args = ["--seed", "11", "--epochs", "2", "--threads", "1", "--quiet",
                "--set", "data.subjects_per_class=4", "--set", "data.length=24"]
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("train", "--out", str(r1), *args) == 0
        assert run_cli("train", "--out", str(r2), *args) == 0
        assert (r1 / "metrics.json").read_bytes() == (r2 / "metrics.json").read_bytes()

    def test_report_aggregates_runs(self, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--out", str(run_dir), "--seed", "2", "--epochs", "1",
                       "--quiet", "--set", "data.subjects_per_class=3",
                       "--set", "data.length=24") == 0
        with open(run_dir / "logs.jsonl", "a") as f:   # a record of odd types
            f.write('{"epoch": 1, "split": 1}\n')
        report_path = tmp_path / "agg.csv"
        assert run_cli("report", str(run_dir), "--out", str(report_path),
                       "--quiet") == 0
        lines = report_path.read_text().strip().split("\n")
        assert lines[0] == "run,epoch,split,loss,accuracy,precision,recall,f1"
        assert len(lines) > 2 and lines[-1] == "run,1,1,,,,,"


class TestScanBench:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli("scan-bench", "--lengths", "64,128", "--repeats", "3",
                       "--out", str(out), "--quiet") == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "T,backend,median_ns,p10_ns,p90_ns"
        assert len(lines) == 5   # 2 lengths x 2 backends
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] in ("sequential", "parallel")
            assert all(int(v) > 0 for v in fields[2:])

    @pytest.mark.parametrize("flag,value,message", [
        ("--lengths", "16,,32", "--lengths must be"),
        ("--lengths", "abc", "--lengths must be"),
        ("--lengths", "-5", "--lengths must be"),
        ("--repeats", "0", "--repeats must be"),
        ("--set", "data.n_rois=2.5", "data.n_rois must be an integer, got 2.5"),
    ], ids=["empty-length", "not-a-number", "negative-length", "zero-repeats",
            "non-integer-rois"])
    def test_bad_input_is_config_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "bench.csv"
        assert run_cli("scan-bench", "--lengths", "8", "--repeats", "1",
                       flag, value, "--out", str(out), "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("dynssm: ") and message in err
        assert "Traceback" not in err and not out.exists()


class TestAblateCli:
    @pytest.mark.slow
    def test_summary_csv_written(self, tmp_path):
        out = tmp_path / "abl"
        assert run_cli("ablate", "--out", str(out), "--seed", "1",
                       "--variants", "full,align:none", "--epochs", "1", "--quiet",
                       "--set", "data.subjects_per_class=4",
                       "--set", "data.length=24") == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == "variant,accuracy,precision,recall,f1"
        assert len(lines) == 3
