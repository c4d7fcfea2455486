"""CLI surface: subcommands, exit codes, run-directory artifacts."""

import filecmp
import json
import os

import pytest

from dynssm.cli import _pin_threads, _resolve, build_parser, main
from dynssm.config import apply_override, default_config, resolve_config
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

    def test_gradcheck_clean_exit(self):
        assert run_cli("gradcheck", "--seeds", "1", "--quiet",
                       "--only", "matmul,linear") == 0

    def test_gradcheck_failure_exit(self, capsys):
        # impossible tolerance forces the numerical-failure exit code
        assert run_cli("gradcheck", "--seeds", "1", "--tol", "0",
                       "--only", "end_to_end_loss", "--quiet") == 3


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

    def test_null_dataset_flag(self, tmp_path):
        out = tmp_path / "null"
        assert run_cli("generate-data", "--null", "--seed", "1", "--out", str(out),
                       "--quiet", "--set", "data.subjects_per_class=2",
                       "--set", "data.length=16") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["subjects"]) == 4


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
        report_path = tmp_path / "agg.csv"
        assert run_cli("report", str(run_dir), "--out", str(report_path),
                       "--quiet") == 0
        lines = report_path.read_text().strip().split("\n")
        assert lines[0] == "run,epoch,split,loss,accuracy,precision,recall,f1"
        assert len(lines) > 1


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
