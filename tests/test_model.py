"""Pipeline assembly: configuration, persistence, parameter bookkeeping."""

import numpy as np
import pytest

from dynssm.errors import ConfigError
from dynssm.model import BrainSequenceClassifier, ModelConfig
from dynssm.rng import CounterRng


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BrainSequenceClassifier(ModelConfig(backbone="lstm"))
        with pytest.raises(ConfigError):
            BrainSequenceClassifier(ModelConfig(align="bogus"))
        with pytest.raises(ConfigError):
            BrainSequenceClassifier(ModelConfig(filter_mode="nope"))

    def test_desk_profile_overrides(self):
        cfg = ModelConfig.desk()
        assert cfg.d_lat == 16 and cfg.lora_rank == 4
        assert ModelConfig().d_lat == 128   # paper-scale default untouched


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=8))
        x = CounterRng(0).normal((16, 8))
        base = model.forward(x).data
        path = tmp_path / "model.dyns"
        model.save(path)

        clone = BrainSequenceClassifier(ModelConfig.desk(n_rois=8, param_seed=99))
        assert not np.allclose(clone.forward(x).data, base)
        clone.load(path)
        assert np.array_equal(clone.forward(x).data, base)

    def test_adapter_namespacing(self, tmp_path):
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=8))
        path = tmp_path / "m.dyns"
        model.save(path)
        from dynssm.checkpoint import load_params
        names = set(load_params(path))
        assert any(n.startswith("lora.block0.q.A") for n in names)
        assert any(n.startswith("lora.block0.v.B") for n in names)
        assert any(n.startswith("surrogate.") for n in names)

    def test_load_rejects_missing_params(self, tmp_path):
        from dynssm.checkpoint import save_params
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=8))
        save_params(tmp_path / "short.dyns", {"head.w": np.zeros((2, 64))})
        with pytest.raises(ConfigError, match="missing"):
            model.load(tmp_path / "short.dyns")

    def test_load_rejects_names_the_model_does_not_own(self, tmp_path):
        path = tmp_path / "desk.dyns"
        BrainSequenceClassifier(ModelConfig.desk(n_rois=8)).save(path)
        bare = BrainSequenceClassifier(ModelConfig.desk(n_rois=8, align="none"))
        before = bare.snapshot()
        with pytest.raises(ConfigError, match="does not own"):
            bare.load(path)
        assert all(np.array_equal(v, before[k]) for k, v in bare.snapshot().items())

    def test_load_rejects_a_changed_surrogate(self, tmp_path):
        from dynssm.checkpoint import load_params, save_params
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=8))
        path = tmp_path / "m.dyns"
        model.save(path)
        stored = load_params(path)
        stored["surrogate.embed"] = stored["surrogate.embed"] + 1.0
        save_params(path, stored)
        checksum = model.surrogate.checksum()
        with pytest.raises(ConfigError, match="frozen surrogate"):
            model.load(path)
        assert model.surrogate.checksum() == checksum

    def test_snapshot_restore(self):
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=8))
        x = CounterRng(1).normal((12, 8))
        base = model.forward(x).data
        snap = model.snapshot()
        model.head_w_backup = model.surrogate.head_w.data.copy()
        model.surrogate.head_w.data = model.surrogate.head_w.data + 1.0
        assert not np.array_equal(model.forward(x).data, base)
        model.restore(snap)
        assert np.array_equal(model.forward(x).data, base)


class TestParamReport:
    def test_adapter_ratio_under_ten_percent_default_config(self):
        report = BrainSequenceClassifier(ModelConfig()).param_report()
        assert report["adapter_to_surrogate_ratio"] < 0.10
        assert report["adapter"] > 0

    def test_desk_config_trainable_fraction_small(self):
        report = BrainSequenceClassifier(ModelConfig.desk()).param_report()
        assert report["trainable_to_total_ratio"] < 0.10

    def test_counts_are_consistent(self):
        model = BrainSequenceClassifier(ModelConfig.desk())
        report = model.param_report()
        manual = sum(t.data.size for t in model.named_trainable().values())
        assert report["trainable"] == manual


class TestForwardModes:
    def test_static_graph_changes_output(self):
        x = CounterRng(2).normal((20, 8))
        base = BrainSequenceClassifier(ModelConfig.desk(n_rois=8)).forward(x).data
        static = BrainSequenceClassifier(
            ModelConfig.desk(n_rois=8, static_graph=True)).forward(x).data
        assert not np.allclose(base, static)

    def test_parallel_backend_matches_sequential(self):
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=8))
        x = CounterRng(3).normal((33, 8))
        seq = model.forward(x, backend="sequential").data
        par = model.forward(x, backend="parallel").data
        assert np.max(np.abs(seq - par)) < 1e-8

    def test_training_mode_needs_rng_only_with_dropout(self):
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=8, lora_dropout=0.0))
        x = CounterRng(4).normal((12, 8))
        out = model.forward(x, training=True)
        assert out.shape == (2,)
