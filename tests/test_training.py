"""Loss, Adam, metrics, gradient accumulation, variants, determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from dynssm import data as D
from dynssm import training as TR
from dynssm.errors import ConfigError, EvaluationError, NumericsError
from dynssm.model import BrainSequenceClassifier, ModelConfig, variant_config
from dynssm.rng import CounterRng
from dynssm.tensor import Tape, Tensor, finite_diff_check


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = TR.cross_entropy(Tensor(np.zeros(2)), 0)
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_confident_correct(self):
        loss = TR.cross_entropy(Tensor(np.array([10.0, -10.0])), 0)
        assert abs(loss.item() - 2.061153622438558e-09) < 1e-12

    def test_gradient_closed_form(self):
        logits = Tensor(np.array([0.7, -0.4]), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(TR.cross_entropy(logits, "ASD"))
        e = np.exp(logits.data - logits.data.max())
        softmax = e / e.sum()
        expect = softmax - np.array([1.0, 0.0])
        assert np.allclose(grads[logits], expect, atol=1e-12)
        err = finite_diff_check(lambda ps: TR.cross_entropy(ps[0], "ASD"), [logits])
        assert err < 1e-6

    def test_label_names_map_to_indices(self):
        logits = Tensor(np.array([3.0, -1.0]))
        assert TR.cross_entropy(logits, "ASD").item() == TR.cross_entropy(logits, 0).item()
        assert TR.cross_entropy(logits, "TC").item() == TR.cross_entropy(logits, 1).item()


class TestAdam:
    def test_first_step_magnitude_near_lr(self):
        w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = TR.Adam({"w": w}, lr=0.01)
        before = w.data.copy()
        opt.step({"w": np.array([0.3, -40.0])})
        update = w.data - before
        assert np.allclose(np.abs(update), 0.01, rtol=1e-4)
        assert np.sign(update[0]) == -1 and np.sign(update[1]) == 1

    def test_zero_gradient_no_motion(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = TR.Adam({"w": w}, lr=0.5)
        before = w.data.copy()
        for _ in range(5):
            opt.step({"w": np.zeros(2)})
        assert np.array_equal(w.data, before)

    def test_nan_gradient_aborts_with_name(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = TR.Adam({"w": w})
        with pytest.raises(NumericsError, match="'w'"):
            opt.step({"w": np.array([np.nan])})

    def test_accumulation_equals_union_batch(self):
        # Adam update from 4 averaged micro-batch gradients == update from
        # one union batch, within 1e-12 on the parameters themselves.
        spec = D.default_synth_spec(seed=3, subjects_per_class=4, length=24)
        subjects = [D.normalize_zscore(s) for s in D.synth_generate(spec)]
        rng = CounterRng(0)

        def one_step(grad_source):
            model = BrainSequenceClassifier(ModelConfig.desk(n_rois=16, lora_dropout=0.0))
            params = model.named_trainable()
            opt = TR.Adam(params, lr=1e-3)
            opt.step(grad_source(model, params))
            return {n: t.data.copy() for n, t in params.items()}

        def union(model, params):
            g, _ = TR._batch_gradients(model, subjects, params, rng)
            return g

        def accumulated(model, params):
            acc = None
            for i in range(0, 8, 2):
                g, _ = TR._batch_gradients(model, subjects[i:i + 2], params, rng)
                acc = g if acc is None else {n: acc[n] + g[n] for n in acc}
            return {n: v / 4.0 for n, v in acc.items()}

        after_union = one_step(union)
        after_accum = one_step(accumulated)
        for name in after_union:
            diff = np.max(np.abs(after_union[name] - after_accum[name]))
            assert diff < 1e-12, (name, diff)


class TestMetrics:
    def test_paper_f1_identity(self):
        precision, recall = 0.8022, 0.6102
        f1 = 2 * precision * recall / (precision + recall)
        assert abs(f1 - 0.6931) < 5e-4

    def test_hand_confusion_matrix(self):
        m = TR.Metrics.from_counts(tp=8, fp=2, fn=2, tn=8)
        assert m.accuracy == 0.8 and m.precision == 0.8
        assert m.recall == 0.8 and m.f1 == pytest.approx(0.8)

    def test_degenerate_all_tc_predictor(self):
        m = TR.Metrics.from_counts(tp=0, fp=0, fn=10, tn=10)
        assert m.accuracy == 0.5
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_identities_hold_for_random_counts(self, seed):
        rng = np.random.default_rng(seed)
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 20, 4))
        if tp + fp + fn + tn == 0:
            tp = 1
        m = TR.Metrics.from_counts(tp=tp, fp=fp, fn=fn, tn=tn)
        total = tp + fp + fn + tn
        assert m.accuracy == pytest.approx((tp + tn) / total)
        if tp + fp:
            assert m.precision == pytest.approx(tp / (tp + fp))
        else:
            assert m.precision == 0.0
        if tp + fn:
            assert m.recall == pytest.approx(tp / (tp + fn))
        else:
            assert m.recall == 0.0
        if m.precision + m.recall:
            assert m.f1 == pytest.approx(
                2 * m.precision * m.recall / (m.precision + m.recall))
        else:
            assert m.f1 == 0.0


class TestEvaluate:
    def test_empty_split_rejected(self):
        model = BrainSequenceClassifier(ModelConfig.desk())
        with pytest.raises(EvaluationError):
            TR.evaluate(model, [])

    def test_deterministic(self):
        spec = D.default_synth_spec(seed=5, subjects_per_class=3, length=24)
        subjects = D.synth_generate(spec)
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=16))
        m1 = TR.evaluate(model, subjects)
        m2 = TR.evaluate(model, subjects)
        assert m1 == m2

    def test_unusable_label_rejected_before_any_forward(self, monkeypatch):
        spec = D.default_synth_spec(seed=5, subjects_per_class=2, length=24)
        subjects = D.synth_generate(spec)
        subjects[2] = D.RoiTimeSeries(subjects[2].subject_id, subjects[2].values, None)
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=16))
        monkeypatch.setattr(model, "forward", lambda *a, **k: pytest.fail("forward ran"))
        with pytest.raises(EvaluationError, match=f"{subjects[2].subject_id}.*None"):
            TR.evaluate(model, subjects)

    def test_long_subjects_are_normalized_one_at_a_time(self):
        # Each subject is z-scored just before its forward, so eight T=2048
        # subjects never hold eight normalized copies (256 kB each) at once.
        spec = D.default_synth_spec(seed=3, subjects_per_class=4, length=2048)
        subjects = D.synth_generate(spec)
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=16))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            metrics = TR.evaluate(model, subjects)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"evaluate peaks {peak / 2**20:.1f} MiB above its start"
        assert metrics == TR.evaluate(model, [D.normalize_zscore(s) for s in subjects],
                                      normalized=True)


class TestVariants:
    def test_unknown_variant_rejected(self):
        spec = D.default_synth_spec(seed=1, subjects_per_class=3, length=24)
        split = D.split_dataset(D.synth_generate(spec), 0.8, seed=1)
        with pytest.raises(ConfigError):
            TR.run_variant("bogus", split, TR.TrainConfig(), ModelConfig.desk())

    def test_variant_config_mapping(self):
        base = ModelConfig.desk()
        assert variant_config(base, "static_graph").static_graph
        assert not variant_config(base, "frozen_llm").train_adapters
        assert variant_config(base, "backbone:gru").backbone == "gru"
        assert variant_config(base, "align:meanpool").align == "meanpool"
        assert variant_config(base, "full") == base

    def test_frozen_llm_excludes_adapters_from_training(self):
        cfg = variant_config(ModelConfig.desk(), "frozen_llm")
        model = BrainSequenceClassifier(cfg)
        names = set(model.named_trainable())
        assert not any(n.startswith("lora.") for n in names)
        full_names = set(BrainSequenceClassifier(ModelConfig.desk()).named_trainable())
        assert any(n.startswith("lora.") for n in full_names)

    def test_frozen_llm_matches_full_model_at_init(self):
        # zero-init adapters mean both variants start as the same function
        x = CounterRng(1).normal((24, 16))
        full = BrainSequenceClassifier(ModelConfig.desk(n_rois=16))
        frozen = BrainSequenceClassifier(variant_config(ModelConfig.desk(n_rois=16),
                                                        "frozen_llm"))
        l1 = full.forward(x).data
        l2 = frozen.forward(x).data
        assert np.max(np.abs(l1 - l2)) <= 1e-15

    @pytest.mark.parametrize("backbone", ["gru", "tcn", "transformer", "s4", "mamba"])
    def test_backbones_run_and_learn_shape(self, backbone):
        cfg = variant_config(ModelConfig.desk(n_rois=8), f"backbone:{backbone}")
        model = BrainSequenceClassifier(cfg)
        logits = model.forward(CounterRng(2).normal((16, 8)))
        assert logits.shape == (2,)

    @pytest.mark.parametrize("align", ["tokens", "meanpool", "random", "none"])
    def test_align_modes_run(self, align):
        cfg = variant_config(ModelConfig.desk(n_rois=8), f"align:{align}")
        model = BrainSequenceClassifier(cfg)
        logits = model.forward(CounterRng(3).normal((16, 8)), rng=CounterRng(4))
        assert logits.shape == (2,)

    def test_random_and_none_have_no_brain_encoder(self):
        cfg = variant_config(ModelConfig.desk(), "align:none")
        model = BrainSequenceClassifier(cfg)
        assert model.encoder is None
        names = set(model.named_trainable())
        assert not any(n.startswith("encoder.") for n in names)


class TestTrainLoop:
    @staticmethod
    def _tiny_split(seed=9, subjects=6):
        spec = D.default_synth_spec(seed=seed, subjects_per_class=subjects,
                                    length=48, separation=0.9)
        return D.split_dataset(D.synth_generate(spec), 0.8, seed=seed)

    def test_loss_decreases(self):
        split = self._tiny_split(subjects=10)
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=16))
        cfg = TR.TrainConfig(learning_rate=1e-3, epochs=6, batch_size=4, seed=0)
        result = TR.train_model(model, split.train, cfg, test_subjects=split.test)
        train_losses = [r["loss"] for r in result.log if r["split"] == "train"]
        assert min(train_losses[3:]) < train_losses[0]

    def test_fixed_seed_reproducible(self):
        split = self._tiny_split()
        cfg = TR.TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=7)
        r1 = TR.run_variant("full", split, cfg, ModelConfig.desk(n_rois=16))
        r2 = TR.run_variant("full", split, cfg, ModelConfig.desk(n_rois=16))
        assert r1.metrics == r2.metrics
        assert r1.log == r2.log

    def test_frozen_weights_untouched_by_training(self):
        split = self._tiny_split()
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=16))
        checksum_before = model.surrogate.checksum()
        cfg = TR.TrainConfig(learning_rate=2e-3, epochs=2, batch_size=4, seed=1)
        TR.train_model(model, split.train, cfg, test_subjects=split.test)
        assert model.surrogate.checksum() == checksum_before

    def test_invalid_train_config(self):
        with pytest.raises(ConfigError):
            TR.TrainConfig(epochs=0).validate()
        with pytest.raises(ConfigError):
            TR.TrainConfig(learning_rate=0.0).validate()
        nan, inf = float("nan"), float("inf")
        for bad in ({"learning_rate": nan}, {"learning_rate": inf}, {"beta1": nan},
                    {"beta1": 1.0}, {"beta1": -0.1}, {"beta2": nan}, {"beta2": 1.0},
                    {"eps": nan}, {"eps": inf}, {"eps": 0.0}, {"val_fraction": nan},
                    {"val_fraction": -0.1}, {"val_fraction": 1.0}):
            with pytest.raises(ConfigError):
                TR.TrainConfig(**bad).validate()
        TR.TrainConfig(beta1=0.0, beta2=0.0, val_fraction=0.0).validate()

    def test_accumulation_steps_run(self):
        split = self._tiny_split()
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=16))
        cfg = TR.TrainConfig(learning_rate=1e-3, epochs=1, batch_size=2,
                             accumulation_steps=2, seed=2)
        result = TR.train_model(model, split.train, cfg, test_subjects=split.test)
        assert result.metrics.accuracy >= 0.0


class TestAblationCsv:
    def test_summary_shape(self):
        rows = [{"variant": "full", "accuracy": 0.9, "precision": 0.8,
                 "recall": 0.7, "f1": 0.75}]
        text = TR.ablation_summary_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "variant,accuracy,precision,recall,f1"
        assert lines[1].startswith("full,0.9000,")
