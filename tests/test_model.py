"""Pipeline assembly: configuration, persistence, parameter bookkeeping."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from dynssm import tensor as tt
from dynssm.checkpoint import load_params, save_params
from dynssm.errors import ConfigError
from dynssm.model import BrainSequenceClassifier, ModelConfig
from dynssm.rng import CounterRng
from dynssm.tensor import Tensor
from dynssm.training import cross_entropy


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BrainSequenceClassifier(ModelConfig(backbone="lstm"))
        with pytest.raises(ConfigError):
            BrainSequenceClassifier(ModelConfig(align="bogus"))
        with pytest.raises(ConfigError):
            BrainSequenceClassifier(ModelConfig(filter_mode="nope"))

    @pytest.mark.parametrize("key", ["d_k", "conv_features", "kernel_size", "k_tokens"])
    def test_model_sizes_below_one_rejected(self, key):
        for bad in (0, -1):
            with pytest.raises(ConfigError, match=key):
                ModelConfig.desk(**{key: bad}).validate()
        # d_k = 1 takes one surrogate head and a rank-1 adapter
        with_one = {"d_k": {"surrogate_heads": 1, "lora_rank": 1}}.get(key, {})
        ModelConfig.desk(**{key: 1}, **with_one).validate()

    @pytest.mark.parametrize("key", ["d_lat", "encoder_heads", "d_h", "ssm_blocks",
                                     "surrogate_blocks", "surrogate_heads", "vocab",
                                     "prompt_len", "context_cap", "lora_rank"])
    def test_every_other_size_below_one_rejected(self, key):
        for bad in (0, -1):
            with pytest.raises(ConfigError, match=f"{key} must be >= 1"):
                ModelConfig.desk(**{key: bad}).validate()

    @pytest.mark.parametrize("overrides,message", [
        ({"d_lat": 30}, "d_lat=30 must be divisible by encoder_heads=4"),
        ({"d_k": 30}, "d_k=30 must be divisible by surrogate_heads=4"),
        ({"backbone": "transformer", "d_h": 30}, "transformer backbone's 4 heads"),
        ({"lora_rank": 65}, "lora_rank=65 must be <= d_k=64"),
        ({"lora_dropout": 1.0}, "lora_dropout must be in"),
        ({"lora_dropout": -0.1}, "lora_dropout must be in"),
        ({"lora_alpha": float("nan")}, "lora_alpha must be a finite number"),
        ({"context_cap": 15}, "context_cap=15 must be >= k_tokens"),
        ({"kernel_size": 4}, "kernel_size must be odd"),
        ({"d_k": 2.5}, "d_k must be an integer"),
        ({"ssm_blocks": True}, "ssm_blocks must be an integer"),
    ], ids=["d_lat-heads", "d_k-heads", "transformer-d_h", "rank-above-d_k", "dropout-one",
            "dropout-negative", "alpha-nan", "context-cap", "even-kernel", "float-size",
            "bool-size"])
    def test_config_only_constraints_rejected(self, overrides, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ModelConfig.desk(**overrides).validate()
        ModelConfig.desk(backbone="transformer", context_cap=16).validate()   # the edges pass

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

    @staticmethod
    def save_with_key_bias(path, model, version, extra="encoder.attn.bk"):
        """The model's records, with a non-zero ``extra`` after ``encoder.attn.wk``
        (where v1 files hold the key bias), under the given header version."""
        records = {}
        for name, tensor in model.all_named_params().items():
            records[name] = tensor.data
            if name == "encoder.attn.wk":
                records[extra] = CounterRng(9).normal((model.cfg.d_lat,))
        save_params(path, records)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(raw))

    @staticmethod
    def biased_model():
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=8))
        rng = CounterRng(8)
        for name, tensor in model.encoder.named_params().items():
            if name.endswith("_b") or ".attn.b" in name:
                tensor.data = rng.normal(tensor.shape)
        return model

    def test_v1_checkpoint_loads_without_its_key_bias(self, tmp_path):
        model = self.biased_model()
        x = CounterRng(0).normal((16, 8))
        v1, v2 = tmp_path / "v1.dyns", tmp_path / "v2.dyns"
        self.save_with_key_bias(v1, model, version=1)
        model.save(v2)
        assert "encoder.attn.bk" not in load_params(v2)
        logits = {}
        for path in (v1, v2):
            clone = BrainSequenceClassifier(ModelConfig.desk(n_rois=8, param_seed=99))
            clone.load(path)
            logits[path] = clone.forward(x).data
        assert np.max(np.abs(logits[v1] - logits[v2])) <= 1e-12 * np.max(np.abs(logits[v2]))
        assert np.max(np.abs(logits[v2] - model.forward(x).data)) == 0.0

    @pytest.mark.parametrize("version,extra", [(1, "encoder.attn.bz"), (2, "encoder.attn.bk")])
    def test_other_extra_records_rejected(self, tmp_path, version, extra):
        path = tmp_path / "extra.dyns"
        self.save_with_key_bias(path, self.biased_model(), version, extra)
        clone = BrainSequenceClassifier(ModelConfig.desk(n_rois=8, param_seed=99))
        before = clone.snapshot()
        with pytest.raises(ConfigError, match=f"does not own.*{extra}"):
            clone.load(path)
        assert all(np.array_equal(v, before[k]) for k, v in clone.snapshot().items())

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


class TestEveryParameterLearns:
    @pytest.mark.parametrize("cfg", [
        ModelConfig.desk(), ModelConfig(),
        ModelConfig.desk(attention_enabled=False), ModelConfig(attention_enabled=False),
    ], ids=["desk", "paper", "desk-no-attention", "paper-no-attention"])
    def test_every_trainable_array_gets_a_gradient(self, cfg):
        # A parameter that cannot change the loss is dead weight in the
        # checkpoint, the tape and Adam. LoRA B starts at zero, which would
        # hide A's gradient, so it is moved off zero first.
        model = BrainSequenceClassifier(cfg)
        rng = CounterRng(1)
        for adapter in model.surrogate.adapters.values():
            adapter.b.data = rng.normal(adapter.b.shape, std=0.1)
        named = model.named_trainable()
        with tt.Tape() as tape:
            loss = cross_entropy(model.forward(CounterRng(2).normal((32, cfg.n_rois))), 1)
            grads = tape.backward(loss, params=list(named.values()))
        peaks = {name: np.max(np.abs(grads[t])) for name, t in named.items()}
        largest = max(peaks.values())
        assert [name for name, peak in peaks.items() if peak <= 1e-8 * largest] == []


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

    def test_every_attention_site_is_one_attention_node(self):
        # Encoder, graph filter, token compression and two surrogate blocks:
        # five attention nodes, and no attention left composed from bmm
        # nodes. Heads are split inside the op, so no site records a
        # transpose node either. The desk filter is an attention on the
        # embeddings, so it records no adjacency, softmax or bmv node.
        model = BrainSequenceClassifier(ModelConfig.desk())
        assert model.cfg.backbone == "mamba" and model.cfg.surrogate_blocks == 2
        with tt.Tape() as tape:
            model.forward(CounterRng(5).normal((32, 16)))
        names = [node.vjp.__qualname__ for node in tape.nodes]
        assert sum(name.startswith("attention.") for name in names) == 5
        assert not any(name.startswith(("bmm.", "transpose.", "softmax.", "bmv.",
                                        "scaled_self_outer.")) for name in names)

        model = BrainSequenceClassifier(ModelConfig.desk(backbone="transformer"))
        with tt.Tape() as tape:
            model.forward(CounterRng(5).normal((32, 16)))
        names = [node.vjp.__qualname__ for node in tape.nodes]
        assert sum(name.startswith("attention.") for name in names) == 6
        assert not any(name.startswith("transpose.") for name in names)

    def test_static_graph_forward_runs_no_dynamic_filter(self):
        # The static variant reads the adjacency and filters through its time
        # average; the per-step filter is never formed.
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=12, static_graph=True))
        with tt.Tape() as tape:
            model.forward(CounterRng(5).normal((32, 12)))
        nodes = [(node.vjp.__qualname__, node.out.shape) for node in tape.nodes]
        assert sum(name.startswith("attention.") for name, _ in nodes) == 4
        assert not any(name.startswith("bmv.") for name, _ in nodes)
        assert [shape for name, shape in nodes
                if name.startswith("scaled_self_outer.")] == [(32, 12, 12)]

    def test_long_inference_forward_peaks_low(self):
        # The desk graph stage runs in time blocks, so a T=2048 forward never
        # holds full-length q, k, v, context or embedding arrays (4 MiB each).
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=16))
        x = CounterRng(6).normal((2048, 16))
        tracemalloc.start()
        try:
            model.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2**20, f"T=2048 forward peaks at {peak / 2**20:.1f} MiB"

    def test_paper_subject_tape_is_small(self):
        # The factored encoder's attention reads F̃ as every head's keys and
        # values, and it and the factored filter map their queries inside
        # the op. So the tape keeps no H-fold copy of F̃ and no mapped
        # queries: 4.5 MiB for one subject, against 6.3 MiB with them.
        model = BrainSequenceClassifier(ModelConfig(n_rois=16))
        x = CounterRng(7).normal((128, 16))
        tracemalloc.start()
        try:
            with tt.Tape() as tape:
                cross_entropy(model.forward(x, training=True, rng=CounterRng(8)), 1)
                held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 5 * 2**20, f"a paper subject's tape holds {held / 2**20:.2f} MiB"
        consumers = {}
        for node in tape.nodes:
            for slot, parent in enumerate(node.parents):
                consumers.setdefault(id(parent), []).append((node.vjp.__qualname__, slot))
        for node in tape.nodes:
            name, parents = node.vjp.__qualname__, node.parents
            assert not (name.startswith("concat.") and len(parents) > 1
                        and all(p is parents[0] for p in parents)), "repeated-head concat"
            assert not (name.startswith("linear.") and all(
                c.startswith("attention.") and slot == 0
                for c, slot in consumers.get(id(node.out), [("", 0)]))), "linear for a query"

    def test_paper_batch_shares_the_parameter_only_maps(self):
        # M/√dh, U and UᵀU/√d_lat (33 nodes) are formed once per tape, and
        # each LoRA projection is one node: 81 nodes for the first subject's
        # forward + loss and 48 for each further one, 417 for 8 (808 when
        # every subject formed its own maps from six-node projections).
        model = BrainSequenceClassifier(ModelConfig(n_rois=16))
        xs = [CounterRng(20 + i).normal((128, 16)) for i in range(8)]
        rng = CounterRng(8)
        tracemalloc.start()
        try:
            with tt.Tape() as tape:
                for i, x in enumerate(xs):
                    cross_entropy(model.forward(x, training=True, rng=rng), i % 2)
                    if i == 0:
                        assert len(tape.nodes) == 81
                held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 417
        assert held <= 24 * 2**20, f"an 8-subject paper tape holds {held / 2**20:.2f} MiB"

    def test_untaped_forward_reads_changed_weights(self):
        # The maps are shared within a tape only: a forward after a weight
        # changes gives the logits of a model built with that weight.
        model = BrainSequenceClassifier(ModelConfig(n_rois=16))
        x = CounterRng(9).normal((64, 16))
        with tt.Tape():
            model.forward(x, training=True, rng=CounterRng(1))
        before = model.forward(x).data
        wq = CounterRng(10).normal(model.encoder.attn["wq"].shape, std=0.2)
        model.encoder.attn["wq"].data = wq
        rebuilt = BrainSequenceClassifier(ModelConfig(n_rois=16))
        rebuilt.encoder.attn["wq"].data = wq.copy()
        after = model.forward(x).data
        assert not np.array_equal(after, before)
        assert np.array_equal(after, rebuilt.forward(x).data)
        with tt.Tape():
            taped = model.forward(x).data
        assert np.array_equal(taped, after)

    def test_desk_training_forward_records_one_node_per_lora_projection(self):
        # Four adapted projections, one node each, where each recorded six.
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=16))
        assert model.cfg.lora_dropout > 0
        with tt.Tape() as tape:
            cross_entropy(model.forward(CounterRng(7).normal((128, 16)), training=True,
                                        rng=CounterRng(8)), 1)
        assert len(tape.nodes) == 60
        lora = [node for node in tape.nodes if node.vjp.__qualname__.startswith("lora_linear.")]
        assert len(lora) == 4 and all(len(node.parents) == 3 for node in lora)

    @staticmethod
    def wrapped_shapes(monkeypatch):
        """Record the shape of every array an op wraps as its output."""
        shapes = []
        wrap = Tensor._wrap.__func__

        def recording_wrap(cls, arr):
            shapes.append(arr.shape)
            return wrap(cls, arr)

        monkeypatch.setattr(Tensor, "_wrap", classmethod(recording_wrap))
        return shapes

    @pytest.mark.parametrize("paper", [False, True], ids=["desk", "paper"])
    def test_forward_forms_no_adjacency(self, monkeypatch, paper):
        # The default filter is one attention at both widths: neither an
        # inference nor a training forward forms a (T, N, N) array. N = 12
        # keeps it apart from the (T, N, d_lat) embeddings, which the
        # factored paper-width encoder does not form either.
        cfg = ModelConfig(n_rois=12) if paper else ModelConfig.desk(n_rois=12)
        model = BrainSequenceClassifier(cfg)
        shapes = self.wrapped_shapes(monkeypatch)
        x = CounterRng(5).normal((32, 12))
        model.forward(x)
        with tt.Tape() as tape:
            model.forward(x, training=True, rng=CounterRng(6))
        assert (32, 12, 12) not in shapes
        assert ((32, 12, cfg.d_lat) in shapes) != paper
        assert not any(node.vjp.__qualname__.startswith(("softmax.", "bmv.", "scaled_self_outer."))
                       for node in tape.nodes)
