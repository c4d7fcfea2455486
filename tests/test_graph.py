"""Latent graph inference tests."""

import math

import numpy as np
import pytest

from dynssm import graph as gr
from dynssm import tensor as tt
from dynssm.errors import ConfigError, ShapeError
from dynssm.rng import CounterRng
from dynssm.tensor import Tensor


def make_params(seed=0, d_lat=8, conv_features=2, heads=4, attention=True):
    return gr.NodeEncoderParams.create(CounterRng(seed), d_lat=d_lat,
                                       conv_features=conv_features,
                                       heads=heads, attention_enabled=attention)


class TestEncodeNodes:
    def test_zero_input_zero_bias_gives_zero(self):
        p = make_params()
        out = gr.encode_nodes(Tensor(np.zeros((6, 4))), p)
        assert np.allclose(out.data, 0.0, atol=1e-15)

    def test_conv_stage_roi_equivariant(self):
        p = make_params()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, 5))
        perm = rng.permutation(5)
        base = gr.conv_stage(Tensor(x), p).data
        permuted = gr.conv_stage(Tensor(x[:, perm]), p).data
        assert np.array_equal(base[:, perm, :], permuted)

    def test_attention_disabled_matches_per_channel_conv_oracle(self):
        p = make_params(attention=False)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(9, 3))
        feats = gr.conv_stage(Tensor(x), p).data   # (T, N, f)
        w = p.conv_w.data[0]   # (f, 1, K)
        b = p.conv_b.data
        T, N = x.shape
        K = w.shape[2]
        pad = (K - 1) // 2
        for i in range(N):
            col = np.concatenate([np.zeros(pad), x[:, i], np.zeros(pad)])
            for j in range(w.shape[0]):
                ref = np.array([np.dot(col[t:t + K], w[j, 0]) for t in range(T)]) + b[j]
                ref = np.maximum(ref, 0.0)
                assert np.allclose(feats[:, i, j], ref, atol=1e-12)

    def test_temporal_locality_without_attention(self):
        # One conv layer, kernel 3: h at time t reacts only to x[t-1..t+1].
        p = make_params(attention=False)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 4))
        base = gr.encode_nodes(Tensor(x), p).data
        bumped = x.copy()
        bumped[6, 2] += 1.0
        out = gr.encode_nodes(Tensor(bumped), p).data
        changed = np.where(np.any(np.abs(out - base) > 1e-14, axis=(1, 2)))[0]
        assert changed.size > 0
        assert changed.min() >= 5 and changed.max() <= 7

    def test_attention_couples_regions_at_same_step(self):
        p = make_params()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 4))
        base = gr.encode_nodes(Tensor(x), p).data
        bumped = x.copy()
        bumped[5, 0] += 1.0
        out = gr.encode_nodes(Tensor(bumped), p).data
        # with attention on, other regions at time 5 see the change too
        assert np.max(np.abs(out[5, 1:] - base[5, 1:])) > 1e-9

    def test_too_short_input(self):
        p = make_params()
        with pytest.raises(ShapeError, match="too short"):
            gr.encode_nodes(Tensor(np.zeros((2, 4))), p)

    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            make_params(d_lat=10, heads=4)



def unfolded_roi_attention(h, params):
    """Reference attention: q, k and v are linear maps of the d_lat-wide h."""
    T, N, d = h.shape
    heads = params.heads
    dh = d // heads
    p = params.attn

    def split(t):
        return t.reshape((T, N, heads, dh)).transpose((0, 2, 1, 3)).reshape((T * heads, N, dh))

    q = split(tt.linear(h, p["wq"], p["bq"]))
    k = split(tt.linear(h, p["wk"]))
    v = split(tt.linear(h, p["wv"], p["bv"]))
    scores = tt.bmm(q, k.transpose((0, 2, 1))) * (1.0 / math.sqrt(dh))
    ctx = tt.bmm(tt.softmax(scores, axis=-1), v)
    merged = ctx.reshape((T, heads, N, dh)).transpose((0, 2, 1, 3)).reshape((T, N, d))
    return tt.linear(merged, p["wo"], p["bo"])


def unfolded_encode_nodes(x, params):
    """Reference encoder: h = proj(feats), then h + attn(h) on the unfolded maps."""
    h = tt.linear(gr.conv_stage(x, params), params.proj_w, params.proj_b)
    if params.attention_enabled:
        h = h + unfolded_roi_attention(h, params)
    return h


def randomize_biases(params, seed):
    """Non-zero biases everywhere: zero ones hide mistakes in a ones column."""
    rng = CounterRng(seed)
    biases = (t for name, t in params.attn.items() if name.startswith("b"))
    for b in (params.conv_b, params.proj_b, *biases):
        b.data = rng.normal(b.shape)
    return params


def encoder_out_and_grads(encode, params, x, w):
    named = params.named_params()
    with tt.Tape() as tape:
        out = encode(Tensor(x), params)
        grads = tape.backward(tt.tsum(tt.mul(out, Tensor(w))), params=list(named.values()))
    return out.data, {k: grads[v] for k, v in named.items()}


def assert_grads_close(grads, ref_grads, rel=1e-12):
    for name, g in ref_grads.items():
        assert np.max(np.abs(grads[name] - g)) <= rel * np.max(np.abs(g)), name


PAPER = dict(d_lat=128, conv_features=8)
DESK = dict(d_lat=16, conv_features=4)


class TestFoldedAttention:
    """The folded and factored encoders agree with the unfolded reference."""

    @pytest.mark.parametrize("d_lat,conv_features", [(16, 4), (128, 8)])
    def test_matches_unfolded_reference(self, d_lat, conv_features):
        p = randomize_biases(make_params(seed=3, d_lat=d_lat, conv_features=conv_features), 4)
        x = CounterRng(5).normal((128, 16))
        w = CounterRng(7).normal((128, 16, d_lat))
        out, grads = encoder_out_and_grads(gr.encode_nodes, p, x, w)
        ref_out, ref_grads = encoder_out_and_grads(unfolded_encode_nodes, p, x, w)
        assert np.max(np.abs(out - ref_out)) <= 1e-12 * np.max(np.abs(ref_out))
        assert_grads_close(grads, ref_grads)

    def test_attention_disabled_is_bit_identical(self):
        p = make_params(seed=3, d_lat=16, conv_features=4, attention=False)
        x = Tensor(CounterRng(5).normal((128, 16)))
        assert np.array_equal(gr.encode_nodes(x, p).data, unfolded_encode_nodes(x, p).data)

    def test_attention_disabled_factored(self):
        p = randomize_biases(make_params(seed=3, attention=False, **PAPER), 4)
        x = Tensor(CounterRng(5).normal((128, 16)))
        out, ref = gr.encode_nodes(x, p).data, unfolded_encode_nodes(x, p).data
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestFactoredEncoder:
    """At paper width the encoder runs on Z = [F̃, P_1 F̃, …] and U, not on h."""

    T = 40

    def test_width_rule(self):
        assert gr._factored(make_params(**PAPER))       # (4+1)(8+1) = 45 < 128
        assert not gr._factored(make_params(**DESK))    # (4+1)(4+1) = 25 >= 16

    @pytest.mark.parametrize("mode", ["raw", "row_normalized"])
    def test_sequence_matches_unfolded_reference(self, mode):
        p = randomize_biases(make_params(seed=3, **PAPER), 4)
        x = CounterRng(5).normal((self.T, 16))
        wg = CounterRng(7).normal((self.T, 16, 16))
        wf = CounterRng(8).normal((self.T, 16))

        def run(sequence):
            named = p.named_params()
            with tt.Tape() as tape:
                g, f = sequence(Tensor(x))
                loss = tt.tsum(tt.mul(g, Tensor(wg))) + tt.tsum(tt.mul(f, Tensor(wf)))
                grads = tape.backward(loss, params=list(named.values()))
            return g.data, f.data, {k: grads[v] for k, v in named.items()}

        def factored(xt):
            seq = gr.encode_sequence(xt, p, mode=mode)
            return seq.adjacency, seq.filtered

        def reference(xt):
            g = tt.scaled_self_outer(unfolded_encode_nodes(xt, p))
            return g, tt.bmv(gr._filter_weights(g, mode), xt)

        g, f, grads = run(factored)
        ref_g, ref_f, ref_grads = run(reference)
        assert np.max(np.abs(g - ref_g)) <= 1e-12 * np.max(np.abs(ref_g))
        assert np.max(np.abs(f - ref_f)) <= 1e-12 * np.max(np.abs(ref_f))
        assert_grads_close(grads, ref_grads)
        for t in range(self.T):
            assert np.array_equal(g[t], g[t].T)

    def test_embeddings_match_encode_nodes(self):
        p = randomize_biases(make_params(seed=3, **PAPER), 4)
        x = Tensor(CounterRng(5).normal((self.T, 16)))
        h = gr.encode_nodes(x, p).data
        emb = gr.encode_sequence(x, p).embeddings.data
        assert np.max(np.abs(emb - h)) <= 1e-12 * np.max(np.abs(h))

    @staticmethod
    def d_lat_wide_nodes(fn, x, p):
        with tt.Tape() as tape:
            out = fn(Tensor(x), p)
        wide = [n.out for n in tape.nodes if n.out.shape == x.shape + (p.d_lat,)]
        return out, wide

    def test_no_d_lat_wide_tensor_at_paper_width(self):
        # Structural guard: the encoder must not go back to (T, N, d_lat)
        # tensors at a width where its rank is (heads+1)(conv_features+1).
        p = make_params(**PAPER)
        x = CounterRng(1).normal((self.T, 16))
        _, wide = self.d_lat_wide_nodes(gr.encode_sequence, x, p)
        assert wide == []
        out, wide = self.d_lat_wide_nodes(gr.encode_nodes, x, p)
        assert len(wide) == 1 and wide[0] is out

    def test_desk_width_is_unfactored(self):
        p = make_params(**DESK)
        x = CounterRng(1).normal((self.T, 16))
        seq, wide = self.d_lat_wide_nodes(gr.encode_sequence, x, p)
        assert seq.basis is None and seq.embeddings is seq.nodes
        assert len(wide) > 1   # q/k/v, the context and h itself


def whole_encode_nodes(x, params):
    """The unfactored encoder over the whole sequence as one block."""
    feats = gr.conv_stage(x, params)
    return tt.linear(feats, params.proj_w, params.proj_b) + gr._roi_attention(feats, params)


class TestEncoderBlocks:
    """Unfactored, the encoder runs in blocks of ``_block_steps`` time steps."""

    B = gr._block_steps(16, DESK["d_lat"])
    LENGTHS = [B - 1, B, B + 1, 4 * B + 2]

    def test_block_rule(self):
        # two (B, N, d_lat) float64 arrays fill one attention chunk: 256 steps at desk width
        assert self.B == tt._CHUNK // (2 * 16 * 16) == 256
        assert gr._block_steps(16, 10**7) == 1

    @pytest.mark.parametrize("T", LENGTHS)
    def test_untaped_matches_whole_sequence(self, T):
        p = randomize_biases(make_params(seed=3, **DESK), 4)
        x = Tensor(CounterRng(T).normal((T, 16)))
        assert np.array_equal(gr.encode_nodes(x, p).data, whole_encode_nodes(x, p).data)

    @pytest.mark.parametrize("T", LENGTHS)
    def test_taped_gradients_match_whole_sequence(self, T):
        p = randomize_biases(make_params(seed=3, **DESK), 4)
        x = CounterRng(T).normal((T, 16))
        w = CounterRng(T + 1).normal((T, 16, DESK["d_lat"]))

        def run(encode):
            xt = Tensor(x, requires_grad=True)
            named = {"x": xt, **p.named_params()}
            with tt.Tape() as tape:
                out = encode(xt, p)
                grads = tape.backward(tt.tsum(tt.mul(out, Tensor(w))),
                                      params=list(named.values()))
            return out.data, {k: grads[v] for k, v in named.items()}

        out, grads = run(gr.encode_nodes)
        ref_out, ref_grads = run(whole_encode_nodes)
        assert np.array_equal(out, ref_out)
        assert_grads_close(grads, ref_grads)

    @staticmethod
    def taped_nodes(encode, p, x):
        with tt.Tape() as tape:
            encode(x, p)
        return [(n.vjp.__qualname__.split(".")[0], n.out.shape) for n in tape.nodes]

    def test_one_block_records_the_whole_sequence_nodes(self):
        p = make_params(seed=3, **DESK)
        for T in (self.B - 1, self.B):
            x = Tensor(CounterRng(T).normal((T, 16)))
            nodes = self.taped_nodes(gr.encode_nodes, p, x)
            assert nodes == self.taped_nodes(whole_encode_nodes, p, x)
            assert [name for name, _ in nodes].count("attention") == 1

    def test_each_block_is_one_attention_joined_by_one_concat(self):
        p = make_params(seed=3, **DESK)
        T = 4 * self.B + 2
        names = [name for name, _ in self.taped_nodes(gr.encode_nodes, p,
                                                      Tensor(CounterRng(T).normal((T, 16))))]
        assert names.count("attention") == names.count("getitem") == 5
        assert names.count("concat") == 1 and names[-1] == "concat"


def whole_filtered(x, params, encode=whole_encode_nodes):
    """The desk graph stage as one block: the nodes of ``encode``, then one attention."""
    h = encode(x, params)
    T, N = x.shape
    return tt.attention(h, h, x.reshape((T, N, 1)),
                        1.0 / math.sqrt(params.d_lat)).reshape((T, N))


class TestStreamedGraphStage:
    """Unfactored, each time block is embedded and filtered before the next."""

    B = TestEncoderBlocks.B

    @staticmethod
    def filtered_and_grads(filtered, p, x, w):
        xt = Tensor(x, requires_grad=True)
        named = {"x": xt, **p.named_params()}
        with tt.Tape() as tape:
            f = filtered(xt, p)
            grads = tape.backward(tt.tsum(tt.mul(f, Tensor(w))), params=list(named.values()))
        return f.data, {k: grads[v] for k, v in named.items()}

    @pytest.mark.parametrize("T", [B, B + 1, 2 * B + 1])
    def test_filtered_matches_whole_sequence(self, T):
        p = randomize_biases(make_params(seed=3, **DESK), 4)
        x = CounterRng(T).normal((T, 16))
        w = CounterRng(T + 1).normal((T, 16))
        assert np.array_equal(gr.encode_sequence(Tensor(x), p).filtered.data,
                              whole_filtered(Tensor(x), p).data)
        f, grads = self.filtered_and_grads(lambda xt, p: gr.encode_sequence(xt, p).filtered,
                                           p, x, w)
        ref_f, ref_grads = self.filtered_and_grads(whole_filtered, p, x, w)
        assert np.array_equal(f, ref_f)
        # the parameter gradients sum over the encoder's blocks, as encode_nodes' do
        assert_grads_close(grads, ref_grads)
        _, blocked = self.filtered_and_grads(
            lambda xt, p: whole_filtered(xt, p, gr.encode_nodes), p, x, w)
        for name, g in blocked.items():
            assert np.array_equal(grads[name], g), name

    @pytest.mark.parametrize("T", [B, B + 1, 2 * B + 1])
    def test_logits_and_gradients_match_whole_sequence(self, T, monkeypatch):
        from dynssm.model import BrainSequenceClassifier, ModelConfig
        from dynssm.training import cross_entropy

        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=16))
        randomize_biases(model.encoder, 4)
        x = CounterRng(T).normal((T, 16))
        params = model.named_trainable()

        def run():
            untaped = model.forward(x).data
            with tt.Tape() as tape:
                logits = model.forward(x, training=True, rng=CounterRng(8))
                grads = tape.backward(cross_entropy(logits, 1), params=list(params.values()))
            assert np.array_equal(logits.data, untaped)
            return untaped, {k: grads[v] for k, v in params.items()}

        logits, grads = run()
        with monkeypatch.context() as m:
            m.setattr(gr, "encode_sequence", lambda x, p, mode: type(
                "Whole", (), {"filtered": whole_filtered(x, p, gr.encode_nodes)}))
            ref_logits, ref_grads = run()
        assert np.array_equal(logits, ref_logits)
        for name, g in ref_grads.items():
            assert np.array_equal(grads[name], g), name

    def test_each_block_is_embedded_and_filtered_before_the_next(self):
        p = make_params(seed=3, **DESK)
        T = 2 * self.B + 1
        with tt.Tape() as tape:
            f = gr.encode_sequence(Tensor(CounterRng(T).normal((T, 16))), p).filtered
        nodes = [(n.vjp.__qualname__.split(".")[0], n.out.shape) for n in tape.nodes]
        names = [name for name, _ in nodes]
        # per block: the ROI attention, then the filter's
        assert [shape for name, shape in nodes if name == "attention"] == [
            (s, 16, w) for s in (self.B, self.B, 1) for w in (DESK["d_lat"], 1)]
        assert names.count("concat") == 1 and nodes[-1] == ("concat", (T, 16))
        assert tape.nodes[-1].out is f
        assert [p.shape for p in tape.nodes[-1].parents] == [(self.B, 16), (self.B, 16), (1, 16)]
        assert not any(shape[:1] == (T,) and len(shape) == 3 and shape[-1] == DESK["d_lat"]
                       for _, shape in nodes)

    def test_embeddings_are_joined_when_read(self):
        p = make_params(seed=3, **DESK)
        T = 2 * self.B + 1
        x = Tensor(CounterRng(T).normal((T, 16)))
        with tt.Tape() as tape:
            seq = gr.encode_sequence(x, p)
            before = len(tape.nodes)
            h = seq.embeddings
        names = [n.vjp.__qualname__.split(".")[0] for n in tape.nodes[before:]]
        assert names.count("getitem") == 3 and names.count("concat") == 1
        assert tape.nodes[-1].out is h and h.shape == (T, 16, DESK["d_lat"])
        assert np.array_equal(h.data, gr.encode_nodes(x, p).data)
        assert seq.nodes is h and seq.adjacency.shape == (T, 16, 16)


class TestAttentionFilter:
    """At both widths the row-normalized filter is one attention on Z."""

    @pytest.mark.parametrize("T", [40, 2050])   # 2050 steps span several chunks
    def test_matches_softmax_of_adjacency(self, T):
        x = CounterRng(5).normal((T, 16))
        w = CounterRng(7).normal((T, 16))

        def run(filtered, p):
            xt = Tensor(x, requires_grad=True)
            named = {"x": xt, **p.named_params()}
            with tt.Tape() as tape:
                f = filtered(xt, p)
                grads = tape.backward(tt.tsum(tt.mul(f, Tensor(w))),
                                      params=list(named.values()))
            return f.data, {k: grads[v] for k, v in named.items()}

        def filtered(xt, p):
            return gr.encode_sequence(xt, p).filtered

        def reference(xt, p):
            g = tt.scaled_self_outer(gr.encode_nodes(xt, p))
            return tt.bmv(tt.softmax(g, axis=-1), xt)

        for dims in (DESK, PAPER):   # unfactored, then factored
            p = randomize_biases(make_params(seed=3, **dims), 4)
            assert gr._factored(p) == (dims is PAPER)
            f, grads = run(filtered, p)
            ref_f, ref_grads = run(reference, p)
            assert np.max(np.abs(f - ref_f)) <= 1e-12 * np.max(np.abs(ref_f))
            assert_grads_close(grads, ref_grads)
            untaped = filtered(Tensor(x), p).data
            assert np.max(np.abs(untaped - ref_f)) <= 1e-12 * np.max(np.abs(ref_f))

    def test_adjacency_is_formed_once_when_read(self):
        x = Tensor(CounterRng(1).normal((12, 16)))
        for dims in (DESK, PAPER):
            p = make_params(**dims)
            with tt.Tape() as tape:
                seq = gr.encode_sequence(x, p)
                assert seq.filtered.shape == (12, 16)
                before = len(tape.nodes)
                g = seq.adjacency
                assert seq.adjacency is g
            added = [n.vjp.__qualname__ for n in tape.nodes[before:]]
            assert len(added) == 1 and added[0].startswith("scaled_self_outer.")
            # bit for bit the adjacency of a sequence whose filter was never read
            assert np.array_equal(g.data, gr.encode_sequence(x, p).adjacency.data)


class TestInferAdjacency:
    def test_zero_embeddings(self):
        g = gr.infer_adjacency(Tensor(np.zeros((5, 4))))
        assert np.all(g.data == 0.0)

    def test_identical_unit_rows_d4(self):
        h = np.tile([0.5, 0.5, 0.5, 0.5], (3, 1))
        g = gr.infer_adjacency(Tensor(h)).data
        assert np.allclose(g, 0.5)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(6, 8))
        g = gr.infer_adjacency(Tensor(h)).data
        for i in range(6):
            for j in range(6):
                assert abs(g[i, j] - np.dot(h[i], h[j]) / math.sqrt(8)) < 1e-12

    def test_diagonal_nonnegative(self):
        h = np.random.default_rng(6).normal(size=(7, 5))
        g = gr.infer_adjacency(Tensor(h)).data
        assert np.all(np.diag(g) >= 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_scale_covariance(self, seed):
        h = np.random.default_rng(seed).normal(size=(5, 6))
        c = 3.7
        g1 = gr.infer_adjacency(Tensor(h)).data
        g2 = gr.infer_adjacency(Tensor(c * h)).data
        denom = np.maximum(np.abs(c * c * g1), 1e-30)
        assert np.max(np.abs(g2 - c * c * g1) / denom) < 1e-10


class TestGraphFilter:
    def test_identity_graph(self):
        x = np.array([2.0, -1.0, 3.0])
        out = gr.graph_filter(Tensor(np.eye(3)), Tensor(x), mode="raw")
        assert np.array_equal(out.data, x)

    def test_swap(self):
        g = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = gr.graph_filter(g, Tensor(np.array([3.0, 5.0])), mode="raw")
        assert np.array_equal(out.data, [5.0, 3.0])

    def test_matvec_oracle(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(6, 6))
        x = rng.normal(size=6)
        out = gr.graph_filter(Tensor(g), Tensor(x), mode="raw").data
        ref = np.array([sum(g[i, j] * x[j] for j in range(6)) for i in range(6)])
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_row_normalized_uses_softmax(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(4, 4))
        x = rng.normal(size=4)
        out = gr.graph_filter(Tensor(g), Tensor(x), mode="row_normalized").data
        e = np.exp(g - g.max(axis=1, keepdims=True))
        ref = (e / e.sum(axis=1, keepdims=True)) @ x
        assert np.allclose(out, ref, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gr.graph_filter(Tensor(np.eye(3)), Tensor(np.zeros(4)))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            gr.graph_filter(Tensor(np.eye(2)), Tensor(np.zeros(2)), mode="bogus")


class TestEncodeSequence:
    def test_minimal_t_with_unit_kernel(self):
        p = make_params()
        # T must be >= kernel_size; T=3 is the degenerate-but-valid case here
        seq = gr.encode_sequence(Tensor(np.random.default_rng(0).normal(size=(3, 4))), p)
        assert seq.adjacency.shape == (3, 4, 4)
        assert seq.filtered.shape == (3, 4)

    def test_zero_input_zero_sequences(self):
        p = make_params()
        seq = gr.encode_sequence(Tensor(np.zeros((5, 4))), p)
        assert np.allclose(seq.adjacency.data, 0.0, atol=1e-15)
        # softmax of a zero graph is uniform; uniform average of zeros is zero
        assert np.allclose(seq.filtered.data, 0.0, atol=1e-15)

    @pytest.mark.parametrize("mode", ["raw", "row_normalized"])
    def test_per_step_equivalence(self, mode):
        p = make_params()
        rng = np.random.default_rng(9)
        x = rng.normal(size=(16, 8))
        seq = gr.encode_sequence(Tensor(x), p, mode=mode)
        h = gr.encode_nodes(Tensor(x), p)
        for t in range(16):
            g_t = gr.infer_adjacency(h[t])
            assert np.max(np.abs(seq.adjacency.data[t] - g_t.data)) < 1e-12
            f_t = gr.graph_filter(g_t, Tensor(x[t]), mode=mode)
            assert np.max(np.abs(seq.filtered.data[t] - f_t.data)) < 1e-12

    def test_adjacency_symmetric_bit_exact_all_t(self):
        p = make_params()
        x = np.random.default_rng(10).normal(size=(11, 6))
        g = gr.encode_sequence(Tensor(x), p).adjacency.data
        for t in range(11):
            assert np.array_equal(g[t], g[t].T)


class TestStaticFilter:
    def test_mean_graph_applied_every_step(self):
        p = make_params()
        rng = np.random.default_rng(11)
        x = rng.normal(size=(9, 5))
        seq = gr.encode_sequence(Tensor(x), p, mode="raw")
        out = gr.static_filter(Tensor(x), seq.adjacency, mode="raw").data
        g_bar = seq.adjacency.data.mean(axis=0)
        for t in range(9):
            assert np.allclose(out[t], g_bar @ x[t], atol=1e-12)
