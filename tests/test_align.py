"""Summary-token compression, LoRA adapters, surrogate model, classify."""

import math

import numpy as np
import pytest

from dynssm import align as al
from dynssm import tensor as tt
from dynssm.errors import ConfigError, ContractError, LengthError, NumericsError, ShapeError
from dynssm.rng import CounterRng
from dynssm.tensor import Tape, Tensor


def make_surrogate(seed=123, **kw):
    defaults = dict(d_k=32, heads=4, vocab=16, block_count=2, max_len=16,
                    rank=4, alpha=8.0, dropout_p=0.0)
    defaults.update(kw)
    return al.SurrogateModel.create(seed=seed, **defaults)


class TestCompressTokens:
    def test_uniform_override_is_mean_pool(self):
        rng = CounterRng(0)
        cp = al.CompressParams.create(rng, d_h=6, d_k=6, k_tokens=1)
        cp.proj_w.data = np.eye(6)
        cp.proj_b.data = np.zeros(6)
        s = CounterRng(1).normal((9, 6))
        z = al.compress_tokens(Tensor(s), cp, uniform_attention=True)
        assert np.allclose(z.data[0], s.mean(axis=0), atol=1e-12)

    def test_single_state_collapses_softmax(self):
        rng = CounterRng(2)
        cp = al.CompressParams.create(rng, d_h=5, d_k=4, k_tokens=3)
        s = CounterRng(3).normal((1, 5))
        z = al.compress_tokens(Tensor(s), cp).data
        expect = s[0] @ cp.proj_w.data.T + cp.proj_b.data
        for k in range(3):
            assert np.allclose(z[k], expect, atol=1e-12)

    def test_explicit_attention_oracle(self):
        rng = CounterRng(4)
        cp = al.CompressParams.create(rng, d_h=12, d_k=7, k_tokens=4)
        s = CounterRng(5).normal((11, 12))
        z = al.compress_tokens(Tensor(s), cp).data
        scores = cp.queries.data @ s.T / math.sqrt(12)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        ref = (attn @ s) @ cp.proj_w.data.T + cp.proj_b.data
        assert np.max(np.abs(z - ref)) < 1e-12

    def test_output_shape_independent_of_t(self):
        cp = al.CompressParams.create(CounterRng(6), d_h=5, d_k=8, k_tokens=2)
        for T in (1, 4, 50):
            z = al.compress_tokens(Tensor(CounterRng(T).normal((T, 5))), cp)
            assert z.shape == (2, 8)

    def test_masked_padding_invariance(self):
        cp = al.CompressParams.create(CounterRng(7), d_h=5, d_k=4, k_tokens=2)
        s = CounterRng(8).normal((6, 5))
        base = al.compress_tokens(Tensor(s), cp).data
        padded = np.concatenate([s, CounterRng(9).normal((3, 5))], axis=0)
        mask = np.zeros((2, 9))
        mask[:, 6:] = -1e30
        out = al.compress_tokens(Tensor(padded), cp, score_mask=mask).data
        assert np.allclose(base, out, atol=1e-12)

    def test_non_finite_mask_rejected(self):
        cp = al.CompressParams.create(CounterRng(11), d_h=5, d_k=4, k_tokens=2)
        mask = np.zeros((2, 6))
        mask[0, 3] = -np.inf
        with pytest.raises(NumericsError, match="NaN or Inf"):
            al.compress_tokens(Tensor(CounterRng(12).normal((6, 5))), cp, score_mask=mask)

    def test_empty_states_rejected(self):
        cp = al.CompressParams.create(CounterRng(10), d_h=5, d_k=4, k_tokens=2)
        with pytest.raises(ShapeError):
            al.compress_tokens(Tensor(np.zeros((0, 5))), cp)


class TestLoraAdapter:
    def test_fresh_adapter_is_zero_map(self):
        rng = CounterRng(0)
        ad = al.LoraAdapter.create(rng, d_in=6, d_out=5, rank=3, alpha=6.0)
        w = Tensor(rng.normal((5, 6)))
        x = Tensor(rng.normal((4, 6)))
        base = tt.linear(x, w).data
        adapted = al.lora_linear(x, w, ad).data
        assert np.array_equal(base, adapted)

    def test_hand_low_rank_product(self):
        ad = al.LoraAdapter(a=Tensor([[1.0, 0.0]]), b=Tensor([[1.0], [0.0]]),
                            rank=1, alpha=1.0)
        y = al.lora_linear(Tensor(np.array([[3.0, 7.0]])), Tensor(np.zeros((2, 2))), ad)
        assert np.array_equal(y.data, [[3.0, 0.0]])

    def test_alpha_scales_delta_linearly(self):
        rng = CounterRng(1)
        ad = al.LoraAdapter.create(rng, d_in=4, d_out=4, rank=2, alpha=2.0)
        ad.b.data = rng.normal((4, 2))
        w = Tensor(rng.normal((4, 4)))
        x = Tensor(rng.normal((3, 4)))
        base = tt.linear(x, w).data
        d1 = al.lora_linear(x, w, ad).data - base
        ad.alpha = 4.0
        d2 = al.lora_linear(x, w, ad).data - base
        assert np.allclose(d2, 2.0 * d1, atol=1e-12)

    def test_rank_bound_on_weight_delta(self):
        rng = CounterRng(2)
        ad = al.LoraAdapter.create(rng, d_in=16, d_out=16, rank=3, alpha=6.0)
        ad.b.data = rng.normal((16, 3))
        sv = np.linalg.svd(ad.delta(), compute_uv=False)
        assert np.all(sv[3:] < 1e-10 * sv[0])

    def test_rank_too_large_rejected(self):
        with pytest.raises(ConfigError):
            al.LoraAdapter.create(CounterRng(3), d_in=4, d_out=8, rank=5, alpha=1.0)

    def test_dropout_only_in_training(self):
        rng = CounterRng(4)
        ad = al.LoraAdapter.create(rng, d_in=6, d_out=6, rank=2, alpha=4.0, dropout_p=0.5)
        ad.b.data = rng.normal((6, 2))
        w = Tensor(rng.normal((6, 6)))
        x = Tensor(rng.normal((8, 6)))
        eval_1 = al.lora_linear(x, w, ad, training=False).data
        eval_2 = al.lora_linear(x, w, ad, training=False).data
        assert np.array_equal(eval_1, eval_2)
        train_out = al.lora_linear(x, w, ad, training=True, rng=CounterRng(5)).data
        assert not np.array_equal(eval_1, train_out)

    @staticmethod
    def composed(x, w, ad, mask):
        """The six-node form: base linear, dropout mask, x·Aᵀ, ·Bᵀ, scaling, add."""
        low = tt.linear(tt.linear(tt.mul(x, Tensor(mask)), ad.a), ad.b)
        return tt.linear(x, w) + low * ad.scaling

    def test_one_node_matches_the_composed_form(self):
        rng = CounterRng(7)
        ad = al.LoraAdapter.create(rng, d_in=6, d_out=5, rank=2, alpha=4.0, dropout_p=0.3)
        ad.b.data = rng.normal((5, 2))
        w = Tensor(rng.normal((5, 6)))
        x = Tensor(rng.normal((2, 4, 6)), requires_grad=True)
        weights = Tensor(rng.normal((2, 4, 5)))
        results = []
        for one_node in (True, False):
            with Tape() as tape:
                if one_node:
                    out = al.lora_linear(x, w, ad, training=True, rng=CounterRng(11))
                else:
                    mask = CounterRng(11).bernoulli_mask(x.shape, 1.0 - ad.dropout_p)
                    out = self.composed(x, w, ad, mask)
                grads = tape.backward(tt.tsum(out * weights))
            results.append((out.data, [grads[t] for t in (x, ad.a, ad.b)]))
            if one_node:
                assert len(tape.nodes) == 3   # lora_linear, the product and the sum
        (out, grads), (ref, ref_grads) = results
        assert np.array_equal(out, ref)
        for name, g, want in zip(("x", "A", "B"), grads, ref_grads):
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_zero_b_is_neutral_on_the_tape(self):
        # A fresh adapter leaves the output and x's gradient those of the
        # frozen map, with dropout on; A gets no gradient while B is zero.
        rng = CounterRng(8)
        ad = al.LoraAdapter.create(rng, d_in=6, d_out=5, rank=3, alpha=6.0, dropout_p=0.5)
        w = Tensor(rng.normal((5, 6)))
        x = Tensor(rng.normal((4, 6)), requires_grad=True)
        with Tape() as tape:
            base = tt.linear(x, w)
            g_base = tape.backward(tt.tsum(base * base))[x]
        with Tape() as tape:
            out = al.lora_linear(x, w, ad, training=True, rng=CounterRng(9))
            grads = tape.backward(tt.tsum(out * out), params=[x, ad.a, ad.b])
        assert np.array_equal(out.data, base.data)
        assert np.array_equal(grads[x], g_base)
        assert not np.any(grads[ad.a]) and np.any(grads[ad.b])

    def test_frozen_weight_required(self):
        ad = al.LoraAdapter.create(CounterRng(6), d_in=4, d_out=4, rank=2, alpha=4.0)
        with pytest.raises(ContractError, match="frozen"):
            al.lora_linear(Tensor(np.ones((2, 4))), Tensor(np.eye(4), requires_grad=True), ad)

    def test_training_dropout_requires_rng(self):
        ad = al.LoraAdapter.create(CounterRng(6), d_in=4, d_out=4, rank=2,
                                   alpha=4.0, dropout_p=0.3)
        with pytest.raises(ConfigError):
            al.lora_linear(Tensor(np.ones((2, 4))), Tensor(np.eye(4)), ad, training=True)


class TestSurrogate:
    def test_deterministic_forward(self):
        m = make_surrogate()
        z = Tensor(CounterRng(1).normal((3, 32)))
        l1 = al.surrogate_forward(z, [1, 2, 3], m).data
        l2 = al.surrogate_forward(z, [1, 2, 3], m).data
        assert np.array_equal(l1, l2)

    def test_zero_init_adapters_do_not_change_outputs(self):
        m = make_surrogate()
        bare = make_surrogate()
        bare.adapters = {}
        z = Tensor(CounterRng(2).normal((4, 32)))
        adapted = al.surrogate_forward(z, [1, 4, 2], m).data
        frozen = al.surrogate_forward(z, [1, 4, 2], bare).data
        assert np.max(np.abs(adapted - frozen)) <= 1e-15

    def test_brain_token_permutation_invariance(self):
        m = make_surrogate()
        z = CounterRng(3).normal((5, 32))
        base = al.surrogate_forward(Tensor(z), [1, 2], m).data
        perm = al.surrogate_forward(Tensor(z[[3, 0, 4, 1, 2]]), [1, 2], m).data
        assert np.allclose(base, perm, atol=1e-12)

    def test_position_offsets_break_invariance_when_enabled(self):
        m = make_surrogate(k_tokens_for_pos=3)
        m.brain_pos.data = CounterRng(4).normal((3, 32))
        z = CounterRng(5).normal((3, 32))
        base = al.surrogate_forward(Tensor(z), [1, 2], m).data
        perm = al.surrogate_forward(Tensor(z[[2, 0, 1]]), [1, 2], m).data
        assert not np.allclose(base, perm, atol=1e-9)

    def test_context_cap_enforced(self):
        m = make_surrogate(max_len=6)
        z = Tensor(np.zeros((4, 32)))
        with pytest.raises(LengthError):
            al.surrogate_forward(z, [1, 2, 3], m)

    @pytest.mark.parametrize("shape", [(32,), (3, 16), (3, 32, 1)])
    def test_brain_tokens_must_be_k_by_d_k(self, shape):
        m = make_surrogate()
        with pytest.raises(ShapeError, match="d_k=32"):
            al.surrogate_forward(Tensor(np.zeros(shape)), [1, 2], m)

    def test_prompt_ids_validated(self):
        m = make_surrogate()
        with pytest.raises(ShapeError):
            al.surrogate_forward(None, [99], m)
        with pytest.raises(ShapeError):
            al.surrogate_forward(None, [], m)

    def test_frozen_reproducible_across_instances(self):
        assert make_surrogate(seed=9).checksum() == make_surrogate(seed=9).checksum()
        assert make_surrogate(seed=9).checksum() != make_surrogate(seed=10).checksum()

    def test_gradients_reach_adapters_and_head_only(self):
        m = make_surrogate()
        z = Tensor(CounterRng(6).normal((2, 32)), requires_grad=True)
        with Tape() as tape:
            logits = al.surrogate_forward(z, [1, 2], m, training=False)
            grads = tape.backward(tt.tsum(logits))
        assert m.head_w in grads
        assert any(ad.a in grads or ad.b in grads for ad in m.adapters.values())
        assert all(t not in grads for t in m.frozen.values())

    def test_prompt_only_forward(self):
        m = make_surrogate()
        logits = al.surrogate_forward(None, [1, 2, 3], m)
        assert logits.shape == (2,)


class TestClassify:
    def test_tie_goes_to_tc(self):
        assert al.classify(np.array([0.0, 0.0])) == ("TC", 0.5)

    def test_asd_confidence_58(self):
        label, conf = al.classify(np.array([math.log(58.0), math.log(42.0)]))
        assert label == "ASD"
        assert abs(conf - 0.58) < 1e-12

    def test_strong_tc(self):
        label, conf = al.classify(np.array([-5.0, 5.0]))
        assert label == "TC"
        assert abs(conf - 0.9999546021312976) < 1e-12

    def test_confidence_at_least_half(self):
        rng = CounterRng(7)
        for _ in range(50):
            _, conf = al.classify(rng.normal((2,)) * 3)
            assert 0.5 <= conf <= 1.0

    def test_bad_inputs(self):
        with pytest.raises(ShapeError):
            al.classify(np.zeros(3))
