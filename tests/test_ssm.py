"""Selective SSM: scan backends, selectivity, stability, timing contract."""

import time

import numpy as np
import pytest

from dynssm import ssm as sm
from dynssm import tensor as tt
from dynssm.errors import ConfigError, ShapeError
from dynssm.rng import CounterRng
from dynssm.tensor import Tape, Tensor, finite_diff_check
from test_tensor import loop_scan, loop_scan_op, loop_scan_vjp, scan_with_grads


def make_params(seed=0, d_in=8, d_h=12, blocks=2):
    return sm.SsmParams.create(CounterRng(seed), d_in=d_in, d_h=d_h, block_count=blocks)


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12))


def rates(x, block):
    a_seq, bx_seq = sm.selective_rates(Tensor(x), block)
    return a_seq.data, bx_seq.data


class TestSelectiveParams:
    def test_zero_input_determinism(self):
        p = make_params()
        a1, b1 = rates(np.zeros((1, 8)), p.blocks[0])
        a2, b2 = rates(np.zeros((1, 8)), p.blocks[0])
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    def test_large_decay_logit_saturates_to_zero(self):
        # zero input pins the timescale at softplus(0) = ln 2 for every channel
        p = make_params()
        p.blocks[0].a.data = np.full(12, 60.0)
        a_diag, _ = rates(np.zeros((1, 8)), p.blocks[0])
        assert np.all(a_diag < 1e-10)

    def test_transition_strictly_inside_unit_interval(self):
        p = make_params()
        rng = CounterRng(123)
        lo, hi = 1.0, 0.0
        for _ in range(100):
            x = rng.normal((100, 8))
            a_seq, _ = sm.selective_rates(Tensor(x), p.blocks[0])
            lo = min(lo, a_seq.data.min())
            hi = max(hi, a_seq.data.max())
        assert 0.0 < lo and hi < 1.0


class TestScanSequential:
    def test_memoryless_and_accumulator_limits(self):
        # covered at the op level in test_tensor; here: full params path
        p = make_params(blocks=1)
        x = CounterRng(3).normal((6, 8))
        states = sm.scan_sequential(x, p).states
        a_seq, bx_seq = rates(x, p.blocks[0])
        s = np.zeros(12)
        for t in range(6):
            s = a_seq[t] * s + bx_seq[t]
            assert np.array_equal(states[t], s)

    def test_closed_form_unroll_oracle(self):
        p = make_params()
        T = 64
        x = CounterRng(11).normal((T, 8))
        a_seq, bx_seq = rates(x, p.blocks[0])
        states = sm.scan_sequential(x, p).states
        ref = np.zeros((T, 12))
        for t in range(T):
            acc = np.zeros(12)
            for tau in range(t + 1):
                prod = np.ones(12)
                for u in range(tau + 1, t + 1):
                    prod = prod * a_seq[u]
                acc += prod * bx_seq[tau]
            ref[t] = acc
        assert rel_err(states, ref) < 1e-10

    def test_empty_sequence_rejected(self):
        with pytest.raises(ShapeError):
            sm.scan_sequential(np.zeros((0, 8)), make_params())

    def test_stability_geometric_bound(self):
        p = make_params()
        for seed in range(5):
            x = CounterRng(seed).normal((200, 8))
            a_seq, bx_seq = rates(x, p.blocks[0])
            states = sm.scan_sequential(x, p).states
            bound = np.max(np.abs(bx_seq)) / (1.0 - a_seq.max())
            assert np.max(np.abs(states)) <= bound + 1e-9


class TestScanParallel:
    def test_t1_bit_identical(self):
        p = make_params()
        x = CounterRng(5).normal((1, 8))
        assert np.array_equal(sm.scan_sequential(x, p).states,
                              sm.scan_parallel(x, p).states)

    def test_t2_hand_composition(self):
        p = make_params()
        x = CounterRng(6).normal((2, 8))
        a_seq, bx_seq = rates(x, p.blocks[0])
        expect = a_seq[1] * bx_seq[0] + bx_seq[1]
        par = sm.scan_parallel(x, p).states
        assert np.allclose(par[1], expect, atol=1e-12)

    @pytest.mark.parametrize("T", [3, 7, 64, 1000])
    def test_matches_sequential(self, T):
        p = make_params()
        x = CounterRng(T).normal((T, 8))
        assert rel_err(sm.scan_sequential(x, p).states,
                       sm.scan_parallel(x, p).states) < 1e-8

    @pytest.mark.parametrize("chunk", [1, 3, 4, 16, 64])
    def test_chunk_sizes_agree(self, chunk):
        # every chunk size, shorter and longer than T, forward and backward
        p = make_params()
        for T in list(range(1, 9)) + [130]:
            a, b = rates(CounterRng(9).normal((T, 8)), p.blocks[0])
            g = CounterRng(10).normal((T, 12))
            states, ga, gb = scan_with_grads(a, b, g, chunk=chunk)
            ref = loop_scan(a, b)
            ref_ga, ref_gb = loop_scan_vjp(a, ref, g)
            assert rel_err(states, ref) < 1e-8
            assert rel_err(ga, ref_ga) < 1e-8
            assert rel_err(gb, ref_gb) < 1e-8


class TestSelectivity:
    def test_perturbation_is_causal(self):
        p = make_params(blocks=1)
        x = CounterRng(12).normal((20, 8))
        base_rates = rates(x, p.blocks[0])
        base_states = sm.scan_sequential(x, p).states
        bumped = x.copy()
        bumped[10] += 0.5
        new_rates = rates(bumped, p.blocks[0])
        new_states = sm.scan_sequential(bumped, p).states
        # rates change at the perturbed step only
        assert np.array_equal(base_rates[0][:10], new_rates[0][:10])
        assert np.array_equal(base_rates[0][11:], new_rates[0][11:])
        assert not np.array_equal(base_rates[0][10], new_rates[0][10])
        # earlier states identical, later states affected
        assert np.array_equal(base_states[:10], new_states[:10])
        assert not np.array_equal(base_states[10:], new_states[10:])


class TestSsmForward:
    def test_single_block_identity_readout_equals_raw_states(self):
        p = make_params(blocks=1)
        p.w_out.data = np.eye(12)
        p.b_out.data = np.zeros(12)
        x = CounterRng(13).normal((10, 8))
        out = sm.ssm_forward(Tensor(x), p, backend="sequential").data
        assert np.allclose(out, sm.scan_sequential(x, p).states, atol=1e-12)

    def test_sequential_backend_is_the_loop_bit_for_bit(self, monkeypatch):
        p = make_params(blocks=2)
        x = CounterRng(17).normal((40, 8))
        w = Tensor(CounterRng(18).normal((40, 12)))
        plist = list(p.named_params().values())
        def run():
            xt = Tensor(x, requires_grad=True)
            with Tape() as tape:
                out = sm.ssm_forward(xt, p, backend="sequential")
                grads = tape.backward(tt.tsum(out * w), params=plist + [xt])
            return [out.data] + [grads[t] for t in plist + [xt]]
        got = run()
        monkeypatch.setattr(tt, "selective_scan", lambda a, b, chunk=None: loop_scan_op(a, b))
        ref = run()
        assert [g.tobytes() for g in got] == [r.tobytes() for r in ref]

    def test_backends_agree(self):
        p = make_params(blocks=2)
        x = CounterRng(14).normal((33, 8))
        seq = sm.ssm_forward(Tensor(x), p, backend="sequential").data
        par = sm.ssm_forward(Tensor(x), p, backend="parallel").data
        assert rel_err(seq, par) < 1e-8

    def test_zero_input_zero_biases_zero_output(self):
        p = make_params(blocks=2)
        for blk in p.blocks:
            blk.delta_bias.data = np.zeros_like(blk.delta_bias.data)
            if blk.b_mix is not None:
                blk.b_mix.data = np.zeros_like(blk.b_mix.data)
        p.b_out.data = np.zeros_like(p.b_out.data)
        out = sm.ssm_forward(Tensor(np.zeros((7, 8))), p).data
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_unknown_backend(self):
        with pytest.raises(ConfigError):
            sm.ssm_forward(Tensor(np.zeros((3, 8))), make_params(), backend="gpu")

    def test_gradient_through_scan(self):
        p = make_params(seed=3, d_in=4, d_h=5, blocks=1)
        x = Tensor(CounterRng(15).normal((7, 4)), requires_grad=True)
        w = CounterRng(16).normal((7, 5))
        def fn(ps):
            return tt.tsum(tt.mul(sm.ssm_forward(ps[0], p), Tensor(w)))
        assert finite_diff_check(fn, [x, p.blocks[0].a, p.blocks[0].w_b]) < 1e-4


class TestExhaustiveSmallT:
    def test_t_1_through_8(self):
        p = make_params()
        for T in range(1, 9):
            x = CounterRng(100 + T).normal((T, 8))
            assert rel_err(sm.scan_sequential(x, p).states,
                           sm.scan_parallel(x, p).states) < 1e-8


def scan_runtime_ratio(runs: int = 20) -> float:
    """Median T=2048 / T=1024 sequential-scan runtime over ``runs`` ratios.

    Each side of a ratio is the best of 3 timings with GC paused, which
    suppresses scheduler outliers without changing the median-of-runs shape.
    """
    import gc
    # Lift glibc's dynamic mmap threshold first; otherwise the smaller
    # problem's buffers may be heap-served while the larger one page-faults
    # through mmap on every call, skewing the ratio.
    for _ in range(4):
        scratch = np.empty(1024 * 1024)
        scratch[:] = 0.0
        del scratch
    p = sm.SsmParams.create(CounterRng(0), d_in=8, d_h=32, block_count=1)
    xs = {T: CounterRng(T).normal((T, 8)) for T in (1024, 2048)}
    for x in xs.values():   # warmup
        sm.scan_sequential(x, p)
    def timed(x):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            sm.scan_sequential(x, p)
            best = min(best, time.perf_counter() - t0)
        return best
    gc.disable()
    try:
        ratios = [timed(xs[2048]) / timed(xs[1024]) for _ in range(runs)]
    finally:
        gc.enable()
    return float(np.median(ratios))


@pytest.mark.slow
class TestLinearTimeContract:
    def test_runtime_ratio_t2048_over_t1024(self):
        median = scan_runtime_ratio()
        assert 1.6 <= median <= 2.6, f"median runtime ratio {median}"
