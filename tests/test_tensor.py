"""Core tensor / autodiff engine tests."""

import ctypes
import gc
import importlib
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from dynssm import ssm as sm
from dynssm import tensor as tt
from dynssm.errors import ConfigError, ContractError, NumericsError, OracleError, ShapeError
from dynssm.rng import CounterRng
from dynssm.tensor import Tape, Tensor, finite_diff_check


class TestTensorBasics:
    def test_shape_data_consistency(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.data.size == 6

    def test_nan_rejected_at_creation(self):
        with pytest.raises(NumericsError):
            Tensor([1.0, np.nan])
        with pytest.raises(NumericsError):
            Tensor([np.inf, 0.0])

    def test_debug_mode_flags_op_output(self):
        tt.set_debug_checks(True)
        try:
            with np.errstate(divide="ignore"), pytest.raises(NumericsError):
                tt.log(Tensor([0.0, 1.0]))   # log(0) -> -inf
        finally:
            tt.set_debug_checks(False)

    def test_fancy_broadcast_rejected(self):
        a = Tensor(np.zeros((3, 1)))
        b = Tensor(np.zeros((1, 4)))
        with pytest.raises(ShapeError):
            tt.add(a, b)

    def test_leading_batch_and_scalar_broadcast(self):
        a = Tensor(np.ones((2, 3, 4)))
        b = Tensor(np.ones(4))
        assert tt.add(a, b).shape == (2, 3, 4)
        assert tt.mul(a, Tensor(2.0)).data.max() == 2.0

    def test_every_lazy_package_name_resolves(self):
        import dynssm
        for name, module in dynssm._LAZY.items():
            assert getattr(dynssm, name) is getattr(importlib.import_module(
                f"dynssm.{module}"), name)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[3.0, 5.0], [7.0, 9.0]])
        out = tt.matmul(Tensor(np.eye(2)), a)
        assert np.array_equal(out.data, a.data)

    def test_hand_arithmetic(self):
        out = tt.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 3))
        ref = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(4):
                    ref[i, j] += a[i, k] * b[k, j]
        out = tt.matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(out - ref) / np.maximum(np.abs(ref), 1e-30)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_triple_loop_oracle_random_dims(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(1, 32, size=3)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        ref = np.einsum("ik,kj->ij", a, b)
        out = tt.matmul(Tensor(a), Tensor(b)).data
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            tt.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestGroupedConv1d:
    def test_zero_kernel_zero_output(self):
        x = Tensor(np.random.default_rng(0).normal(size=(6, 4)))
        w = Tensor(np.zeros((1, 2, 1, 3)))
        out = tt.grouped_conv1d(x, 3, w, 4)
        assert np.all(out.data == 0.0)

    def test_delta_kernel_identity(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        w = Tensor(np.array([0.0, 1.0, 0.0]).reshape(1, 1, 1, 3))
        out = tt.grouped_conv1d(x, 3, w, 1)
        assert np.array_equal(out.data.ravel(), [1.0, 2.0, 3.0, 4.0])

    def test_box_kernel_hand_sum(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        w = Tensor(np.ones((1, 1, 1, 3)))
        out = tt.grouped_conv1d(x, 3, w, 1)
        assert np.array_equal(out.data.ravel(), [3.0, 6.0, 9.0, 7.0])

    def test_group_isolation(self):
        # Zeroing one group's input must not change the other group's output.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 4))
        w = Tensor(rng.normal(size=(2, 3, 2, 3)))
        full = tt.grouped_conv1d(Tensor(x), 3, w, 2).data
        x2 = x.copy()
        x2[:, 2:] = 0.0
        partial = tt.grouped_conv1d(Tensor(x2), 3, w, 2).data
        assert np.array_equal(full[:, :3], partial[:, :3])
        assert not np.array_equal(full[:, 3:], partial[:, 3:])

    def test_group_count_error(self):
        x = Tensor(np.zeros((5, 4)))
        w = Tensor(np.zeros((3, 1, 1, 3)))
        with pytest.raises(ConfigError):
            tt.grouped_conv1d(x, 3, w, 3)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            tt.grouped_conv1d(Tensor(np.zeros((5, 2))), 2, Tensor(np.zeros((1, 1, 1, 2))), 2)

    def test_input_shorter_than_kernel(self):
        with pytest.raises(ShapeError, match="too short"):
            tt.grouped_conv1d(Tensor(np.zeros((2, 1))), 3, Tensor(np.zeros((1, 1, 1, 3))), 1)


class TestSoftmaxRows:
    """``tt.softmax``: max-shifted, along the last axis or any other."""

    def test_symmetry(self):
        out = tt.softmax(Tensor([[0.0, 0.0]]), axis=-1)
        assert np.array_equal(out.data, [[0.5, 0.5]])

    def test_large_values_stabilized(self):
        out = tt.softmax(Tensor([[1000.0, 1000.0]]), axis=-1)
        assert np.array_equal(out.data, [[0.5, 0.5]])

    def test_direct_formula_oracle(self):
        row = np.array([[1.0, 2.0, 3.0]])
        ref = np.exp(row) / np.exp(row).sum()
        out = tt.softmax(Tensor(row), axis=-1).data
        assert np.max(np.abs(out - ref)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_sum_to_one_and_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 6)) * 10
        out = tt.softmax(Tensor(x), axis=-1).data
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-12)
        shifted = tt.softmax(Tensor(x + rng.normal() * np.ones((4, 6))), axis=-1).data
        assert np.allclose(out, shifted, atol=1e-12)

    def test_leading_axis_matches_transposed_rows(self):
        x = np.random.default_rng(4).normal(size=(5, 3))
        w = np.random.default_rng(5).normal(size=(5, 3))
        a, b = Tensor(x, requires_grad=True), Tensor(x.T.copy(), requires_grad=True)
        with Tape() as tape:
            out_a = tt.softmax(a, axis=0)
            ga = tape.backward(tt.tsum(out_a * Tensor(w)))[a]
        with Tape() as tape:
            out_b = tt.softmax(b, axis=-1)
            gb = tape.backward(tt.tsum(out_b * Tensor(w.T.copy())))[b]
        assert np.max(np.abs(out_a.data - out_b.data.T)) < 1e-15
        assert np.max(np.abs(ga - gb.T)) < 1e-15


def composed_attention(q, k, v, scale, mask=None):
    """Reference: the bmm / scale / softmax / bmm composition, one node each."""
    scores = tt.bmm(q, k.transpose((0, 2, 1))) * scale
    if mask is not None:
        scores = scores + Tensor(mask)
    return tt.bmm(tt.softmax(scores, axis=-1), v)


def headwise_reference(heads):
    """``composed_attention`` run on each head's columns, split here by hand."""
    def op(q, k, v, scale, mask=None):
        unbatched = q.ndim == 2
        if unbatched:
            q, k, v = (t.reshape((1, *t.shape)) for t in (q, k, v))
        d, dv = q.shape[-1] // heads, v.shape[-1] // heads
        out = tt.concat([composed_attention(q[:, :, h * d:(h + 1) * d],
                                            k[:, :, h * d:(h + 1) * d],
                                            v[:, :, h * dv:(h + 1) * dv], scale, mask)
                         for h in range(heads)], axis=-1)
        return out.reshape(out.shape[1:]) if unbatched else out
    return op


def attention_out_and_grads(op, shapes, mask, seed, heads=1):
    rng = np.random.default_rng(seed)
    qkv = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
    w = Tensor(rng.normal(size=shapes[0][:-1] + shapes[2][-1:]))
    with Tape() as tape:
        out = op(*qkv, 1.0 / math.sqrt(shapes[0][-1] // heads), mask)
        grads = tape.backward(tt.tsum(out * w))
    return out.data, [grads[t] for t in qkv]


# (B, m, n, d, dv, masked, heads), with d and dv per head; B None is no batch axis
ATTENTION_CASES = [
    (512, 16, 16, 4, 4, False, 1),      # one head per batch row
    (8, 16, 16, 32, 32, False, 1),
    (1, 8, 128, 32, 32, True, 1),       # token compression: one head, masked
    (3, 5, 7, 4, 6, True, 1),           # value width differs from key width
    (128, 16, 16, 4, 4, False, 4),      # ROI attention at desk width, T=128
    (2, 16, 16, 32, 32, False, 4),      # ROI attention at paper width
    (3, 5, 7, 4, 6, True, 2),           # two heads, dv != d
    (None, 12, 12, 16, 16, False, 4),   # surrogate block: (L, H·d), no batch axis
    (None, 8, 128, 32, 32, True, 1),    # token compression as it is called
]
# lead axes that span several forward chunks and end in a ragged one
CHUNKED_CASES = [
    (2050, 16, 16, 4, 4, False, 4),     # 128 steps a chunk: 16 chunks, then 2 steps
    (300, 8, 128, 4, 4, True, 2),       # 64 steps a chunk: 4 chunks, then 44 steps
]
ATTENTION_CASES += CHUNKED_CASES


def _case_id(case):
    return "-".join(map(str, case[:6])) + ("" if case[6] == 1 else f"-{case[6]}heads")


def attention_case(B, m, n, d, dv, masked, heads):
    """The q, k and v shapes and the mask of one ``ATTENTION_CASES`` entry."""
    mask = None
    if masked:
        mask = np.zeros((m, n))
        mask[:, n // 2:] = -1e30
        mask[0, 1] = 0.7
    lead = () if B is None else (B,)
    return [lead + (m, heads * d), lead + (n, heads * d), lead + (n, heads * dv)], mask


class TestAttention:
    @pytest.mark.parametrize("B,m,n,d,dv,masked,heads", ATTENTION_CASES,
                             ids=[_case_id(c) for c in ATTENTION_CASES])
    def test_matches_composed_reference(self, B, m, n, d, dv, masked, heads):
        shapes, mask = attention_case(B, m, n, d, dv, masked, heads)
        def op(*args):
            return tt.attention(*args, heads=heads)
        out, grads = attention_out_and_grads(op, shapes, mask, seed=n + d, heads=heads)
        ref, ref_grads = attention_out_and_grads(headwise_reference(heads), shapes, mask,
                                                 seed=n + d, heads=heads)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        for name, g, want in zip("qkv", grads, ref_grads):
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("B,m,n,d,dv,masked,heads", ATTENTION_CASES,
                             ids=[_case_id(c) for c in ATTENTION_CASES])
    def test_untaped_forward_is_the_taped_one(self, B, m, n, d, dv, masked, heads):
        shapes, mask = attention_case(B, m, n, d, dv, masked, heads)
        rng = np.random.default_rng(n + d)
        arrays = [rng.normal(size=shape) for shape in shapes]
        untaped = tt.attention(*map(Tensor, arrays), 0.5, mask, heads=heads)
        with Tape():
            taped = tt.attention(*(Tensor(a, requires_grad=True) for a in arrays), 0.5, mask,
                                 heads=heads)
        assert np.array_equal(untaped.data, taped.data)

    def test_chunked_cases_span_several_chunks(self):
        for B, m, n, d, dv, masked, heads in CHUNKED_CASES:
            steps_per_chunk = tt._CHUNK // (heads * m * n)
            assert 2 * steps_per_chunk < B and B % steps_per_chunk

    def test_untaped_peak_memory_is_below_one_score_tensor(self):
        rng = np.random.default_rng(0)
        q, k, v = (Tensor(rng.normal(size=(2048, 16, 16))) for _ in range(3))
        scores_bytes = 2048 * 4 * 16 * 16 * 8   # (T·H, 16, 16) float64, 16.8 MB
        tracemalloc.start()
        try:
            tt.attention(q, k, v, 0.5, heads=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < scores_bytes

    def test_records_one_node(self):
        rng = np.random.default_rng(1)
        q, k, v = (Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True) for _ in range(3))
        with Tape() as tape:
            tt.attention(q, k, v, 0.5)
        assert len(tape.nodes) == 1

    def test_shapes_checked(self):
        x = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            tt.attention(x, Tensor(np.zeros((2, 3, 5))), x, 1.0)
        with pytest.raises(ShapeError):
            tt.attention(x, x, Tensor(np.zeros((2, 4, 4))), 1.0)
        with pytest.raises(ShapeError, match="mask"):
            tt.attention(x, x, x, 1.0, np.zeros((3, 4)))
        with pytest.raises(ShapeError, match="H=3"):
            tt.attention(x, x, x, 1.0, heads=3)   # 4 columns do not split into 3 heads


def assert_same_attention(op, reference, arrays, w):
    """``op`` and ``reference`` agree untaped and taped, on the output and every gradient."""
    results = []
    for fn in (op, reference):
        untaped = fn(*map(Tensor, arrays)).data
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = fn(*ts)
            grads = tape.backward(tt.tsum(out * Tensor(w)))
        assert np.array_equal(untaped, out.data)
        results.append([out.data] + [grads[t] for t in ts])
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# (B, m, n, d, dv, masked, heads), with d and dv per head; B None is no batch axis
SHARED_CASES = [
    (128, 16, 16, 9, 9, False, 4),      # paper encoder: F̃ (c+1 = 9) shared by 4 heads
    (3, 5, 7, 4, 6, True, 2),           # two heads, dv != d, masked
    (None, 12, 12, 8, 8, False, 4),     # no batch axis
    (2050, 16, 16, 4, 4, False, 4),     # 128 steps a chunk: 16 chunks, then 2 steps
]


class TestSharedKeysAndMappedQueries:
    @staticmethod
    def arrays(B, m, n, d, dv, heads, shared, d_q=None):
        """q (or the unmapped q and its map), k, v and the output weights of one case."""
        rng = np.random.default_rng(n + d)
        lead = () if B is None else (B,)
        kv = 1 if shared else heads
        shapes = [lead + (m, heads * d if d_q is None else d_q),
                  lead + (n, kv * d), lead + (n, kv * dv)]
        if d_q is not None:
            shapes.append((heads * d, d_q))
        return ([rng.normal(size=shape) for shape in shapes],
                rng.normal(size=lead + (m, heads * dv)))

    @pytest.mark.parametrize("B,m,n,d,dv,masked,heads", SHARED_CASES,
                             ids=[_case_id(c) for c in SHARED_CASES])
    def test_shared_keys_and_values_are_the_repeated_ones(self, B, m, n, d, dv, masked, heads):
        _, mask = attention_case(B, m, n, d, dv, masked, heads)
        arrays, w = self.arrays(B, m, n, d, dv, heads, shared=True)

        def shared(q, k, v):
            return tt.attention(q, k, v, 0.5, mask, heads=heads)

        def repeated(q, k, v):
            return tt.attention(q, tt.concat([k] * heads, axis=-1),
                                tt.concat([v] * heads, axis=-1), 0.5, mask, heads=heads)
        assert_same_attention(shared, repeated, arrays, w)

    @pytest.mark.parametrize("shared", [False, True], ids=["own-kv", "shared-kv"])
    @pytest.mark.parametrize("B,m,n,d,dv,masked,heads", SHARED_CASES,
                             ids=[_case_id(c) for c in SHARED_CASES])
    def test_mapped_queries_are_the_linear_ones(self, B, m, n, d, dv, masked, heads, shared):
        _, mask = attention_case(B, m, n, d, dv, masked, heads)
        arrays, w = self.arrays(B, m, n, d, dv, heads, shared, d_q=d + 3)

        def mapped(q, k, v, q_map):
            return tt.attention(q, k, v, 0.5, mask, heads=heads, q_map=q_map)

        def linear(q, k, v, q_map):
            return tt.attention(tt.linear(q, q_map), k, v, 0.5, mask, heads=heads)
        assert_same_attention(mapped, linear, arrays, w)

    def test_mapped_queries_are_not_kept(self):
        # A linear node keeps q·q_mapᵀ on the tape; the op drops it.
        rng = np.random.default_rng(2)
        arrays = [rng.normal(size=(64, 16, 9)) for _ in range(3)] + [rng.normal(size=(36, 9))]

        def held(fn):
            ts = [Tensor(a, requires_grad=True) for a in arrays]
            tracemalloc.start()
            try:
                with Tape():
                    fn(*ts)
                    return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        mapped = held(lambda q, k, v, m: tt.attention(q, k, v, 1.0, heads=4, q_map=m))
        linear = held(lambda q, k, v, m: tt.attention(tt.linear(q, m), k, v, 1.0, heads=4))
        assert linear - mapped >= 64 * 16 * 36 * 8

    def test_shapes_checked(self):
        q = Tensor(np.zeros((2, 3, 8)))
        kv = Tensor(np.zeros((2, 5, 3)))
        with pytest.raises(ShapeError, match="H=4"):
            tt.attention(q, kv, kv, 1.0, heads=4)   # k neither 8 (H·d) nor 2 (d) wide
        with pytest.raises(ShapeError, match="q_map"):
            tt.attention(q, q, q, 1.0, q_map=Tensor(np.zeros((8, 5))))   # q is 8 wide, not 5
        with pytest.raises(ShapeError, match="q_map"):
            tt.attention(q, q, q, 1.0, q_map=Tensor(np.zeros(8)))


# (B, m, n, d, dv, masked, heads, shared, d_q): 12 steps, so a small ``_CHUNK``
# leaves several chunks in both passes, the last one ragged
SMALL_CHUNK_CASES = [
    (12, 5, 7, 4, 6, True, 2, False, None),    # own k and v, masked
    (12, 16, 16, 9, 9, False, 4, True, None),  # shared k and v
    (12, 5, 7, 4, 6, True, 2, False, 7),       # mapped queries, own k and v
    (12, 16, 16, 9, 9, False, 4, True, 9),     # the paper encoder's form
]


class TestRowStatistics:
    """The node keeps O and the row statistics; its vjp forms E again per chunk."""

    @staticmethod
    def out_and_grads(B, m, n, d, dv, masked, heads, shared, d_q):
        _, mask = attention_case(B, m, n, d, dv, masked, heads)
        arrays, w = TestSharedKeysAndMappedQueries.arrays(B, m, n, d, dv, heads, shared, d_q)
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = tt.attention(*ts[:3], 0.5, mask, heads=heads, q_map=ts[3] if d_q else None)
            grads = tape.backward(tt.tsum(out * Tensor(w)))
        return [out.data] + [grads[t] for t in ts]

    @pytest.mark.parametrize("case", SMALL_CHUNK_CASES,
                             ids=["own-kv", "shared-kv", "mapped", "mapped-shared-kv"])
    def test_small_chunks_change_no_bit(self, monkeypatch, case):
        B, m, n, d, dv, masked, heads, shared, d_q = case
        default = self.out_and_grads(*case)
        assert tt._CHUNK >= B * heads * m * n   # one chunk each way at the default
        # five steps a forward chunk (5, 5, 2) and two a backward chunk (2 × 6)
        monkeypatch.setattr(tt, "_CHUNK", 5 * heads * m * n)
        for got, want in zip(self.out_and_grads(*case), default):
            assert np.array_equal(got, want)

    def test_taped_call_keeps_no_score_sized_array(self):
        # ROI attention at T=128: (16 keys, 128 steps, 4 heads, 16 queries)
        # scores, 1 MiB. The node keeps O (0.25 MiB) and the row max and sum.
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(rng.normal(size=(128, 16, 16)), requires_grad=True) for _ in range(3))
        scores_bytes = 16 * 128 * 4 * 16 * 8
        tracemalloc.start()
        try:
            with Tape():
                tt.attention(q, k, v, 0.5, heads=4)
                held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < scores_bytes // 2, f"a taped attention holds {held / 2**20:.2f} MiB"


class TestPerTape:
    def test_builds_once_per_tape_and_owner(self):
        built = []
        owner, other = object(), object()

        def build(tag):
            built.append(tag)
            return Tensor(np.full(2, float(len(built))), requires_grad=True)
        with Tape():
            first = tt.per_tape(owner, lambda: build("a"))
            assert tt.per_tape(owner, lambda: build("b")) is first
            assert tt.per_tape(other, lambda: build("c")) is not first
        with Tape():
            assert tt.per_tape(owner, lambda: build("d")) is not first
        assert built == ["a", "c", "d"]

    def test_untaped_builds_every_call(self):
        owner, built = object(), []
        for _ in range(3):
            tt.per_tape(owner, lambda: built.append(1))
        assert len(built) == 3

    def test_tape_keeps_the_owner_alive(self):
        # the owner's id names its value, so no other object may take that id
        class Owner:
            pass
        owner = Owner()
        ref = weakref.ref(owner)
        with Tape():
            tt.per_tape(owner, lambda: 1.0)
            del owner
            gc.collect()
            assert ref() is not None


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(tt.tsum(w))
        assert np.array_equal(grads[w], np.ones((3, 4)))

    def test_quadratic(self):
        w = Tensor([1.0, -2.0], requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(tt.tsum(tt.mul(w, w)))
        assert np.array_equal(grads[w], [2.0, -4.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = tt.mul(w, w)
            with pytest.raises(ContractError):
                tape.backward(out)

    def test_off_path_param_gets_zero(self):
        w = Tensor([1.0], requires_grad=True)
        other = Tensor([5.0], requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(tt.tsum(w), params=[w, other])
        assert np.array_equal(grads[other], [0.0])

    def test_backward_deterministic_bit_identical(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        v = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        with Tape() as tape:
            loss = tt.tsum(tt.softmax(tt.matmul(w, v)))
            g1 = tape.backward(loss)
            g2 = tape.backward(loss)
        assert np.array_equal(g1[w], g2[w])
        assert np.array_equal(g1[v], g2[v])

    def test_tape_topological_order(self):
        w = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            a = tt.mul(w, w)
            b = tt.add(a, w)
            c = tt.tsum(b)
        position = {id(node.out): i for i, node in enumerate(tape.nodes)}
        assert [node.out for node in tape.nodes] == [a, b, c]
        for i, node in enumerate(tape.nodes):
            assert all(position[id(p)] < i for p in node.parents if id(p) in position)

    def test_loss_not_on_tape_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        with Tape() as other:
            foreign = tt.tsum(w)
        leaf = tt.tsum(w)   # no tape active
        with Tape() as tape:
            tt.tsum(tt.mul(w, w))
        for loss in (w, leaf, foreign):   # two leaves and another tape's output
            with pytest.raises(ContractError, match="not recorded on this tape"):
                tape.backward(loss)
        assert np.array_equal(other.backward(foreign)[w], [1.0])

    def test_reused_tensor_accumulates(self):
        w = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(tt.tsum(tt.add(tt.mul(w, w), w)))
        assert np.allclose(grads[w], [7.0])   # 2w + 1

    def test_one_tape_per_thread(self):
        # tapes are thread-local: concurrent builds must not interleave
        import threading
        results = {}
        def worker(seed):
            rng = np.random.default_rng(seed)
            w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
            for _ in range(20):
                with Tape() as tape:
                    grads = tape.backward(tt.tsum(tt.softmax(tt.matmul(w, w))))
                results.setdefault(seed, []).append(grads[w].copy())
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for seed, grads in results.items():
            for g in grads[1:]:
                assert np.array_equal(grads[0], g)

    def test_backward_visits_each_node_exactly_once(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            a = tt.mul(w, w)
            b = tt.add(a, a)      # diamond: a consumed twice
            loss = tt.tsum(b)
            calls = []
            for node in tape.nodes:
                original = node.vjp
                node.vjp = (lambda fn, ref: lambda g: calls.append(ref) or fn(g))(
                    original, node)
            tape.backward(loss)
        assert len(calls) == len(tape.nodes)
        assert len(set(map(id, calls))) == len(tape.nodes)


class TestFiniteDiffCheck:
    def test_sum_of_squares_tight(self):
        w = Tensor(np.random.default_rng(1).normal(size=(4,)), requires_grad=True)
        err = finite_diff_check(lambda ps: tt.tsum(tt.mul(ps[0], ps[0])), [w])
        assert err < 1e-9

    def test_softmax_cross_entropy(self):
        logits = Tensor(np.random.default_rng(2).normal(size=(5,)), requires_grad=True)
        err = finite_diff_check(lambda ps: -tt.log_softmax(ps[0])[2], [logits])
        assert err < 1e-6

    def test_corrupted_gradient_detected(self):
        # An op with a deliberately wrong vjp must be flagged loudly.
        def bad_exp(a):
            e = np.exp(a.data)
            out = Tensor._wrap(e)
            tape = tt.active_tape()
            if tape is not None and a.requires_grad:
                tape._record(out, (a,), lambda g: (g * e * 1.5,))
            return out
        w = Tensor(np.array([0.3, -0.4]), requires_grad=True)
        err = finite_diff_check(lambda ps: tt.tsum(bad_exp(ps[0])), [w])
        assert err > 1e-2

    def test_nondeterministic_fn_rejected(self):
        state = {"n": 0}
        def fn(ps):
            state["n"] += 1
            return tt.tsum(ps[0]) * float(state["n"])
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(OracleError):
            finite_diff_check(fn, [w])


def loop_scan(a, b):
    """Reference forward: s_t = a_t * s_{t-1} + b_t from s_0 = 0, one step at a time."""
    T, d = a.shape
    states = np.empty((T, d), dtype=a.dtype)
    s = np.zeros(d, dtype=a.dtype)
    for t in range(T):
        s = a[t] * s + b[t]
        states[t] = s
    return states


def loop_scan_vjp(a, states, g):
    """Reference backward: c_t = g_t + a_{t+1} c_{t+1}, right to left.

    Returns (grad_a, grad_b) = (c_t * s_{t-1} with zero at t = 0, c_t)."""
    T, d = a.shape
    ga = np.zeros((T, d), dtype=g.dtype)
    gb = np.empty((T, d), dtype=g.dtype)
    c = np.zeros(d, dtype=g.dtype)
    for t in range(T - 1, -1, -1):
        c = g[t] + (a[t + 1] * c if t + 1 < T else 0.0)
        gb[t] = c
        if t > 0:
            ga[t] = c * states[t - 1]
    return ga, gb


def scan_with_grads(a, b, g, chunk=None):
    """selective_scan's states and its (grad_a, grad_b) for the cotangent g."""
    at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        out = tt.selective_scan(at, bt, chunk=chunk)
        grads = tape.backward(tt.tsum(tt.mul(out, Tensor(g))))
    return out.data, grads[at], grads[bt]


def scan_case(T, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.05, 0.95, (T, d)), rng.normal(size=(T, d)),
            rng.normal(size=(T, d)))


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12))


class TestSelectiveScanOp:
    def test_memoryless_when_a_zero(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(6, 3))
        out = tt.selective_scan(Tensor(np.zeros((6, 3))), Tensor(b))
        assert np.array_equal(out.data, b)

    def test_pure_accumulator_when_a_one(self):
        T = 9
        out = tt.selective_scan(Tensor(np.ones((T, 2))), Tensor(np.full((T, 2), 0.5)))
        assert np.allclose(out.data[-1], T * 0.5)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            tt.selective_scan(Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2))))

    def test_chunk_must_be_positive(self):
        with pytest.raises(ConfigError):
            tt.selective_scan(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))), chunk=0)

    @pytest.mark.parametrize("T", [1, 2, 37, 300])
    def test_single_chunk_is_the_loop_bit_for_bit(self, T):
        a, b, g = scan_case(T, seed=T)
        b[0, 0] = g[-1, 0] = -0.0   # the loops start from +0.0 on both sides
        states, ga, gb = scan_with_grads(a, b, g, chunk=T)
        ref = loop_scan(a, b)
        ref_ga, ref_gb = loop_scan_vjp(a, ref, g)
        assert states.tobytes() == ref.tobytes()
        assert ga.tobytes() == ref_ga.tobytes()
        assert gb.tobytes() == ref_gb.tobytes()

    @pytest.mark.parametrize("T", [1, 2, 3, 4, 8, 9, 10, 15, 16, 17,
                                   63, 64, 65, 255, 256, 257])
    def test_default_chunk_matches_loop_at_chunk_boundaries(self, T):
        a, b, g = scan_case(T, seed=T)
        states, ga, gb = scan_with_grads(a, b, g)
        ref = loop_scan(a, b)
        ref_ga, ref_gb = loop_scan_vjp(a, ref, g)
        assert rel_err(states, ref) < 1e-8
        assert rel_err(ga, ref_ga) < 1e-8
        assert rel_err(gb, ref_gb) < 1e-8

    def test_inputs_left_unchanged(self):
        a, b, g = scan_case(20)
        a0, b0, g0 = a.copy(), b.copy(), g.copy()
        for chunk in (1, 4, 20):
            scan_with_grads(a, b, g, chunk=chunk)
        assert np.array_equal(a, a0) and np.array_equal(b, b0) and np.array_equal(g, g0)


def masked_sigmoid(x):
    """The boolean-mask sigmoid the tensor module used to compute."""
    pos = x >= 0
    z = np.empty_like(x)
    z[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    z[~pos] = ex / (1.0 + ex)
    return z


class TestSigmoidForms:
    def test_bit_identical_to_masked_formula(self):
        tiny = np.finfo(np.float64).tiny
        grid = np.concatenate([np.linspace(-800.0, 800.0, 20001),
                               [0.0, -0.0, tiny, -tiny, tiny / 4, -tiny / 4,
                                5e-324, -5e-324, 1e-300, -1e-300]])
        ref = masked_sigmoid(grid).tobytes()
        assert tt.sigmoid(Tensor(grid)).data.tobytes() == ref
        x = Tensor(grid, requires_grad=True)
        with Tape() as tape:
            grads = tape.backward(tt.tsum(tt.softplus(x)))
        assert grads[x].tobytes() == ref


class TestScaledSelfOuter:
    def test_zero_embeddings(self):
        out = tt.scaled_self_outer(Tensor(np.zeros((4, 3))))
        assert np.all(out.data == 0.0)

    def test_identical_unit_rows(self):
        h = np.tile(np.array([0.5, 0.5, 0.5, 0.5]), (3, 1))  # unit norm, d=4
        out = tt.scaled_self_outer(Tensor(h)).data
        assert np.allclose(out, 0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_symmetry(self, seed):
        h = np.random.default_rng(seed).normal(size=(6, 8))
        g = tt.scaled_self_outer(Tensor(h)).data
        assert np.array_equal(g, g.T)

    def test_pairwise_dot_oracle(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(6, 8))
        g = tt.scaled_self_outer(Tensor(h)).data
        ref = np.zeros((6, 6))
        for i in range(6):
            for j in range(6):
                ref[i, j] = np.dot(h[i], h[j]) / np.sqrt(8)
        assert np.max(np.abs(g - ref)) < 1e-12

    @pytest.mark.parametrize("T", [1, 128, 2048])
    def test_mirror_matches_triu_sum_and_is_symmetric(self, T):
        h = np.random.default_rng(T).normal(size=(T, 16, 16))
        g = tt.scaled_self_outer(Tensor(h)).data
        raw = (h @ h.transpose(0, 2, 1)) * 0.25
        old = np.triu(raw) + np.triu(raw, 1).transpose(0, 2, 1)
        assert np.array_equal(g, old)
        assert np.array_equal(g, g.transpose(0, 2, 1))
        assert g.flags.c_contiguous

    def test_gram_is_the_embeddings_outer_product(self):
        # h G hᵀ with G = UᵀU / sqrt(d) equals the default on the embeddings h Uᵀ
        rng = np.random.default_rng(12)
        z, u = rng.normal(size=(5, 7, 3)), rng.normal(size=(16, 3))
        g = tt.scaled_self_outer(Tensor(z), Tensor(u.T @ u / 4.0)).data
        ref = tt.scaled_self_outer(Tensor(z @ u.T)).data
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert all(np.array_equal(g[t], g[t].T) for t in range(5))

    def test_gram_gradients(self):
        rng = np.random.default_rng(13)
        z = Tensor(rng.normal(size=(5, 7, 3)), requires_grad=True)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 7, 7)))
        with Tape() as tape:
            gram = a + a.T
            out = tt.tsum(tt.mul(tt.scaled_self_outer(z, gram), w))
            grads = tape.backward(out)
        gd = a.data + a.data.T
        ref_z = np.einsum("tij,tjk->tik", w.data + w.data.transpose(0, 2, 1), z.data @ gd)
        ref_gram = np.einsum("tia,tij,tjb->ab", z.data, w.data, z.data)
        assert np.allclose(grads[z], ref_z, rtol=0, atol=1e-12)
        assert np.allclose(grads[a], ref_gram + ref_gram.T, rtol=0, atol=1e-12)

    def test_gram_shape_checked(self):
        with pytest.raises(ShapeError, match="gram"):
            tt.scaled_self_outer(Tensor(np.zeros((4, 3))), Tensor(np.eye(4)))


def _no_c_library(name):
    raise OSError("no C library")


class TestKeepFreedMemory:
    @pytest.mark.skipif(not (sys.platform.startswith("linux") and tt._keep_freed_memory()),
                        reason="needs Linux with glibc's mallopt")
    def test_long_ssm_step_reuses_its_pages(self):
        import resource
        p = sm.SsmParams.create(CounterRng(1).child(1), d_in=16, d_h=32, block_count=2)
        plist = list(p.named_params().values())
        rng = CounterRng(1).child(2)
        x, w = Tensor(rng.normal((4096, 16))), Tensor(rng.normal((4096, 32)))

        def step():
            with Tape() as tape:
                tape.backward(tt.tsum(sm.ssm_forward(x, p) * w), params=plist)

        for _ in range(3):
            step()
        faults = []
        for _ in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            step()
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert max(faults) <= 64, f"minor faults per step: {faults}"

    @pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library],
                             ids=["no-mallopt", "no-library"])
    def test_set_up_is_quiet_without_mallopt(self, cdll, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert tt._keep_freed_memory() is False
