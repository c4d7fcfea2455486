"""Core tensor / autodiff engine tests."""

import numpy as np
import pytest

from dynssm import tensor as tt
from dynssm.errors import ConfigError, ContractError, NumericsError, OracleError, ShapeError
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
    def test_symmetry(self):
        out = tt.softmax_rows(Tensor([[0.0, 0.0]]))
        assert np.array_equal(out.data, [[0.5, 0.5]])

    def test_large_values_stabilized(self):
        out = tt.softmax_rows(Tensor([[1000.0, 1000.0]]))
        assert np.array_equal(out.data, [[0.5, 0.5]])

    def test_direct_formula_oracle(self):
        row = np.array([[1.0, 2.0, 3.0]])
        ref = np.exp(row) / np.exp(row).sum()
        out = tt.softmax_rows(Tensor(row)).data
        assert np.max(np.abs(out - ref)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_sum_to_one_and_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 6)) * 10
        out = tt.softmax_rows(Tensor(x)).data
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-12)
        shifted = tt.softmax_rows(Tensor(x + rng.normal() * np.ones((4, 6)))).data
        assert np.allclose(out, shifted, atol=1e-12)

    def test_requires_2d(self):
        with pytest.raises(ShapeError):
            tt.softmax_rows(Tensor(np.zeros(3)))


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
            ids = [node.out.node_id for node in tape.nodes]
        assert ids == sorted(ids)
        assert c.node_id == ids[-1]

    def test_loss_not_on_tape_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        loss = tt.tsum(w)   # no tape active
        with pytest.raises(ContractError):
            tt.backward(loss)

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

    def test_eps_must_be_positive(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(ConfigError):
            finite_diff_check(lambda ps: tt.tsum(ps[0]), [w], eps=0.0)


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


def loop_scan_op(a_seq, b_seq):
    """The reference loops as a tape op, for whole-model reference gradients."""
    states = loop_scan(a_seq.data, b_seq.data)
    out = Tensor._wrap(states)
    tape = tt._recording(a_seq, b_seq)
    if tape is not None:
        tape._record(out, (a_seq, b_seq),
                     lambda g: loop_scan_vjp(a_seq.data, states, g))
    return out


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
