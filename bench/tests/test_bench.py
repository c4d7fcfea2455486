"""The benchmark's own tests: its checks catch wrong answers, and its probe
neither changes results nor records malformed spans.

    python3 -m pytest bench/tests -q
"""

import numpy as np
import pytest

from dynssm import data as D
from dynssm import ssm as sm
from dynssm import tensor as tt
from dynssm import training as TR
from dynssm.model import BrainSequenceClassifier, ModelConfig
from dynssm.rng import CounterRng
from dynssm.tensor import Tensor

import checks as C
from probe import Probe, Recorder, TIMERS, STAGES, IO


@pytest.fixture(scope="module")
def subjects():
    spec = D.default_synth_spec(seed=3, length=32, subjects_per_class=2)
    return [D.normalize_zscore(s) for s in D.synth_generate(spec)]


@pytest.fixture(scope="module")
def model():
    return BrainSequenceClassifier(ModelConfig.desk(n_rois=16))


def test_scan_check_rejects_perturbed_state():
    params = sm.SsmParams.create(CounterRng(0), d_in=16, d_h=32, block_count=2)
    x = CounterRng(1).normal((300, 16))
    reference = C.reference_block_states(x, params.blocks[0])
    states = sm.scan_parallel(x, params).states
    assert C.close("scan", reference, states, C.SCAN_TOL)[0]
    bad = states.copy()
    bad[150, 7] *= 1.0 + 1e-6
    assert not C.close("scan", reference, bad, C.SCAN_TOL)[0]
    full = C.reference_ssm_forward(x, params)
    assert C.close("forward", full, sm.ssm_forward(Tensor(x), params).data, C.SCAN_TOL)[0]


def test_logit_check_rejects_flipped_logits(model, subjects):
    values = subjects[0].values
    default = model.forward(values).data
    parallel = model.forward(values, backend="parallel").data
    assert C.close("logits", default, parallel, C.LOGIT_TOL)[0]
    assert not C.close("logits", default, parallel[::-1], C.LOGIT_TOL)[0]


def test_checkpoint_check_rejects_corrupted_byte(model, tmp_path):
    path = tmp_path / "m.dyns"
    model.save(path)
    expected = {k: v.data for k, v in model.all_named_params().items()}
    assert C.checkpoint_matches(path, expected)[0]
    raw = bytearray(path.read_bytes())
    for offset in (len(raw) - 3, 1):   # a payload byte, then a magic byte
        broken = bytearray(raw)
        broken[offset] ^= 0x10
        path.write_bytes(bytes(broken))
        assert not C.checkpoint_matches(path, expected)[0]


def test_csv_check_rejects_one_ulp(subjects):
    values = subjects[0].values
    nudged = values.copy()
    nudged[5, 5] = np.nextafter(nudged[5, 5], np.inf)
    assert C.arrays_identical("csv", values, values.copy())[0]
    assert not C.arrays_identical("csv", values, nudged)[0]


def test_fd_check_rejects_a_wrong_gradient():
    w = Tensor(CounterRng(4).normal((5,)), requires_grad=True)
    assert C.directional_fd(lambda: (w * w).sum(), [w], seed=0)[0]
    # The second term depends on w, but the tape never sees it.
    hidden = lambda: (w * w).sum() + Tensor(np.array(float(w.data @ w.data)))
    assert not C.directional_fd(hidden, [w], seed=0)[0]


def test_fd_check_steps_past_a_kink():
    """A ReLU kink 3e-6 along the probe direction spoils the 1e-5 step only."""
    w = Tensor(CounterRng(5).normal((6,)), requires_grad=True)
    rng = np.random.default_rng(0)
    d = rng.standard_normal(6)
    d /= np.linalg.norm(d)
    offset = float(w.data @ d) + 3e-6
    def kinked():
        return tt.relu((w * Tensor(d)).sum() - offset) + (w * w).sum()
    ok, detail = C.directional_fd(kinked, [w], seed=0)
    assert ok and "step 1e-05" in detail and "step 1e-06" in detail


def _step(model, batch, seed):
    params = model.named_trainable()
    grads, loss = TR._batch_gradients(model, batch, params, CounterRng(seed).child(0xD0))
    return loss, grads


def test_probe_leaves_step_bit_identical(model, subjects):
    originals = [getattr(owner, attr) for owner, attr, _ in TIMERS + STAGES + IO]
    loss0, grads0 = _step(model, subjects[:3], 11)
    rec = Recorder()
    with Probe(rec, stages=True):
        loss1, grads1 = _step(model, subjects[:3], 11)
    assert loss0 == loss1
    assert grads0.keys() == grads1.keys()
    for name in grads0:
        assert grads0[name].tobytes() == grads1[name].tobytes(), name
    assert [getattr(owner, attr) for owner, attr, _ in TIMERS + STAGES + IO] == originals
    backward = [s for s in rec.spans if s.name == "tensor.backward"]
    assert len(backward) == 1 and backward[0].attrs["nodes"] > 0


def test_spans_nest_and_self_times_are_non_negative(model, subjects):
    rec = Recorder()
    with Probe(rec, stages=True):
        _step(model, subjects[:2], 5)
        TR.evaluate(model, subjects[2:], normalized=True)
    kids = rec.children()
    assert len(rec.spans) > 20
    for i, s in enumerate(rec.spans):
        for c in kids.get(i, ()):
            child = rec.spans[c]
            assert s.start <= child.start <= child.end <= s.end
            assert child.subject == s.subject or s.name in ("training.batch",
                                                             "training.evaluate")
        if s.name == "tensor.backward":
            assert s.duration >= sum(s.attrs["vjp_ns"].values())
    assert min(rec.self_ns(kids)) >= 0
    forwards = [s for s in rec.spans if s.name == "model.forward"]
    assert len({s.subject for s in forwards}) == len(forwards) == 4
