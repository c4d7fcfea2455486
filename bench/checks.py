"""Correctness checks. Each compares the program's output with a computation
made here, apart from the program, or with a property the method must have.

Every check returns ``(ok, detail)``; none raises on a wrong answer, so a run
can report every failure it saw.
"""

from __future__ import annotations

import numpy as np

from dynssm import tensor as tt
from dynssm.checkpoint import load_params
from dynssm.errors import DynssmError

SCAN_TOL = 1e-8      # scan equivalence, as in acceptance criterion 2
LOGIT_TOL = 1e-8
FD_TOL = 1e-4        # the gradcheck sweep's tolerance
FD_STEPS = (1e-5, 1e-6, 1e-7)


def rel_err(expected, got) -> float:
    """Worst elementwise |a-b| / max(|a|, |b|, 1e-12); inf on a shape mismatch."""
    a = np.asarray(expected, dtype=np.float64)
    b = np.asarray(got, dtype=np.float64)
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b) / denom))


def close(name: str, expected, got, tol: float):
    err = rel_err(expected, got)
    return err < tol, f"{name}: relative error {err:.2e} (tolerance {tol:.0e})"


# --- the selective SSM, written independently of dynssm.ssm ---

def _softplus(v):
    return np.logaddexp(0.0, v)


def reference_block_states(u: np.ndarray, block) -> np.ndarray:
    """s_t = A_t s_{t-1} + B_t u_t, s_0 = 0, with the selective rates of one block."""
    delta = _softplus(u @ block.w_delta.data.T + block.delta_bias.data)
    decay = np.exp(-delta * _softplus(block.a.data))
    drive = delta * (u @ block.w_b.data.T)
    states = np.empty_like(drive)
    s = np.zeros(drive.shape[1])
    for t in range(drive.shape[0]):
        s = decay[t] * s + drive[t]
        states[t] = s
    return states


def reference_ssm_forward(x: np.ndarray, params) -> np.ndarray:
    """Stacked blocks with residual mixing, then the readout."""
    u = np.asarray(x, dtype=np.float64)
    states = None
    for i, block in enumerate(params.blocks):
        states = reference_block_states(u, block)
        if i < len(params.blocks) - 1:
            u = u + states @ block.w_mix.data.T + block.b_mix.data
    return states @ params.w_out.data.T + params.b_out.data


# --- gradients ---

def directional_fd(loss_fn, params: list, seed: int, steps=FD_STEPS, tol: float = FD_TOL):
    """Tape gradient along a random unit direction vs central differences.

    A ReLU kink closer than the step along the direction spoils the central
    difference but not the tape gradient, so the steps are tried from largest
    to smallest and the check passes at the first that agrees. A wrong tape
    gradient disagrees at every step. ``loss_fn()`` must be deterministic:
    any dropout masks come from a fresh generator made inside it. Parameter
    arrays are restored exactly.
    """
    rng = np.random.default_rng(seed)
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]
    with tt.Tape() as tape:
        loss = loss_fn()
        grads = tape.backward(loss, params=params)
    analytic = sum(float(np.sum(grads[p] * d)) for p, d in zip(params, direction))
    originals = [p.data for p in params]
    errors = []
    try:
        for eps in steps:
            values = []
            for sign in (1.0, -1.0):
                for p, orig, d in zip(params, originals, direction):
                    p.data = orig + sign * eps * d
                values.append(loss_fn().item())
            numeric = (values[0] - values[1]) / (2.0 * eps)
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            errors.append(f"step {eps:.0e}: {numeric:.10e} (relative error {err:.2e})")
            if err < tol:
                break
    finally:
        for p, orig in zip(params, originals):
            p.data = orig
    return err < tol, f"directional derivative: tape {analytic:.10e}; " + "; ".join(errors)


# --- training properties ---

def loss_decreased(log: list):
    losses = [r["loss"] for r in log if r["split"] == "train"]
    ok = len(losses) >= 2 and losses[-1] < losses[0]
    return ok, f"training loss first epoch {losses[0]:.4f}, last {losses[-1]:.4f}"


def checksum_unchanged(before: str, after: str):
    return before == after, f"surrogate checksum {'unchanged' if before == after else 'CHANGED'}"


def adapter_rank_bounded(adapters: dict):
    """Every adapter's materialized delta has numerical rank <= r."""
    worst = ""
    for name, adapter in adapters.items():
        sv = np.linalg.svd(adapter.delta(), compute_uv=False)
        if sv[0] > 0 and np.any(sv[adapter.rank:] >= 1e-10 * sv[0]):
            worst = name
            break
    return not worst, (f"adapter {worst} exceeds its rank" if worst
                       else f"all {len(adapters)} adapter deltas have rank <= r")


# --- files ---

def arrays_identical(name: str, expected: np.ndarray, got: np.ndarray):
    same = (expected.dtype == got.dtype and expected.shape == got.shape
            and expected.tobytes() == got.tobytes())
    return same, f"{name}: {'bit-exact' if same else 'DIFFERS'}"


def checkpoint_matches(path, expected: dict):
    """The checkpoint reader returns exactly the arrays that were saved."""
    try:
        stored = load_params(path)
    except DynssmError as e:
        return False, f"checkpoint unreadable: {e}"
    if list(stored) != list(expected):
        return False, "checkpoint parameter names differ"
    for name, arr in expected.items():
        ok, _ = arrays_identical(name, np.asarray(arr, dtype=np.float64), stored[name])
        if not ok:
            return False, f"checkpoint parameter {name} differs"
    return True, f"checkpoint: {len(expected)} parameters bit-exact"


def confusion_complete(metrics, subjects: int):
    total = metrics.tp + metrics.fp + metrics.fn + metrics.tn
    return total == subjects, f"confusion counts sum to {total} of {subjects} subjects"
