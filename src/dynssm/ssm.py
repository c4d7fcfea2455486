"""Input-selective state-space sequence model on one chunked scan.

The recurrence is s_t = A_t * s_{t-1} + B_t x_t with s_0 = 0, where the
diagonal transition A_t and the input projection are deterministic functions
of the current input (softplus-gated timescale, exponential decay). The model
evaluates it with ``tensor.selective_scan``, one chunked scan that is
differentiable and takes about 2*sqrt(T) vectorised steps forward and
backward. The "parallel" backend is the default and uses the scan's default
chunk; the "sequential" backend runs the same op as a single chunk, the plain
left-to-right order, and is kept as the reference. ``scan_sequential`` is the
plain first-block loop that the tests and the benchmark compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as tt
from .errors import ConfigError, ShapeError
from .rng import CounterRng
from .tensor import Tensor


@dataclass
class SsmBlockParams:
    a: Tensor           # (d_h,) decay logits
    w_delta: Tensor     # (d_h, d_in) timescale map
    delta_bias: Tensor  # (d_h,)
    w_b: Tensor         # (d_h, d_in) input projection
    w_mix: Optional[Tensor] = None   # (d_in, d_h) residual readout (inter-block only)
    b_mix: Optional[Tensor] = None


@dataclass
class SsmParams:
    blocks: list
    w_out: Tensor       # (d_h, d_h) final state readout
    b_out: Tensor
    d_h: int
    d_in: int

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @classmethod
    def create(cls, rng: CounterRng, d_in: int, d_h: int = 64,
               block_count: int = 2) -> "SsmParams":
        if d_h <= 0:
            raise ConfigError(f"d_h must be positive, got {d_h}")
        if block_count < 1:
            raise ConfigError(f"block_count must be >= 1, got {block_count}")
        blocks = []
        for i in range(block_count):
            last = i == block_count - 1
            blocks.append(SsmBlockParams(
                a=Tensor(rng.normal((d_h,), std=0.5) - 1.0, requires_grad=True),
                w_delta=tt.init_weight(rng, (d_h, d_in), d_in),
                delta_bias=Tensor(np.zeros(d_h), requires_grad=True),
                w_b=tt.init_weight(rng, (d_h, d_in), d_in),
                w_mix=None if last else tt.init_weight(rng, (d_in, d_h), d_h),
                b_mix=None if last else Tensor(np.zeros(d_in), requires_grad=True),
            ))
        return cls(blocks=blocks, w_out=tt.init_weight(rng, (d_h, d_h), d_h),
                   b_out=Tensor(np.zeros(d_h), requires_grad=True), d_h=d_h, d_in=d_in)

    def named_params(self, prefix: str = "ssm") -> dict[str, Tensor]:
        out = {}
        for i, blk in enumerate(self.blocks):
            base = f"{prefix}.block{i}"
            out[f"{base}.a"] = blk.a
            out[f"{base}.w_delta"] = blk.w_delta
            out[f"{base}.delta_bias"] = blk.delta_bias
            out[f"{base}.w_b"] = blk.w_b
            if blk.w_mix is not None:
                out[f"{base}.w_mix"] = blk.w_mix
                out[f"{base}.b_mix"] = blk.b_mix
        out[f"{prefix}.w_out"] = self.w_out
        out[f"{prefix}.b_out"] = self.b_out
        return out


@dataclass
class SsmStateSeq:
    """State trajectory s_1..s_T (s_0 is the zero vector)."""

    states: np.ndarray   # (T, d_h)


def selective_rates(x_seq: Tensor, block: SsmBlockParams) -> tuple[Tensor, Tensor]:
    """Vectorized (A_t, B_t x_t) for a whole sequence: both (T, d_h).

    A_t[k] = exp(-softplus(<w_delta[k], x_t> + delta_bias[k]) * softplus(a[k])),
    strictly inside (0,1); B_t is the base projection scaled per row by the
    same softplus timescale. Deterministic given (x_t, block).
    """
    delta = tt.softplus(tt.linear(x_seq, block.w_delta, block.delta_bias))
    a_seq = tt.exp(-(delta * tt.softplus(block.a)))
    bx_seq = delta * tt.linear(x_seq, block.w_b)
    return a_seq, bx_seq


def _first_block_rates(x_seq: np.ndarray, params: SsmParams) -> tuple[Tensor, Tensor]:
    x = Tensor(x_seq)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"scan expects (T, d_in) with T >= 1, got shape {x.shape}")
    return selective_rates(x, params.blocks[0])


def scan_sequential(x_seq: np.ndarray, params: SsmParams) -> SsmStateSeq:
    """Reference backend: first-block recurrence evaluated left to right."""
    a_seq, bx_seq = _first_block_rates(x_seq, params)
    return SsmStateSeq(states=_scan_loop(a_seq.data, bx_seq.data))


def _scan_loop(a_seq: np.ndarray, bx_seq: np.ndarray) -> np.ndarray:
    T, d = a_seq.shape
    states = np.empty((T, d), dtype=a_seq.dtype)
    s = np.zeros(d, dtype=a_seq.dtype)
    for t in range(T):
        s = a_seq[t] * s + bx_seq[t]
        states[t] = s
    return states


def scan_parallel(x_seq: np.ndarray, params: SsmParams) -> SsmStateSeq:
    """Chunked-scan backend; matches scan_sequential within 1e-8 relative."""
    a_seq, bx_seq = _first_block_rates(x_seq, params)
    return SsmStateSeq(states=tt.selective_scan(a_seq, bx_seq).data)


def ssm_forward(x_seq: Tensor, params: SsmParams, backend: str = "parallel") -> Tensor:
    """Stacked selective-SSM blocks with residual connections and a readout.

    Returns the (T, d_h) state-feature sequence. Both backends run the
    differentiable chunked scan on the tape: "parallel" (the default) with
    its default chunk of about sqrt(T) steps, and "sequential" with one chunk
    of T steps, the reference left-to-right order. They agree within 1e-8.
    """
    if backend not in ("parallel", "sequential"):
        raise ConfigError(f"unknown backend {backend!r}; expected sequential or parallel")
    chunk = x_seq.shape[0] if backend == "sequential" else None
    u = x_seq
    states = None
    for i, blk in enumerate(params.blocks):
        a_seq, bx_seq = selective_rates(u, blk)
        states = tt.selective_scan(a_seq, bx_seq, chunk=chunk)
        if i < len(params.blocks) - 1:
            u = u + tt.linear(states, blk.w_mix, blk.b_mix)
    return tt.linear(states, params.w_out, params.b_out)
