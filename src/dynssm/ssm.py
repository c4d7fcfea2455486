"""Input-selective state-space sequence model on one chunked scan.

The recurrence is s_t = A_t * s_{t-1} + B_t x_t with s_0 = 0, where the
diagonal transition A_t and the input projection are deterministic functions
of the current input (softplus-gated timescale, exponential decay). Each block
is one tape op, ``selective_block``: its forward pass forms the rates
(``selective_rates``, the one rates implementation) and runs the chunked scan
of ``tensor.selective_scan``, which takes about 2*sqrt(T) vectorised steps.
As in Mamba (Gu & Dao 2023, arXiv:2312.00752, section 3.3.2), the node keeps
only the timescale and the states, and its backward pass recomputes the rest
(Chen et al. 2016, arXiv:1604.06174). The ``backbone:s4`` ablation runs
the same block with a zero ``w_delta``, so its Delta is the constant
softplus(delta_bias) (``model._S4Backbone``). The "parallel" backend is the
default and uses the scan's default chunk; the "sequential" backend runs the
same op as a single chunk, the plain left-to-right order, and is kept as the
reference. ``scan_sequential`` and ``scan_parallel`` run the first block alone
in those two ways; the tests and the benchmark compare them with their own
loop references.
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


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) in place, without overflow: max(x, 0) + log1p(exp(-|x|))."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    np.maximum(x, 0.0, out=x)
    x += e
    return x


def selective_rates(u: np.ndarray, block: SsmBlockParams
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block's timescale, transition and drive for a (T, d_in) input.

    Delta_t = softplus(w_delta u_t + delta_bias), A_t = exp(-Delta_t *
    softplus(a)), strictly inside (0, 1), and B_t u_t = Delta_t * (w_b u_t);
    all three are fresh (T, d_h) arrays. This is the one rates
    implementation: ``selective_block`` runs it in its forward pass.
    """
    delta = u @ block.w_delta.data.T
    delta += block.delta_bias.data
    _softplus(delta)
    a_seq = delta * _softplus(block.a.data.copy())
    np.negative(a_seq, out=a_seq)
    np.exp(a_seq, out=a_seq)
    bx_seq = u @ block.w_b.data.T
    bx_seq *= delta
    return delta, a_seq, bx_seq


def selective_block(u: Tensor, block: SsmBlockParams, chunk: Optional[int] = None) -> Tensor:
    """One selective-SSM block, u (T, d_in) -> states (T, d_h), as one tape node.

    The forward pass runs ``selective_rates`` and the chunked scan (``chunk``
    as in ``tensor.selective_scan``). The node keeps only Delta and the states
    besides its parents u, w_delta, delta_bias, w_b and a. Its vjp recomputes
    A from Delta, sigmoid(z) as -expm1(-Delta) (exact for Delta = softplus(z))
    and w_b u with one GEMM, then runs the mirrored scan
    c_t = g_t + A_{t+1} c_{t+1}, as ``selective_scan``'s vjp does.
    """
    if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] != block.w_delta.shape[1]:
        raise ShapeError(f"SSM block expects (T, {block.w_delta.shape[1]}) input "
                         f"with T >= 1, got shape {u.shape}")
    chunk = tt._scan_chunk(u.shape[0], chunk)
    delta, a_seq, bx_seq = selective_rates(u.data, block)
    states = tt._chunked_scan(a_seq, bx_seq, chunk)
    out = Tensor._wrap(states)
    parents = (u, block.w_delta, block.delta_bias, block.w_b, block.a)
    tape = tt._recording(*parents)
    if tape is not None:
        ud, w_delta, w_b, a = u.data, block.w_delta.data, block.w_b.data, block.a.data
        def vjp(g):
            sa = _softplus(a.copy())
            a_next = np.empty_like(delta)      # A_{t+1}, and 0 past the end
            np.multiply(delta[1:], sa, out=a_next[:-1])
            np.negative(a_next[:-1], out=a_next[:-1])
            np.exp(a_next[:-1], out=a_next[:-1])
            a_next[-1] = 0.0
            c = tt._chunked_scan(a_next[::-1], g[::-1], chunk)[::-1]
            # q_t = dL/dA_t * A_t = c_t s_{t-1} A_t, zero at t = 0
            q = np.zeros_like(delta)
            np.multiply(c[1:], states[:-1], out=q[1:])
            q[1:] *= a_next[:-1]
            del a_next
            g_delta = c * (ud @ w_b.T)
            g_delta -= q * sa
            q *= delta
            g_a = q.sum(axis=0) * np.expm1(-sa)   # -sum(q Delta) * sigmoid(a)
            del q
            g_p = c * delta                    # dL/d(w_b u)
            g_z = np.expm1(-delta)
            g_z *= g_delta
            np.negative(g_z, out=g_z)          # dL/dz = g_delta * sigmoid(z)
            del g_delta
            g_u = None
            if u.requires_grad:
                g_u = g_z @ w_delta
                g_u += g_p @ w_b
            return (g_u, g_z.T @ ud, g_z.sum(axis=0), g_p.T @ ud, g_a)
        tape._record(out, parents, vjp)
    return out


def _first_block_states(x_seq: np.ndarray, params: SsmParams, sequential: bool) -> np.ndarray:
    x = Tensor(x_seq)
    chunk = x.shape[0] if sequential and x.ndim else None
    return selective_block(x, params.blocks[0], chunk).data


def scan_sequential(x_seq: np.ndarray, params: SsmParams) -> SsmStateSeq:
    """Reference backend: the first block as one chunk, left to right."""
    return SsmStateSeq(states=_first_block_states(x_seq, params, sequential=True))


def scan_parallel(x_seq: np.ndarray, params: SsmParams) -> SsmStateSeq:
    """Chunked-scan backend; matches scan_sequential within 1e-8 relative."""
    return SsmStateSeq(states=_first_block_states(x_seq, params, sequential=False))


def ssm_forward(x_seq: Tensor, params: SsmParams, backend: str = "parallel") -> Tensor:
    """Stacked selective-SSM blocks with residual connections and a readout.

    Returns the (T, d_h) state-feature sequence. Each block is one
    ``selective_block`` node on the tape. Both backends run its chunked scan:
    "parallel" (the default) with the default chunk of about sqrt(T) steps,
    and "sequential" with one chunk of T steps, the reference left-to-right
    order. They agree within 1e-8.
    """
    if backend not in ("parallel", "sequential"):
        raise ConfigError(f"unknown backend {backend!r}; expected sequential or parallel")
    chunk = x_seq.shape[0] if backend == "sequential" else None
    u = x_seq
    states = None
    for i, blk in enumerate(params.blocks):
        states = selective_block(u, blk, chunk=chunk)
        if i < len(params.blocks) - 1:
            u = u + tt.linear(states, blk.w_mix, blk.b_mix)
    return tt.linear(states, params.w_out, params.b_out)
