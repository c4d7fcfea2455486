"""Time-resolved latent graph inference from multivariate signals.

A shared node encoder (grouped temporal convolution + per-time-step
self-attention across channels) embeds every region at every time step;
pairwise scaled dot products of the embeddings give a symmetric adjacency
matrix per step, which filters the raw signal.

The attention's query, key and value maps act on ``h = proj(feats)``, and
nothing non-linear sits between ``proj`` and them, so each is applied as one
composed affine map of the ``conv_features``-wide features:
``wq @ (proj_w f + proj_b) + bq = (wq @ proj_w) f + (wq @ proj_b + bq)``.
This is exact up to floating-point re-association, and it runs the q/k/v
GEMMs and their vjps ``conv_features`` wide instead of ``d_lat`` wide.

Each attention head is a block of ``d_lat // heads`` adjacent columns of q,
k and v; ``tt.attention`` splits and merges the heads inside its one tape
node, with the T steps as its batch axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .config import FILTER_MODES
from .errors import ConfigError, ShapeError
from .rng import CounterRng
from .tensor import Tensor


@dataclass
class NodeEncoderParams:
    """One parameter set shared across all regions and time steps."""

    conv_w: Tensor        # (1, conv_features, 1, kernel_size), shared across ROI groups
    conv_b: Tensor        # (conv_features,)
    proj_w: Tensor        # (d_lat, conv_features)
    proj_b: Tensor        # (d_lat,)
    attn: dict = field(default_factory=dict)   # wq/wk/wv/wo (d_lat, d_lat) + bq/bk/bv/bo
    heads: int = 4
    attention_enabled: bool = True

    @property
    def kernel_size(self) -> int:
        return self.conv_w.shape[3]

    @property
    def d_lat(self) -> int:
        return self.proj_w.shape[0]

    @classmethod
    def create(cls, rng: CounterRng, d_lat: int = 128, conv_features: int = 8,
               kernel_size: int = 3, heads: int = 4,
               attention_enabled: bool = True) -> "NodeEncoderParams":
        if d_lat <= 0:
            raise ConfigError(f"d_lat must be positive, got {d_lat}")
        if heads <= 0 or d_lat % heads != 0:
            raise ConfigError(f"d_lat={d_lat} must be divisible by heads={heads}")
        attn = {}
        for name in ("wq", "wk", "wv", "wo"):
            attn[name] = tt.init_weight(rng, (d_lat, d_lat), d_lat)
            attn["b" + name[1]] = Tensor(np.zeros(d_lat), requires_grad=True)
        return cls(
            conv_w=tt.init_weight(rng, (1, conv_features, 1, kernel_size), kernel_size),
            conv_b=Tensor(np.zeros(conv_features), requires_grad=True),
            proj_w=tt.init_weight(rng, (d_lat, conv_features), conv_features),
            proj_b=Tensor(np.zeros(d_lat), requires_grad=True),
            attn=attn,
            heads=heads,
            attention_enabled=attention_enabled,
        )

    def named_params(self, prefix: str = "encoder") -> dict[str, Tensor]:
        out = {f"{prefix}.conv_w": self.conv_w, f"{prefix}.conv_b": self.conv_b,
               f"{prefix}.proj_w": self.proj_w, f"{prefix}.proj_b": self.proj_b}
        for k, v in self.attn.items():
            out[f"{prefix}.attn.{k}"] = v
        return out


@dataclass
class DynGraphSequence:
    """Per-step adjacency matrices, filtered signals, and node embeddings."""

    adjacency: Tensor    # (T, N, N), symmetric per step
    filtered: Tensor     # (T, N)
    embeddings: Tensor   # (T, N, d_lat)


def conv_stage(x: Tensor, params: NodeEncoderParams) -> Tensor:
    """Per-region temporal features: (T, N) -> (T, N, conv_features)."""
    T, N = x.shape
    feats = tt.grouped_conv1d(x, params.kernel_size, params.conv_w,
                              group_count=N, bias=params.conv_b)
    f = params.conv_w.shape[1]
    return tt.relu(feats).reshape((T, N, f))


def _roi_attention(feats: Tensor, params: NodeEncoderParams) -> Tensor:
    """Multi-head self-attention across regions, independently per time step.

    Attends over ``h = proj(feats)``; q, k and v are computed from ``feats``
    through ``proj`` composed with ``wq``/``wk``/``wv`` (see module docstring).
    They stay (T, N, d_lat): head h is columns h·dh to (h+1)·dh, and the
    heads' outputs come back side by side in the same columns, for ``wo``.
    """
    heads = params.heads
    p = params.attn

    def folded(w: Tensor, b: Tensor) -> Tensor:
        return tt.linear(feats, tt.matmul(w, params.proj_w), tt.matmul(w, params.proj_b) + b)

    ctx = tt.attention(folded(p["wq"], p["bq"]), folded(p["wk"], p["bk"]),
                       folded(p["wv"], p["bv"]), 1.0 / math.sqrt(params.d_lat // heads),
                       heads=heads)
    return tt.linear(ctx, p["wo"], p["bo"])


def encode_nodes(x: Tensor, params: NodeEncoderParams) -> Tensor:
    """Embed every region at every time step: (T, N) -> (T, N, d_lat).

    ``h = proj(conv_stage(x))``, plus ``attn(h)`` when attention is enabled.
    The attention takes its q/k/v from the conv features through the folded
    maps, which is exact because ``proj`` is affine and nothing non-linear
    follows it before q/k/v; ``h`` itself is formed once, for the residual.
    """
    if x.ndim != 2:
        raise ShapeError(f"encode_nodes expects (T, N) input, got shape {x.shape}")
    T, N = x.shape
    if T < params.kernel_size:
        raise ShapeError(f"input too short: T={T} < kernel_size={params.kernel_size}")
    if N < 2:
        raise ShapeError(f"need at least 2 regions, got N={N}")
    feats = conv_stage(x, params)
    h = tt.linear(feats, params.proj_w, params.proj_b)
    if params.attention_enabled:
        h = h + _roi_attention(feats, params)
    return h


def infer_adjacency(h_t: Tensor) -> Tensor:
    """Scaled pairwise dot products of node embeddings: (N, d_lat) -> (N, N)."""
    if h_t.ndim != 2:
        raise ShapeError(f"infer_adjacency expects (N, d_lat), got shape {h_t.shape}")
    return tt.scaled_self_outer(h_t)


def _filter_weights(g: Tensor, mode: str) -> Tensor:
    """The weights a signal is filtered through, per row of the adjacency.

    ``raw`` is the adjacency as-is; ``row_normalized`` is its softmax along
    each row (bounded output scale, stable training).
    """
    if mode not in FILTER_MODES:
        raise ConfigError(f"unknown filter mode {mode!r}; options: {FILTER_MODES}")
    return g if mode == "raw" else tt.softmax(g, axis=-1)


def graph_filter(g_t: Tensor, x_t: Tensor, mode: str = "row_normalized") -> Tensor:
    """Filter one step's signal through its graph's ``_filter_weights``."""
    if g_t.ndim != 2 or g_t.shape[0] != g_t.shape[1] or x_t.shape != (g_t.shape[0],):
        raise ShapeError(f"graph_filter: adjacency {g_t.shape} does not match signal {x_t.shape}")
    return tt.matmul(_filter_weights(g_t, mode), x_t)


def encode_sequence(x: Tensor, params: NodeEncoderParams,
                    mode: str = "row_normalized") -> DynGraphSequence:
    """Embeddings, per-step adjacency, and filtered signal for a full scan.

    Equivalent to calling infer_adjacency / graph_filter at every t; no
    sliding windows are involved.
    """
    h = encode_nodes(x, params)
    g_seq = tt.scaled_self_outer(h)
    filtered = tt.bmv(_filter_weights(g_seq, mode), x)
    return DynGraphSequence(adjacency=g_seq, filtered=filtered, embeddings=h)


def static_filter(x: Tensor, g_seq: Tensor, mode: str = "row_normalized") -> Tensor:
    """Filter every step through the time-averaged adjacency (ablation path)."""
    return tt.matmul(x, _filter_weights(g_seq.mean(axis=0), mode).T)
