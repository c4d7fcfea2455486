"""Time-resolved latent graph inference from multivariate signals.

A shared node encoder (grouped temporal convolution + per-time-step
self-attention across channels) embeds every region at every time step;
pairwise scaled dot products of the embeddings give a symmetric adjacency
matrix per step, which filters the raw signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as tt
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


def _roi_attention(h: Tensor, params: NodeEncoderParams) -> Tensor:
    """Multi-head self-attention across regions, independently per time step."""
    T, N, d = h.shape
    heads = params.heads
    dh = d // heads
    p = params.attn

    def split(t: Tensor) -> Tensor:
        # (T, N, d) -> (T*heads, N, dh)
        return t.reshape((T, N, heads, dh)).transpose((0, 2, 1, 3)).reshape((T * heads, N, dh))

    q = split(tt.linear(h, p["wq"], p["bq"]))
    k = split(tt.linear(h, p["wk"], p["bk"]))
    v = split(tt.linear(h, p["wv"], p["bv"]))
    scores = tt.bmm(q, k.transpose((0, 2, 1))) * (1.0 / math.sqrt(dh))
    ctx = tt.bmm(tt.softmax(scores, axis=-1), v)
    merged = ctx.reshape((T, heads, N, dh)).transpose((0, 2, 1, 3)).reshape((T, N, d))
    return tt.linear(merged, p["wo"], p["bo"])


def encode_nodes(x: Tensor, params: NodeEncoderParams) -> Tensor:
    """Embed every region at every time step: (T, N) -> (T, N, d_lat)."""
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
        h = h + _roi_attention(h, params)
    return h


def infer_adjacency(h_t: Tensor) -> Tensor:
    """Scaled pairwise dot products of node embeddings: (N, d_lat) -> (N, N)."""
    if h_t.ndim != 2:
        raise ShapeError(f"infer_adjacency expects (N, d_lat), got shape {h_t.shape}")
    return tt.scaled_self_outer(h_t)


def graph_filter(g_t: Tensor, x_t: Tensor, mode: str = "row_normalized") -> Tensor:
    """Filter one step's signal through its graph.

    ``raw`` multiplies by the adjacency as-is; ``row_normalized`` first
    softmax-normalizes each row (bounded output scale, stable training).
    """
    if g_t.ndim != 2 or g_t.shape[0] != g_t.shape[1] or x_t.shape != (g_t.shape[0],):
        raise ShapeError(f"graph_filter: adjacency {g_t.shape} does not match signal {x_t.shape}")
    if mode == "raw":
        return tt.matmul(g_t, x_t)
    if mode == "row_normalized":
        return tt.matmul(tt.softmax_rows(g_t), x_t)
    raise ConfigError(f"unknown filter mode {mode!r}")


def encode_sequence(x: Tensor, params: NodeEncoderParams,
                    mode: str = "row_normalized") -> DynGraphSequence:
    """Embeddings, per-step adjacency, and filtered signal for a full scan.

    Equivalent to calling infer_adjacency / graph_filter at every t; no
    sliding windows are involved.
    """
    h = encode_nodes(x, params)
    g_seq = tt.scaled_self_outer(h)
    if mode == "raw":
        filtered = tt.bmv(g_seq, x)
    elif mode == "row_normalized":
        filtered = tt.bmv(tt.softmax(g_seq, axis=-1), x)
    else:
        raise ConfigError(f"unknown filter mode {mode!r}")
    return DynGraphSequence(adjacency=g_seq, filtered=filtered, embeddings=h)


def static_filter(x: Tensor, g_seq: Tensor, mode: str = "row_normalized") -> Tensor:
    """Filter every step through the time-averaged adjacency (ablation path)."""
    g_bar = g_seq.mean(axis=0)
    if mode == "row_normalized":
        g_bar = tt.softmax_rows(g_bar)
    elif mode != "raw":
        raise ConfigError(f"unknown filter mode {mode!r}")
    return tt.matmul(x, g_bar.T)


def dump_adjacency_csv(g_seq: np.ndarray, out_dir) -> list[Path]:
    """Debug dump: one CSV per time step, columns roi_0..roi_{N-1}."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    g_seq = np.asarray(g_seq)
    header = ",".join(f"roi_{i}" for i in range(g_seq.shape[-1]))
    paths = []
    for t in range(g_seq.shape[0]):
        path = out_dir / f"adjacency_{t:04d}.csv"
        rows = "\n".join(",".join(repr(float(v)) for v in row) for row in g_seq[t])
        path.write_text(header + "\n" + rows + "\n")
        paths.append(path)
    return paths
