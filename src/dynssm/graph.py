"""Time-resolved latent graph inference from multivariate signals.

A shared node encoder (grouped temporal convolution + per-time-step
self-attention across channels) embeds every region at every time step;
pairwise scaled dot products of the embeddings give a symmetric adjacency
matrix per step, which filters the raw signal. Both are formed only when
read (``DynGraphSequence``). The default filter, softmax(A_t) x_t, is
scaled dot-product attention with k = Z and v = x (q = Z unfactored, and
q = Z·UᵀU/√d_lat factored, below), so at every width it is one
``tt.attention`` call and forms no (T, N, N) tensor.

The attention's query, key and value maps act on ``h = proj(feats)``, and
nothing non-linear sits between ``proj`` and them, so each is applied as one
composed affine map of the ``conv_features``-wide features:
``wq @ (proj_w f + proj_b) + bq = (wq @ proj_w) f + (wq @ proj_b + bq)``.
This is exact up to floating-point re-association, and it runs the q/k/v
GEMMs and their vjps ``conv_features`` wide instead of ``d_lat`` wide.
k has no bias: softmax cancels the q·b it would add to a whole score row.
``wk @ proj_b`` stays, as part of applying ``wk`` to h.

Each attention head is a block of ``d_lat // heads`` adjacent columns of q,
k and v; ``tt.attention`` splits and merges the heads inside its one tape
node, with the T steps as its batch axis.

So the whole encoder has the rank of its c = ``conv_features`` inputs, not
of ``d_lat``. With F̃ = [F, 1], the conv features and a ones column, and
Q̃, K̃, Ṽ = [w∘proj | w proj_b + b] the (d_lat, c+1) maps on F̃, head h's
scores are F̃ M_h F̃ᵀ with M_h = Q̃_hᵀ K̃_h / √dh only (c+1) × (c+1). Softmax
rows sum to 1, so head h's output after ``wo`` is (P_h F̃)(wo_h Ṽ_h)ᵀ, and

    h = Z Uᵀ,   Z = [F̃, P_1 F̃, …, P_H F̃],
                U = [proj_w | proj_b + bo, wo_1 Ṽ_1, …, wo_H Ṽ_H],

with Z (T, N, (H+1)(c+1)) and U (d_lat, (H+1)(c+1)). The P_h F̃ are one
``tt.attention`` whose keys and values are F̃ itself, shared by every head,
and whose ``q_map`` stacks the M_hᵀ, so the op forms each head's queries
F̃ M_h and the tape keeps neither H copies of F̃ nor those queries. The
adjacency is then Z (UᵀU / √d_lat) Zᵀ, mirrored as ``tt.scaled_self_outer``
does, and the filter is the attention with q = Z (UᵀU / √d_lat), formed
inside the op from its ``q_map`` UᵀU / √d_lat, and scale 1. This form
is used where it is narrower: iff (H+1)(c+1) < d_lat (``_factored``), which
also makes c+1 < dh. The paper width factors (45 < 128) and runs no
(T, N, d_lat) tensor; the desk width (25 >= 16) does not, and keeps the
folded form above, which is faster there.

At the factored width, M/√dh, U and the filter's UᵀU/√d_lat depend on
parameters only: 33 tape nodes, of a training subject's 81. They are formed
once per tape (``tt.per_tape``), so every subject that one
tape records shares them: a training batch, or any caller that runs
``model.forward`` per subject inside one tape. Their gradients flow back
through the shared nodes once, summed over the subjects. Parameters do not
change while a tape records, so no subject reads stale maps; with no tape,
each forward forms them afresh. The desk width's 8 such nodes (the folded
maps) are left per block, as they hold ~2 kB.

Unfactored, the graph stage runs in blocks of B time steps
(``_block_steps``), B = max(1, ``tt._CHUNK`` // (2·N·d_lat)), so that two
of a block's (B, N, d_lat) arrays fill one attention chunk, about an L2:
256 steps at the desk width with N = 16. After the conv, every stage up to
the filtered signal reads one step only, so a block's projection, ROI
attention, residual sum and row-normalized filter are all formed before
the next block starts, and one ``tt.concat`` joins only the blocks'
(B, N) filtered signals (``DynGraphSequence.filtered``). This is the
whole-sequence result bit for bit, and a long forward never holds a
full-length q, k, v, context or embedding array: the graph stage's memory
grows with the block, not with the scan. The embeddings themselves, read by
the adjacency, are joined by one ``tt.concat`` of the blocks when read. A
sequence of at most B steps, or one with attention off, is one block, with
no slice or concat node, formed whole by ``encode_nodes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional

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
    attn: dict = field(default_factory=dict)   # wq/wk/wv/wo (d_lat, d_lat) + bq/bv/bo
    heads: int = 4

    @property
    def attention_enabled(self) -> bool:
        """With attention off, ``attn`` is empty: no array is made that nothing reads."""
        return bool(self.attn)

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
        for name in ("wq", "wk", "wv", "wo") if attention_enabled else ():
            attn[name] = tt.init_weight(rng, (d_lat, d_lat), d_lat)
            if name != "wk":   # softmax cancels a key bias (module docstring)
                attn["b" + name[1]] = Tensor(np.zeros(d_lat), requires_grad=True)
        return cls(
            conv_w=tt.init_weight(rng, (1, conv_features, 1, kernel_size), kernel_size),
            conv_b=Tensor(np.zeros(conv_features), requires_grad=True),
            proj_w=tt.init_weight(rng, (d_lat, conv_features), conv_features),
            proj_b=Tensor(np.zeros(d_lat), requires_grad=True),
            attn=attn,
            heads=heads,
        )

    def named_params(self, prefix: str = "encoder") -> dict[str, Tensor]:
        out = {f"{prefix}.conv_w": self.conv_w, f"{prefix}.conv_b": self.conv_b,
               f"{prefix}.proj_w": self.proj_w, f"{prefix}.proj_b": self.proj_b}
        for k, v in self.attn.items():
            out[f"{prefix}.attn.{k}"] = v
        return out


@dataclass
class DynGraphSequence:
    """Per-step adjacency matrices, filtered signals, and node embeddings.

    ``encode_sequence`` computes only the nodes of a sequence that is one
    block (and ``basis``), or only the conv features of a longer one; the
    rest is formed when read, so a forward pays only for what it uses.
    ``embed`` forms the nodes of the time steps in a slice, ``steps`` per
    block (see the module docstring). The nodes, the Gram, the adjacency
    and the filtered signal are each formed once, at their first read, on
    whatever tape records then; ``filtered`` forms each block's nodes
    itself and keeps none of them. The embeddings are ``nodes`` itself, or
    ``nodes @ basis.T`` when the encoder ran factored.
    """

    signal: Tensor                       # (T, N), the signal the graphs filter
    embed: Callable[[slice], Tensor]     # a slice of steps -> those steps' nodes
    steps: int                           # per block: T when the nodes are formed whole
    basis: Optional[Tensor] = None       # (d_lat, k)
    mode: str = "row_normalized"

    @property
    def _blocks(self) -> list[slice]:
        T = self.signal.shape[0]
        return [slice(t, t + self.steps) for t in range(0, T, self.steps)]

    @cached_property
    def nodes(self) -> Tensor:
        """(T, N, d_lat), or (T, N, k) on ``basis``: the blocks' nodes, joined by one concat."""
        blocks = [self.embed(b) for b in self._blocks]
        return blocks[0] if len(blocks) == 1 else tt.concat(blocks, axis=0)

    @property
    def embeddings(self) -> Tensor:
        """(T, N, d_lat)."""
        return self.nodes if self.basis is None else tt.linear(self.nodes, self.basis)

    @cached_property
    def gram(self) -> Optional[Tensor]:
        """``UᵀU / √d_lat`` when the encoder ran factored, else ``None``.

        It depends on parameters only, so it is formed once per tape, as U is.
        """
        u = self.basis
        if u is None:
            return None
        return tt.per_tape(u, lambda: tt.matmul(u.T, u) * (1.0 / math.sqrt(u.shape[0])))

    @cached_property
    def adjacency(self) -> Tensor:
        """(T, N, N), mirrored by ``tt.scaled_self_outer``: symmetric bit for bit.

        Factored, it is ``Z (UᵀU / √d_lat) Zᵀ``, with no (T, N, d_lat) tensor.
        """
        return tt.scaled_self_outer(self.nodes, self.gram)

    @cached_property
    def filtered(self) -> Tensor:
        """(T, N): each step's signal through its adjacency's ``_filter_weights``.

        ``row_normalized`` is softmax(A) x per step, with A = q Zᵀ·scale: one
        attention with k = Z and v = x, which forms no adjacency. Unfactored,
        q = Z and scale = 1/√d; factored, q = Z·gram and scale = 1, with the
        gram as the attention's ``q_map``, so Z·gram is formed inside the op
        and not kept. Each block's nodes are formed and filtered before the
        next block's, and one concat joins the (steps, N) outputs; a single
        block reads ``nodes``. Other modes read the adjacency.
        """
        x = self.signal
        if self.mode != "row_normalized":
            return tt.bmv(_filter_weights(self.adjacency, self.mode), x)
        blocks = self._blocks
        if len(blocks) == 1:
            return self._attend(self.nodes, x)
        return tt.concat([self._attend(self.embed(b), x[b]) for b in blocks], axis=0)

    def _attend(self, z: Tensor, x: Tensor) -> Tensor:
        """The row-normalized filter of the (steps, N) signal ``x`` on its nodes ``z``."""
        steps, N = x.shape
        scale = 1.0 / math.sqrt(z.shape[-1]) if self.gram is None else 1.0
        return tt.attention(z, z, x.reshape((steps, N, 1)), scale,
                            q_map=self.gram).reshape((steps, N))


def _checked_shape(x: Tensor, params: NodeEncoderParams) -> tuple[int, int]:
    """(T, N) of an input the node encoder accepts; raises ``ShapeError`` otherwise."""
    if x.ndim != 2:
        raise ShapeError(f"node encoder expects (T, N) input, got shape {x.shape}")
    T, N = x.shape
    if T < params.kernel_size:
        raise ShapeError(f"input too short: T={T} < kernel_size={params.kernel_size}")
    if N < 2:
        raise ShapeError(f"need at least 2 regions, got N={N}")
    return T, N


def conv_stage(x: Tensor, params: NodeEncoderParams) -> Tensor:
    """Per-region temporal features: (T, N) -> (T, N, conv_features)."""
    T, N = _checked_shape(x, params)
    feats = tt.grouped_conv1d(x, params.kernel_size, params.conv_w,
                              group_count=N, bias=params.conv_b)
    f = params.conv_w.shape[1]
    return tt.relu(feats).reshape((T, N, f))


def _factored(params: NodeEncoderParams) -> bool:
    """The width rule of the module docstring: Z is narrower than d_lat."""
    return (params.heads + 1) * (params.conv_w.shape[1] + 1) < params.d_lat


def _affine(w: Tensor, b: Tensor) -> Tensor:
    """``[w | b]``: the map f -> w f + b as one matrix acting on ``[f, 1]``."""
    return tt.concat([w, b.reshape((-1, 1))], axis=1)


def _folded(params: NodeEncoderParams) -> Iterator[tuple[Tensor, Tensor]]:
    """q, k and v's maps on the conv features: ``(w∘proj, w proj_b + b)``, no b for k."""
    p = params.attn
    for n in "qkv":
        b = tt.matmul(p["w" + n], params.proj_b)
        yield tt.matmul(p["w" + n], params.proj_w), (b if n == "k" else b + p["b" + n])


def _roi_attention(feats: Tensor, params: NodeEncoderParams) -> Tensor:
    """Multi-head self-attention across regions, independently per time step.

    Attends over ``h = proj(feats)``, with q, k and v from ``feats`` by ``_folded``.
    They stay (T, N, d_lat): head h is columns h·dh to (h+1)·dh, and the
    heads' outputs come back side by side in the same columns, for ``wo``.
    """
    ctx = tt.attention(*(tt.linear(feats, w, b) for w, b in _folded(params)),
                       1.0 / math.sqrt(params.d_lat // params.heads), heads=params.heads)
    return tt.linear(ctx, params.attn["wo"], params.attn["bo"])


def _factor_maps(params: NodeEncoderParams) -> tuple[Tensor, Tensor]:
    """``(m, U)``: the factored encoder's maps, which depend on parameters only.

    Row block h of m is M_hᵀ, so the attention's queries F̃ mᵀ are
    [F̃ M_1 | … | F̃ M_H]; U is (d_lat, (H+1)(c+1)). See the module docstring.
    """
    heads, d, p = params.heads, params.d_lat, params.attn
    dh, c = d // heads, params.conv_w.shape[1]
    # Q̃, K̃, Ṽ on F̃, one (dh, c+1) block per head
    q, k, v = (_affine(w, b).reshape((heads, dh, c + 1)) for w, b in _folded(params))
    # row block h of K̃ᵀQ̃ is √dh·M_hᵀ
    m = tt.bmm(k.transpose((0, 2, 1)), q).reshape((heads * (c + 1), c + 1))
    # wo_h Ṽ_h, side by side: (d, H(c+1))
    wo_v = tt.bmm(p["wo"].reshape((d, heads, dh)).transpose((1, 0, 2)), v)
    u = tt.concat([_affine(params.proj_w, params.proj_b + p["bo"]),
                   wo_v.transpose((1, 0, 2)).reshape((d, heads * (c + 1)))], axis=1)
    return m * (1.0 / math.sqrt(dh)), u


def _node_factors(x: Tensor, params: NodeEncoderParams) -> tuple[Tensor, Tensor]:
    """``(Z, U)`` with embeddings ``h = Z Uᵀ``, for widths that factor.

    Z = [F̃, P_1 F̃, …, P_H F̃] is (T, N, (H+1)(c+1)) and U is
    (d_lat, (H+1)(c+1)); see the module docstring. The maps that depend on
    parameters only are formed once per tape (``tt.per_tape``).
    """
    feats = conv_stage(x, params)
    T, N, c = feats.shape
    f1 = tt.concat([feats, Tensor(np.ones((T, N, 1)))], axis=-1)   # F̃
    if not params.attention_enabled:
        return f1, tt.per_tape(params, lambda: _affine(params.proj_w, params.proj_b))
    m, u = tt.per_tape(params, lambda: _factor_maps(params))
    # every head's keys and values are F̃ itself, so head h's output is P_h F̃
    mixed = tt.attention(f1, f1, f1, 1.0, heads=params.heads, q_map=m)
    return tt.concat([f1, mixed], axis=-1), u


def _block_steps(n_rois: int, d_lat: int) -> int:
    """Time steps per encoder block: two (steps, N, d_lat) arrays hold ``tt._CHUNK`` floats."""
    return max(1, tt._CHUNK // (2 * n_rois * d_lat))


def _steps(T: int, N: int, params: NodeEncoderParams) -> int:
    """Steps per block for an unfactored (T, N) input: all T with attention off."""
    return _block_steps(N, params.d_lat) if params.attention_enabled else T


def _embed(feats: Tensor, params: NodeEncoderParams) -> Tensor:
    """``proj(feats)``, plus the ROI attention when it is enabled."""
    h = tt.linear(feats, params.proj_w, params.proj_b)
    if params.attention_enabled:
        h = h + _roi_attention(feats, params)
    return h


def encode_nodes(x: Tensor, params: NodeEncoderParams) -> Tensor:
    """Embed every region at every time step: (T, N) -> (T, N, d_lat).

    ``h = proj(conv_stage(x))``, plus ``attn(h)`` when attention is enabled.
    At widths that factor (``_factored``), h is formed only as ``Z Uᵀ``;
    otherwise the attention takes its q/k/v from the conv features through
    the folded maps, in blocks of ``_block_steps`` time steps joined by one
    ``tt.concat`` (module docstring). A sequence of at most one block, or
    one with attention off, runs whole, with no slice or concat node.
    """
    if _factored(params):
        return tt.linear(*_node_factors(x, params))
    feats = conv_stage(x, params)
    T, N, _ = feats.shape
    step = _steps(T, N, params)
    if T <= step:
        return _embed(feats, params)
    blocks = [_embed(feats[t:t + step], params) for t in range(0, T, step)]
    del feats   # untaped, the conv features go before the concat's output is made
    return tt.concat(blocks, axis=0)


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
    sliding windows are involved. Only the node embeddings of a sequence
    that is one block (or, at widths that factor, Z and U) are computed
    here, and of a longer unfactored one only the conv features; its nodes
    are formed per block when read. The adjacency and the filtered signal
    are formed when read (``DynGraphSequence``).
    """
    if _factored(params):
        z, u = _node_factors(x, params)
        return DynGraphSequence(x, lambda _: z, z.shape[0], basis=u, mode=mode)
    T, N = _checked_shape(x, params)
    step = _steps(T, N, params)
    if T <= step:
        h = encode_nodes(x, params)
        return DynGraphSequence(x, lambda _: h, T, mode=mode)
    feats = conv_stage(x, params)
    return DynGraphSequence(x, lambda b: _embed(feats[b], params), step, mode=mode)


def static_filter(x: Tensor, g_seq: Tensor, mode: str = "row_normalized") -> Tensor:
    """Filter every step through the time-averaged adjacency (ablation path)."""
    return tt.matmul(x, _filter_weights(g_seq.mean(axis=0), mode).T)
