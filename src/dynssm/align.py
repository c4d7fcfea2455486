"""Fixed-size summary tokens, low-rank adapters, and the frozen surrogate.

The state trajectory is compressed into K tokens by learned-query cross
attention (each query attends over all T states), projected into the
surrogate's embedding width, and prepended to a fixed instruction prompt.
The surrogate is a small frozen transformer standing in for a large language
backbone; only its low-rank adapters and the classification head train.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as tt
from .data import LABELS
from .errors import ConfigError, ContractError, LengthError, ShapeError
from .rng import CounterRng
from .tensor import Tensor


@dataclass
class CompressParams:
    queries: Tensor   # (K, d_h) learned attention queries
    proj_w: Tensor    # (d_k, d_h)
    proj_b: Tensor    # (d_k,)

    @classmethod
    def create(cls, rng: CounterRng, d_h: int, d_k: int, k_tokens: int) -> "CompressParams":
        if k_tokens < 1:
            raise ConfigError(f"token count must be >= 1, got {k_tokens}")
        return cls(
            queries=tt.init_weight(rng, (k_tokens, d_h), d_h),
            proj_w=tt.init_weight(rng, (d_k, d_h), d_h),
            proj_b=Tensor(np.zeros(d_k), requires_grad=True),
        )

    def named_params(self, prefix: str = "compress") -> dict[str, Tensor]:
        return {f"{prefix}.queries": self.queries, f"{prefix}.proj_w": self.proj_w,
                f"{prefix}.proj_b": self.proj_b}


def compress_tokens(states: Tensor, params: CompressParams,
                    uniform_attention: bool = False,
                    score_mask: Optional[np.ndarray] = None) -> Tensor:
    """Cross-attention pooling of (T, d_h) states into K tokens of width d_k.

    Returns the (K, d_k) Tensor of brain tokens that ``surrogate_forward``
    takes, for any T. ``uniform_attention`` replaces the attention with the
    mean over time and gives one token, the meanpool alignment;
    ``score_mask``, a finite (K, T) array, is added to the attention scores,
    so large negative entries mask states out (for padding invariance
    checks).
    """
    if states.ndim != 2 or states.shape[0] < 1:
        raise ShapeError(f"compress_tokens expects (T, d_h) with T >= 1, got {states.shape}")
    d_h = params.queries.shape[1]
    if states.shape[1] != d_h:
        raise ShapeError(f"state width {states.shape[1]} does not match queries {d_h}")
    if uniform_attention:
        pooled = states.mean(axis=0).reshape((1, d_h))
    else:
        mask = None if score_mask is None else Tensor(score_mask).data   # rejects NaN/Inf
        pooled = tt.attention(params.queries, states, states, 1.0 / math.sqrt(d_h), mask)
    return tt.linear(pooled, params.proj_w, params.proj_b)


@dataclass
class LoraAdapter:
    """Trainable rank-r update for one frozen weight matrix.

    The effective delta is (alpha/r) * B @ A; B starts at zero so a fresh
    adapter is the zero map and the adapted layer equals the frozen layer.
    """

    a: Tensor            # (r, d_in), small random init
    b: Tensor            # (d_out, r), zero init
    rank: int
    alpha: float
    dropout_p: float = 0.0

    @classmethod
    def create(cls, rng: CounterRng, d_in: int, d_out: int, rank: int,
               alpha: float, dropout_p: float = 0.0) -> "LoraAdapter":
        if rank < 1 or rank > min(d_in, d_out):
            raise ConfigError(f"rank {rank} must be in [1, min({d_in}, {d_out})]")
        if not 0.0 <= dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {dropout_p}")
        return cls(
            a=tt.init_weight(rng, (rank, d_in), d_in),
            b=Tensor(np.zeros((d_out, rank)), requires_grad=True),
            rank=rank, alpha=alpha, dropout_p=dropout_p,
        )

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def delta(self) -> np.ndarray:
        """The materialized weight update (alpha/r) * B @ A."""
        return self.scaling * (self.b.data @ self.a.data)


def lora_linear(x: Tensor, w: Tensor, adapter: Optional[LoraAdapter],
                bias: Optional[Tensor] = None, training: bool = False,
                rng: Optional[CounterRng] = None) -> Tensor:
    """Frozen affine map plus a low-rank trainable correction, as one tape node.

    y = x Wᵀ + b + s·((x ⊙ mask) Aᵀ) Bᵀ, with s = alpha/r (Hu et al. 2021).
    Dropout applies only to the adapter's input, and only when training: the
    mask is ``rng.bernoulli_mask`` of x's shape. W and b are frozen, so the
    node's parents are x, A and B; it keeps the mask and x Aᵀ. With G the
    output's gradient, the vjp returns g_x = G W + s·((G B) A) ⊙ mask,
    g_A = (s·G B)ᵀ (x ⊙ mask) and g_B = (s·G)ᵀ (x ⊙ mask) Aᵀ.
    """
    if adapter is None:
        return tt.linear(x, w, bias)
    a, b, s = adapter.a, adapter.b, adapter.scaling
    if x.shape[-1] != a.shape[1]:
        raise ShapeError(f"lora_linear: input {x.shape} does not match adapter A {a.shape}")
    if w.requires_grad or (bias is not None and bias.requires_grad):
        raise ContractError("lora_linear: the adapted weight and bias must be frozen")
    mask = None
    if training and adapter.dropout_p > 0.0:
        if rng is None:
            raise ConfigError("training-mode dropout needs an rng")
        mask = rng.bernoulli_mask(x.shape, 1.0 - adapter.dropout_p)
    xd = x.data
    val = tt._mapped(xd, w.data)
    if bias is not None:
        val += bias.data
    xa = tt._mapped(xd if mask is None else xd * mask, a.data)
    low = tt._mapped(xa, b.data)
    low *= s
    val += low
    out = Tensor._wrap(val)
    tape = tt._recording(x, a, b)
    if tape is not None:
        wd, d_in, d_out, r = w.data, xd.shape[-1], val.shape[-1], a.shape[0]

        def vjp(g):
            gs = (g * s).reshape(-1, d_out)
            gh = gs @ b.data   # the gradient at x Aᵀ
            xin = (xd if mask is None else xd * mask).reshape(-1, d_in)
            ga = gh.T @ xin if a.requires_grad else None
            gb = gs.T @ xa.reshape(-1, r) if b.requires_grad else None
            gx = None
            if x.requires_grad:
                gx = gh @ a.data
                if mask is not None:
                    gx *= mask.reshape(-1, d_in)
                gx += g.reshape(-1, d_out) @ wd
                gx = gx.reshape(xd.shape)
            return gx, ga, gb
        tape._record(out, (x, a, b), vjp)
    return out


@dataclass
class SurrogateModel:
    """Small frozen attention stack with adapters, standing in for an LLM.

    Frozen pieces (embeddings, attention, feed-forward, norms) are generated
    once from a fixed seed; only adapters and the classification head carry
    gradients. ``checksum`` fingerprints every frozen array.
    """

    d_k: int
    heads: int
    vocab: int
    max_len: int
    frozen: dict = field(default_factory=dict)     # name -> Tensor (requires_grad False)
    adapters: dict = field(default_factory=dict)   # "block{i}.{q|v}" -> LoraAdapter
    head_w: Tensor = None
    head_b: Tensor = None
    brain_pos: Optional[Tensor] = None             # (K, d_k) offsets, optional
    block_count: int = 2

    @classmethod
    def create(cls, seed: int, d_k: int = 64, heads: int = 4, vocab: int = 64,
               block_count: int = 2, max_len: int = 64, rank: int = 16,
               alpha: float = 32.0, dropout_p: float = 0.1,
               k_tokens_for_pos: int = 0) -> "SurrogateModel":
        if d_k % heads != 0:
            raise ConfigError(f"d_k={d_k} must be divisible by heads={heads}")
        rng = CounterRng(seed).child(0xF0)
        frozen = {
            "embed": tt.init_weight(rng, (vocab, d_k), d_k, requires_grad=False),
            "pos": tt.init_weight(rng, (max_len, d_k), d_k, requires_grad=False),
            "final_ln_g": Tensor(np.ones(d_k)),
            "final_ln_b": Tensor(np.zeros(d_k)),
        }
        for i in range(block_count):
            p = f"block{i}"
            for nm in ("q", "k", "v", "o"):
                frozen[f"{p}.w{nm}"] = tt.init_weight(rng, (d_k, d_k), d_k, requires_grad=False)
            frozen[f"{p}.ln1_g"] = Tensor(np.ones(d_k))
            frozen[f"{p}.ln1_b"] = Tensor(np.zeros(d_k))
            frozen[f"{p}.ln2_g"] = Tensor(np.ones(d_k))
            frozen[f"{p}.ln2_b"] = Tensor(np.zeros(d_k))
            frozen[f"{p}.mlp_w1"] = tt.init_weight(rng, (4 * d_k, d_k), d_k, requires_grad=False)
            frozen[f"{p}.mlp_b1"] = Tensor(np.zeros(4 * d_k))
            frozen[f"{p}.mlp_w2"] = tt.init_weight(rng, (d_k, 4 * d_k), 4 * d_k,
                                                   requires_grad=False)
            frozen[f"{p}.mlp_b2"] = Tensor(np.zeros(d_k))
        arng = CounterRng(seed).child(0xAD)
        adapters = {}
        for i in range(block_count):
            # Only the query and value maps adapt; the tags are their places in
            # "qkvo", which every adapter init so far has been drawn from.
            for nm, tag in (("q", 0), ("v", 2)):
                adapters[f"block{i}.{nm}"] = LoraAdapter.create(
                    arng.child(i * 8 + tag), d_k, d_k, rank, alpha, dropout_p)
        hrng = CounterRng(seed).child(0x4E)
        head_w = tt.init_weight(hrng, (2, d_k), d_k)
        head_b = Tensor(np.zeros(2), requires_grad=True)
        brain_pos = None
        if k_tokens_for_pos > 0:
            brain_pos = Tensor(np.zeros((k_tokens_for_pos, d_k)), requires_grad=True)
        return cls(d_k=d_k, heads=heads, vocab=vocab, max_len=max_len, frozen=frozen,
                   adapters=adapters, head_w=head_w, head_b=head_b, brain_pos=brain_pos,
                   block_count=block_count)

    def named_params(self) -> dict[str, Tensor]:
        """Head, brain offsets, adapters, then every frozen array: the checkpoint order."""
        out = {"head.w": self.head_w, "head.b": self.head_b}
        if self.brain_pos is not None:
            out["brain_pos"] = self.brain_pos
        for name, ad in self.adapters.items():
            out[f"lora.{name}.A"] = ad.a
            out[f"lora.{name}.B"] = ad.b
        out.update({f"surrogate.{k}": v for k, v in self.frozen.items()})
        return out

    def checksum(self) -> str:
        """SHA-256 over every frozen array, in name order."""
        h = hashlib.sha256()
        for name in sorted(self.frozen):
            h.update(name.encode())
            h.update(self.frozen[name].data.tobytes())
        return h.hexdigest()


def _mha(x: Tensor, model: SurrogateModel, block: str, training: bool,
         rng: Optional[CounterRng]) -> Tensor:
    f = model.frozen

    def project(nm: str) -> Tensor:
        adapter = model.adapters.get(f"{block}.{nm}")
        return lora_linear(x, f[f"{block}.w{nm}"], adapter, training=training, rng=rng)

    ctx = tt.attention(project("q"), project("k"), project("v"),
                       1.0 / math.sqrt(x.shape[1] // model.heads), heads=model.heads)
    return tt.linear(ctx, f[f"{block}.wo"])


def surrogate_forward(brain: Optional[Tensor], prompt_ids: Sequence[int],
                      model: SurrogateModel, training: bool = False,
                      rng: Optional[CounterRng] = None) -> Tensor:
    """Run brain tokens + prompt through the adapted frozen stack; 2 logits.

    ``brain`` is None or a (K, d_k) Tensor of brain tokens; any other shape is
    a ShapeError. Brain tokens are prepended to the prompt embeddings.
    Attention is bidirectional and brain tokens carry no positional term
    unless the model has per-token offsets, so with offsets absent the logits
    are invariant to brain-token order. The final prompt position is pooled
    for the head.
    """
    prompt_ids = np.asarray(list(prompt_ids), dtype=np.int64)
    if prompt_ids.size == 0:
        raise ShapeError("prompt must contain at least one token id")
    if prompt_ids.min() < 0 or prompt_ids.max() >= model.vocab:
        raise ShapeError(f"prompt ids out of range for vocabulary of {model.vocab}")
    if brain is not None and (brain.ndim != 2 or brain.shape[1] != model.d_k):
        raise ShapeError(f"brain tokens must be (K, d_k={model.d_k}), got {brain.shape}")
    k = brain.shape[0] if brain is not None else 0
    if k + prompt_ids.size > model.max_len:
        raise LengthError(f"sequence length {k + prompt_ids.size} exceeds "
                          f"context cap {model.max_len}")
    f = model.frozen
    tok = embedding_with_pos(model, prompt_ids)
    if brain is not None:
        if model.brain_pos is not None:
            if model.brain_pos.shape[0] != k:
                raise ShapeError("brain position offsets do not match token count")
            brain = brain + model.brain_pos
        x = tt.concat([brain, tok], axis=0)
    else:
        x = tok
    for i in range(model.block_count):
        blk = f"block{i}"
        h = tt.layer_norm(x, f[f"{blk}.ln1_g"], f[f"{blk}.ln1_b"])
        x = x + _mha(h, model, blk, training, rng)
        h = tt.layer_norm(x, f[f"{blk}.ln2_g"], f[f"{blk}.ln2_b"])
        mid = tt.relu(tt.linear(h, f[f"{blk}.mlp_w1"], f[f"{blk}.mlp_b1"]))
        x = x + tt.linear(mid, f[f"{blk}.mlp_w2"], f[f"{blk}.mlp_b2"])
    x = tt.layer_norm(x, f["final_ln_g"], f["final_ln_b"])
    final = x[x.shape[0] - 1]
    return tt.linear(final.reshape((1, model.d_k)), model.head_w, model.head_b).reshape((2,))


def embedding_with_pos(model: SurrogateModel, prompt_ids: np.ndarray) -> Tensor:
    """Prompt embeddings plus positional rows indexed by prompt-local position."""
    tok = tt.embedding(model.frozen["embed"], prompt_ids)
    pos = model.frozen["pos"].data[:prompt_ids.size]
    return tok + Tensor._wrap(pos)


def classify(logits) -> tuple[str, float]:
    """Argmax label with softmax confidence; exact ties resolve to TC."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)
    if arr.shape != (2,):
        raise ShapeError(f"classify expects 2 logits, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError("classify expects finite logits")
    shifted = arr - arr.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    idx = 0 if arr[0] > arr[1] else 1
    return LABELS[idx], float(probs[idx])
