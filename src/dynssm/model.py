"""End-to-end classifier: latent graphs -> temporal features -> summary
tokens -> adapted frozen surrogate -> two-class logits.

Ablation hooks live here as configuration: a static (time-averaged) graph
mode, swappable temporal backbones behind one interface, alignment variants
(tokens / meanpool / random / none), and an adapter-freeze switch.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from . import align as al
from . import graph as gr
from . import ssm as sm
from . import tensor as tt
from .checkpoint import load_params, save_params
from .config import TRANSFORMER_HEADS, ModelConfig
from .errors import ConfigError
from .rng import CounterRng
from .tensor import Tensor

def _sinusoidal(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    i = np.arange(dim // 2)[None, :]
    angles = pos / np.power(10_000.0, 2.0 * i / dim)
    enc = np.zeros((length, dim))
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles)
    return enc


class _GruBackbone:
    def __init__(self, rng: CounterRng, d_in: int, d_h: int):
        self.d_h = d_h
        self.wz, self.wr, self.wh = (tt.init_weight(rng, (d_h, d_in), d_in) for _ in range(3))
        self.uz, self.ur, self.uh = (tt.init_weight(rng, (d_h, d_h), d_h) for _ in range(3))
        self.bz, self.br, self.bh = (Tensor(np.zeros(d_h), requires_grad=True)
                                     for _ in range(3))
        self.w_out = tt.init_weight(rng, (d_h, d_h), d_h)
        self.b_out = Tensor(np.zeros(d_h), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        T = x.shape[0]
        xz = tt.linear(x, self.wz, self.bz)
        xr = tt.linear(x, self.wr, self.br)
        xh = tt.linear(x, self.wh, self.bh)
        h = Tensor(np.zeros(self.d_h))
        one = Tensor(np.ones(self.d_h))
        rows = []
        for t in range(T):
            z = tt.sigmoid(xz[t] + tt.matmul(self.uz, h))
            r = tt.sigmoid(xr[t] + tt.matmul(self.ur, h))
            cand = tt.tanh(xh[t] + tt.matmul(self.uh, r * h))
            h = (one - z) * h + z * cand
            rows.append(h.reshape((1, self.d_h)))
        states = tt.concat(rows, axis=0)
        return tt.linear(states, self.w_out, self.b_out)

    def named_params(self, prefix: str = "temporal") -> dict:
        names = ("wz", "wr", "wh", "uz", "ur", "uh", "bz", "br", "bh", "w_out", "b_out")
        return {f"{prefix}.{n}": getattr(self, n) for n in names}


class _TcnBackbone:
    def __init__(self, rng: CounterRng, d_in: int, d_h: int, kernel_size: int = 3):
        self.kernel_size = kernel_size
        self.w1 = tt.init_weight(rng, (1, d_h, d_in, kernel_size), d_in * kernel_size)
        self.b1 = Tensor(np.zeros(d_h), requires_grad=True)
        self.w2 = tt.init_weight(rng, (1, d_h, d_h, kernel_size), d_h * kernel_size)
        self.b2 = Tensor(np.zeros(d_h), requires_grad=True)
        self.w_out = tt.init_weight(rng, (d_h, d_h), d_h)
        self.b_out = Tensor(np.zeros(d_h), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        h = tt.relu(tt.grouped_conv1d(x, self.kernel_size, self.w1, 1, bias=self.b1))
        h = tt.relu(tt.grouped_conv1d(h, self.kernel_size, self.w2, 1, bias=self.b2))
        return tt.linear(h, self.w_out, self.b_out)

    def named_params(self, prefix: str = "temporal") -> dict:
        return {f"{prefix}.{n}": getattr(self, n)
                for n in ("w1", "b1", "w2", "b2", "w_out", "b_out")}


class _TransformerBackbone:
    def __init__(self, rng: CounterRng, d_in: int, d_h: int):
        self.heads = TRANSFORMER_HEADS   # ``ModelConfig.validate`` checks that they divide d_h
        self.w_in = tt.init_weight(rng, (d_h, d_in), d_in)
        self.b_in = Tensor(np.zeros(d_h), requires_grad=True)
        for nm in ("wq", "wk", "wv", "wo"):
            setattr(self, nm, tt.init_weight(rng, (d_h, d_h), d_h))
        self.w_ff1 = tt.init_weight(rng, (2 * d_h, d_h), d_h)
        self.b_ff1 = Tensor(np.zeros(2 * d_h), requires_grad=True)
        self.w_ff2 = tt.init_weight(rng, (d_h, 2 * d_h), 2 * d_h)
        self.b_ff2 = Tensor(np.zeros(d_h), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        T = x.shape[0]
        d_h = self.w_in.shape[0]
        h = tt.linear(x, self.w_in, self.b_in) + Tensor._wrap(_sinusoidal(T, d_h))
        q, k, v = (tt.linear(h, getattr(self, nm)) for nm in ("wq", "wk", "wv"))
        ctx = tt.attention(q, k, v, 1.0 / math.sqrt(d_h // self.heads), heads=self.heads)
        h = h + tt.linear(ctx, self.wo)
        return h + tt.linear(tt.relu(tt.linear(h, self.w_ff1, self.b_ff1)),
                             self.w_ff2, self.b_ff2)

    def named_params(self, prefix: str = "temporal") -> dict:
        names = ("w_in", "b_in", "wq", "wk", "wv", "wo", "w_ff1", "b_ff1", "w_ff2", "b_ff2")
        return {f"{prefix}.{n}": getattr(self, n) for n in names}


class _S4Backbone:
    """Fixed-parameter diagonal recurrence: input-independent A and timescale.

    One ``ssm.selective_block`` whose timescale map is a constant zero, so
    Delta = softplus(delta) at every step (S4D, arXiv:2206.11893).
    """

    def __init__(self, rng: CounterRng, d_in: int, d_h: int):
        self.block = sm.SsmBlockParams(
            a=Tensor(rng.normal((d_h,), std=0.5) - 1.0, requires_grad=True),
            w_delta=Tensor(np.zeros((d_h, d_in))),
            delta_bias=Tensor(np.zeros(d_h), requires_grad=True),
            w_b=tt.init_weight(rng, (d_h, d_in), d_in))
        self.w_out = tt.init_weight(rng, (d_h, d_h), d_h)
        self.b_out = Tensor(np.zeros(d_h), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return tt.linear(sm.selective_block(x, self.block), self.w_out, self.b_out)

    def named_params(self, prefix: str = "temporal") -> dict:
        b = self.block
        return {f"{prefix}.a": b.a, f"{prefix}.delta": b.delta_bias, f"{prefix}.w_b": b.w_b,
                f"{prefix}.w_out": self.w_out, f"{prefix}.b_out": self.b_out}


class _MambaBackbone:
    def __init__(self, rng: CounterRng, d_in: int, d_h: int, blocks: int):
        self.params = sm.SsmParams.create(rng, d_in=d_in, d_h=d_h, block_count=blocks)

    def forward(self, x: Tensor, backend: str = "parallel") -> Tensor:
        return sm.ssm_forward(x, self.params, backend=backend)

    def named_params(self, prefix: str = "temporal") -> dict:
        return self.params.named_params(prefix)


def _make_backbone(name: str, rng: CounterRng, d_in: int, d_h: int, blocks: int):
    if name == "mamba":
        return _MambaBackbone(rng, d_in, d_h, blocks)
    if name == "s4":
        return _S4Backbone(rng, d_in, d_h)
    if name == "gru":
        return _GruBackbone(rng, d_in, d_h)
    if name == "tcn":
        return _TcnBackbone(rng, d_in, d_h)
    if name == "transformer":
        return _TransformerBackbone(rng, d_in, d_h)
    raise ConfigError(f"unknown backbone {name!r}")


class BrainSequenceClassifier:
    """The full pipeline plus its trainable/frozen parameter bookkeeping."""

    def __init__(self, cfg: ModelConfig):
        cfg.validate()
        self.cfg = cfg
        rng = CounterRng(cfg.param_seed)
        self.uses_brain = cfg.align in ("tokens", "meanpool")
        self.encoder = None
        self.backbone = None
        self.compress = None
        if self.uses_brain:
            self.encoder = gr.NodeEncoderParams.create(
                rng.child(1), d_lat=cfg.d_lat, conv_features=cfg.conv_features,
                kernel_size=cfg.kernel_size, heads=cfg.encoder_heads,
                attention_enabled=cfg.attention_enabled)
            self.backbone = _make_backbone(cfg.backbone, rng.child(2), cfg.n_rois,
                                           cfg.d_h, cfg.ssm_blocks)
            k_queries = cfg.k_tokens if cfg.align == "tokens" else 0
            self.compress = al.CompressParams.create(
                rng.child(3), d_h=cfg.d_h, d_k=cfg.d_k,
                k_tokens=max(k_queries, 1))
        self.surrogate = al.SurrogateModel.create(
            seed=cfg.frozen_seed, d_k=cfg.d_k, heads=cfg.surrogate_heads,
            vocab=cfg.vocab, block_count=cfg.surrogate_blocks, max_len=cfg.context_cap,
            rank=cfg.lora_rank, alpha=cfg.lora_alpha, dropout_p=cfg.lora_dropout,
            k_tokens_for_pos=cfg.k_tokens if cfg.brain_pos_offsets else 0)
        self.prompt_ids = list(range(1, cfg.prompt_len + 1))

    # --- forward ---

    def forward(self, values: np.ndarray, training: bool = False,
                rng: Optional[CounterRng] = None, backend: str = "parallel") -> Tensor:
        cfg = self.cfg
        brain = None
        if self.uses_brain:
            x = Tensor(values)
            seq = gr.encode_sequence(x, self.encoder, mode=cfg.filter_mode)
            if cfg.static_graph:
                filtered = gr.static_filter(x, seq.adjacency, mode=cfg.filter_mode)
            else:
                filtered = seq.filtered
            del seq   # untaped, the conv features go before the temporal model runs
            if isinstance(self.backbone, _MambaBackbone):
                feats = self.backbone.forward(filtered, backend=backend)
            else:
                feats = self.backbone.forward(filtered)
            # "meanpool" gives one token: the features averaged over time
            brain = al.compress_tokens(feats, self.compress,
                                       uniform_attention=cfg.align == "meanpool")
        elif cfg.align == "random":
            if rng is None:
                rng = CounterRng(0xBAD)
            brain = Tensor(rng.normal((cfg.k_tokens, cfg.d_k)))
        return al.surrogate_forward(brain, self.prompt_ids, self.surrogate,
                                    training=training, rng=rng)

    # --- parameters ---

    def named_trainable(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.uses_brain:
            out.update(self.encoder.named_params("encoder"))
            out.update(self.backbone.named_params("temporal"))
            if self.cfg.align == "tokens":
                out.update(self.compress.named_params("compress"))
            else:
                out["compress.proj_w"] = self.compress.proj_w
                out["compress.proj_b"] = self.compress.proj_b
        out.update(self.surrogate.trainable_params(
            include_adapters=self.cfg.train_adapters))
        return out

    def named_frozen(self) -> dict[str, Tensor]:
        return {f"surrogate.{k}": v for k, v in self.surrogate.frozen.items()}

    def all_named_params(self) -> dict[str, Tensor]:
        out = dict(self.named_trainable())
        if not self.cfg.train_adapters:
            for name, ad in self.surrogate.adapters.items():
                out[f"lora.{name}.A"] = ad.a
                out[f"lora.{name}.B"] = ad.b
        out.update(self.named_frozen())
        return out

    def param_report(self) -> dict:
        trainable = sum(t.data.size for t in self.named_trainable().values())
        frozen = self.surrogate.frozen_param_count()
        adapters = self.surrogate.adapter_param_count()
        return {
            "trainable": int(trainable),
            "frozen": int(frozen),
            "adapter": int(adapters),
            "adapter_to_surrogate_ratio": adapters / (adapters + frozen),
            "trainable_to_total_ratio": trainable / (trainable + frozen),
        }

    # --- persistence ---

    def save(self, path) -> None:
        save_params(path, {k: v.data for k, v in self.all_named_params().items()})

    def load(self, path) -> None:
        """Load every parameter from ``path``, or none of them.

        The checkpoint must hold exactly this model's names and shapes and
        the same frozen surrogate, byte for byte (same ``checksum()``).
        """
        stored = load_params(path)
        own = self.all_named_params()
        missing = set(own) - set(stored)
        if missing:
            raise ConfigError(f"checkpoint is missing parameters: {sorted(missing)[:5]}")
        unknown = set(stored) - set(own)
        if unknown:
            raise ConfigError(f"checkpoint has parameters this model does not own: "
                              f"{sorted(unknown)[:5]}")
        for name, tensor in own.items():
            if stored[name].shape != tensor.data.shape:
                raise ConfigError(f"checkpoint parameter {name} has shape "
                                  f"{stored[name].shape}, expected {tensor.data.shape}")
        changed = [name for name, tensor in self.named_frozen().items()
                   if stored[name].tobytes() != tensor.data.tobytes()]
        if changed:
            raise ConfigError(f"checkpoint changes the frozen surrogate (checksum "
                              f"{self.surrogate.checksum()[:12]}): {changed[:5]}")
        for name, tensor in own.items():
            tensor.data = np.ascontiguousarray(stored[name])

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.all_named_params().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, tensor in self.all_named_params().items():
            tensor.data = snap[name].copy()


def variant_config(base: ModelConfig, variant: str) -> ModelConfig:
    """Translate a run-variant name into a model configuration."""
    if variant == "full":
        return replace(base)
    if variant == "static_graph":
        return replace(base, static_graph=True)
    if variant == "frozen_llm":
        return replace(base, train_adapters=False)
    if variant.startswith("backbone:"):
        return replace(base, backbone=variant.split(":", 1)[1])
    if variant.startswith("align:"):
        return replace(base, align=variant.split(":", 1)[1])
    raise ConfigError(f"unknown variant {variant!r}")
