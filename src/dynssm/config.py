"""Layered run configuration: profile defaults <- config file <- CLI overrides.

The file format is JSON with three sections (data / model / train) plus a few
top-level keys. Unknown keys anywhere are rejected. The model and train
sections are the fields of :class:`ModelConfig` and :class:`TrainConfig`, and
their defaults are the dataclass defaults. The fully resolved configuration
is echoed into every run directory as ``config.resolved``.

This module imports no numpy, so it can be read before the CLI pins BLAS
threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

BACKBONES = ("mamba", "s4", "gru", "tcn", "transformer")
ALIGN_MODES = ("tokens", "meanpool", "random", "none")
FILTER_MODES = ("raw", "row_normalized")
TRANSFORMER_HEADS = 4   # the ``backbone:transformer`` ablation's attention heads

# ModelConfig fields that count something, so each must be an integer >= 1
_SIZES = ("kernel_size", "conv_features", "d_lat", "encoder_heads", "d_h", "ssm_blocks",
          "k_tokens", "d_k", "surrogate_blocks", "surrogate_heads", "vocab", "prompt_len",
          "context_cap", "lora_rank")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class ModelConfig:
    """Model hyperparameters; the field defaults are the paper-scale values."""

    n_rois: int = 16
    kernel_size: int = 3
    conv_features: int = 8
    d_lat: int = 128
    encoder_heads: int = 4
    attention_enabled: bool = True
    filter_mode: str = "row_normalized"
    static_graph: bool = False
    backbone: str = "mamba"
    d_h: int = 64
    ssm_blocks: int = 2
    align: str = "tokens"
    k_tokens: int = 8
    d_k: int = 64
    surrogate_blocks: int = 2
    surrogate_heads: int = 4
    vocab: int = 64
    prompt_len: int = 8
    context_cap: int = 64
    lora_rank: int = 16
    lora_alpha: float = 32.0
    lora_dropout: float = 0.1
    train_adapters: bool = True
    brain_pos_offsets: bool = False
    frozen_seed: int = 20_240_001   # fixed: "frozen" must be reproducible
    param_seed: int = 7

    def validate(self) -> None:
        """Every constraint that the configuration alone decides.

        The CLI runs this before it makes the run directory, so a bad size
        fails with a named ``ConfigError`` and leaves no file behind.
        """
        if self.backbone not in BACKBONES:
            raise ConfigError(f"unknown backbone {self.backbone!r}; options: {BACKBONES}")
        if self.align not in ALIGN_MODES:
            raise ConfigError(f"unknown align mode {self.align!r}; options: {ALIGN_MODES}")
        if self.filter_mode not in FILTER_MODES:
            raise ConfigError(f"unknown filter mode {self.filter_mode!r}; options: {FILTER_MODES}")
        for name in _SIZES:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.prompt_len >= self.vocab:
            raise ConfigError("prompt_len must be in [1, vocab)")
        if self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd, got {self.kernel_size}")
        for width, heads in (("d_lat", "encoder_heads"), ("d_k", "surrogate_heads")):
            if getattr(self, width) % getattr(self, heads):
                raise ConfigError(f"{width}={getattr(self, width)} must be divisible by "
                                  f"{heads}={getattr(self, heads)}")
        if self.backbone == "transformer" and self.d_h % TRANSFORMER_HEADS:
            raise ConfigError(f"d_h={self.d_h} must be divisible by the transformer "
                              f"backbone's {TRANSFORMER_HEADS} heads")
        if self.lora_rank > self.d_k:
            raise ConfigError(f"lora_rank={self.lora_rank} must be <= d_k={self.d_k}")
        if not (_is_number(self.lora_dropout) and 0 <= self.lora_dropout < 1):
            raise ConfigError(f"lora_dropout must be in [0, 1), got {self.lora_dropout!r}")
        if not (_is_number(self.lora_alpha) and math.isfinite(self.lora_alpha)):
            raise ConfigError(f"lora_alpha must be a finite number, got {self.lora_alpha!r}")
        if self.context_cap < self.k_tokens + self.prompt_len:
            raise ConfigError(f"context_cap={self.context_cap} must be >= k_tokens + "
                              f"prompt_len = {self.k_tokens + self.prompt_len}")

    @classmethod
    def desk(cls, n_rois: int = 16, **overrides) -> "ModelConfig":
        """Small configuration for tests and synthetic benchmarks."""
        return cls(n_rois=n_rois, **{**_PROFILES["desk"]["model"], **overrides})


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 10
    batch_size: int = 8
    accumulation_steps: int = 1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    val_fraction: float = 0.1    # carve-out of train used for model selection

    def validate(self) -> None:
        # written so that NaN fails every check
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"beta1 and beta2 must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps must be finite and positive, got {self.eps}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1 or self.accumulation_steps < 1:
            raise ConfigError("batch_size and accumulation_steps must be >= 1")
        if not 0 <= self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


def _field_defaults(cls, internal: tuple) -> dict:
    # Fields that the run fixes or derives from its seed, variant or data are
    # not config keys.
    return {f.name: f.default for f in fields(cls) if f.name not in internal}


_MODEL_KEYS = _field_defaults(ModelConfig, ("n_rois", "param_seed", "static_graph"))
_TRAIN_KEYS = _field_defaults(TrainConfig, ("seed",))

_DATA_DEFAULTS = {
    "n_rois": 16,
    "length": 128,
    "subjects_per_class": 40,
    "separation": 0.5,
    "switch_rate": 2.0,
    "noise_std": 0.3,
    "train_fraction": 0.8,
}

# The paper profile is the dataclass defaults; the desk profile shrinks them
# for synthetic benchmarks and CI.
_PROFILES = {
    "paper": {"model": {}, "train": {}},
    "desk": {
        "model": {"conv_features": 4, "d_lat": 16, "d_h": 32,
                  "lora_rank": 4, "lora_alpha": 8.0, "context_cap": 32},
        "train": {"learning_rate": 2e-3, "batch_size": 4},
    },
}

_TOP_DEFAULTS = {
    "seed": 0,
    "variant": "full",
    "profile": "desk",
}


def default_config(profile: str = "desk") -> dict:
    if profile not in _PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; options: {sorted(_PROFILES)}")
    cfg = dict(_TOP_DEFAULTS)
    cfg["profile"] = profile
    cfg["data"] = dict(_DATA_DEFAULTS)
    cfg["model"] = {**_MODEL_KEYS, **_PROFILES[profile]["model"]}
    cfg["train"] = {**_TRAIN_KEYS, **_PROFILES[profile]["train"]}
    return cfg


def _merge_section(base: dict, update: dict, section: str) -> None:
    for key, value in update.items():
        if key not in base:
            raise ConfigError(f"unknown config key {section}.{key}" if section
                              else f"unknown config key {key}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key} must be a section")
            _merge_section(base[key], value, key)
        else:
            base[key] = value


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_override(cfg: dict, assignment: str) -> None:
    """Apply a dotted key=value override, e.g. model.d_lat=32.

    ``profile`` is not an override: it picks the defaults that the overrides
    apply to, so it comes from ``--profile`` or the config file.
    """
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    dotted, raw = assignment.split("=", 1)
    if dotted.strip() == "profile":
        raise ConfigError("profile is not an override; choose it with --profile "
                          "or the config file")
    keys = dotted.strip().split(".")
    node = cfg
    for k in keys[:-1]:
        if k not in node or not isinstance(node[k], dict):
            raise ConfigError(f"unknown config section {k!r} in {dotted!r}")
        node = node[k]
    leaf = keys[-1]
    if leaf not in node:
        raise ConfigError(f"unknown config key {dotted!r}")
    if isinstance(node[leaf], dict):
        raise ConfigError(f"config key {dotted!r} is a section, not a value")
    node[leaf] = _parse_value(raw.strip())


def resolve_config(config_path=None, overrides=(), profile=None, seed=None) -> dict:
    """Build the effective configuration from all layers (flags win)."""
    file_cfg = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{path}: top level must be an object")
    effective_profile = profile or file_cfg.get("profile") or _TOP_DEFAULTS["profile"]
    cfg = default_config(effective_profile)
    _merge_section(cfg, file_cfg, "")
    cfg["profile"] = effective_profile
    for assignment in overrides:
        apply_override(cfg, assignment)
    if seed is not None:
        cfg["seed"] = int(seed)
    return cfg


def build_model_config(cfg: dict, n_rois: int) -> ModelConfig:
    return ModelConfig(n_rois=n_rois, param_seed=cfg["seed"] + 1, **cfg["model"])


def build_train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(seed=cfg["seed"], **cfg["train"])
