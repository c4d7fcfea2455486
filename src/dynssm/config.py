"""Layered run configuration: profile defaults <- config file <- CLI overrides.

The file format is JSON with three sections (data / model / train) plus a few
top-level keys. Unknown keys anywhere are rejected. The fully resolved
configuration is echoed into every run directory as ``config.resolved``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError

# Paper-scale model/train values are the documented defaults; the desk
# profile shrinks them for synthetic benchmarks and CI.
_MODEL_DEFAULTS = {
    "kernel_size": 3,
    "conv_features": 8,
    "d_lat": 128,
    "encoder_heads": 4,
    "attention_enabled": True,
    "filter_mode": "row_normalized",
    "backbone": "mamba",
    "d_h": 64,
    "ssm_blocks": 2,
    "align": "tokens",
    "k_tokens": 8,
    "d_k": 64,
    "surrogate_blocks": 2,
    "surrogate_heads": 4,
    "vocab": 64,
    "prompt_len": 8,
    "context_cap": 64,
    "lora_rank": 16,
    "lora_alpha": 32.0,
    "lora_dropout": 0.1,
    "train_adapters": True,
    "brain_pos_offsets": False,
    "frozen_seed": 20_240_001,
}

_TRAIN_DEFAULTS = {
    "learning_rate": 1e-4,
    "epochs": 10,
    "batch_size": 8,
    "accumulation_steps": 1,
    "beta1": 0.9,
    "beta2": 0.999,
    "eps": 1e-8,
    "val_fraction": 0.1,
}

_DATA_DEFAULTS = {
    "n_rois": 16,
    "length": 128,
    "subjects_per_class": 40,
    "separation": 0.5,
    "switch_rate": 2.0,
    "noise_std": 0.3,
    "train_fraction": 0.8,
}

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
    "threads": 1,
    "variant": "full",
    "profile": "desk",
}


def default_config(profile: str = "desk") -> dict:
    if profile not in _PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; options: {sorted(_PROFILES)}")
    cfg = dict(_TOP_DEFAULTS)
    cfg["profile"] = profile
    cfg["data"] = dict(_DATA_DEFAULTS)
    cfg["model"] = {**_MODEL_DEFAULTS, **_PROFILES[profile]["model"]}
    cfg["train"] = {**_TRAIN_DEFAULTS, **_PROFILES[profile]["train"]}
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
    """Apply a dotted key=value override, e.g. model.d_lat=32."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    dotted, raw = assignment.split("=", 1)
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


def build_model_config(cfg: dict, n_rois: int):
    from .model import ModelConfig
    m = cfg["model"]
    return ModelConfig(n_rois=n_rois, param_seed=cfg["seed"] + 1,
                       lora_targets=("q", "v"), **m)


def build_train_config(cfg: dict):
    from .training import TrainConfig
    t = cfg["train"]
    return TrainConfig(seed=cfg["seed"], variant=cfg["variant"], **t)
