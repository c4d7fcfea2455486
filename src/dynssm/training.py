"""Loss, optimizer, metrics, the training loop, and the ablation matrix."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict, replace
from typing import Callable, Optional

import numpy as np

from . import tensor as tt
from .align import classify
from .config import ALIGN_MODES, BACKBONES, ModelConfig, TrainConfig
from .data import DatasetSplit, normalize_zscore
from .errors import ConfigError, EvaluationError, NumericsError
from .model import BrainSequenceClassifier, variant_config
from .rng import CounterRng
from .tensor import Tape, Tensor

VARIANTS = ("full", "static_graph", "frozen_llm",
            *(f"backbone:{name}" for name in BACKBONES),
            *(f"align:{mode}" for mode in ALIGN_MODES))

_LABEL_INDEX = {"ASD": 0, "TC": 1}


@dataclass
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, tn: int) -> "Metrics":
        total = tp + fp + fn + tn
        acc = (tp + tn) / total if total else 0.0
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        return cls(tp=tp, fp=fp, fn=fn, tn=tn, accuracy=acc,
                   precision=prec, recall=rec, f1=f1)

    def as_dict(self) -> dict:
        return asdict(self)


def cross_entropy(logits: Tensor, label) -> Tensor:
    """Negative log-likelihood of the true class, numerically stabilized."""
    idx = _LABEL_INDEX[label] if isinstance(label, str) else int(label)
    if logits.shape != (2,):
        raise ConfigError(f"cross_entropy expects 2 logits, got shape {logits.shape}")
    return -tt.log_softmax(logits)[idx]


class Adam:
    """Bias-corrected Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in self.params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for name, t in self.params.items():
            g = grads.get(name)
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericsError(f"NaN/Inf gradient for parameter {name!r} "
                                    f"at step {self.step_count}")
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * (g * g)
            t.data = t.data - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _prepare(subjects: list) -> list:
    return [normalize_zscore(s) for s in subjects]


def _batch_gradients(model: BrainSequenceClassifier, batch: list,
                     params: dict[str, Tensor], rng: CounterRng) -> tuple[dict, float]:
    """Mean loss over the batch and its gradients w.r.t. ``params``."""
    tensors = list(params.values())
    names = list(params.keys())
    with Tape() as tape:
        total = None
        for subject in batch:
            logits = model.forward(subject.values, training=True, rng=rng)
            loss = cross_entropy(logits, subject.label)
            total = loss if total is None else total + loss
        mean_loss = total * (1.0 / len(batch))
        gmap = tape.backward(mean_loss, params=tensors)
    return {n: gmap[t] for n, t in zip(names, tensors)}, mean_loss.item()


def evaluate(model: BrainSequenceClassifier, subjects: list,
             normalized: bool = False, eval_seed: int = 0x9E) -> Metrics:
    """Deterministic inference pass -> confusion counts and derived metrics."""
    if not subjects:
        raise EvaluationError("cannot evaluate an empty split")
    if not normalized:
        subjects = _prepare(subjects)
    tp = fp = fn = tn = 0
    base = CounterRng(eval_seed)
    for i, subject in enumerate(subjects):
        logits = model.forward(subject.values, training=False, rng=base.child(i))
        label, _ = classify(logits)
        if subject.label == "ASD":
            tp += label == "ASD"
            fn += label != "ASD"
        else:
            tn += label == "TC"
            fp += label != "TC"
    return Metrics.from_counts(tp=tp, fp=fp, fn=fn, tn=tn)


@dataclass
class RunResult:
    metrics: Metrics
    log: list = field(default_factory=list)
    best_epoch: int = 0
    param_report: dict = field(default_factory=dict)


def train_model(model: BrainSequenceClassifier, train_subjects: list,
                cfg: TrainConfig, log_cb: Optional[Callable[[dict], None]] = None,
                test_subjects: Optional[list] = None) -> RunResult:
    """Adam training with gradient accumulation and best-by-validation pick.

    A ``val_fraction`` carve-out of the training subjects (at least one per
    class when possible) selects the checkpoint; per-epoch records go to
    ``log_cb`` and the returned log.
    """
    cfg.validate()
    rng = CounterRng(cfg.seed)
    train_subjects = _prepare(train_subjects)
    order_rng = rng.child(0x0D)
    shuffled = order_rng.shuffle(sorted(train_subjects, key=lambda s: s.subject_id))
    n_val = max(1, int(round(cfg.val_fraction * len(shuffled)))) if len(shuffled) > 3 else 0
    val_set = shuffled[:n_val]
    fit_set = shuffled[n_val:]
    if not fit_set:
        raise ConfigError("no training subjects left after validation carve-out")

    params = model.named_trainable()
    opt = Adam(params, lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    drop_rng = rng.child(0xD0)

    log: list[dict] = []
    best = (-1.0, 0, None)   # (val accuracy, epoch, snapshot)
    for epoch in range(1, cfg.epochs + 1):
        epoch_order = order_rng.shuffle(fit_set)
        losses = []
        micro: list[list] = []
        cursor = 0
        while cursor < len(epoch_order):
            micro.append(epoch_order[cursor:cursor + cfg.batch_size])
            cursor += cfg.batch_size
        acc_grads: Optional[dict] = None
        acc_count = 0
        for batch in micro:
            grads, loss_val = _batch_gradients(model, batch, params, drop_rng)
            losses.append(loss_val)
            if acc_grads is None:
                acc_grads = grads
            else:
                acc_grads = {n: acc_grads[n] + grads[n] for n in acc_grads}
            acc_count += 1
            if acc_count == cfg.accumulation_steps:
                opt.step({n: g / acc_count for n, g in acc_grads.items()})
                acc_grads, acc_count = None, 0
        if acc_count:
            opt.step({n: g / acc_count for n, g in acc_grads.items()})

        records = [{"epoch": epoch, "split": "train", "loss": float(np.mean(losses))}]
        if val_set:
            vm = evaluate(model, val_set, normalized=True)
            records.append({"epoch": epoch, "split": "val", "loss": None,
                            **vm.as_dict()})
            # ties go to the later epoch: small carve-outs saturate early
            if vm.accuracy >= best[0]:
                best = (vm.accuracy, epoch, model.snapshot())
        for record in records:
            log.append(record)
            if log_cb:
                log_cb(record)

    if best[2] is not None:
        model.restore(best[2])
        best_epoch = best[1]
    else:
        best_epoch = cfg.epochs

    if test_subjects:
        metrics = evaluate(model, test_subjects)
        final = {"epoch": best_epoch, "split": "test", "loss": None,
                 **metrics.as_dict()}
        log.append(final)
        if log_cb:
            log_cb(final)
    else:
        metrics = evaluate(model, fit_set, normalized=True)
    return RunResult(metrics=metrics, log=log, best_epoch=best_epoch,
                     param_report=model.param_report())


def run_variant(variant: str, dataset: DatasetSplit, train_cfg: TrainConfig,
                model_cfg: ModelConfig,
                log_cb: Optional[Callable[[dict], None]] = None) -> RunResult:
    """Train and evaluate one ablation variant on a dataset split."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; options: {VARIANTS}")
    cfg = replace(variant_config(model_cfg, variant), param_seed=train_cfg.seed + 1)
    model = BrainSequenceClassifier(cfg)
    return train_model(model, dataset.train, train_cfg, log_cb=log_cb,
                       test_subjects=dataset.test)


def ablation_summary_csv(rows: list[dict]) -> str:
    """Variant-by-metric summary shaped like a comparison table."""
    header = "variant,accuracy,precision,recall,f1"
    lines = [header]
    for row in rows:
        lines.append(f"{row['variant']},{row['accuracy']:.4f},{row['precision']:.4f},"
                     f"{row['recall']:.4f},{row['f1']:.4f}")
    return "\n".join(lines) + "\n"


def write_jsonl(path, records: list) -> None:
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
