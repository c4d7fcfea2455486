"""Loss, optimizer, metrics, the training loop, and the ablation matrix."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict, replace
from typing import Callable, Optional

import numpy as np

from . import tensor as tt
from .align import classify
from .config import ALIGN_MODES, BACKBONES, ModelConfig, TrainConfig
from .data import LABELS, DatasetSplit, normalize_zscore
from .errors import ConfigError, EvaluationError, NumericsError
from .model import BrainSequenceClassifier, variant_config
from .rng import CounterRng
from .tensor import Tape, Tensor

VARIANTS = ("full", "static_graph", "frozen_llm",
            *(f"backbone:{name}" for name in BACKBONES),
            *(f"align:{mode}" for mode in ALIGN_MODES))

_LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}   # logit order
_EVAL_SEED = 0x9E   # subject i's evaluation forward draws from child i (align:random)


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
    """Negative log-likelihood of the true class, numerically stabilized.

    ``label`` is a name in ``LABELS`` or an index into it; anything else is
    a ConfigError.
    """
    idx = _LABEL_INDEX.get(label) if isinstance(label, str) else label
    if (isinstance(idx, bool) or not isinstance(idx, (int, np.integer))
            or not 0 <= idx < len(LABELS)):
        raise ConfigError(f"cannot score label {label!r}: expected one of {LABELS} "
                          f"or an index below {len(LABELS)}")
    if logits.shape != (2,):
        raise ConfigError(f"cross_entropy expects 2 logits, got shape {logits.shape}")
    return -tt.log_softmax(logits)[idx]


class Adam:
    """Bias-corrected Adam over one vector that holds every parameter.

    The parameters are concatenated, in the dict's order, into ``flat``, and
    each Tensor's ``.data`` becomes a view of its slice; ``m`` and ``v`` share
    that layout. While an ``Adam`` holds the parameters, nothing rebinds
    their ``.data``: a write goes into it (``data[...] = ...``), or the tensor
    and the optimizer part ways.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.names = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        sizes = [t.data.size for t in params.values()]
        self.ends = np.cumsum(sizes)   # parameter i holds flat[ends[i] - sizes[i]:ends[i]]
        self.flat = np.concatenate([t.data.ravel() for t in params.values()])
        for t, end, size in zip(params.values(), self.ends, sizes):
            t.data = self.flat[end - size:end].reshape(t.data.shape)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update from a gradient per parameter; a non-finite one changes nothing."""
        g = np.concatenate([np.ravel(grads[name]) for name in self.names])
        finite = np.isfinite(g)
        if not finite.all():
            name = self.names[np.searchsorted(self.ends, np.argmin(finite), side="right")]
            raise NumericsError(f"NaN/Inf gradient for parameter {name!r} "
                                f"at step {self.step_count + 1}")
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        self.m = b1 * self.m + (1 - b1) * g
        self.v = b2 * self.v + (1 - b2) * (g * g)
        self.flat -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


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


def _require_labels(subjects: list) -> None:
    """Raise EvaluationError naming the first subject whose label is not ASD or TC."""
    unusable = next((s for s in subjects if s.label not in _LABEL_INDEX), None)
    if unusable is not None:
        raise EvaluationError(f"subject {unusable.subject_id} has no usable label: "
                              f"{unusable.label!r}")


def evaluate(model: BrainSequenceClassifier, subjects: list,
             normalized: bool = False) -> Metrics:
    """Deterministic inference pass -> confusion counts and derived metrics.

    Unless ``normalized``, each subject is z-scored just before its own
    forward, so one normalized copy is live at a time, not one per subject.
    Every label must be ASD or TC; the first that is not is rejected before
    any forward runs.
    """
    if not subjects:
        raise EvaluationError("cannot evaluate an empty split")
    _require_labels(subjects)
    tp = fp = fn = tn = 0
    base = CounterRng(_EVAL_SEED)
    for i, subject in enumerate(subjects):
        values = (subject if normalized else normalize_zscore(subject)).values
        logits = model.forward(values, training=False, rng=base.child(i))
        label, _ = classify(logits)
        predicted = label == LABELS[0]
        if subject.label == LABELS[0]:
            tp += predicted
            fn += not predicted
        else:
            fp += predicted
            tn += not predicted
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

    The first ``round(val_fraction * n)`` subjects (at least one) of one
    seeded shuffle are held out to select the checkpoint, with no regard to
    class; with 3 or fewer subjects none are. Per-epoch records go to
    ``log_cb`` and the returned log. A label that is not ASD or TC is
    rejected before the first step.
    """
    cfg.validate()
    _require_labels(train_subjects + list(test_subjects or []))
    rng = CounterRng(cfg.seed)
    train_subjects = [normalize_zscore(s) for s in train_subjects]
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
    best = (-1.0, 0, None)   # (val accuracy, epoch, copy of opt.flat)
    for epoch in range(1, cfg.epochs + 1):
        epoch_order = order_rng.shuffle(fit_set)
        losses = []
        acc_grads: Optional[dict] = None
        acc_count = 0
        for start in range(0, len(epoch_order), cfg.batch_size):
            batch = epoch_order[start:start + cfg.batch_size]
            grads, loss_val = _batch_gradients(model, batch, params, drop_rng)
            losses.append(loss_val)
            acc_grads = grads if acc_grads is None else {n: acc_grads[n] + grads[n]
                                                         for n in acc_grads}
            acc_count += 1
            last = start + cfg.batch_size >= len(epoch_order)
            if acc_count == cfg.accumulation_steps or last:
                opt.step({n: g / acc_count for n, g in acc_grads.items()})
                acc_grads, acc_count = None, 0

        records = [{"epoch": epoch, "split": "train", "loss": float(np.mean(losses))}]
        if val_set:
            vm = evaluate(model, val_set, normalized=True)
            records.append({"epoch": epoch, "split": "val", "loss": None,
                            **vm.as_dict()})
            # ties go to the later epoch: small carve-outs saturate early
            if vm.accuracy >= best[0]:
                best = (vm.accuracy, epoch, opt.flat.copy())
        for record in records:
            log.append(record)
            if log_cb:
                log_cb(record)

    # frozen arrays, and frozen_llm's adapters, never change: only opt.flat goes back
    if best[2] is not None:
        opt.flat[:] = best[2]
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
