"""Ingestion, normalization, splitting, and synthetic two-class generation.

The synthetic generator plants class-specific connectivity: each subject
follows a hidden Markov regime sequence, and the active regime selects a
correlation template from which each time step's observation is drawn
(template-correlated Gaussian plus white noise). Everything is reproducible
from the dataset seed via the counter-based generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, ContentError, ParseError, SplitError
from .rng import CounterRng

LABELS = ("ASD", "TC")


@dataclass
class RoiTimeSeries:
    subject_id: str
    values: np.ndarray            # (T, N), time-major
    label: Optional[str] = None   # "ASD" | "TC" | None

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_rois(self) -> int:
        return self.values.shape[1]


@dataclass
class DatasetSplit:
    train: list
    test: list


@dataclass
class SynthSpec:
    """Recipe for one synthetic dataset; same seed, same bytes."""

    n_rois: int
    length: int
    subjects_per_class: int
    class_templates: dict            # label -> list of (N, N) templates
    switch_rate: float = 2.0         # expected regime switches per scan
    noise_std: float = 0.3
    seed: int = 0
    allow_identical_classes: bool = False   # explicit opt-in for null-signal data
    separation: Optional[float] = None      # set when the templates are the default ones

    def validate(self) -> None:
        if self.n_rois < 2 or self.length < 2 or self.subjects_per_class < 1:
            raise ConfigError("n_rois >= 2, length >= 2, subjects_per_class >= 1 required")
        for key in ("switch_rate", "noise_std"):
            value = getattr(self, key)
            if not 0.0 <= value < math.inf:   # NaN fails too
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if set(self.class_templates) != set(LABELS):
            raise ConfigError(f"templates must cover classes {LABELS}")
        for label, templates in self.class_templates.items():
            if not templates:
                raise ConfigError(f"class {label} has no templates")
            for i, g in enumerate(templates):
                g = np.asarray(g)
                if g.shape != (self.n_rois, self.n_rois):
                    raise ConfigError(f"{label} template {i} has shape {g.shape}, "
                                      f"expected ({self.n_rois}, {self.n_rois})")
                if not np.allclose(g, g.T, atol=1e-12):
                    raise ConfigError(f"{label} template {i} is not symmetric")
                if not np.allclose(np.diag(g), 1.0, atol=1e-12):
                    raise ConfigError(f"{label} template {i} does not have a unit diagonal")
        if not self.allow_identical_classes:
            a = np.stack([np.asarray(g) for g in self.class_templates["ASD"]])
            b = np.stack([np.asarray(g) for g in self.class_templates["TC"]])
            if a.shape == b.shape and float(np.linalg.norm(a - b)) == 0.0:
                raise ConfigError("class templates are identical; set "
                                  "allow_identical_classes for a null-signal dataset")


def load_roi_csv(path, subject_id: Optional[str] = None) -> RoiTimeSeries:
    """Parse a time-major ROI CSV with a roi_0..roi_{N-1} header."""
    path = Path(path)
    with open(path, "r") as f:   # blank lines are skipped; each kept line keeps its number
        numbered = [(i, ln.rstrip("\n")) for i, ln in enumerate(f, start=1) if ln != "\n"]
    if not numbered:
        raise ParseError(f"{path}: empty file", line=1)
    header_line, header = numbered[0][0], numbered[0][1].split(",")
    n = len(header)
    expected = [f"roi_{i}" for i in range(n)]
    if header != expected:
        raise ParseError(f"{path}: header {header[:3]}... does not match roi_0..roi_{n-1}",
                         line=header_line)
    rows = [ln for _, ln in numbered[1:]]
    try:
        if not rows:   # loadtxt would warn that there is no data
            raise ValueError("no rows")
        values = np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        if values.shape != (len(rows), n):
            raise ValueError("field count")
    except ValueError:
        # float()'s rules (loadtxt rejects "1_0") and the first bad line's error
        values = _parse_rows(path, numbered[1:], n)
    if n < 2:
        raise ContentError(f"{path}: need at least 2 ROI columns, got {n}")
    if len(rows) < 3:
        raise ContentError(f"{path}: need at least 3 time points, got {len(rows)}")
    if not np.all(np.isfinite(values)):
        raise ContentError(f"{path}: non-finite values")
    return RoiTimeSeries(subject_id=subject_id or path.stem, values=values)


def _parse_rows(path: Path, rows: list, n: int) -> np.ndarray:
    """Parse (line number, line) pairs one by one; raises the first bad line's ParseError."""
    parsed = []
    for lineno, ln in rows:
        fields = ln.split(",")
        if len(fields) != n:
            raise ParseError(f"{path}: expected {n} fields, got {len(fields)}", line=lineno)
        try:
            parsed.append([float(v) for v in fields])
        except ValueError as e:
            raise ParseError(f"{path}: non-numeric field ({e})", line=lineno)
    return np.array(parsed, dtype=np.float64)


def write_roi_csv(path, values: np.ndarray) -> None:
    """Time-major CSV dump; floats written with repr so reloads are bit-exact."""
    values = np.asarray(values, dtype=np.float64)
    header = ",".join(f"roi_{i}" for i in range(values.shape[1]))
    body = "\n".join(",".join(repr(float(v)) for v in row) for row in values)
    Path(path).write_text(header + "\n" + body + "\n")


def normalize_zscore(ts: RoiTimeSeries) -> RoiTimeSeries:
    """Standardize each ROI column with the population (1/T) deviation.

    Constant columns map to all zeros instead of dividing by zero.
    """
    if ts.length < 2:
        raise ContentError(f"{ts.subject_id}: need T >= 2 to normalize, got {ts.length}")
    mu = ts.values.mean(axis=0)
    std = ts.values.std(axis=0)
    centered = ts.values - mu
    out = np.divide(centered, std, out=np.zeros_like(centered), where=std > 0.0)
    return RoiTimeSeries(subject_id=ts.subject_id, values=out, label=ts.label)


def split_dataset(subjects: list, train_fraction: float, seed: int) -> DatasetSplit:
    """Stratified subject-level shuffle split preserving class proportions."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    by_label: dict[str, list] = {}
    for s in subjects:
        if s.label not in LABELS:
            raise SplitError(f"subject {s.subject_id} has no usable label: {s.label!r}")
        by_label.setdefault(s.label, []).append(s)
    rng = CounterRng(seed).child(0x5B)
    train, test = [], []
    for label in LABELS:
        group = by_label.get(label, [])
        if len(group) < 2:
            raise SplitError(f"class {label} has {len(group)} subjects; need at least 2")
        group = sorted(group, key=lambda s: s.subject_id)
        shuffled = rng.shuffle(group)
        n_train = int(round(train_fraction * len(group)))
        n_train = min(max(n_train, 1), len(group) - 1)
        train.extend(shuffled[:n_train])
        test.extend(shuffled[n_train:])
    return DatasetSplit(train=train, test=test)


def _project_pd(template: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """Nearest-PD cleanup: clip eigenvalues, restore the unit diagonal."""
    sym = 0.5 * (template + template.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals.min() >= floor:
        return sym
    vals = np.maximum(vals, floor)
    fixed = (vecs * vals) @ vecs.T
    d = np.sqrt(np.diag(fixed))
    return fixed / np.outer(d, d)


def _cholesky_factors(spec: SynthSpec) -> dict:
    factors = {}
    for label, templates in spec.class_templates.items():
        per_label = []
        for i, g in enumerate(templates):
            pd = _project_pd(np.asarray(g, dtype=np.float64))
            try:
                per_label.append(np.linalg.cholesky(pd))
            except np.linalg.LinAlgError:
                raise ConfigError(f"{label} template {i} is not positive definite "
                                  "even after projection")
        factors[label] = per_label
    return factors


def synth_generate(spec: SynthSpec) -> list[RoiTimeSeries]:
    """Generate labelled subjects with planted regime-switching connectivity."""
    spec.validate()
    factors = _cholesky_factors(spec)
    base = CounterRng(spec.seed).child(0xDA)
    out = []
    switch_p = min(1.0, spec.switch_rate / max(spec.length - 1, 1))
    for label_idx, label in enumerate(LABELS):
        chol = factors[label]
        n_regimes = len(chol)
        for j in range(spec.subjects_per_class):
            rng = base.child(label_idx * 1_000_003 + j)
            regime = int(rng.integers(0, n_regimes))
            regimes = np.empty(spec.length, dtype=np.int64)
            u = rng.uniform((spec.length,))
            hop = rng.integers(1, max(n_regimes, 2), (spec.length,))
            for t in range(spec.length):
                if t > 0 and u[t] < switch_p and n_regimes > 1:
                    regime = (regime + int(hop[t])) % n_regimes
                regimes[t] = regime
            eps = rng.normal((spec.length, spec.n_rois))
            values = np.empty((spec.length, spec.n_rois))
            for r in range(n_regimes):
                mask = regimes == r
                if mask.any():
                    values[mask] = eps[mask] @ chol[r].T
            if spec.noise_std > 0:
                values = values + spec.noise_std * rng.normal((spec.length, spec.n_rois))
            out.append(RoiTimeSeries(subject_id=f"synth_{label.lower()}_{j:04d}",
                                     values=values, label=label))
    return out


def _community_template(n_rois: int, group_of, rho: float, background: float = 0.05) -> np.ndarray:
    g = np.full((n_rois, n_rois), background)
    for i in range(n_rois):
        for j in range(n_rois):
            if group_of(i) == group_of(j):
                g[i, j] = rho
    np.fill_diagonal(g, 1.0)
    return g


def default_class_templates(n_rois: int, separation: float = 0.5) -> dict:
    """Two regimes per class with distinct community layouts.

    ``separation`` in [0, 1] scales how strongly the within-community
    correlation differs between layouts; 0 still leaves regime dynamics.
    """
    if n_rois < 8:
        raise ConfigError(f"default templates need n_rois >= 8, got {n_rois}")
    if not 0.0 <= separation <= 1.0:
        raise ConfigError(f"separation must be in [0, 1], got {separation}")
    rho = 0.25 + 0.45 * separation
    rho2 = 0.8 * rho
    quarter = max(n_rois // 4, 1)
    half = n_rois // 2
    return {
        "ASD": [_community_template(n_rois, lambda i: i // quarter, rho),
                _community_template(n_rois, lambda i: i // half, rho2)],
        "TC": [_community_template(n_rois, lambda i: i % 4, rho),
               _community_template(n_rois, lambda i: i % 2, rho2)],
    }


def default_synth_spec(seed: int = 0, n_rois: int = 16, length: int = 128,
                       subjects_per_class: int = 40, separation: float = 0.5,
                       switch_rate: float = 2.0, noise_std: float = 0.3) -> SynthSpec:
    """The planted regime-switching dataset used by benchmarks and tests."""
    return SynthSpec(n_rois=n_rois, length=length, subjects_per_class=subjects_per_class,
                     class_templates=default_class_templates(n_rois, separation),
                     switch_rate=switch_rate, noise_std=noise_std, seed=seed,
                     separation=separation)


def null_synth_spec(**kwargs) -> SynthSpec:
    """default_synth_spec(**kwargs) with both classes on the ASD templates: no signal."""
    spec = default_synth_spec(**kwargs)
    shared = spec.class_templates["ASD"]
    return replace(spec, class_templates={"ASD": shared, "TC": [g.copy() for g in shared]},
                   allow_identical_classes=True)


def save_dataset(directory, subjects: list, spec: Optional[SynthSpec] = None) -> Path:
    """One CSV per subject plus a JSON manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for s in subjects:
        fname = f"{s.subject_id}.csv"
        write_roi_csv(directory / fname, s.values)
        entries.append({"subject_id": s.subject_id, "label": s.label, "path": fname})
    manifest = {"subjects": entries}
    if spec is not None:
        manifest["generator"] = {
            "n_rois": spec.n_rois, "length": spec.length,
            "subjects_per_class": spec.subjects_per_class,
            "switch_rate": spec.switch_rate, "noise_std": spec.noise_std,
            "seed": spec.seed, "separation": spec.separation,
        }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_dataset(manifest_path) -> list[RoiTimeSeries]:
    """Load every subject listed in a manifest written by save_dataset.

    Every subject must have the first subject's ROI count (ContentError).
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{manifest_path}: invalid JSON ({e})")
    entries = manifest.get("subjects", []) if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise ParseError(f"{manifest_path}: expected an object with a 'subjects' list")
    subjects = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and "subject_id" in entry
                and isinstance(entry.get("path"), str)):
            raise ParseError(f"{manifest_path}: subjects[{i}] needs a 'subject_id' and a "
                             f"'path' string")
        ts = load_roi_csv(manifest_path.parent / entry["path"],
                          subject_id=entry["subject_id"])
        ts.label = entry.get("label")
        if subjects and ts.n_rois != subjects[0].n_rois:
            raise ContentError(f"{manifest_path}: subject {ts.subject_id} has {ts.n_rois} "
                               f"ROIs, but {subjects[0].subject_id} has "
                               f"{subjects[0].n_rois}")
        subjects.append(ts)
    if not subjects:
        raise ContentError(f"{manifest_path}: manifest lists no subjects")
    return subjects
