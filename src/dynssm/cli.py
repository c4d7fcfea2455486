"""Command-line entry point.

Subcommands: generate-data, train, evaluate, ablate, scan-bench, gradcheck,
report. Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .config import _PROFILES, resolve_config, validate_data
from .errors import (ConfigError, ContentError, ContractError, EvaluationError, LengthError,
                     NumericsError, OracleError, ParseError, ShapeError, SplitError)

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERIC_EXIT = 3

DEFAULT_THREADS = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _thread_count(text: str) -> int:
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {threads}")
    return threads


# The flags that several subcommands share; each subcommand adds the ones it reads.
_FLAGS = {
    "--config": dict(help="JSON config file"),
    "--set": dict(dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                  help="dotted config override (repeatable)"),
    "--seed": dict(type=int, default=None,
                   help="run seed (falls back to DYNS_SEED, then config)"),
    "--profile": dict(choices=list(_PROFILES), default=None),
    "--threads": dict(type=_thread_count, default=DEFAULT_THREADS,
                      help=f"BLAS thread count (default {DEFAULT_THREADS})"),
    "--out": dict(help="output directory"),
    "--quiet": dict(action="store_true", help="suppress progress output"),
    "--json": dict(dest="json_out", action="store_true", help="machine-readable stdout"),
}


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def build_parser() -> _Parser:
    parser = _Parser(prog="dynssm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="write a synthetic dataset + manifest")
    _add_flags(p, "--config", "--set", "--seed", "--threads", "--out", "--quiet", "--json")
    p.add_argument("--null", action="store_true",
                   help="null-signal dataset (identical class templates)")

    p = sub.add_parser("train", help="train the full pipeline")
    _add_flags(p, "--config", "--set", "--seed", "--profile", "--threads", "--out",
               "--quiet", "--json")
    p.add_argument("--data", help="dataset manifest (default: in-memory synthetic)")
    p.add_argument("--variant", default=None, help="run variant (default: full)")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--save-epochs", action="store_true",
                   help="write a checkpoint after every epoch")

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    _add_flags(p, "--threads", "--out", "--quiet", "--json")
    p.add_argument("--run", required=True, help="run directory (config + checkpoint)")
    p.add_argument("--data", help="dataset manifest (default: run's synthetic config)")
    p.add_argument("--checkpoint", help="checkpoint override (default: final)")

    p = sub.add_parser("ablate", help="run the variant matrix and summarize")
    _add_flags(p, "--config", "--set", "--seed", "--profile", "--threads", "--out",
               "--quiet", "--json")
    p.add_argument("--data", help="dataset manifest (default: in-memory synthetic)")
    p.add_argument("--variants",
                   default="full,static_graph,frozen_llm,align:meanpool,align:random,align:none",
                   help="comma-separated variant list")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)

    p = sub.add_parser("scan-bench", help="time both scan backends")
    _add_flags(p, "--config", "--set", "--seed", "--threads", "--out", "--quiet")
    p.add_argument("--lengths", default="256,512,1024,2048")
    p.add_argument("--d-h", type=int, default=32)
    p.add_argument("--repeats", type=int, default=20)

    p = sub.add_parser("gradcheck", help="finite-difference sweep over every op")
    _add_flags(p, "--config", "--set", "--seed", "--threads", "--quiet", "--json")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--only", help="comma-separated check names")

    p = sub.add_parser("report", help="aggregate run logs into plot-ready CSV")
    _add_flags(p, "--out", "--quiet")
    p.add_argument("runs", nargs="+", help="run directories containing logs.jsonl")
    return parser


def _pin_threads(argv: list[str]) -> None:
    # Must happen before numpy is imported anywhere in this process, so it
    # reads --threads from argv itself; config.resolved records the same value.
    threads = DEFAULT_THREADS
    for i, a in enumerate(argv):
        if a == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif a.startswith("--threads="):
            threads = a.split("=", 1)[1]
    try:
        threads = _thread_count(threads)
    except argparse.ArgumentTypeError:
        return   # the parser rejects the value as a usage error
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _resolve(args) -> dict:
    seed = args.seed
    env_seed = os.environ.get("DYNS_SEED")
    if seed is None and env_seed:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"DYNS_SEED must be an integer, got {env_seed!r}") from None
    cfg = resolve_config(config_path=args.config, overrides=args.overrides,
                         profile=getattr(args, "profile", None), seed=seed)
    validate_data(cfg["data"])   # before any template is built or any file is written
    cfg["threads"] = args.threads
    if getattr(args, "variant", None):
        cfg["variant"] = args.variant
    if getattr(args, "epochs", None) is not None:
        cfg["train"]["epochs"] = args.epochs
    if getattr(args, "lr", None) is not None:
        cfg["train"]["learning_rate"] = args.lr
    return cfg


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _emit(args, payload: dict) -> None:
    if args.json_out:
        print(json.dumps(payload, sort_keys=True))


def _run_dir(args, cfg: dict) -> Path:
    if args.out:
        path = Path(args.out)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = Path("run") / f"{stamp}-s{cfg['seed']}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_resolved(cfg: dict, out_dir: Path) -> None:
    from . import __version__
    resolved = {**cfg, "version": __version__}
    (out_dir / "config.resolved").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path, text: str | None = None, line: int | None = None) -> dict:
    """One JSON object from ``path`` (or from its line ``line``, given as ``text``)."""
    try:
        value = json.loads(path.read_text() if text is None else text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e})", line=line)
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected a JSON object", line=line)
    return value


def _require_keys(value: dict, template: dict, path: Path, prefix: str = "") -> None:
    """Raise ParseError naming the first key of ``template`` missing from ``value``."""
    for key, sub in template.items():
        if key not in value:
            raise ParseError(f"{path}: missing key {prefix}{key}")
        if isinstance(sub, dict):
            if not isinstance(value[key], dict):
                raise ParseError(f"{path}: key {prefix}{key} must be an object")
            _require_keys(value[key], sub, path, f"{prefix}{key}.")


def _synth_split(cfg: dict, null: bool = False):
    from .data import default_synth_spec, null_synth_spec, split_dataset, synth_generate
    d = cfg["data"]
    make_spec = null_synth_spec if null else default_synth_spec
    spec = make_spec(seed=cfg["seed"], n_rois=d["n_rois"], length=d["length"],
                     subjects_per_class=d["subjects_per_class"], separation=d["separation"],
                     switch_rate=d["switch_rate"], noise_std=d["noise_std"])
    subjects = synth_generate(spec)
    return spec, subjects, split_dataset(subjects, d["train_fraction"], seed=cfg["seed"])


def _split(cfg: dict, manifest):
    """The split a command runs on: the manifest's subjects if given, else synthetic ones."""
    if not manifest:
        return _synth_split(cfg)[2]
    from .data import load_dataset, split_dataset
    return split_dataset(load_dataset(manifest), cfg["data"]["train_fraction"], seed=cfg["seed"])


def _require_kernel_length(subjects: list, model_cfgs) -> None:
    """ContentError naming the first subject shorter than a brain-path model's conv kernel."""
    for model_cfg in model_cfgs:
        if not model_cfg.uses_brain:
            continue
        short = next((s for s in subjects if s.length < model_cfg.kernel_size), None)
        if short is not None:
            raise ContentError(f"subject {short.subject_id} has {short.length} time points, "
                               f"fewer than kernel_size={model_cfg.kernel_size}")


def cmd_generate_data(args) -> int:
    cfg = _resolve(args)
    from .data import save_dataset
    spec, subjects, _ = _synth_split(cfg, null=args.null)
    out_dir = Path(args.out) if args.out else Path(f"dataset-s{cfg['seed']}")
    manifest = save_dataset(out_dir, subjects, spec)
    _say(args, f"wrote {len(subjects)} subjects to {out_dir}")
    _emit(args, {"manifest": str(manifest), "subjects": len(subjects)})
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    from .config import build_model_config, build_train_config
    from .model import BrainSequenceClassifier, variant_config
    from .training import train_model, write_jsonl

    train_cfg = build_train_config(cfg)
    train_cfg.validate()   # fail on bad config or data before touching the filesystem
    split = _split(cfg, args.data)
    model_cfg = variant_config(build_model_config(cfg, split.train[0].n_rois), cfg["variant"])
    model_cfg.validate()
    _require_kernel_length(split.train + split.test, [model_cfg])

    out_dir = _run_dir(args, cfg)
    _write_resolved(cfg, out_dir)
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    model = BrainSequenceClassifier(model_cfg)

    records = []
    def log_cb(rec):
        records.append(rec)
        _say(args, json.dumps(rec, sort_keys=True))
        if args.save_epochs and rec["split"] == "train":
            model.save(ckpt_dir / f"epoch{rec['epoch']:03d}.dyns")

    result = train_model(model, split.train, train_cfg, log_cb=log_cb,
                         test_subjects=split.test)
    model.save(ckpt_dir / "final.dyns")
    write_jsonl(out_dir / "logs.jsonl", result.log)
    metrics = {"variant": cfg["variant"], "seed": cfg["seed"],
               "best_epoch": result.best_epoch, **result.metrics.as_dict(),
               "params": result.param_report}
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    _say(args, f"test accuracy {result.metrics.accuracy:.4f} -> {out_dir}")
    _emit(args, metrics)
    return 0


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run)
    resolved_path = run_dir / "config.resolved"
    if not resolved_path.exists():
        raise FileNotFoundError(f"{resolved_path} not found")
    from .config import build_model_config, default_config
    cfg = _read_json(resolved_path)
    _require_keys(cfg, default_config(), resolved_path)
    from .model import BrainSequenceClassifier, variant_config
    from .training import evaluate

    subjects = _split(cfg, args.data).test
    n_rois = subjects[0].n_rois
    model_cfg = variant_config(build_model_config(cfg, n_rois), cfg["variant"])
    _require_kernel_length(subjects, [model_cfg])
    model = BrainSequenceClassifier(model_cfg)
    ckpt = Path(args.checkpoint) if args.checkpoint else run_dir / "checkpoints" / "final.dyns"
    model.load(ckpt)
    metrics = evaluate(model, subjects)
    payload = {"checkpoint": str(ckpt), **metrics.as_dict()}
    out = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(out + "\n")
    _say(args, out)
    _emit(args, payload)
    return 0


def cmd_ablate(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError(f"--variants names no variant, got {args.variants!r}")
    cfg = _resolve(args)
    from .config import build_model_config, build_train_config
    from .model import variant_config
    from .training import ablation_summary_csv, run_variant, write_jsonl

    train_cfg = build_train_config(cfg)
    train_cfg.validate()   # fail on bad config or data before touching the filesystem
    split = _split(cfg, args.data)
    base_model_cfg = build_model_config(cfg, split.train[0].n_rois)
    base_model_cfg.validate()
    variant_cfgs = [variant_config(base_model_cfg, v) for v in variants]
    for variant_cfg in variant_cfgs:   # a variant can change the backbone or the alignment
        variant_cfg.validate()
    _require_kernel_length(split.train + split.test, variant_cfgs)
    out_dir = _run_dir(args, cfg)
    _write_resolved(cfg, out_dir)

    rows = []
    for variant in variants:
        result = run_variant(variant, split, train_cfg, base_model_cfg)
        write_jsonl(out_dir / f"logs-{variant.replace(':', '_')}.jsonl", result.log)
        rows.append({"variant": variant, **result.metrics.as_dict()})
        _say(args, f"{variant}: accuracy {result.metrics.accuracy:.4f}")
    csv_text = ablation_summary_csv(rows)
    (out_dir / "summary.csv").write_text(csv_text)
    _emit(args, {"summary": rows})
    _say(args, f"summary -> {out_dir / 'summary.csv'}")
    return 0


def cmd_scan_bench(args) -> int:
    try:
        lengths = [int(v) for v in args.lengths.split(",")]
    except ValueError:
        lengths = []
    if not lengths or min(lengths) < 1:
        raise ConfigError(f"--lengths must be comma-separated positive integers, "
                          f"got {args.lengths!r}")
    repeats = args.repeats
    if repeats < 1:
        raise ConfigError(f"--repeats must be at least 1, got {repeats}")
    cfg = _resolve(args)
    import numpy as np
    from .rng import CounterRng
    from .ssm import SsmParams, scan_parallel, scan_sequential

    rng = CounterRng(cfg["seed"])
    params = SsmParams.create(rng, d_in=cfg["data"]["n_rois"], d_h=args.d_h, block_count=1)
    lines = ["T,backend,median_ns,p10_ns,p90_ns"]
    for T in lengths:
        x = CounterRng(T).normal((T, cfg["data"]["n_rois"]))
        for backend, fn in (("sequential", scan_sequential), ("parallel", scan_parallel)):
            fn(x, params)   # warmup
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                fn(x, params)
                samples.append(time.perf_counter_ns() - t0)
            med, p10, p90 = (int(np.percentile(samples, q)) for q in (50, 10, 90))
            lines.append(f"{T},{backend},{med},{p10},{p90}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        if out.suffix:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(csv_text)
        else:
            out.mkdir(parents=True, exist_ok=True)
            (out / "scan-bench.csv").write_text(csv_text)
    _say(args, csv_text.rstrip())
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _resolve(args)
    from .gradcheck import run_gradcheck
    only = args.only.split(",") if args.only is not None else None
    results = run_gradcheck(seeds=args.seeds, base_seed=cfg["seed"], only=only)
    failed = False
    for name, err in results.items():
        ok = err < args.tol   # False for a NaN error or tolerance, so FAIL
        failed = failed or not ok
        _say(args, f"{'ok' if ok else 'FAIL':4s} {name:24s} max_rel_err={err:.3e}")
    _emit(args, {"tol": args.tol, "results": {k: float(v) for k, v in results.items()}})
    return NUMERIC_EXIT if failed else 0


def cmd_report(args) -> int:
    columns = ("epoch", "split", "loss", "accuracy", "precision", "recall", "f1")
    lines = [",".join(("run",) + columns)]

    def fmt(v):
        return "" if v is None else f"{v:.6f}" if isinstance(v, float) else str(v)
    for run in args.runs:
        log_path = Path(run) / "logs.jsonl"
        if not log_path.exists():
            raise FileNotFoundError(f"{log_path} not found")
        for lineno, raw in enumerate(log_path.read_text().splitlines(), start=1):
            rec = _read_json(log_path, raw, lineno)
            lines.append(",".join([Path(run).name] + [fmt(rec.get(c)) for c in columns]))
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv_text)
    _say(args, csv_text.rstrip())
    return 0


_HANDLERS = {
    "generate-data": cmd_generate_data,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "scan-bench": cmd_scan_bench,
    "gradcheck": cmd_gradcheck,
    "report": cmd_report,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_threads(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, ContractError, ShapeError, LengthError) as e:
        print(f"dynssm: {e}", file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, ContentError, SplitError, EvaluationError,
            FileNotFoundError) as e:
        print(f"dynssm: {e}", file=sys.stderr)
        return DATA_EXIT
    except (NumericsError, OracleError) as e:
        print(f"dynssm: {e}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
