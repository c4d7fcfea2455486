"""Benchmark entry point for dynssm.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 25 --trace 0

Runs one workload from the source tree next to this directory (``src/``) and
prints, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones. The lines before it give the environment
and the workload's own figures; the same data, and with ``--trace 1`` every
span, is saved under ``bench/out/``. See README.md.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dynssm" / "__init__.py").is_file():
        print(f"bench: no dynssm source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    run = Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), workdir=workdir)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    metrics = run.layers if args.trace else run.metrics
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": run.correct,
              "attempted": run.attempted, "failed": run.failed,
              "checks": [{"ok": ok, "detail": d} for ok, d in run.results],
              "figures": run.figures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
              "layers": {k: {"value": v, "unit": u} for k, (v, u) in run.layers.items()}}
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        (OUT / "spans").mkdir(exist_ok=True)
        run.rec.dump(OUT / "spans" / f"{stem}.jsonl")

    print("environment " + json.dumps(env, sort_keys=True))
    for ok, detail in run.results:
        if not ok:
            print(f"FAILED check: {detail}")
    for line in run.figures:
        print(line)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
