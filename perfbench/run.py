"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload cell50_leak --seed 1 \
        --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
a separate run with spans around each layer's public calls, reporting the
per-layer metrics.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The full record, with
every raw value and the host fingerprint, is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: one BLAS/OpenMP thread in this process and every child
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LOOP = ("cell50_leak",)
SERVING = ("serve200_poisson", "fabric200_poisson")


def _child_env():
    env = dict(os.environ)
    for var in THREAD_PINS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=LOOP + SERVING)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    # A terminated run still stops the server it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = _child_env()
    os.environ.update({var: env[var] for var in THREAD_PINS})
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench import BENCHMARK_FILE
    from perfbench.measure import host_fingerprint, wait_for_quiet_host

    spec = json.loads(BENCHMARK_FILE.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    results_dir = ROOT / ".perfbench" / "results"
    quiet = wait_for_quiet_host()
    if args.workload in LOOP:
        from perfbench import loop
        record = loop.run(args.workload, args.seed, args.seconds,
                          bool(args.trace), env)
    else:
        from perfbench import serving
        workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
        try:
            record = serving.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), env, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    values = record["layers" if args.trace else "metrics"]
    metrics = {}
    for metric in wanted:
        # Layers a workload never calls report zero; every workload
        # measures every end-to-end metric.
        value = (values.get(metric["name"], 0.0) if args.trace
                 else values[metric["name"]])
        metrics[metric["name"]] = {"value": float(value),
                                   "unit": metric["unit"]}
    result = {
        "correct": record["failed"] == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_fingerprint(), "quiet_wait": quiet,
              "raw": record["raw"]}
    out = results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, default=float) + "\n")
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
