"""Record the decision digest of every shipped loop-cell seed.

Run from the repository root after a change that is *meant* to alter
what PREPARE decides (never to make a failing benchmark pass)::

    python3 perfbench/record_digests.py [--workload cell50_leak ...]

Writes ``perfbench/digests.json``: per workload and cell seed, the
SHA-256 of the cell's decisions and its SLO violation seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.loop import DIGESTS, LOOP_WORKLOADS, run_cell  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(LOOP_WORKLOADS))
    args = parser.parse_args()
    table = {}
    if DIGESTS.exists():
        table = json.loads(DIGESTS.read_text())
    for workload in args.workload or sorted(LOOP_WORKLOADS):
        spec = LOOP_WORKLOADS[workload]
        rows = {}
        for seed in range(1, spec.pool + 1):
            cell = run_cell(spec, seed)
            rows[str(seed)] = {"digest": cell.digest,
                               "violation_s": cell.violation_s}
            print(f"{workload} seed {seed}: {cell.wall_s:.2f} s wall, "
                  f"{cell.violation_s:.0f} s violation", flush=True)
        table[workload] = rows
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
