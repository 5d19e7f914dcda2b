"""End-to-end and per-layer benchmark of the PREPARE loop and serving stack.

Entry point: ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0|1`` from the repository root.  See ``perfbench/README.md``.
"""

from pathlib import Path

#: the workloads and the metrics each run reports, with their bounds
BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
