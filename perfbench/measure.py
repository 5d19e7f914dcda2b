"""Measurement primitives shared by every workload.

Pure helpers (percentiles, the Poisson arrival schedule, self-time
arithmetic) plus the span tracer the traced runs install around the
program's public calls.  Nothing here imports the program under test.
"""

from __future__ import annotations

import math
import os
import platform
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = [
    "Patches", "StealMeter", "Tracer", "host_fingerprint", "median",
    "percentile", "poisson_schedule", "summarize_spans", "wait_for_quiet_host",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` % at or below.

    ``q`` is in (0, 100].  The p99 of 1000 values is the 990th smallest,
    so ten values lie beyond it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def poisson_schedule(
    rate: float, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival offsets (seconds from step start) of a Poisson process.

    Exponential gaps at mean ``1 / rate``, truncated to ``[0, duration)``.
    The same generator state gives the same schedule.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    # Draw with headroom, then top up in the rare case it was not enough.
    gaps = rng.exponential(1.0 / rate, int(rate * duration * 1.2) + 16)
    times = np.cumsum(gaps)
    while times[-1] < duration:
        more = rng.exponential(1.0 / rate, int(rate * duration * 0.2) + 16)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times < duration]


def host_fingerprint() -> Dict[str, object]:
    """What a later A/B comparison needs to know about this host."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class StealMeter:
    """Share of CPU time the hypervisor stole from this VM since creation.

    Reads the ``steal`` column of ``/proc/stat``; on a host without it
    the share is 0.  Steal is what other tenants take from a shared
    host, and it shows as latency spikes in every process here.
    """

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read():
        try:
            with open("/proc/stat") as fh:
                fields = [int(v) for v in fh.readline().split()[1:9]]
        except (OSError, ValueError):
            return 0, 0
        return fields[7], sum(fields)

    def share(self) -> float:
        steal, total = self._read()
        elapsed = total - self._start[1]
        return (steal - self._start[0]) / elapsed if elapsed > 0 else 0.0


def wait_for_quiet_host(
    threshold: float = 0.08, probe_s: float = 1.0, max_wait_s: float = 10.0
) -> Dict[str, float]:
    """Wait, up to ``max_wait_s``, for a probe with little CPU steal.

    Other tenants steal CPU time in spells that last minutes; a run that
    starts in one measures them rather than the program.  Returns the
    seconds waited and the last probe's steal share.
    """
    start = time.perf_counter()
    while True:
        meter = StealMeter()
        time.sleep(probe_s)
        share = meter.share()
        waited = time.perf_counter() - start
        if share < threshold or waited >= max_wait_s:
            return {"waited_s": waited, "steal_share": share}


def summarize_spans(
    spans: Iterable[Sequence],
) -> Dict[str, Dict[str, float]]:
    """Per-name ``calls``, ``busy_s`` and ``self_s`` from raw spans.

    A span is ``(name, start, end, parent_index)`` with ``-1`` for a
    root; children are nested inside their parent's interval.  Self
    time is a span's duration minus the time its children cover.  Busy
    time counts a span only when no ancestor has the same name, so a
    re-entrant call is not counted twice.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        duration = end - start
        row["calls"] += 1
        row["self_s"] += duration - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["busy_s"] += duration
    return out


class Tracer:
    """In-memory span recorder with parent links.

    Spans are ``[name, start, end, parent_index]`` lists appended at
    entry; the program's calls being traced are synchronous, so a stack
    gives the parent.  ``counts`` holds plain event counters recorded at
    the same boundaries.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_return: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` recorded as a span named ``name``.

        ``on_return(tracer, args, result)`` runs after a successful call
        and may add to :attr:`counts`.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(
        self,
        fn: Callable,
        on_return: Callable[["Tracer", tuple, object], None],
    ) -> Callable:
        """``fn`` with an event counter but no span (for cheap hot calls)."""

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_return(self, args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def summary(self) -> Dict[str, Dict[str, float]]:
        return summarize_spans(self.spans)


class Patches:
    """Attribute replacements that are undone on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]):
        """Set ``owner.attr`` to ``make(original)``."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._saved.append((owner, attr, original, own))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # was inherited: uncover it again

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
