"""Loop workloads: whole simulated PREPARE cells run in this process.

A cell is one :func:`repro.experiments.runner.run_experiment` call.  The
benchmark times it from outside: the whole call, split at the start of
each monitoring round (``cell_s``), every controller tick (the listener the controller hands to
``VMMonitor.add_listener``) and every monitoring round (collection
through the controller's return).  Each cell's decisions are hashed and
compared with the digest recorded for its seed in ``digests.json``.

Run as a script with ``--probe WORKLOAD`` it performs one cell set-up
(imports, testbed, scheme) and exits; the benchmark times that from
outside as ``setup_s``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: Passes of the anchor cell every run makes, however short ``--seconds``;
#: a set-up probe runs before each pass, and ``setup_s`` is the median probe
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class LoopSpec:
    app: str
    fault: str
    action_mode: str
    duration: float
    injections: int
    #: the cell seed every run times, the same work each run
    anchor: int
    #: shipped cell seeds are 1..pool, each with a recorded digest
    pool: int

    def seeded_cell(self, run_seed: int) -> int:
        """The run's extra cell seed, picked from the rest of the pool."""
        others = [s for s in range(1, self.pool + 1) if s != self.anchor]
        return others[run_seed % len(others)]


LOOP_WORKLOADS: Dict[str, LoopSpec] = {
    # Long per-VM history: retrain (localize + fit + refresh) dominates.
    "cell50_leak": LoopSpec(
        app="fleet50", fault="memory_leak", action_mode="scaling",
        duration=3600.0, injections=3, anchor=1, pool=16),
}


def experiment_config(spec: LoopSpec, seed: int):
    from repro.experiments.runner import ExperimentConfig
    from repro.faults.base import FaultKind

    return ExperimentConfig(
        app=spec.app, fault=FaultKind(spec.fault), scheme="prepare",
        action_mode=spec.action_mode, seed=seed, duration=spec.duration,
        injection_count=spec.injections,
    )


def _plain(value):
    """JSON fallback for numpy scalars in the fingerprint."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


def decision_digest(result) -> str:
    """SHA-256 over everything the loop decided.

    Violation accounting, the full action log and the SLO trace: a
    faster program must reproduce all of it exactly.
    """
    fingerprint = {
        "violation_time": result.violation_time,
        "per_injection": list(result.per_injection_violation),
        "proactive": result.proactive_actions,
        "actions": [
            [a.timestamp, a.vm, a.verb, str(a.resource), a.metric,
             a.proactive, a.completed, a.effective]
            for a in result.actions
        ],
        "trace_times": list(result.trace_times),
        "trace_values": list(result.trace_values),
    }
    blob = json.dumps(fingerprint, sort_keys=True, default=_plain)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CellRun:
    seed: int
    wall_s: float
    violation_s: float
    digest: str
    tick_s: List[float]
    round_s: List[float]
    #: the wall time split at the start of each monitoring round
    piece_s: List[float]
    samples: int
    #: per-layer span summary and counters (traced cells only)
    layers: Optional[Dict[str, Dict[str, float]]] = None
    counts: Optional[Dict[str, int]] = None
    effective_actions: int = 0
    actions: int = 0
    #: share of the host's CPU time stolen by other tenants meanwhile
    steal_share: float = 0.0


def _install_layer_spans(patches, tracer) -> None:
    """Spans around the public calls of every loop layer."""
    from repro.apps.fleet import UniformFleetApp
    from repro.core.actuation import PreventionActuator
    from repro.core.filtering import MajorityVoteFilter
    from repro.core.fleet import FleetScorer
    from repro.core.inference import CauseInference
    from repro.core.labeling import TrainingBuffer
    from repro.core.localization import DeviationLocalizer
    from repro.core.predictor import AnomalyPredictor
    from repro.core.tan import TANClassifier
    from repro.sim.engine import Simulator
    from repro.sim.hypervisor import Hypervisor

    def on_refresh(t, args, rebuilt_in_place):
        if not rebuilt_in_place:
            t.counts["fleet.refresh_rebuilds"] += 1

    def on_score(t, args, result):
        t.counts["fleet.scored_samples"] += len(args[1])

    def on_push(t, args, confirmed):
        if args[1]:
            t.counts["filtering.raw_alerts"] += 1
            if confirmed:
                t.counts["filtering.confirmed"] += 1

    def counter(key):
        def bump(t, args, result):
            t.counts[key] += 1
        return bump

    spans = [
        (Simulator, "run_until", "sim.run_until", None),
        (UniformFleetApp, "advance", "sim.advance", None),
        (TrainingBuffer, "append", "labeling.append", None),
        (DeviationLocalizer, "localize", "localization.localize", None),
        (AnomalyPredictor, "train", "predictor.train", None),
        (TANClassifier, "fit", "tan.fit", None),
        (FleetScorer, "refresh", "fleet.refresh", on_refresh),
        (FleetScorer, "score", "fleet.score", on_score),
        (FleetScorer, "classify_batch", "fleet.classify", None),
        (CauseInference, "diagnose", "inference.diagnose", None),
        (PreventionActuator, "prevent", "actuation.prevent", None),
    ]
    for owner, attr, name, hook in spans:
        patches.replace(
            owner, attr,
            lambda fn, name=name, hook=hook: tracer.wrap(name, fn, hook))
    counted = [
        (MajorityVoteFilter, "push", on_push),
        (Hypervisor, "scale", counter("hypervisor.scale_calls")),
        (Hypervisor, "migrate", counter("hypervisor.migrate_calls")),
    ]
    for owner, attr, hook in counted:
        patches.replace(
            owner, attr, lambda fn, hook=hook: tracer.count(fn, hook))


def run_cell(spec: LoopSpec, seed: int, traced: bool = False) -> CellRun:
    """Run one cell, timing it from outside; optionally with layer spans."""
    from repro.core.controller import PrepareController
    from repro.experiments.runner import run_experiment
    from repro.sim.monitor import VMMonitor

    from perfbench.measure import Patches, StealMeter, Tracer

    clock = time.perf_counter
    tracer = Tracer(clock) if traced else None
    ticks: List[float] = []
    rounds: List[float] = []
    round_starts: List[float] = []
    delivered = [0]

    def time_listener(listener):
        if tracer is not None:
            listener = tracer.wrap("controller.tick", listener)

        def timed(batch):
            start = clock()
            listener(batch)
            ticks.append(clock() - start)
            delivered[0] += len(batch)

        return timed

    def patch_add_listener(add_listener):
        def add(monitor, listener):
            if isinstance(getattr(listener, "__self__", None),
                          PrepareController):
                listener = time_listener(listener)
            return add_listener(monitor, listener)
        return add

    def patch_collect(collect):
        def timed_collect(monitor, now):
            start = clock()
            round_starts.append(start)
            collect(monitor, now)
            rounds.append(clock() - start)
        return timed_collect

    with Patches() as patches:
        patches.replace(VMMonitor, "add_listener", patch_add_listener)
        patches.replace(VMMonitor, "_collect", patch_collect)
        if tracer is not None:
            _install_layer_spans(patches, tracer)
        config = experiment_config(spec, seed)
        steal = StealMeter()
        start = clock()
        result = run_experiment(config)
        end = clock()

    edges = [start] + round_starts + [end]
    cell = CellRun(
        seed=seed, wall_s=end - start,
        violation_s=float(result.violation_time),
        digest=decision_digest(result), tick_s=ticks, round_s=rounds,
        piece_s=[b - a for a, b in zip(edges, edges[1:])],
        samples=delivered[0], actions=len(result.actions),
        effective_actions=sum(1 for a in result.actions if a.effective),
        steal_share=steal.share(),
    )
    if tracer is not None:
        cell.layers = tracer.summary()
        cell.counts = dict(tracer.counts)
    return cell


def load_digests(workload: str) -> Dict[int, str]:
    with open(DIGESTS) as fh:
        table = json.load(fh)[workload]
    return {int(seed): row["digest"] for seed, row in table.items()}


def probe_setup_seconds(workload: str, env: Dict[str, str]) -> float:
    """Wall seconds of one fresh-process cell set-up (imports + testbed).

    The wait for the probe blocks until it exits: a wait with a timeout
    polls, and would round the time up to the next 50 ms.  A watchdog
    kills a probe that runs past ``PROBE_TIMEOUT_S`` instead.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "loop.py"), "--probe", workload],
        env=env, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def best_metrics(passes: List[CellRun]) -> Dict[str, float]:
    """Time metrics of passes of one cell, each round at its fastest pass.

    A cell is deterministic: in every pass the k-th monitoring round does
    the same work on the same inputs, and a shared host only ever slows it
    down.  Each round's tick, its round latency and its piece of wall time
    (the wall time split at the start of each round) are taken at their
    fastest over the passes.  The percentiles come from those rounds and
    ``cell_s`` is the sum of the pieces.
    """
    from perfbench.measure import percentile

    best = {}
    for key in ("tick_s", "round_s", "piece_s"):
        series = [getattr(c, key) for c in passes]
        if len({len(s) for s in series}) != 1:
            raise RuntimeError("passes of the cell differ in their rounds")
        best[key] = [min(values) for values in zip(*series)]
    tick_ms = [1e3 * t for t in best["tick_s"]]
    round_ms = [1e3 * t for t in best["round_s"]]
    return {
        "cell_s": sum(best["piece_s"]),
        "tick_p50_ms": percentile(tick_ms, 50),
        "tick_p95_ms": percentile(tick_ms, 95),
        "latency_p50_ms": percentile(round_ms, 50),
        "latency_p99_ms": percentile(round_ms, 99),
        "capacity_per_s": passes[0].samples / sum(best["tick_s"]),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        env: Dict[str, str]) -> Dict:
    """Run one loop workload; returns the result record.

    Every run repeats passes of the workload's anchor cell, the same
    inputs each run, as many as ``seconds`` allow and at least
    ``MIN_PASSES``; the time metrics take each round at its fastest pass
    (see :func:`best_metrics`).  One more cell, whose seed ``seed`` picks,
    varies the inputs: every cell's decisions are checked, and
    ``violation_s`` is the median of the anchor's and that cell's.  A
    traced run pairs each anchor pass untraced with the same cell traced.
    """
    from perfbench.measure import median

    spec = LOOP_WORKLOADS[workload]
    digests = load_digests(workload)
    extra = spec.seeded_cell(seed)
    missing = [s for s in (spec.anchor, extra) if s not in digests]
    if missing:
        raise SystemExit(f"no recorded digest for {workload} seeds {missing}")

    setup: List[float] = []
    timed: List[CellRun] = []
    traced: List[CellRun] = []
    start = time.perf_counter()
    passes = 0
    while True:
        # Spread over the run, the probes see the same host as the passes.
        setup.append(probe_setup_seconds(workload, env))
        gc.collect()   # each cell starts from the same heap
        timed.append(run_cell(spec, spec.anchor))
        if trace:
            gc.collect()
            traced.append(run_cell(spec, spec.anchor, traced=True))
        passes += 1
        projected = (time.perf_counter() - start) * (passes + 1) / passes
        if passes >= MIN_PASSES and projected > seconds:
            break
    seeded = None if trace else run_cell(spec, extra)

    checked = timed + traced + ([seeded] if seeded else [])
    failed = sum(1 for c in checked if c.digest != digests[c.seed])
    record = {
        "attempted": len(checked),
        "failed": failed,
        "raw": {
            "cells": [
                {"seed": c.seed, "digest_ok": c.digest == digests[c.seed],
                 "traced": c.layers is not None, "cell_s": c.wall_s,
                 "violation_s": c.violation_s, "steal_share": c.steal_share,
                 "tick_ms": [1e3 * t for t in c.tick_s],
                 "round_ms": [1e3 * t for t in c.round_s],
                 "piece_ms": [1e3 * t for t in c.piece_s]}
                for c in checked
            ],
            "setup_s": setup,
        },
    }
    if not trace:
        metrics = best_metrics(timed)
        metrics["violation_s"] = median(
            [timed[0].violation_s, seeded.violation_s])
        metrics["setup_s"] = median(setup)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        record["metrics"] = metrics
        return record

    record["layers"] = _layer_metrics(timed, traced)
    record["raw"]["spans"] = [
        {"seed": c.seed, "spans": c.layers, "counts": c.counts}
        for c in traced
    ]
    return record


def _layer_metrics(
    cells: List[CellRun], traced: List[CellRun]
) -> Dict[str, float]:
    """Per-layer metrics: per-cell means of the traced cells' spans."""
    n = len(traced)
    span_names = {
        "sim.advance", "controller.tick", "labeling.append",
        "localization.localize", "predictor.train", "tan.fit",
        "fleet.refresh", "fleet.score", "fleet.classify",
        "inference.diagnose", "actuation.prevent",
    }
    totals: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    for cell in traced:
        for name, row in cell.layers.items():
            acc = totals.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                           "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key, value in cell.counts.items():
            counts[key] = counts.get(key, 0) + value

    out: Dict[str, float] = {}
    for name in sorted(span_names):
        row = totals.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[f"{name}_calls"] = row["calls"] / n
        out[f"{name}_busy_s"] = row["busy_s"] / n
        out[f"{name}_self_s"] = row["self_s"] / n

    # Simulator.run_until minus its child spans (ticks and app advance):
    # engine, monitor rows, faults.
    out["sim.rest_s"] = totals["sim.run_until"]["self_s"] / n
    refreshes = totals.get("fleet.refresh", {}).get("calls", 0)
    out["fleet.refresh_rebuild_share"] = (
        counts.get("fleet.refresh_rebuilds", 0) / refreshes
        if refreshes else 0.0)
    scores = totals.get("fleet.score", {}).get("calls", 0)
    out["fleet.batch_mean"] = (
        counts.get("fleet.scored_samples", 0) / scores if scores else 0.0)
    out["fleet.score_measured"] = 1.0   # the scorer runs in this process
    raw = counts.get("filtering.raw_alerts", 0)
    out["filtering.confirm_share"] = (
        counts.get("filtering.confirmed", 0) / raw if raw else 0.0)
    actions = sum(c.actions for c in traced)
    out["actuation.effective_share"] = (
        sum(c.effective_actions for c in traced) / actions
        if actions else 0.0)
    out["hypervisor.scale_calls"] = counts.get("hypervisor.scale_calls", 0) / n
    out["hypervisor.migrate_calls"] = (
        counts.get("hypervisor.migrate_calls", 0) / n)
    traced_s = sum(c.wall_s for c in traced) / n
    out["trace.cell_s"] = traced_s
    # Like cell_s, each side with every round at its fastest pass: the
    # host's drift between passes is larger than the overhead.
    out["trace.overhead_s"] = (best_metrics(traced)["cell_s"]
                               - best_metrics(cells)["cell_s"])
    accounted = sum(row["self_s"] for row in totals.values()) / n
    out["trace.unaccounted_s"] = traced_s - accounted
    return out


def _probe(workload: str) -> None:
    """One cell set-up in a fresh process: imports, testbed, scheme."""
    from repro.experiments.runner import run_experiment  # noqa: F401
    from repro.experiments.scenarios import build_testbed, make_fault
    from repro.experiments.schemes import deploy_scheme

    spec = LOOP_WORKLOADS[workload]
    config = experiment_config(spec, 1)
    testbed = build_testbed(config.app, seed=config.seed,
                            duration_hint=config.duration + 60.0)
    deploy_scheme(testbed, config.scheme, action_mode=config.action_mode)
    make_fault(testbed, config.fault)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--probe":
        _probe(sys.argv[2])
    else:
        raise SystemExit("usage: loop.py --probe WORKLOAD")
