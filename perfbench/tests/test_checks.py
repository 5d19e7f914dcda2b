"""The benchmark's correctness checks fire, and its step arithmetic holds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import loop, serving
from perfbench.serving import (
    CYCLE_ROWS, LIMIT_MS, Reference, SampleStream, StepResult, Tally,
    capacity, check_replies,
)

ROOT = Path(__file__).resolve().parents[2]


def _line(k, kind="score", abnormal=False):
    reply = {"id": k, "ok": kind == "score", "kind": kind}
    if kind == "score":
        reply["abnormal"] = abnormal
    return (float(k), json.dumps(reply).encode())


EXPECTED = [None, True, False, True]


def _check(lines, timed=True):
    tally = Tally()
    recv = check_replies(lines, 0, 4, EXPECTED.__getitem__, tally, timed)
    return tally, recv


def test_matching_replies_pass():
    tally, recv = _check([_line(0, "warmup"), _line(1, abnormal=True),
                          _line(2), _line(3, abnormal=True)], timed=False)
    assert tally.failed == 0 and tally.scores == 3 and tally.sent == 4
    assert list(recv) == [0.0, 1.0, 2.0, 3.0]


def test_flipped_parity_is_a_failure():
    tally, _ = _check([_line(0, "warmup"), _line(1, abnormal=False),
                       _line(2), _line(3, abnormal=True)], timed=False)
    assert tally.failures == {"parity": 1}


def test_score_where_history_is_short_is_a_failure():
    tally, _ = _check([_line(0), _line(1, abnormal=True), _line(2),
                       _line(3, abnormal=True)], timed=False)
    assert tally.failures == {"parity": 1}


def test_warmup_inside_timed_window_is_a_failure():
    tally, _ = _check([_line(0, "warmup"), _line(1, abnormal=True),
                       _line(2), _line(3, abnormal=True)], timed=True)
    assert tally.failures == {"warmup": 1}


def test_shed_error_and_missing_replies_are_failures():
    tally, recv = _check([_line(0, "warmup"), _line(1, "shed"),
                          _line(2, "error")], timed=False)
    assert tally.failures == {"shed": 1, "error": 1, "timeout": 1}
    assert np.isnan(recv[3])


def _fake_cell(bad_seed):
    def run_cell(spec, seed, traced=False):
        return loop.CellRun(
            seed=seed, wall_s=1.0 + seed, violation_s=10.0 * seed,
            digest="wrong" if seed == bad_seed else f"d{seed}",
            tick_s=[0.001 * (i + 1) for i in range(20)],
            round_s=[0.002] * 20, piece_s=[0.5, 0.5 + seed],
            samples=1000,
            layers={} if traced else None, counts={} if traced else None)
    return run_cell


@pytest.mark.parametrize("bad_seed, failed", [(None, 0), (1, 3), (4, 1)])
def test_wrong_digest_counts_as_failed(monkeypatch, bad_seed, failed):
    spec = loop.LOOP_WORKLOADS["cell50_leak"]
    monkeypatch.setattr(loop, "run_cell", _fake_cell(bad_seed))
    probes = iter([0.3, 0.1, 0.2])
    monkeypatch.setattr(loop, "probe_setup_seconds",
                        lambda workload, env: next(probes))
    monkeypatch.setattr(
        loop, "load_digests",
        lambda workload: {s: f"d{s}" for s in range(1, spec.pool + 1)})
    run_seed = 2   # picks the third cell seed other than the anchor, 4
    assert spec.seeded_cell(run_seed) == 4
    record = loop.run("cell50_leak", run_seed, 0.0, False, {})
    # the anchor cell once per pass, then the seeded cell
    assert record["attempted"] == loop.MIN_PASSES + 1
    assert record["failed"] == failed
    metrics = record["metrics"]
    assert metrics["cell_s"] == pytest.approx(2.0)   # pieces of seed 1
    assert metrics["setup_s"] == 0.2
    # median of the anchor's and the seeded cell's violation seconds
    assert metrics["violation_s"] == pytest.approx(25.0)
    assert metrics["capacity_per_s"] == pytest.approx(
        1000 / sum(0.001 * (i + 1) for i in range(20)))


def _loop_cell(seed, tick_s, piece_s, samples=100):
    return loop.CellRun(seed=seed, wall_s=sum(piece_s), violation_s=1.0,
                        digest="d", tick_s=tick_s, round_s=tick_s,
                        piece_s=piece_s, samples=samples)


def test_best_metrics_take_each_round_at_its_fastest_pass():
    a = _loop_cell(1, [0.004] * 9 + [0.002], [1.0, 2.0, 3.0])
    b = _loop_cell(1, [0.002] * 9 + [0.010], [2.0, 1.0, 2.5])
    best = loop.best_metrics([a, b])
    assert best["cell_s"] == pytest.approx(1.0 + 1.0 + 2.5)
    assert best["tick_p50_ms"] == pytest.approx(2.0)
    assert best["tick_p95_ms"] == pytest.approx(2.0)
    # samples per second of the fastest ticks
    assert best["capacity_per_s"] == pytest.approx(100 / 0.020)


def test_best_metrics_reject_passes_with_different_rounds():
    a = _loop_cell(1, [0.001] * 10, [1.0])
    b = _loop_cell(1, [0.001] * 9, [1.0])
    with pytest.raises(RuntimeError, match="differ in their rounds"):
        loop.best_metrics([a, b])


def _step(latency_ms, rate=1000, duration=1.0, aborted=False, late_ms=None,
          throughput=None):
    latency = np.asarray(latency_ms, dtype=float)
    n = len(latency)
    return StepResult(
        rate=rate, duration=duration,
        due_s=np.linspace(0, duration, n, endpoint=False),
        latency_ms=latency,
        late_ms=np.zeros(n) if late_ms is None else np.asarray(late_ms),
        sent=int(np.sum(~np.isnan(latency))) if aborted else n,
        aborted=aborted, backlog=0, failures=0,
        throughput=rate if throughput is None else throughput)


def test_step_pass_uses_window_medians():
    # one window of three is slow: the median over windows still passes
    fast, slow = [5.0] * 50, [500.0] * 50
    assert _step(fast + slow + fast, duration=1.5).passed()
    assert not _step(slow + fast + slow, duration=1.5).passed()
    late = _step(fast + fast, late_ms=[50.0] * 100)
    assert late.generator_bound() and not late.passed()


def test_capacity_interpolates_the_limit_crossing():
    lo = _step([LIMIT_MS / 2] * 100, rate=2000)
    hi = _step([LIMIT_MS * 2] * 100, rate=4000)
    # halfway in log p99: 50 ms -> 100 ms -> 200 ms
    assert capacity([lo, hi]) == pytest.approx(3000.0)
    # all pass: the highest step's measured throughput
    assert capacity([lo]) == 2000
    # nothing passes: zero
    assert capacity([hi]) == 0.0
    # a failing step with no reply at all gives no crossing to interpolate
    silent = _step([np.nan] * 100, rate=4000, aborted=True)
    assert capacity([lo, silent]) == 2000.0
    # a step that stopped sending: its answered samples still count
    stopped = _step([LIMIT_MS * 2] * 80 + [np.nan] * 20, rate=4000,
                    aborted=True)
    assert capacity([lo, stopped]) == pytest.approx(3000.0)
    # failed for a reason other than latency: the passing rate stands
    gen_bound = _step([10.0] * 100, rate=4000, late_ms=[50.0] * 100)
    assert capacity([lo, gen_bound]) == 2000.0
    # a queue growing at the end: windows pass, the pooled p99 does not
    growing = _step([10.0] * 97 + [LIMIT_MS * 2] * 3, rate=4000)
    growing.backlog = 3
    assert growing.summary()["p99_ms"] <= LIMIT_MS
    assert 2000.0 < capacity([lo, growing]) < 4000.0


def test_sample_stream_lines_decode_to_the_sample():
    cycle = {f"vm{i}": np.arange(CYCLE_ROWS * 3, dtype=float).reshape(
        CYCLE_ROWS, 3) + 100 * i for i in range(3)}
    stream = SampleStream(cycle)
    k0 = 3 * CYCLE_ROWS + 4   # second pass through the cycle
    for k, raw in zip(range(k0, k0 + 5), stream.lines(k0, k0 + 5)):
        message = json.loads(raw)
        vm, values = stream.sample(k)
        assert message == {"id": k, "op": "sample", "vm": vm,
                           "values": values,
                           "steps": serving.LOOKAHEAD_STEPS}


def test_reference_repeats_with_the_cycle():
    # two VMs, a three-row cycle, one wrap row of trailing history
    reference = object.__new__(Reference)
    reference.period = 6
    reference.wrap = 2
    reference.decisions = [None, None, True, False, True, True,
                           False, False]
    assert [reference(k) for k in range(18)] == [
        None, None, True, False, True, True,     # first cycle
        False, False, True, False, True, True,   # wrapped history first
        False, False, True, False, True, True]


def test_run_fails_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cell50_leak",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_unpredicted_violation_counts_uncovered_violated_samples():
    cycle = {vm: np.zeros((CYCLE_ROWS, 3)) for vm in ("vm0", "vm1")}
    stream = SampleStream(cycle)
    labels = {vm: np.zeros(CYCLE_ROWS, dtype=int) for vm in cycle}
    labels["vm0"][10] = 1   # alerted two samples ahead: predicted
    labels["vm1"][12] = 1   # never alerted: missed
    labels["vm1"][16] = 1   # alerted on the sample itself: predicted
    alerted = {8 * 2 + 0, 16 * 2 + 1}
    missed = serving.unpredicted_violation_s(
        lambda k: k in alerted, 0, CYCLE_ROWS, stream, labels)
    assert missed == 5.0   # one monitoring interval
