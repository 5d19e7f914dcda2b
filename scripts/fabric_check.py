#!/usr/bin/env python
"""End-to-end smoke check of the sharded serving fabric (CI gate).

Exercises the failure path the fabric exists for, on a real collected
trace:

1. collect a short RUBiS/cpu-hog trace, train per-VM predictors, and
   save them to a :class:`~repro.serve.registry.ModelRegistry`;
2. start a :class:`~repro.serve.fabric.ServingFabric` with 3 worker
   processes on a unix socket;
3. replay at least 1000 samples through the fabric, and **SIGKILL one
   worker mid-replay**;
4. assert every non-shed score matches the offline controller's
   decision for the same sample (full parity — crash recovery is
   bitwise, so surviving replies must be exact), that shed samples
   were bounded to the outage window, and that the fleet recovered
   (restart counted, worker_down alarm auto-resolved, a post-recovery
   replay scores with zero sheds and full parity).

Exits non-zero with a message on the first failure.

Usage::

    PYTHONPATH=src python scripts/fabric_check.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import tempfile
import time
from collections import deque
from pathlib import Path

import numpy as np

from check_setup import fail, save_fleet, train_fleet
from repro.serve.alarms import AlarmManager
from repro.serve.fabric import FabricConfig, ServingFabric
from repro.serve.registry import ModelRegistry
from repro.serve.replay import iter_samples

MIN_SAMPLES = 1000
N_WORKERS = 3


class ParityOracle:
    """Offline controller fed every sent sample (shed or scored).

    Sheds still extend trailing histories through the router's WAL, so
    the oracle must advance on every send; only *scored* replies are
    compared.
    """

    def __init__(self, predictors, steps: int) -> None:
        self.predictors = predictors
        self.steps = steps
        self.histories = {
            vm: deque(maxlen=p.history_needed)
            for vm, p in predictors.items()
        }

    def feed(self, vm: str, values) -> object:
        """Advance one sample → None (warmup) or expected abnormal."""
        p = self.predictors[vm]
        h = self.histories[vm]
        h.append([float(v) for v in values])
        if len(h) < p.history_needed:
            return None
        recent = np.asarray(h, dtype=float)
        return bool(p.predict(recent, self.steps).abnormal)


async def replay_with_kill(
    fabric, sock, samples, oracle, kill_at: int
) -> dict:
    """Stream samples one-by-one, SIGKILL a worker at ``kill_at``."""
    reader, writer = await asyncio.open_unix_connection(sock)
    counts = {"score": 0, "warmup": 0, "shed": 0, "error": 0}
    mismatches = 0
    killed_shard = None
    try:
        for i, (vm, values) in enumerate(samples):
            if i == kill_at:
                # Kill the shard owning the most VMs so the outage is
                # visible as sheds in this interleaved stream.
                shard = max(
                    (s for s in fabric.shards if s.handle),
                    key=lambda s: len(s.vms))
                killed_shard = shard.index
                os.kill(shard.handle.process.pid, signal.SIGKILL)
            want = oracle.feed(vm, values)
            writer.write((json.dumps({
                "op": "sample", "id": i, "vm": vm,
                "values": [float(v) for v in values],
            }) + "\n").encode())
            await writer.drain()
            reply = json.loads(await asyncio.wait_for(
                reader.readline(), 30.0))
            kind = reply.get("kind", "error")
            counts[kind] = counts.get(kind, 0) + 1
            if kind == "score":
                if want is None or bool(reply["abnormal"]) != want:
                    mismatches += 1
        writer.write(b'{"op": "drain"}\n')
        await writer.drain()
        drained = json.loads(await asyncio.wait_for(reader.readline(), 30.0))
        if drained.get("kind") != "drained":
            fail(f"unexpected drain reply: {drained}")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    counts["mismatches"] = mismatches
    counts["killed_shard"] = killed_shard
    return counts


async def check(duration: float, steps: int) -> None:
    dataset, predictors = train_fleet(duration)
    print(f"trained {len(predictors)} per-VM predictors")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        registry = ModelRegistry(root / "registry")
        save_fleet(registry, "fabric-check", predictors, promote=True)

        traces = {vm: dataset.per_vm_values[vm] for vm in predictors}
        per_pass = len(iter_samples(traces))
        repeat = max(1, -(-MIN_SAMPLES // per_pass))
        samples = iter_samples(traces, repeat=repeat)
        oracle = ParityOracle(predictors, steps)

        alarms = AlarmManager()
        fabric = ServingFabric(
            registry, root / "fabric", FabricConfig(
                model_name="fabric-check", n_workers=N_WORKERS,
                steps=steps,
            ),
            alarms=alarms,
        )
        sock = str(root / "fabric.sock")
        t0 = time.perf_counter()
        await fabric.start(path=sock)
        print(f"fabric up: {N_WORKERS} workers in "
              f"{time.perf_counter() - t0:.1f}s")
        try:
            counts = await replay_with_kill(
                fabric, sock, samples, oracle, kill_at=len(samples) // 3)
            print(f"replayed {len(samples)} samples with SIGKILL of "
                  f"shard {counts['killed_shard']} mid-stream: {counts}")

            if len(samples) < MIN_SAMPLES:
                fail(f"replayed only {len(samples)} samples "
                     f"(need {MIN_SAMPLES})")
            if counts["error"]:
                fail(f"{counts['error']} protocol errors during replay")
            if counts["mismatches"]:
                fail(f"{counts['mismatches']} scored replies disagree "
                     f"with the offline controller after the crash")
            if not counts["shed"]:
                fail("the killed worker shed nothing — the kill did not "
                     "land inside the replay window")
            total = sum(counts[k] for k in
                        ("score", "warmup", "shed", "error"))
            if total != len(samples):
                fail(f"replies do not account for every sample "
                     f"({total} != {len(samples)})")

            # Recovery: the supervisor must have restarted the shard,
            # and the worker_down alarm must have auto-resolved.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                shards = fabric.stats()["shards"]
                killed = shards[counts["killed_shard"]]
                if (killed["restarts"] >= 1
                        and all(s["state"] == "up" for s in shards)):
                    break
                await asyncio.sleep(0.25)
            else:
                fail("killed shard did not recover within 60s")
            active_down = [
                a for a in alarms.alarms("active")
                if a.kind == "worker_down"
            ]
            if active_down:
                fail(f"worker_down alarm still active after recovery: "
                     f"{[a.vm for a in active_down]}")
            print("killed shard restarted and worker_down alarm resolved")

            # Post-recovery pass: zero sheds, full parity — recovery
            # is bitwise, so the oracle (which saw every prior sample,
            # shed or not) must still agree with every score.
            counts2 = await replay_with_kill(
                fabric, sock, iter_samples(traces), oracle,
                kill_at=-1)
            if counts2["shed"] or counts2["error"]:
                fail(f"post-recovery replay not clean: {counts2}")
            if counts2["mismatches"]:
                fail(f"{counts2['mismatches']} post-recovery scores "
                     f"disagree with the offline controller — crash "
                     f"recovery was not bitwise")
            print(f"post-recovery pass clean: {counts2['score']} scored, "
                  f"0 shed, full parity")
        finally:
            await fabric.stop()

    print("OK: fabric survived SIGKILL mid-replay with full parity on "
          "every scored sample and bitwise recovery")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration", type=float, default=1500.0,
        help="simulated trace duration in seconds (default %(default)s)",
    )
    parser.add_argument("--steps", type=int, default=4)
    args = parser.parse_args(argv)
    asyncio.run(check(args.duration, args.steps))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
