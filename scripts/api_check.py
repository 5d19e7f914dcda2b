#!/usr/bin/env python
"""End-to-end smoke check of the operator control plane (CI gate).

Exercises the alarm lifecycle over the real HTTP + WebSocket API
against a trained snapshot:

1. collect a short RUBiS/cpu-hog trace, train per-VM predictors and
   save them to a :class:`~repro.serve.registry.ModelRegistry`;
2. start a :class:`~repro.serve.api.OperatorAPI` wired to an
   :class:`~repro.serve.alarms.AlarmManager` and a
   :class:`~repro.serve.service.PredictionService` built from the
   snapshot;
3. attach a WebSocket client, raise a synthetic alarm over HTTP, and
   assert the raise + ack transitions arrive live on the socket;
4. walk the remaining lifecycle (silence -> escalate -> resolve) over
   HTTP, checking each intermediate state and the 409 on a double-ack;
5. scrape ``/metrics`` and assert the strict Prometheus parser accepts
   it with the alarm + API families present, then check ``/fleet`` and
   ``/models`` against the snapshot;
6. stop the API and assert the clean shutdown detached its alarm
   listener.

Exits non-zero with a message on the first failure.

Usage::

    PYTHONPATH=src python scripts/api_check.py
"""

from __future__ import annotations

import argparse
import asyncio
import base64
import hashlib
import json
import struct
import tempfile
from pathlib import Path

from check_setup import fail, save_fleet, train_fleet
from repro.obs import Observability, parse_prometheus_text
from repro.serve.alarms import AlarmManager
from repro.serve.api import OperatorAPI
from repro.serve.registry import ModelRegistry
from repro.serve.service import PredictionService, ServiceConfig

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_WS_KEY = "YXBpLWNoZWNrLXdzLWtleQ=="


async def http(port: int, method: str, path: str, body=None):
    """Minimal HTTP/1.1 client: returns (status, parsed-JSON-or-text)."""
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    request = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: 127.0.0.1:{port}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Content-Type: application/json\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("ascii") + payload
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body_bytes = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    text = body_bytes.decode("utf-8")
    try:
        return status, json.loads(text)
    except ValueError:
        return status, text


class WsClient:
    """Tiny RFC 6455 client for the smoke check (text frames only)."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port: int):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            (
                f"GET /ws HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {_WS_KEY}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("ascii")
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        if b"101" not in head.split(b"\r\n", 1)[0]:
            fail("WebSocket handshake was not upgraded")
        expect = base64.b64encode(
            hashlib.sha1((_WS_KEY + _WS_GUID).encode("ascii")).digest()
        )
        if expect not in head:
            fail("Sec-WebSocket-Accept mismatch in handshake")
        return cls(reader, writer)

    async def recv(self, timeout: float = 5.0):
        header = await asyncio.wait_for(
            self.reader.readexactly(2), timeout
        )
        length = header[1] & 0x7F
        if length == 126:
            length = struct.unpack(
                ">H", await self.reader.readexactly(2)
            )[0]
        elif length == 127:
            length = struct.unpack(
                ">Q", await self.reader.readexactly(8)
            )[0]
        payload = await self.reader.readexactly(length)
        return json.loads(payload.decode("utf-8"))

    async def close(self):
        # Masked close frame (clients must mask), then drop the socket.
        self.writer.write(b"\x88\x80\x00\x00\x00\x00")
        await self.writer.drain()
        self.writer.close()
        await self.writer.wait_closed()


async def check(registry_root: Path, duration: float, steps: int) -> None:
    _, predictors = train_fleet(duration)
    registry = ModelRegistry(registry_root)
    saved = save_fleet(registry, "api-check", predictors, promote=True)
    restored = registry.load_active("api-check")
    print(f"trained {len(restored)} per-VM predictors, snapshot "
          f"{saved.name}/{saved.version_label}")

    obs = Observability()
    alarms = AlarmManager(obs=obs)
    service = PredictionService(
        restored, ServiceConfig(steps=steps), obs=obs, alarms=alarms
    )
    service.champion_version = saved.version
    api = OperatorAPI(
        alarms, service=service, registry=registry,
        model_name="api-check", obs=obs,
    )
    await api.start(host="127.0.0.1", port=0)
    port = api.port
    try:
        ws = await WsClient.connect(port)
        hello = await ws.recv()
        if hello.get("type") != "hello":
            fail(f"first WS message is {hello!r}, expected the hello")

        # Raise a synthetic alarm over HTTP; watch it land on the WS.
        status, alarm = await http(port, "POST", "/alarms", {
            "vm": "vm_db", "kind": "anomaly:cpu_usage",
            "severity": "critical", "message": "synthetic smoke alarm",
        })
        if status != 200:
            fail(f"raising the synthetic alarm returned {status}")
        alarm_id = alarm["alarm_id"]
        event = await ws.recv()
        transition = event.get("event", {}).get("event")
        if (event.get("type"), transition) != ("alarm", "raise"):
            fail(f"WS did not push the raise transition: {event!r}")
        if event["alarm"]["vm"] != "vm_db":
            fail("WS raise event names the wrong VM")

        # Ack over HTTP -> live WS transition; double-ack conflicts.
        status, acked = await http(
            port, "POST", f"/alarms/{alarm_id}/ack"
        )
        if status != 200 or acked["state"] != "acked":
            fail(f"ack returned {status}: {acked!r}")
        event = await ws.recv()
        if event.get("event", {}).get("event") != "ack":
            fail(f"WS did not push the ack transition: {event!r}")
        status, conflict = await http(
            port, "POST", f"/alarms/{alarm_id}/ack"
        )
        if status != 409:
            fail(f"double-ack returned {status}, expected 409")

        # Walk the rest of the lifecycle over plain HTTP.
        for verb, body, want_state in (
            ("silence", {"duration": 60.0}, "silenced"),
            ("escalate", {}, "escalating"),
            ("resolve", {}, "resolved"),
        ):
            status, payload = await http(
                port, "POST", f"/alarms/{alarm_id}/{verb}", body
            )
            if status != 200 or payload["state"] != want_state:
                fail(f"{verb} returned {status}: {payload!r}")
        status, listing = await http(port, "GET", "/alarms")
        if status != 200 or listing["counts"].get("resolved") != 1:
            fail(f"alarm listing after the lifecycle: {listing!r}")
        print(f"alarm #{alarm_id} walked raise -> ack -> silence -> "
              "escalate -> resolve over HTTP with live WS pushes")

        # /metrics must satisfy the strict parser with our families.
        status, text = await http(port, "GET", "/metrics")
        if status != 200:
            fail(f"/metrics returned {status}")
        families = parse_prometheus_text(text)
        for family in ("alarms_raised_total", "alarms_transitions_total",
                       "alarms_open", "api_requests_total"):
            if family not in families:
                fail(f"/metrics is missing the {family} family")

        # Fleet + model status reflect the snapshot we started from.
        status, fleet = await http(port, "GET", "/fleet")
        if status != 200 or len(fleet["vms"]) != len(restored):
            fail(f"/fleet does not list every VM: {fleet!r}")
        status, models = await http(port, "GET", "/models")
        if status != 200 or models["champion_version"] != saved.version:
            fail(f"/models does not report the champion: {models!r}")

        await ws.close()
    finally:
        await api.stop()
    if alarms._listeners:
        fail("API stop left its alarm listener attached")
    print(
        f"OK: operator API served the full alarm lifecycle over HTTP+WS, "
        f"/metrics parsed strictly ({len(families)} families), "
        f"fleet={len(restored)} VMs, champion v{saved.version}, "
        f"clean shutdown"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration", type=float, default=1500.0,
        help="simulated trace duration in seconds (default %(default)s)",
    )
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument(
        "--registry", type=Path, default=None,
        help="registry directory (default: a temporary directory)",
    )
    args = parser.parse_args(argv)
    if args.registry is not None:
        asyncio.run(check(args.registry, args.duration, args.steps))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            asyncio.run(check(Path(tmp) / "registry", args.duration,
                              args.steps))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
