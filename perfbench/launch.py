"""Start a ``repro`` server process, optionally with layer spans.

Usage (from the serving workloads)::

    python3 perfbench/launch.py [--trace-out FILE] -- serve --registry ...

Without ``--trace-out`` this is exactly ``python -m repro <args>``.  With
it, spans are installed around the protocol codec (also where the
service and the fabric router imported it by name), ``FleetScorer.score``
and the fabric's ``ShardJournal`` before :func:`repro.cli.main` runs, and
the per-layer summary is written to FILE when the server exits.  Fabric
worker processes are spawned fresh and carry no spans.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def install_server_spans(patches, tracer) -> None:
    import repro.serve.fabric as fabric
    import repro.serve.protocol as protocol
    import repro.serve.service as service
    from repro.core.fleet import FleetScorer
    from repro.serve.journal import ShardJournal

    def on_score(t, args, result):
        t.counts["fleet.scored_samples"] += len(args[1])

    def on_decode(t, args, message):
        if message.get("op") in ("sample", "observe"):
            t.counts["protocol.samples"] += 1
        elif message.get("op") == "batch":
            t.counts["protocol.samples"] += len(message.get("samples", ()))

    decode = tracer.wrap("protocol.decode", protocol.decode_line, on_decode)
    encode = tracer.wrap("protocol.encode", protocol.encode_message)
    for module in (protocol, service, fabric):
        patches.replace(module, "decode_line", lambda fn: decode)
        patches.replace(module, "encode_message", lambda fn: encode)
    patches.replace(FleetScorer, "score",
                    lambda fn: tracer.wrap("fleet.score", fn, on_score))
    patches.replace(ShardJournal, "append",
                    lambda fn: tracer.wrap("journal.append", fn))
    patches.replace(ShardJournal, "compact",
                    lambda fn: tracer.wrap("journal.compact", fn))


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from repro.cli import main as repro_main

    if trace_out is None:
        return repro_main(argv)

    from perfbench.measure import Patches, Tracer

    tracer = Tracer()
    with Patches() as patches:
        install_server_spans(patches, tracer)
        try:
            return repro_main(argv)
        finally:
            trace_out.write_text(json.dumps(
                {"spans": tracer.summary(), "counts": dict(tracer.counts)}))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    raise SystemExit(main(sys.argv[1:]))
