"""The benchmark's hooks into the program still attach.

``perfbench`` times layers by patching program methods by name (for
example ``FleetScorer.refresh``).  A change that renames or deletes one
of them would otherwise surface only when the benchmark runs; these
tests make it a tier-1 failure.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.launch import install_server_spans  # noqa: E402
from perfbench.loop import LoopSpec, run_cell  # noqa: E402
from perfbench.measure import Patches, Tracer  # noqa: E402

#: a short cell that still trains a model and builds the scorer (one
#: injection runs 350-650 s, so 700 s is about the shortest cell)
SHORT_CELL = LoopSpec(
    app="fleet8", fault="memory_leak", action_mode="scaling",
    duration=700.0, injections=1, anchor=1, pool=1,
)


def test_traced_cell_records_every_loop_layer():
    cell = run_cell(SHORT_CELL, seed=1, traced=True)
    assert cell.samples > 0
    assert cell.layers["predictor.train"]["calls"] >= 1
    assert cell.layers["fleet.refresh"]["calls"] >= 1
    assert cell.layers["fleet.score"]["calls"] >= 1
    assert cell.counts["fleet.scored_samples"] >= (
        cell.layers["fleet.score"]["calls"]
    )


def test_server_spans_attach():
    from repro.core.fleet import FleetScorer

    score = FleetScorer.score
    with Patches() as patches:
        install_server_spans(patches, Tracer())
        assert FleetScorer.score is not score
    assert FleetScorer.score is score
