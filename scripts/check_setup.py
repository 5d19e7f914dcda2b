"""Setup shared by the serving smoke checks.

``serve_check.py``, ``fabric_check.py``, ``continuous_check.py`` and
``api_check.py`` each train per-VM predictors on a collected RUBiS /
cpu-hog trace, store them as a registry snapshot and compare canonical
snapshot bytes.  This module holds that setup once; importing it puts
``src/`` on the import path.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, NoReturn, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.predictor import AnomalyPredictor  # noqa: E402
from repro.experiments.accuracy import (  # noqa: E402
    TraceDataset,
    _train_per_vm,
    collect_trace,
)
from repro.faults.base import FaultKind  # noqa: E402
from repro.serve.registry import (  # noqa: E402
    SCHEMA_VERSION,
    ModelRegistry,
    SnapshotInfo,
    canonical_json,
)

#: fixed timestamp, so a snapshot's bytes depend only on its models
STAMP = "2026-01-01T00:00:00+00:00"


def fail(message: str) -> NoReturn:
    raise SystemExit(f"FAIL: {message}")


def train_fleet(
    duration: float, seed: int = 3
) -> Tuple[TraceDataset, Dict[str, AnomalyPredictor]]:
    """A RUBiS/cpu-hog trace and per-VM 2-dep Markov + TAN predictors
    trained on it (8 bins)."""
    dataset = collect_trace(
        "rubis", FaultKind.CPU_HOG, seed=seed, duration=duration
    )
    predictors = _train_per_vm(dataset, "2dep", "tan", 8)
    if not predictors:
        fail(f"trace (seed {seed}) produced no trainable per-VM predictors")
    return dataset, predictors


def save_fleet(
    registry: ModelRegistry,
    name: str,
    predictors: Dict[str, AnomalyPredictor],
    promote: bool = False,
) -> SnapshotInfo:
    """Save ``predictors`` as the next version of ``name``, optionally
    promoting it to champion."""
    info = registry.save(name, predictors, created_at=STAMP)
    if promote:
        registry.promote(name, info.version, promoted_at=STAMP)
    return info


def snapshot_text(info: SnapshotInfo) -> str:
    """The stored snapshot document of ``info``."""
    return (info.path / "snapshot.json").read_text(encoding="utf-8")


def rebuilt_snapshot(
    info: SnapshotInfo, predictors: Dict[str, AnomalyPredictor]
) -> str:
    """The canonical document ``predictors`` would be stored as under
    ``info``; equal to :func:`snapshot_text` when restore is exact."""
    return canonical_json({
        "schema": SCHEMA_VERSION,
        "name": info.name,
        "version": info.version,
        "created_at": info.created_at,
        "vms": {vm: predictors[vm].to_dict() for vm in sorted(predictors)},
    })
