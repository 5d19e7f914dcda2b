"""Light tests for the figure generators (full runs live in benchmarks/)."""

import numpy as np
import pytest

from repro.experiments.figures import (
    ALL_FAULTS,
    ALL_SCHEMES,
    table1_overhead,
    violation_time_comparison,
)
from repro.experiments.scenarios import RUBIS
from repro.faults import FaultKind


class TestViolationComparison:
    def test_structure_and_orderings(self):
        data = violation_time_comparison(
            "scaling", repeats=1, seed=5,
            apps=(RUBIS,), faults=(FaultKind.CPU_HOG,),
        )
        cell = data[RUBIS][FaultKind.CPU_HOG.value]
        assert set(cell) == set(ALL_SCHEMES)
        for scheme in ALL_SCHEMES:
            assert set(cell[scheme]) == {
                "mean", "std", "second_injection_mean"
            }
        assert cell["prepare"]["mean"] < cell["none"]["mean"]


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return table1_overhead()

    def test_all_modules_present(self, rows):
        assert set(rows) == {
            "vm_monitoring_13_attributes",
            "simple_markov_training_600",
            "two_dep_markov_training_600",
            "tan_training_600",
            "anomaly_prediction",
            "cpu_scaling",
            "memory_scaling",
            "live_migration_512mb",
        }

    def test_costs_positive(self, rows):
        for module, cells in rows.items():
            assert cells["mean_ms"] > 0.0, module
            assert cells["std_ms"] >= 0.0, module
            assert 0.0 < cells["min_ms"] <= cells["mean_ms"], module

    def test_two_dep_costlier_than_simple(self, rows):
        # The true gap is only ~15-20%, so compare the least disturbed
        # of the interleaved runs rather than a noise-prone centre.
        assert (
            rows["two_dep_markov_training_600"]["min_ms"]
            > rows["simple_markov_training_600"]["min_ms"]
        )

    def test_actuation_latencies_are_paper_values(self, rows):
        assert rows["cpu_scaling"]["mean_ms"] == pytest.approx(107.0)
        assert rows["memory_scaling"]["mean_ms"] == pytest.approx(116.0)
        assert rows["live_migration_512mb"]["mean_ms"] == pytest.approx(8560.0)
