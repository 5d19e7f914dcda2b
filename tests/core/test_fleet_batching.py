"""Parity of the fleet-batched controller hot path with the per-VM oracle.

The controller routes its predictive, reactive and deviation stages
through one :class:`repro.core.fleet.FleetScorer` call per tick.  These
tests run complete experiments — with and without infrastructure chaos
— under spies that check every fleet call against the per-VM pipeline
(``AnomalyPredictor.predict`` / ``classify_current``) and the stacked
deviation fallback against a per-VM z-score oracle, and that the
controller rebuilds its scorer exactly when a model is trained or
retired.  Unit-level parity, randomized differential tests and
``refresh`` (the scorer's one build path) cover the scorer itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import PrepareController
from repro.core.fleet import FleetScorer
from repro.core.predictor import AnomalyPredictor, PredictionResult
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults.base import FaultKind

N_ATTRS = 9


def assert_bitwise(got, want):
    """Field-for-field equality, distinguishing -0.0 from 0.0."""
    assert repr(got) == repr(want)


def deviation_oracle(controller):
    """Per-VM z-score deviation diagnosis, one VM at a time."""
    epoch_len, gap, ref_len = 4, 4, 12
    needed = epoch_len + gap + ref_len
    scores = {}
    for name, buffer in controller.buffers.items():
        values = buffer.recent_values(needed)
        if values.shape[0] < needed:
            continue
        reference = values[:ref_len]
        epoch = values[-epoch_len:]
        scale = np.maximum(
            np.maximum(reference.std(axis=0), epoch.std(axis=0)),
            1e-3 * np.maximum(np.abs(reference.mean(axis=0)), 1.0),
        )
        z = np.abs(epoch.mean(axis=0) - reference.mean(axis=0)) / scale
        scores[name] = (float(z.max()), z)
    if not scores:
        return {}
    top = max(score for score, _z in scores.values())
    if top < 2.0:
        return {}
    cutoff = max(2.0, min(0.6 * top, 6.0))
    return {
        name: PredictionResult(
            abnormal=score >= cutoff,
            probability=1.0 - 1.0 / (1.0 + score),
            score=score,
            bins=tuple(0 for _ in controller.attributes),
            strengths=tuple(float(v) for v in z),
            attributes=controller.attributes,
            steps=0,
        )
        for name, (score, z) in scores.items()
    }


MODEL_EVENTS = ("model_trained", "model_retired")


def _run_spied_cell(chaos=None):
    """Run a fleet8 cell, checking every fleet call against its oracle.

    Returns the experiment result, how many items each spy checked,
    and one ``(scorer, model events so far, trained VMs)`` row per
    :meth:`PrepareController._fleet_scorer` call.
    """
    checked = {"score": 0, "classify": 0, "deviation": 0}
    scorers = []
    score = FleetScorer.score
    classify_batch = FleetScorer.classify_batch
    deviation = PrepareController._deviation_results
    fleet_scorer = PrepareController._fleet_scorer

    def spy_score(self, batch):
        results = score(self, batch)
        for (vm, recent, steps), got in zip(batch, results):
            assert_bitwise(got, self.predictors[vm].predict(recent, steps))
        checked["score"] += len(batch)
        return results

    def spy_classify(self, batch):
        results = classify_batch(self, batch)
        for (vm, values), got in zip(batch, results):
            assert_bitwise(got, self.predictors[vm].classify_current(values))
        checked["classify"] += len(batch)
        return results

    def spy_deviation(self, now):
        results = deviation(self, now)
        assert repr(results) == repr(deviation_oracle(self))
        checked["deviation"] += len(results)
        return results

    def spy_fleet_scorer(self, trained_names):
        scorer = fleet_scorer(self, trained_names)
        assert self.events.dropped == 0
        events = sum(e.kind in MODEL_EVENTS for e in self.events)
        scorers.append((scorer, events, tuple(trained_names)))
        return scorer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FleetScorer, "score", spy_score)
        mp.setattr(FleetScorer, "classify_batch", spy_classify)
        mp.setattr(PrepareController, "_deviation_results", spy_deviation)
        mp.setattr(PrepareController, "_fleet_scorer", spy_fleet_scorer)
        result = run_experiment(ExperimentConfig(
            app="fleet8",
            fault=FaultKind.MEMORY_LEAK,
            scheme="prepare",
            seed=7,
            duration=1500.0,
            chaos=chaos,
        ))
    return result, checked, scorers


def _assert_rebuilt_at_model_events(scorers):
    """The controller's scorer object changes exactly between two calls
    that a ``model_trained`` / ``model_retired`` event separates, and
    always covers the VMs trained at the call."""
    for (prev, prev_events, _), (scorer, events, names) in zip(
        scorers, scorers[1:]
    ):
        assert (scorer is prev) == (events == prev_events)
        assert sorted(scorer.predictors) == sorted(names)
    # Guard against a vacuous pass: the cell retrains mid-run.
    assert len({id(scorer) for scorer, _, _ in scorers}) >= 2


CHAOS = {
    "seed": 3,
    "metric": {"corrupt_rate": 0.05, "blackout_rate": 0.01,
               "blackout_duration": 40.0},
    "verbs": {"failure_rate": 0.15, "late_rate": 0.1},
}


class TestControllerMatchesPerVmOracle:
    @pytest.fixture(scope="class")
    def clean(self):
        return _run_spied_cell()

    @pytest.fixture(scope="class")
    def chaotic(self):
        return _run_spied_cell(chaos=CHAOS)

    def test_clean_calls_match_oracle(self, clean):
        # The spies assert parity at every call; here we only guard
        # against a vacuous pass.
        _, checked, _ = clean
        assert checked["score"] > 0
        assert checked["classify"] > 0
        assert checked["deviation"] > 0

    def test_clean_scorer_rebuilt_at_model_events(self, clean):
        _assert_rebuilt_at_model_events(clean[2])

    def test_clean_run_acts(self, clean):
        # Guard against vacuous equality: the cell must actually
        # exercise the predictive path.
        result, _, _ = clean
        assert result.actions
        assert result.proactive_actions >= 1

    def test_chaos_calls_match_oracle(self, chaotic):
        _, checked, _ = chaotic
        assert checked["score"] > 0
        assert checked["deviation"] > 0

    def test_chaos_scorer_rebuilt_at_model_events(self, chaotic):
        _assert_rebuilt_at_model_events(chaotic[2])

    def test_chaos_run_degraded_inputs(self, chaotic):
        # The chaos cell must actually stress the sanitize/imputation
        # path the batched stages consume.
        result, _, _ = chaotic
        assert result.resilience is not None


def _train_predictor(seed, n_attrs=N_ATTRS):
    rng = np.random.default_rng(seed)
    predictor = AnomalyPredictor(
        [f"m{i}" for i in range(n_attrs)], n_bins=6, markov="2dep",
    )
    values = np.cumsum(rng.normal(size=(250, n_attrs)), axis=0)
    labels = (rng.random(250) < 0.3).astype(int)
    return predictor.train(values, labels), values


def _make_fleet(n_vms=5):
    predictors, traces = {}, {}
    for i in range(n_vms):
        p, v = _train_predictor(seed=40 + i)
        predictors[f"vm{i}"] = p
        traces[f"vm{i}"] = v
    return predictors, traces


def _assert_result_equal(got, want):
    assert got.abnormal == want.abnormal
    assert got.score == want.score
    assert got.probability == want.probability
    assert got.bins == want.bins
    assert got.strengths == want.strengths
    assert got.steps == want.steps
    assert got.attributes == want.attributes


class TestClassifyBatchParity:
    def test_matches_classify_current(self):
        predictors, traces = _make_fleet()
        scorer = FleetScorer(predictors)
        batch = [
            (vm, traces[vm][100 + i]) for i, vm in enumerate(sorted(predictors))
        ]
        results = scorer.classify_batch(batch)
        for (vm, values), got in zip(batch, results):
            _assert_result_equal(got, predictors[vm].classify_current(values))


class TestRefresh:
    def test_refresh_restacks_refit_vm(self):
        predictors, traces = _make_fleet()
        scorer = FleetScorer(predictors)
        batch = [(vm, traces[vm][50:60], 4) for vm in sorted(predictors)]
        scorer.score(batch)  # populate the horizon-operator cache

        # Refit one VM on different data (new chain/classifier tensors).
        refit = "vm2"
        rng = np.random.default_rng(99)
        values = np.cumsum(rng.normal(size=(220, N_ATTRS)), axis=0)
        labels = (rng.random(220) < 0.4).astype(int)
        predictors[refit].train(values, labels)
        assert not scorer.stacked

        assert scorer.refresh() is True
        assert scorer.stacked

        # Every VM — refit and untouched — must still score bitwise
        # like the per-VM reference and like a scorer built from
        # scratch.
        fresh = FleetScorer(predictors)
        for (vm, recent, steps), got, rebuilt in zip(
            batch, scorer.score(batch), fresh.score(batch)
        ):
            want = predictors[vm].predict(recent, steps)
            _assert_result_equal(got, want)
            _assert_result_equal(rebuilt, want)
        for (vm, values_row), got in zip(
            [(vm, traces[vm][80]) for vm in sorted(predictors)],
            scorer.classify_batch(
                [(vm, traces[vm][80]) for vm in sorted(predictors)]
            ),
        ):
            _assert_result_equal(
                got, predictors[vm].classify_current(values_row)
            )

    def test_refresh_picks_up_in_place_chain_update(self):
        """A chain updated in place keeps its ``value_models`` list, so
        the per-VM staleness check does not see it; ``refresh`` re-
        stacks it and the fast tier is per-VM-exact again."""
        predictors, traces = _make_fleet(n_vms=3)
        scorer = FleetScorer(predictors)
        batch = [(vm, traces[vm][50:60], 4) for vm in sorted(predictors)]
        scorer.score(batch)
        predictors["vm1"].value_models[0].update([0, 1, 2, 3, 2, 1])
        assert scorer.stacked  # the in-place update goes unnoticed
        assert scorer.refresh() is True
        assert scorer.stacked
        for (vm, recent, steps), got in zip(batch, scorer.score(batch)):
            assert_bitwise(got, predictors[vm].predict(recent, steps))
        observed = [(vm, recent[-1]) for vm, recent, _ in batch]
        for (vm, values), got in zip(
            observed, scorer.classify_batch(observed)
        ):
            assert_bitwise(got, predictors[vm].classify_current(values))

    def test_refresh_refuses_untrained_replacement(self):
        predictors, _ = _make_fleet(n_vms=3)
        scorer = FleetScorer(predictors)
        assert scorer.stacked
        # The scorer holds its own dict: swap the entry it actually
        # consults for an untrained predictor.
        scorer.predictors["vm1"] = AnomalyPredictor(
            [f"m{i}" for i in range(N_ATTRS)], n_bins=6, markov="2dep"
        )
        assert not scorer.stacked
        with pytest.raises(ValueError, match="'vm1' is not trained"):
            scorer.refresh()

    def test_refresh_without_stack_is_false(self):
        # Mixed chain variants cannot stack into one fleet operator;
        # the scorer falls back to sequential scoring and refresh has
        # nothing to repair.
        p2dep, _ = _train_predictor(seed=1)
        rng = np.random.default_rng(2)
        simple = AnomalyPredictor(
            [f"m{i}" for i in range(N_ATTRS)], n_bins=6, markov="simple",
        )
        values = np.cumsum(rng.normal(size=(200, N_ATTRS)), axis=0)
        labels = (rng.random(200) < 0.3).astype(int)
        simple.train(values, labels)
        scorer = FleetScorer({"vm0": p2dep, "vm1": simple})
        assert not scorer.stacked
        assert scorer.refresh() is False


class TestServeImportCompat:
    def test_service_reexports_core_scorer(self):
        from repro.serve import service

        assert service.FleetScorer is FleetScorer


def _random_window(rng, n_attrs):
    """A random walk labelled abnormal where one attribute runs high,
    so attribute selection keeps a varying subset of attributes."""
    values = np.cumsum(rng.normal(size=(160, n_attrs)), axis=0)
    signal = values[:, rng.integers(n_attrs)]
    labels = (signal > np.quantile(signal, 0.7)).astype(int)
    return values, labels


vm_specs = st.tuples(
    st.integers(2, 6),                    # attributes
    st.sampled_from(["2dep", "simple"]),  # chain variant (if mixed)
    st.sampled_from(["tan", "naive"]),
    st.sampled_from(["soft", "hard"]),
)


class TestFleetScorerDifferential:
    """Random fleets: every fleet call equals the per-VM calls bitwise."""

    @given(
        seed=st.integers(0, 2**16),
        specs=st.lists(vm_specs, min_size=1, max_size=5),
        pure_chains=st.booleans(),
        n_bins=st.sampled_from([4, 6]),
        picks=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 150),
                      st.integers(1, 6)),
            min_size=1, max_size=8,
        ),
        retrain=st.one_of(st.none(), st.integers(0, 4)),
        refresh=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_score_and_classify_match_per_vm(
        self, seed, specs, pure_chains, n_bins, picks, retrain, refresh,
    ):
        rng = np.random.default_rng(seed)
        predictors, traces = {}, {}
        for i, (n_attrs, markov, classifier, mode) in enumerate(specs):
            vm = f"vm{i}"
            predictors[vm] = AnomalyPredictor(
                [f"m{j}" for j in range(n_attrs)], n_bins=n_bins,
                markov=specs[0][1] if pure_chains else markov,
                classifier=classifier, prediction_mode=mode,
            )
            traces[vm], labels = _random_window(rng, n_attrs)
            predictors[vm].train(traces[vm], labels)
        names = sorted(predictors)
        scorer = FleetScorer(predictors)
        assert (scorer._fast is not None) == (
            len({p.markov_kind for p in predictors.values()}) == 1
        )
        # Duplicate VMs, a subset of the fleet and mixed steps.
        batch = [
            (names[vm % len(names)],
             traces[names[vm % len(names)]][row:row + 2], steps)
            for vm, row, steps in picks
        ]
        observed = [(vm, recent[-1]) for vm, recent, _ in batch]
        scorer.score(batch)  # populate the horizon-operator cache
        if retrain is not None:
            predictor = predictors[names[retrain % len(names)]]
            predictor.train(*_random_window(rng, len(predictor.attributes)))
            if refresh:
                assert scorer.refresh() is (scorer._fast is not None)
        for (vm, recent, steps), got in zip(batch, scorer.score(batch)):
            assert_bitwise(got, predictors[vm].predict(recent, steps))
        for (vm, values), got in zip(
            observed, scorer.classify_batch(observed)
        ):
            assert_bitwise(got, predictors[vm].classify_current(values))


def _classifier_fleet(classifiers, markov, modes, seed):
    """Trained predictors, one per classifier name, sharing a chain."""
    rng = np.random.default_rng(seed)
    predictors, traces = {}, {}
    for i, (classifier, mode) in enumerate(zip(classifiers, modes)):
        vm = f"vm{i}"
        n_attrs = 3 + i % 3
        predictors[vm] = AnomalyPredictor(
            [f"m{j}" for j in range(n_attrs)], n_bins=6, markov=markov,
            classifier=classifier, prediction_mode=mode,
        )
        traces[vm], labels = _random_window(rng, n_attrs)
        predictors[vm].train(traces[vm], labels)
    return predictors, traces


def _assert_fleet_matches_per_vm(predictors, traces, steps):
    scorer = FleetScorer(predictors)
    assert scorer._fast is not None
    names = sorted(predictors)
    batch = [
        (vm, traces[vm][row:row + 2], steps)
        for row in (3, 70, 140) for vm in names
    ]
    for (vm, recent, k), got in zip(batch, scorer.score(batch)):
        assert_bitwise(got, predictors[vm].predict(recent, k))
    observed = [(vm, recent[-1]) for vm, recent, _ in batch]
    for (vm, values), got in zip(observed, scorer.classify_batch(observed)):
        assert_bitwise(got, predictors[vm].classify_current(values))


@pytest.mark.parametrize("steps", [1, 3, 6])
@pytest.mark.parametrize("markov", ["2dep", "simple"])
class TestNaiveBayesFastTier:
    """Naive Bayes enters the fast tier as a parent-less TAN."""

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_all_naive_fleet_matches_per_vm(self, markov, mode, steps):
        predictors, traces = _classifier_fleet(
            ["naive"] * 4, markov, [mode] * 4, seed=steps,
        )
        _assert_fleet_matches_per_vm(predictors, traces, steps)

    def test_mixed_classifier_fleet_matches_per_vm(self, markov, steps):
        predictors, traces = _classifier_fleet(
            ["naive", "tan", "tan", "naive"], markov,
            ["soft", "hard", "soft", "hard"], seed=10 + steps,
        )
        _assert_fleet_matches_per_vm(predictors, traces, steps)
