"""Periodic retraining is stateless.

PREPARE retrains each VM's model from scratch on its labelled window.
The controller and the serving registry reuse the live objects, so a
refit must leave nothing behind from the previous window or from a
restored snapshot: refitting a trained (or restored) model on a window
must equal, float for float, a fresh model fitted on that window.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bayes import NaiveBayesClassifier
from repro.core.markov import SimpleMarkovModel, TwoDependentMarkovModel
from repro.core.predictor import AnomalyPredictor
from repro.core.tan import TANClassifier

N_STATES = 6

sequences = st.lists(st.integers(0, N_STATES - 1), min_size=0, max_size=40)


def assert_chains_bitwise_equal(a, b):
    np.testing.assert_array_equal(a._counts, b._counts)
    assert a._trained == b._trained
    if a._trained:
        np.testing.assert_array_equal(
            a.transition_matrix(), b.transition_matrix()
        )


# ----------------------------------------------------------------------
# Markov chains
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [SimpleMarkovModel, TwoDependentMarkovModel])
class TestMarkovRefit:
    @given(first=sequences, second=sequences)
    @settings(max_examples=60, deadline=None)
    def test_refit_matches_fresh_fit(self, cls, first, second):
        refit = cls(N_STATES).fit(first).fit(second)
        assert_chains_bitwise_equal(refit, cls(N_STATES).fit(second))

    def test_restored_chain_refits_like_fresh(self, cls):
        old = cls(N_STATES).fit([0, 1, 2, 3, 2, 1, 0, 1, 2])
        restored = cls.from_dict(old.to_dict())
        new = [5, 4, 3, 2, 1, 0, 1, 2, 3, 4]
        assert_chains_bitwise_equal(
            restored.fit(new), cls(N_STATES).fit(new)
        )


# ----------------------------------------------------------------------
# Classifiers
# ----------------------------------------------------------------------
def make_labeled(seed, n, n_attrs=4, n_bins=N_STATES):
    """Random bins; the label follows attribute ``seed % n_attrs`` so
    attribute selection keeps a seed-dependent subset."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, n_bins, size=(n, n_attrs))
    signal = X[:, seed % n_attrs]
    y = ((signal >= n_bins - 2) ^ (rng.random(n) < 0.1)).astype(int)
    y[:2] = [0, 1]
    return X, y


def assert_classifiers_bitwise_equal(a, b, X):
    np.testing.assert_array_equal(a._log_prior, b._log_prior)
    np.testing.assert_array_equal(a.attribute_mask, b.attribute_mask)
    np.testing.assert_array_equal(a._diff_hard, b._diff_hard)
    np.testing.assert_array_equal(a._diff_soft, b._diff_soft)
    np.testing.assert_array_equal(a.log_odds_batch(X), b.log_odds_batch(X))
    np.testing.assert_array_equal(a.strengths_batch(X), b.strengths_batch(X))
    if isinstance(a, TANClassifier):
        np.testing.assert_array_equal(a.parents, b.parents)


@pytest.mark.parametrize("cls", [NaiveBayesClassifier, TANClassifier])
@pytest.mark.parametrize("robust", [True, False])
@pytest.mark.parametrize("class_prior", ["balanced", "empirical", "capped"])
class TestClassifierRefit:
    def test_refit_matches_fresh_fit(self, cls, robust, class_prior):
        old_X, old_y = make_labeled(11, 240)
        new_X, new_y = make_labeled(14, 180)
        kw = dict(n_bins=N_STATES, robust=robust, class_prior=class_prior)
        refit = cls(**kw).fit(old_X, old_y).fit(new_X, new_y)
        fresh = cls(**kw).fit(new_X, new_y)
        assert_classifiers_bitwise_equal(refit, fresh, new_X)

    def test_restored_classifier_refits_like_fresh(
        self, cls, robust, class_prior
    ):
        old_X, old_y = make_labeled(13, 200)
        new_X, new_y = make_labeled(17, 160)
        kw = dict(n_bins=N_STATES, robust=robust, class_prior=class_prior)
        restored = cls.from_dict(cls(**kw).fit(old_X, old_y).to_dict())
        refit = restored.fit(new_X, new_y)
        fresh = cls(**kw).fit(new_X, new_y)
        assert_classifiers_bitwise_equal(refit, fresh, new_X)


# ----------------------------------------------------------------------
# Predictor
# ----------------------------------------------------------------------
ATTRS = ["a", "b", "c"]


def predictor_window(seed, n=220, offset=0.0):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=(n, len(ATTRS))), axis=0) + offset
    signal = values[:, seed % len(ATTRS)]
    labels = (signal > np.quantile(signal, 0.7)).astype(int)
    return values, labels


def assert_predictions_bitwise_equal(a, b, values):
    for end in (a.history_needed, len(values) // 2, len(values)):
        recent = values[end - a.history_needed:end]
        for steps in (1, 4):
            assert repr(a.predict(recent, steps)) == repr(
                b.predict(recent, steps)
            )
        assert repr(a.classify_current(values[end - 1])) == repr(
            b.classify_current(values[end - 1])
        )


class TestPredictorRetrain:
    @pytest.mark.parametrize("markov", ["simple", "2dep"])
    @pytest.mark.parametrize("classifier", ["tan", "naive"])
    def test_retrain_matches_fresh_predictor(self, markov, classifier):
        # The new window sits far outside the old one, so a discretizer
        # or chain that kept anything from the first fit would differ.
        old, old_labels = predictor_window(41)
        new, new_labels = predictor_window(43, offset=50.0)
        kw = dict(n_bins=6, markov=markov, classifier=classifier)
        retrained = AnomalyPredictor(ATTRS, **kw).train(old, old_labels)
        retrained.train(new, new_labels)
        fresh = AnomalyPredictor(ATTRS, **kw).train(new, new_labels)
        assert_predictions_bitwise_equal(retrained, fresh, new)

    def test_retrain_with_segment_ids_matches_fresh_predictor(self):
        old, old_labels = predictor_window(47)
        new, new_labels = predictor_window(53)
        ids = np.zeros(len(new), dtype=int)
        ids[120:] = 1
        retrained = AnomalyPredictor(ATTRS, n_bins=6).train(old, old_labels)
        retrained.train(new, new_labels, segment_ids=ids)
        fresh = AnomalyPredictor(ATTRS, n_bins=6).train(
            new, new_labels, segment_ids=ids
        )
        assert_predictions_bitwise_equal(retrained, fresh, new)

    def test_restored_predictor_retrains_like_fresh(self):
        old, old_labels = predictor_window(59)
        new, new_labels = predictor_window(61)
        trained = AnomalyPredictor(ATTRS, n_bins=6).train(old, old_labels)
        restored = AnomalyPredictor.from_dict(trained.to_dict())
        restored.train(new, new_labels)
        fresh = AnomalyPredictor(ATTRS, n_bins=6).train(new, new_labels)
        assert_predictions_bitwise_equal(restored, fresh, new)
