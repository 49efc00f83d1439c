from types import SimpleNamespace

import numpy as np
import pytest

from callsift import explain, forest, reservoir
from callsift.evaluation import majority_vote
from callsift.models import (
    TREE,
    EncodingOptions,
    HistogramClassifier,
    LsmClassifier,
    VotingEnsembleClassifier,
    make_classifier,
)
from callsift.traces import LABEL_TO_INT, SyscallVocabulary, labels_of
from conftest import make_trace


def test_make_classifier_kinds():
    for kind in ("tree", "hist-rf", "linear"):
        assert isinstance(make_classifier(kind), HistogramClassifier)
    assert isinstance(make_classifier("lsm"), LsmClassifier)
    assert isinstance(make_classifier("ensemble"), VotingEnsembleClassifier)
    with pytest.raises(ValueError, match="unknown model kind"):
        make_classifier("transformer")
    with pytest.raises(ValueError):
        EncodingOptions(truncation=0)


def test_vocabulary_built_from_training_only(small_corpus, small_labels):
    clf = make_classifier("tree", seed=0, encoding=EncodingOptions(truncation=50))
    clf.fit(small_corpus, small_labels)
    known = set(clf.vocab.names)
    # scoring a trace full of unseen calls routes through the OOV slot
    alien = make_trace([(0, "NtFromTheFuture")] * 5, label="malware")
    assert "NtFromTheFuture" not in known
    pred, score = clf.predict([alien])
    assert pred.shape == (1,) and 0.0 <= score[0] <= 1.0


def test_histogram_classifier_predictions_match_scores(small_corpus, small_labels):
    clf = make_classifier("hist-rf", seed=2, encoding=EncodingOptions(truncation=80))
    clf.fit(small_corpus, small_labels)
    pred, scores = clf.predict(small_corpus)
    assert np.array_equal(pred, (scores >= 0.5).astype(int))


def test_ensemble_majority_and_tie(small_corpus, small_labels):
    class Fixed:
        def __init__(self, value):
            self.value = value
        def fit(self, traces, labels):
            return self
        def predict(self, traces):
            p = np.full(len(traces), self.value, dtype=np.int64)
            return p, p.astype(float)

    ens = VotingEnsembleClassifier({"a": Fixed(1), "b": Fixed(1), "c": Fixed(0)})
    pred, score = ens.predict(small_corpus[:4])
    assert pred.tolist() == [1, 1, 1, 1]
    tie = VotingEnsembleClassifier({"a": Fixed(1), "b": Fixed(0)})
    pred, score = tie.predict(small_corpus[:2])
    assert pred.tolist() == [1, 1] and score.tolist() == [0.5, 0.5]
    with pytest.raises(ValueError):
        VotingEnsembleClassifier({})


def test_lsm_classifier_deterministic(small_corpus, small_labels):
    enc = EncodingOptions(truncation=60)
    a = LsmClassifier(seed=4, encoding=enc, folds=5).fit(small_corpus, small_labels)
    b = LsmClassifier(seed=4, encoding=enc, folds=5).fit(small_corpus, small_labels)
    pa, sa = a.predict(small_corpus[:20])
    pb, sb = b.predict(small_corpus[:20])
    assert np.array_equal(pa, pb) and np.array_equal(sa, sb)


class Half:
    """A stub model whose every score is exactly 0.5."""

    def predict_scores(self, X):
        return np.full(np.asarray(X).shape[0], 0.5)


def _histogram_classifier_label(monkeypatch):
    clf = HistogramClassifier(TREE)
    clf.vocab, clf.model = SyscallVocabulary(("NtClose",)), Half()
    return clf.predict([make_trace([(0, "NtClose")])])[0][0]


def _lsm_classifier_label(monkeypatch):
    clf = LsmClassifier()
    clf.vocab = SyscallVocabulary(("NtClose",))
    clf.model = SimpleNamespace(topology=None, readout=Half())
    monkeypatch.setattr(reservoir, "liquid_states",
                        lambda topology, inputs: np.zeros((len(list(inputs)), 1)))
    return clf.predict([make_trace([(0, "NtClose")])])[0][0]


def _tied_leaf():
    """A one-leaf tree whose leaf one goodware and one malware sample reached."""
    return forest.DecisionTree(
        feature=np.array([forest.LEAF]), threshold=np.array([np.nan]),
        left=np.array([forest.LEAF]), right=np.array([forest.LEAF]),
        class_counts=np.array([[1.0, 1.0]]), n_features=1, params=forest.TreeParams(),
    )


def _forest_vote_label(monkeypatch):
    leaf = _tied_leaf()
    model = forest.RandomForest([leaf] * forest.FOREST_TREES, 1, forest.ForestParams())
    X = np.zeros((1, 1))
    assert leaf.predict_scores(X)[0] == 0.5
    # every tree casts the same vote, so one tree's vote is the forest's score
    assert labels_of(model.predict_scores(X))[0] == model.predict_scores(X)[0]
    return model.predict_scores(X)[0]


def _extract_rules_label(monkeypatch):
    (rule,) = explain.extract_rules(_tied_leaf())
    assert rule.leaf_counts == (1.0, 1.0)
    return LABEL_TO_INT[rule.predicted]


def _majority_vote_label(monkeypatch):
    return majority_vote([np.array([1]), np.array([0])])[0]


def _readout_fold_loss_label(monkeypatch):
    monkeypatch.setattr(reservoir, "_fit_readout", lambda *args: Half())
    y = np.array([1, 1, 1, 1, 0, 0])  # each of the 2 folds: 2 malware, 1 goodware
    readout = reservoir.train_readout(np.zeros((6, 2)), y, folds=2)
    # a fold's loss is the share of its samples not of the label every 0.5
    # got: one third if that label is malware, two thirds if goodware
    thirds = {round(3 * loss, 9) for _, loss in readout.search_log}
    assert thirds in ({1.0}, {2.0})
    return int(thirds == {1.0})


@pytest.mark.parametrize("label_of_a_half", [
    _histogram_classifier_label, _lsm_classifier_label, _forest_vote_label,
    _extract_rules_label, _majority_vote_label, _readout_fold_loss_label,
])
def test_a_score_of_exactly_one_half_is_malware(label_of_a_half, monkeypatch):
    assert label_of_a_half(monkeypatch) == 1
