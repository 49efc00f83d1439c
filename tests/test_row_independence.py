"""Every scorer scores a row independently of the other rows in the call:
scoring a matrix equals scoring each row alone, any chunking of its rows,
a row permutation, and F-ordered or sliced copies, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from callsift import explain, forest, reservoir
from callsift.models import EncodingOptions, HistogramClassifier, LsmClassifier

D = 25  # the histogram width of a 24-call vocabulary plus its OOV slot


@pytest.fixture(scope="module")
def scorers():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, D))
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(np.int64)
    return {
        "tree": forest.train_decision_tree(X, y),
        "forest": forest.train_random_forest(X, y, forest.ForestParams(seed=1)),
        "linear": forest.LinearModel(rng.normal(size=D), 0.3, forest.LinearParams()),
        "linear readout": reservoir.train_readout(X, y, folds=2),
    }


@pytest.fixture(scope="module")
def classifiers(small_corpus, small_labels):
    encoding = EncodingOptions(truncation=40)
    return {
        clf.kind: clf.fit(small_corpus, small_labels)
        for clf in (LsmClassifier(seed=1, encoding=encoding, folds=3),
                    HistogramClassifier("linear", seed=1, encoding=encoding))
    }


def pick(rows, order):
    return rows[np.asarray(order, dtype=np.int64)] if isinstance(rows, np.ndarray) \
        else [rows[i] for i in order]


def assert_row_independent(score, rows, data):
    """``score`` of ``rows`` equals its scores of each row alone, of any
    chunking of the rows and of a permutation of them."""
    n = len(rows)
    whole = score(rows)
    assert whole.shape == (n,)
    assert np.array_equal([score(rows[i:i + 1])[0] for i in range(n)], whole)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4), label="cuts"))
    bounds = [0, *cuts, n]
    parts = [score(rows[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts), whole)
    perm = data.draw(st.permutations(range(n)), label="perm")
    assert np.array_equal(score(pick(rows, perm)), whole[np.asarray(perm, dtype=np.int64)])
    assert score(rows[:0]).shape == (0,)
    return whole


def assert_layout_free(score, X, whole):
    """Memory layout never changes a score: F order, strided and reversed views."""
    assert np.array_equal(score(np.asfortranarray(X)), whole)
    assert np.array_equal(score(np.hstack([X, X])[:, :X.shape[1]]), whole)
    assert np.array_equal(score(X[::-1]), whole[::-1])
    assert np.array_equal(score(X[::2]), whole[::2])


matrices = hnp.arrays(
    np.float64, st.tuples(st.integers(0, 12), st.just(D)),
    elements=st.floats(-4.0, 4.0, width=32),
)


@pytest.mark.parametrize("kind", ["tree", "forest", "linear", "linear readout"])
@settings(max_examples=60, deadline=None)
@given(X=matrices, data=st.data())
def test_matrix_scorers_are_row_independent(scorers, kind, X, data):
    score = scorers[kind].predict_scores
    whole = assert_row_independent(score, X, data)
    assert_layout_free(score, X, whole)


@pytest.mark.parametrize("kind", ["lsm", "linear"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_classifier_predict_is_row_independent(classifiers, small_corpus, kind, data):
    order = data.draw(st.lists(st.integers(0, len(small_corpus) - 1), max_size=8), label="traces")
    traces = [small_corpus[i] for i in order]
    assert_row_independent(lambda ts: classifiers[kind].predict(ts)[1], traces, data)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_lsm_histogram_scorer_is_row_independent(classifiers, data):
    lsm_clf = classifiers["lsm"]
    width = lsm_clf.vocab.width
    # the scorer spreads k / 5 of a normalized histogram as 20 * k events
    X = data.draw(hnp.arrays(np.float64, st.tuples(st.integers(0, 5), st.just(width)),
                             elements=st.integers(0, 3).map(lambda k: k / 5)), label="X")
    score = explain.LsmHistogramScorer(lsm_clf).score_histograms
    whole = assert_row_independent(score, X, data)
    assert_layout_free(score, X, whole)
