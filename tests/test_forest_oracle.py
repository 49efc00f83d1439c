"""The vectorized tree learner against a per-feature, per-row reference.

The reference below is the straightforward CART implementation the
vectorized code replaced: one stable sort per candidate feature per node,
recursive growth, and one Python-level walk per scored row.  It is kept here
as an oracle only.  Its single change from that implementation is the
threshold fallback (take the lower value when the midpoint does not fall
below the upper one), without which the old code routed rows differently
from the partition it had scored and crashed or recursed forever on
``-inf``/``inf`` neighbours, overflowing midpoints and adjacent floats.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from callsift import forest
from callsift.forest import (
    LEAF,
    DecisionTree,
    ForestParams,
    TreeParams,
    _gini_from_counts,
    _RankedSamples,
    gini_importance,
    train_decision_tree,
    train_random_forest,
    tree_importance,
)
from callsift.traces import labels_of

# --- reference implementation -------------------------------------------------


def reference_best_split(X, y, feature_ids, min_samples_leaf):
    n = y.shape[0]
    total1 = float(y.sum())
    parent_gini = float(_gini_from_counts(np.array(total1), np.array(float(n))))
    best = None
    for f in np.sort(feature_ids):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        v = col[order]
        cum1 = np.cumsum(y[order])
        i = np.arange(1, n)  # left side takes sorted rows [0, i)
        valid = v[1:] > v[:-1]
        if min_samples_leaf > 1:
            valid &= (i >= min_samples_leaf) & (n - i >= min_samples_leaf)
        if not valid.any():
            continue
        n_left = i.astype(np.float64)
        n_right = float(n) - n_left
        n1_left = cum1[:-1].astype(np.float64)
        n1_right = total1 - n1_left
        child = (
            n_left * _gini_from_counts(n1_left, n_left)
            + n_right * _gini_from_counts(n1_right, n_right)
        ) / float(n)
        decrease = np.where(valid, parent_gini - child, -np.inf)
        j = int(np.argmax(decrease))  # first max -> lowest threshold
        if decrease[j] == -np.inf:
            continue
        if best is None or decrease[j] > best[2]:
            with np.errstate(invalid="ignore", over="ignore"):
                threshold = float((v[j] + v[j + 1]) / 2.0)
            if not threshold < v[j + 1]:
                threshold = float(v[j])
            best = (int(f), threshold, float(decrease[j]))
    return best


def reference_tree(samples, labels, params=None):
    params = params or TreeParams()
    X = np.asarray(samples, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    d = X.shape[1]
    k = params.feature_subsample
    if k is not None and k > d:
        k = d
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node(idx):
        node = len(feature)
        feature.append(LEAF)
        threshold.append(math.nan)
        left.append(LEAF)
        right.append(LEAF)
        n1 = float(y[idx].sum())
        counts.append((float(idx.size) - n1, n1))
        return node

    def grow(idx, depth):
        node = new_node(idx)
        ysub = y[idx]
        if (ysub == ysub[0]).all() or (
            params.max_depth is not None and depth >= params.max_depth
        ):
            return node
        if idx.size < 2 * params.min_samples_leaf:
            return node
        if k is None:
            candidates = np.arange(d)
        else:
            candidates = rng.choice(d, size=k, replace=False)
        split = reference_best_split(X[idx], ysub, candidates, params.min_samples_leaf)
        if split is None:
            return node
        f, thr, _ = split
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = grow(idx[go_left], depth + 1)
        right[node] = grow(idx[~go_left], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return DecisionTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        class_counts=np.array(counts, dtype=np.float64),
        n_features=d,
        params=params,
    )


def reference_leaf_for(tree, x):
    node = 0
    while tree.feature[node] != LEAF:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = int(tree.left[node])
        else:
            node = int(tree.right[node])
    return node


def reference_scores(tree, X):
    out = []
    for row in X:
        counts = tree.class_counts[reference_leaf_for(tree, row)]
        total = counts.sum()
        out.append(float(counts[1] / total) if total else 0.5)
    return np.array(out)


def reference_importance(tree):
    imp = np.zeros(tree.n_features)
    totals = tree.class_counts.sum(axis=1)
    root_total = totals[0]
    if root_total == 0:
        return imp
    node_gini = _gini_from_counts(tree.class_counts[:, 1], totals)
    for node in range(tree.n_nodes):
        f = tree.feature[node]
        if f == LEAF:
            continue
        l, r = int(tree.left[node]), int(tree.right[node])
        imp[f] += (
            totals[node] * node_gini[node]
            - totals[l] * node_gini[l]
            - totals[r] * node_gini[r]
        ) / root_total
    return imp


def reference_forest(X, y, params):
    """``train_random_forest`` with each tree grown by ``reference_tree`` on
    the rows of its bootstrap sample, which ``_RankedSamples.take`` is handed
    just before the tree grows (in whichever process grows it)."""
    take, drawn = _RankedSamples.take, []

    def record(ranked, idx):
        drawn.append(idx)
        return take(ranked, idx)

    def grow(samples, labels, tree_params):
        return reference_tree(X[drawn.pop()], labels, tree_params)

    with mock.patch.object(_RankedSamples, "take", record), \
            mock.patch.object(forest, "train_decision_tree", grow):
        return train_random_forest(X, y, params)


def assert_same_tree(a, b):
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.right, b.right)
    assert np.array_equal(a.class_counts, b.class_counts)
    assert a.n_features == b.n_features


# --- properties ----------------------------------------------------------------

# ties, signed zeros, infinities, NaN, an overflowing pair and adjacent floats
EDGE_VALUES = (
    -np.inf, -2.0, -0.0, 0.0, 0.5, 1.0, 1.0 + 2**-52, 1.0 + 2**-51, 1.5,
    1.7e308, 1.79e308, np.inf, np.nan,
)
values = st.one_of(
    st.sampled_from(EDGE_VALUES), st.floats(-4.0, 4.0, allow_nan=False)
)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.float64, (n, d), elements=values))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    Xt = draw(hnp.arrays(np.float64, (draw(st.integers(1, 20)), d), elements=values))
    return X, y, Xt


@st.composite
def bootstrap_samples(draw):
    """A drawn dataset and the rows of one bootstrap resample of it."""
    X, y, Xt = draw(datasets())
    n = X.shape[0]
    return X, y, Xt, draw(hnp.arrays(np.int64, n, elements=st.integers(0, n - 1)))


tree_params = st.builds(
    TreeParams,
    max_depth=st.none() | st.integers(0, 6),
    min_samples_leaf=st.integers(1, 4),
    feature_subsample=st.none() | st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)


@settings(max_examples=300, deadline=None)
@given(datasets(), tree_params)
def test_tree_matches_reference(data, params):
    X, y, Xt = data
    tree = train_decision_tree(X, y, params)
    ref = reference_tree(X, y, params)
    assert_same_tree(tree, ref)
    for rows in (X, Xt):
        assert np.array_equal(tree.apply(rows), [reference_leaf_for(ref, x) for x in rows])
        assert np.array_equal(tree.predict_scores(rows), reference_scores(ref, rows))
    assert np.array_equal(tree_importance(tree), reference_importance(ref))


@settings(max_examples=300, deadline=None)
@given(bootstrap_samples(), tree_params)
def test_bootstrap_tree_matches_reference(data, params):
    # a forest's tree: the shared rank codes of a bootstrap resample, whose
    # ranks may have gaps, under any depth limit, leaf size and subsample
    X, y, Xt, idx = data
    tree = train_decision_tree(_RankedSamples.of(X).take(idx), y[idx], params)
    ref = reference_tree(X[idx], y[idx], params)
    assert_same_tree(tree, ref)
    for rows in (X, Xt):
        assert np.array_equal(tree.predict_scores(rows), reference_scores(ref, rows))


@settings(max_examples=20, deadline=None)
@given(datasets(), st.integers(0, 2**31 - 1))
def test_forest_matches_reference(data, seed):
    X, y, Xt = data
    params = ForestParams(seed=seed)
    fo = train_random_forest(X, y, params)
    ref = reference_forest(X, y, params)
    for a, b in zip(fo.trees, ref.trees, strict=True):
        assert_same_tree(a, b)
    for rows in (X, Xt):
        votes = sum(reference_scores(t, rows) >= 0.5 for t in ref.trees)
        assert np.array_equal(fo.predict_scores(rows), votes / len(ref.trees))
    assert np.array_equal(gini_importance(fo), gini_importance(ref))


# --- regressions ----------------------------------------------------------------


def test_deep_chain_does_not_hit_the_recursion_limit():
    # alternating labels on one sorted column: every split peels one row,
    # a chain about 1,500 nodes deep
    X = np.arange(1500.0)[:, None]
    y = np.arange(1500) % 2
    tree = train_decision_tree(X, y)
    assert tree.n_nodes == 2 * 1500 - 1
    assert np.array_equal(labels_of(tree.predict_scores(X)), y)


@pytest.mark.parametrize(
    "below, above",
    [
        (-np.inf, np.inf),  # midpoint NaN
        (0.0, np.inf),  # midpoint inf
        (1.7e308, 1.79e308),  # sum overflows
        (1.0 + 2**-52, 1.0 + 2**-51),  # midpoint rounds up to the upper value
    ],
)
def test_threshold_falls_back_when_midpoint_does_not_separate(below, above):
    X = np.array([[below], [above]])
    y = np.array([0, 1])
    tree = train_decision_tree(X, y)
    assert tree.n_nodes == 3
    assert tree.threshold[0] == below
    assert np.array_equal(labels_of(tree.predict_scores(X)), y)


# --- realistic size --------------------------------------------------------------


@pytest.fixture(scope="module")
def encoded_corpus():
    """Normalized call histograms of 320 barely separated, drifted traces:
    real-valued frequency columns with many distinct values, so nodes hold
    hundreds of rows and many valid boundaries."""
    from callsift import datagen
    from callsift.traces import build_vocabulary, encode_histogram

    config = datagen.make_config(
        seed=7, goodware_count=160, malware_count=160,
        profiles=datagen.default_profiles(separation=1.05, length_min=60, length_max=200),
        drift=datagen.DriftSchedule(0.3),
    )
    traces = datagen.generate_corpus(config)
    vocab = build_vocabulary(traces)
    X = encode_histogram(traces, vocab)
    y = np.array([int(t.label == "malware") for t in traces])
    return X, y


@pytest.mark.parametrize("min_samples_leaf", [1, 4])
def test_tree_matches_reference_on_encoded_corpus(encoded_corpus, min_samples_leaf):
    X, y = encoded_corpus
    params = TreeParams(min_samples_leaf=min_samples_leaf, seed=11)
    tree = train_decision_tree(X, y, params)
    assert tree.n_nodes > 40
    assert_same_tree(tree, reference_tree(X, y, params))


@pytest.mark.parametrize("seed", [1, 3])
def test_forest_matches_reference_on_encoded_corpus(encoded_corpus, seed):
    X, y = encoded_corpus
    params = ForestParams(seed=seed)
    fo = train_random_forest(X, y, params)
    ref = reference_forest(X, y, params)
    for a, b in zip(fo.trees, ref.trees, strict=True):
        assert_same_tree(a, b)
    assert np.array_equal(fo.predict_scores(X), ref.predict_scores(X))
