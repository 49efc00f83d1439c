import contextlib
import dataclasses
import itertools
import os
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from callsift import forest
from callsift.forest import (
    ForestParams,
    LinearParams,
    TreeParams,
    _sigmoid,
    gini_importance,
    train_decision_tree,
    train_linear,
    train_random_forest,
)
from callsift.traces import labels_of
from conftest import logistic_loss_and_grad
from test_forest_oracle import (  # noqa: F401
    assert_same_tree,
    bootstrap_samples,
    datasets,
    encoded_corpus,
    tree_params,
)


def leaves(tree):
    return [i for i in range(tree.n_nodes) if tree.feature[i] == -1]


# --- decision tree ------------------------------------------------------------


def test_single_class_gives_single_leaf():
    tree = train_decision_tree(np.array([[1.0], [2.0], [3.0]]), np.array([1, 1, 1]))
    assert tree.n_nodes == 1
    X = np.array([[9.0]])
    label, score = labels_of(tree.predict_scores(X))[0], tree.predict_scores(X)[0]
    assert (label, score) == (1, 1.0)


def test_xor_needs_depth_two_and_gets_it():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])

    # oracle: exhaustively confirm no single (feature, threshold) split works
    def stump_accuracy(f, thr):
        best = 0
        for left_lab, right_lab in itertools.product([0, 1], repeat=2):
            pred = np.where(X[:, f] <= thr, left_lab, right_lab)
            best = max(best, (pred == y).mean())
        return best
    thresholds = [0.5]
    assert all(stump_accuracy(f, t) < 1.0 for f in (0, 1) for t in thresholds)

    tree = train_decision_tree(X, y)
    assert np.array_equal(labels_of(tree.predict_scores(X)), y)
    # depth 2 = exactly 3 internal nodes for the XOR layout
    assert sum(1 for i in range(tree.n_nodes) if tree.feature[i] != -1) == 3


def test_duplicated_dataset_same_structure():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(int)
    t1 = train_decision_tree(X, y)
    t2 = train_decision_tree(np.vstack([X, X]), np.concatenate([y, y]))
    assert np.array_equal(t1.feature, t2.feature)
    assert np.array_equal(t1.threshold, t2.threshold, equal_nan=True)


def test_tree_input_validation():
    with pytest.raises(ValueError):
        train_decision_tree(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        train_decision_tree(np.zeros((3, 2)), np.array([0, 1]))
    with pytest.raises(ValueError):
        train_decision_tree(np.zeros((2, 2)), np.array([0, 2]))
    tree = train_decision_tree(np.zeros((2, 2)), np.array([0, 1]))
    with pytest.raises(ValueError):
        tree.predict_scores(np.zeros((1, 3)))


def test_replay_consistency_on_training_samples():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, size=(200, 6))
    y = ((X[:, 0] > 0.4) & (X[:, 3] < 0.7)).astype(int)
    tree = train_decision_tree(X, y)
    for row in X[:50]:
        # replay the root-to-leaf path and check every threshold it imposes
        node = 0
        conditions = []
        while tree.feature[node] != -1:
            f, thr = int(tree.feature[node]), float(tree.threshold[node])
            if row[f] <= thr:
                conditions.append(row[f] <= thr)
                node = int(tree.left[node])
            else:
                conditions.append(row[f] > thr)
                node = int(tree.right[node])
        assert all(conditions)
        assert tree.apply(row[None, :])[0] == node


def test_children_impurity_never_exceeds_parent():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(150, 4))
    y = (X[:, 1] + 0.3 * rng.normal(size=150) > 0).astype(int)
    tree = train_decision_tree(X, y)

    def gini(counts):
        n = counts.sum()
        if n == 0:
            return 0.0
        p = counts[1] / n
        return 1 - p * p - (1 - p) ** 2

    for i in range(tree.n_nodes):
        if tree.feature[i] == -1:
            continue
        l, r = int(tree.left[i]), int(tree.right[i])
        n = tree.class_counts[i].sum()
        weighted = (
            tree.class_counts[l].sum() * gini(tree.class_counts[l])
            + tree.class_counts[r].sum() * gini(tree.class_counts[r])
        ) / n
        assert weighted <= gini(tree.class_counts[i]) + 1e-12


def test_max_depth_and_min_samples_leaf():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(100, 3))
    y = (X[:, 0] > 0.5).astype(int)
    stump = train_decision_tree(X, y, TreeParams(max_depth=1))
    assert sum(1 for i in range(stump.n_nodes) if stump.feature[i] != -1) <= 1
    big_leaves = train_decision_tree(X, y, TreeParams(min_samples_leaf=20))
    for i in leaves(big_leaves):
        assert big_leaves.class_counts[i].sum() >= 20


def test_label_flip_symmetry_tree_and_forest():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(120, 5))
    y = ((X[:, 0] + X[:, 2]) > 0).astype(int)
    Xt = rng.normal(size=(60, 5))

    tree = train_decision_tree(X, y, TreeParams(seed=2))
    tree_flipped = train_decision_tree(X, 1 - y, TreeParams(seed=2))
    s = tree.predict_scores(Xt)
    sf = tree_flipped.predict_scores(Xt)
    assert np.allclose(s, 1 - sf)

    params = ForestParams(seed=4)
    fo = train_random_forest(X, y, params)
    fo_flipped = train_random_forest(X, 1 - y, params)
    s = fo.predict_scores(Xt)
    sf = fo_flipped.predict_scores(Xt)
    assert np.allclose(s, 1 - sf)
    # flipped labels flip every vote; a tie of the 100 trees goes to malware
    # both ways
    tie = s == 0.5
    assert tie.any()
    assert np.array_equal(labels_of(s)[~tie], 1 - labels_of(sf)[~tie])
    assert (labels_of(s)[tie] == 1).all() and (labels_of(sf)[tie] == 1).all()


# --- random forest --------------------------------------------------------------


def test_forest_params_validation():
    # the recipe is fixed at its defaults; any other value is refused by name
    off = dict(n_trees=50, bootstrap=False, feature_subsample=3, max_depth=4,
               min_samples_leaf=2)
    assert list(off) + ["seed"] == [f.name for f in dataclasses.fields(ForestParams)]
    for name, value in off.items():
        with pytest.raises(ValueError, match=rf"^ForestParams\.{name} is fixed at "):
            ForestParams(**{name: value})
    with pytest.raises(ValueError, match=r"^ForestParams\.n_trees is fixed at 100, got 50$"):
        ForestParams(n_trees=50)
    assert ForestParams(seed=7).seed == 7


def test_a_forest_grows_its_fixed_recipe():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 10))
    y = (X[:, 0] > 0).astype(int)
    fo = train_random_forest(X, y, ForestParams(seed=6))
    assert len(fo.trees) == forest.FOREST_TREES == 100
    assert {(t.params.feature_subsample, t.params.max_depth, t.params.min_samples_leaf)
            for t in fo.trees} == {(4, None, 1)}  # ceil(sqrt(10)) features a split
    # every tree grows to purity: each leaf holds one class
    for t in fo.trees:
        assert (t.class_counts[t.feature == -1].min(axis=1) == 0).all()


def test_forest_seed_determinism():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(80, 6))
    y = (X[:, 0] > 0).astype(int)
    Xt = rng.normal(size=(40, 6))
    a = train_random_forest(X, y, ForestParams(seed=9))
    b = train_random_forest(X, y, ForestParams(seed=9))
    assert np.array_equal(a.predict_scores(Xt), b.predict_scores(Xt))
    c = train_random_forest(X, y, ForestParams(seed=10))
    assert not np.array_equal(a.predict_scores(Xt), c.predict_scores(Xt))


def test_forest_vote_fraction_and_tie_to_malware():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    fake = train_random_forest(X, y, ForestParams(seed=0))
    # craft a 50-50 tie: half the trees vote goodware and half malware everywhere
    half = len(fake.trees) // 2
    for i, t in enumerate(fake.trees):
        t.class_counts[:] = (1.0, 0.0) if i < half else (0.0, 1.0)
    X = np.array([[0.0]])
    label, score = labels_of(fake.predict_scores(X))[0], fake.predict_scores(X)[0]
    assert score == 0.5 and label == 1


def test_forest_separable_corpus_high_caa(small_corpus, small_labels):
    from callsift.evaluation import LabeledDataset, compute_metrics, split_sorted
    from callsift.models import EncodingOptions, HistogramClassifier

    ds = LabeledDataset.from_traces(small_corpus)
    train, test = split_sorted(ds, train_fraction=0.8)
    clf = HistogramClassifier("hist-rf", seed=1, encoding=EncodingOptions(truncation=100))
    clf.fit(train.samples, train.labels)
    metrics, _ = compute_metrics(clf.predict(test.samples)[0], test.labels)
    assert metrics.caa >= 0.95


@settings(max_examples=100, deadline=None)
@given(bootstrap_samples(), tree_params)
def test_forest_rank_codes_match_per_tree_coding(data, params):
    # the forest codes its training matrix once and hands each tree the
    # codes of its bootstrap rows; coding those rows on their own must grow
    # the same tree.  Thresholds compare as numbers: where a column holds
    # both -0.0 and 0.0, a zero threshold may carry the other sign
    X, y, Xt, idx = data
    shared = train_decision_tree(forest._RankedSamples.of(X).take(idx), y[idx], params)
    own = train_decision_tree(X[idx], y[idx], params)
    assert_same_tree(shared, own)
    for rows in (X, Xt):
        assert np.array_equal(shared.predict_scores(rows), own.predict_scores(rows))


def test_forest_prediction_invariant_under_tree_permutation():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(60, 4))
    y = (X[:, 1] > 0).astype(int)
    forest = train_random_forest(X, y, ForestParams(seed=2))
    Xt = rng.normal(size=(30, 4))
    before = forest.predict_scores(Xt)
    forest.trees.reverse()
    assert np.array_equal(before, forest.predict_scores(Xt))


# --- tree-parallel fit ----------------------------------------------------------


def _assert_same_forest(a, b, X):
    for ta, tb in zip(a.trees, b.trees, strict=True):
        assert_same_tree(ta, tb)
    assert np.array_equal(a.predict_scores(X), b.predict_scores(X))


def _counting_forks():
    """A stand-in for ``os.fork`` that counts the parent's calls."""
    calls = []
    real = os.fork

    def fork():
        calls.append(1)
        return real()
    return calls, fork


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 9), st.integers(2, 4))
def test_forked_fit_equals_one_cpu_fit(count, workers):
    # _map_forked is the list comprehension, in order: the caller runs the
    # first contiguous block and each other block forks one worker
    parent = os.getpid()
    calls, fork = _counting_forks()
    with mock.patch.object(forest, "_usable_cpus", lambda: workers), \
            mock.patch.object(os, "fork", fork):
        got = forest._map_forked(lambda i: (i * i, os.getpid() == parent), count)
    blocks = min(workers, count)
    assert [square for square, _ in got] == [i * i for i in range(count)]
    assert [here for _, here in got] == [i < count // max(blocks, 1) for i in range(count)]
    assert len(calls) == max(blocks - 1, 0)


@settings(max_examples=10, deadline=None)
@given(datasets(), st.integers(0, 2**31 - 1), st.integers(2, 4))
def test_forked_forest_equals_one_cpu_forest(data, seed, workers):
    X, y, Xt = data
    params = ForestParams(seed=seed)
    with mock.patch.object(forest, "_usable_cpus", lambda: 1):
        serial = train_random_forest(X, y, params)
    calls, fork = _counting_forks()
    with mock.patch.object(forest, "_usable_cpus", lambda: workers), \
            mock.patch.object(os, "fork", fork):
        forked = train_random_forest(X, y, params)
    assert len(calls) == workers - 1
    _assert_same_forest(serial, forked, Xt)


@pytest.mark.parametrize("workers", [None, 3])
def test_forked_fit_equals_one_cpu_fit_on_encoded_corpus(encoded_corpus, monkeypatch, workers):
    X, y = encoded_corpus
    params = ForestParams(seed=3)
    monkeypatch.setattr(forest, "_usable_cpus", lambda: 1)
    serial = train_random_forest(X, y, params)
    monkeypatch.undo()
    if workers is not None:
        monkeypatch.setattr(forest, "_usable_cpus", lambda: workers)
    _assert_same_forest(serial, train_random_forest(X, y, params), X)


class TreeGrowthFailed(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, rather than hang, a fit that waits on a child forever."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _fail_in(where, exc):
    """A ``train_decision_tree`` that raises ``exc`` in the parent or in the
    forked children."""
    parent, own = os.getpid(), forest.train_decision_tree

    def train(samples, labels, params):
        if (os.getpid() == parent) == (where == "parent"):
            raise exc
        return own(samples, labels, params)
    return train


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_tree_raises_in_the_parent_and_leaves_no_child(
        encoded_corpus, monkeypatch, where):
    # 3 workers on 100 trees: each child's block pickles to about 175 KB,
    # more than a 64 KB pipe buffer holds, so a parent that fails first must
    # not wait on a blocked writer
    X, y = encoded_corpus
    monkeypatch.setattr(forest, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(forest, "train_decision_tree",
                        _fail_in(where, TreeGrowthFailed("no tree today")))
    with pytest.raises(TreeGrowthFailed) as info, _deadline(60):
        train_random_forest(X, y)
    assert type(info.value) is TreeGrowthFailed and str(info.value) == "no tree today"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_unpicklable_child_error_arrives_by_type_name_and_message(monkeypatch):
    class LocalError(Exception):  # a local class does not pickle
        pass

    monkeypatch.setattr(forest, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(forest, "train_decision_tree",
                        _fail_in("child", LocalError("bad split")))
    # the pool raises the pickler's error; the worker's traceback, which
    # holds the unpicklable error, is its cause
    with pytest.raises(Exception) as info, _deadline(60):
        train_random_forest(np.arange(8.0)[:, None], np.arange(8) % 2)
    assert "LocalError: bad split" in str(info.value.__cause__)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_dying_worker_raises_in_the_parent_and_leaves_no_child(encoded_corpus, monkeypatch):
    parent, own = os.getpid(), forest.train_decision_tree

    def train(samples, labels, params):
        if os.getpid() != parent:
            os._exit(3)
        return own(samples, labels, params)

    X, y = encoded_corpus
    monkeypatch.setattr(forest, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(forest, "train_decision_tree", train)
    with pytest.raises(RuntimeError), _deadline(60):  # BrokenProcessPool
        train_random_forest(X, y)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_output_left_unflushed_before_a_forked_fit_is_written_once():
    # stdout to a pipe is block-buffered (unless PYTHONUNBUFFERED is set): a
    # child that flushed the parent's buffer on its way out would print the
    # text a second time
    src = str(Path(forest.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "from unittest import mock\n"
        "import numpy as np\n"
        "from callsift import forest\n"
        "print('before the fit', end='')\n"
        "with mock.patch.object(forest, '_usable_cpus', lambda: 3):\n"
        "    forest.train_random_forest(np.arange(12.0)[:, None], np.arange(12) % 2)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "before the fit"


@pytest.mark.parametrize("affinity, count", [({0}, 5), ({0, 1, 2, 3}, 1)])
def test_one_cpu_or_one_tree_never_forks(monkeypatch, affinity, count):
    def fork():
        raise AssertionError("os.fork called")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    assert forest._map_forked(lambda i: i * i, count) == [i * i for i in range(count)]


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert forest._usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert forest._usable_cpus() == 6


# --- gini importance -------------------------------------------------------------


def test_importance_single_informative_feature_is_one():
    rng = np.random.default_rng(19)
    X = np.column_stack([rng.normal(size=100), np.zeros(100)])
    y = (X[:, 0] > 0).astype(int)
    forest = train_random_forest(X, y, ForestParams(seed=3))
    imp = gini_importance(forest)
    assert imp[0] == pytest.approx(1.0)
    assert imp[1] == 0.0  # constant feature can never be split on


def test_importance_hand_computed_three_sample_tree():
    # X = [[0,0],[1,0],[1,1]], y = [g, m, g]
    # root splits f0 at 0.5: decrease (4/9 - 1/3) = 1/9
    # right child splits f1 at 0.5: decrease weighted (2/3)*(1/2) = 1/3
    # normalized: f0 -> 0.25, f1 -> 0.75
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 0])
    tree = train_decision_tree(X, y)
    imp = gini_importance(tree)
    assert imp == pytest.approx([0.25, 0.75], abs=1e-12)


def test_importance_two_equally_informative_features_split_evenly():
    rng = np.random.default_rng(23)
    n = 2000
    y = rng.integers(0, 2, size=n)
    X = np.column_stack([
        y + rng.normal(0, 0.8, size=n),
        y + rng.normal(0, 0.8, size=n),
    ])

    # brute-force oracle: the best single-split impurity decrease of each
    # feature on this sample must agree (the features are interchangeable)
    def best_decrease(col):
        order = np.argsort(col)
        ys = y[order]
        n1 = ys.sum()
        best = 0.0
        cum = np.cumsum(ys)
        for i in range(1, n):
            nl, n1l = i, cum[i - 1]
            nr, n1r = n - i, n1 - cum[i - 1]
            def g(cnt1, cnt):
                p = cnt1 / cnt
                return 1 - p * p - (1 - p) ** 2
            parent = g(n1, n)
            child = (nl * g(n1l, nl) + nr * g(n1r, nr)) / n
            best = max(best, parent - child)
        return best
    d0, d1 = best_decrease(X[:, 0]), best_decrease(X[:, 1])
    assert abs(d0 - d1) / max(d0, d1) < 0.1

    forest = train_random_forest(X, y, ForestParams(seed=5))
    imp = gini_importance(forest)
    assert imp[0] == pytest.approx(0.5, abs=0.1)
    assert imp[1] == pytest.approx(0.5, abs=0.1)


def test_importance_no_split_forest_all_zero():
    tree = train_decision_tree(np.array([[1.0], [1.0]]), np.array([1, 1]))
    assert gini_importance(tree).tolist() == [0.0]


def test_importance_sums_to_one_when_splits_exist():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(100, 5))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    forest = train_random_forest(X, y, ForestParams(seed=1))
    imp = gini_importance(forest)
    assert (imp >= 0).all()
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)


# --- linear model -----------------------------------------------------------------


def test_linear_separable_training_accuracy_one():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0],
                  [3.0, 3.0], [3.0, 4.0], [4.0, 3.0], [4.0, 4.0]])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    model = train_linear(X, y, LinearParams(learning_rate=0.5, epochs=2000, l2=0.0))
    assert np.array_equal(labels_of(model.predict_scores(X)), y)


def test_linear_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    for trial in range(5):
        X = rng.normal(size=(25, 6))
        y = rng.integers(0, 2, size=25).astype(float)
        w = rng.normal(size=6)
        b = float(rng.normal())
        l2 = 0.01
        _, gw, gb = logistic_loss_and_grad(w, b, X, y, l2)
        eps = 1e-6
        for i in range(6):
            wp, wm = w.copy(), w.copy()
            wp[i] += eps
            wm[i] -= eps
            lp, _, _ = logistic_loss_and_grad(wp, b, X, y, l2)
            lm, _, _ = logistic_loss_and_grad(wm, b, X, y, l2)
            num = (lp - lm) / (2 * eps)
            assert abs(num - gw[i]) / max(abs(num), 1e-8) <= 1e-5
        lp, _, _ = logistic_loss_and_grad(w, b + eps, X, y, l2)
        lm, _, _ = logistic_loss_and_grad(w, b - eps, X, y, l2)
        num_b = (lp - lm) / (2 * eps)
        assert abs(num_b - gb) / max(abs(num_b), 1e-8) <= 1e-5


def test_zero_linear_model_ties_to_malware():
    model = train_linear(np.array([[1.0]]), np.array([1]), LinearParams(epochs=0))
    model.weights[:] = 0.0
    model.bias = 0.0
    X = np.array([[2.0]])
    label, score = labels_of(model.predict_scores(X))[0], model.predict_scores(X)[0]
    assert score == 0.5 and label == 1


def test_linear_refuses_labels_outside_zero_and_one():
    X = np.arange(6.0).reshape(3, 2)
    for y in ([0, 1, 2], [0.0, 0.5, 1.0], [-1, 0, 1]):
        with pytest.raises(ValueError, match=r"^labels must be 0 \(goodware\) or 1 \(malware\)$"):
            train_linear(X, np.array(y))


def test_linear_seed_determinism():
    rng = np.random.default_rng(37)
    X = rng.normal(size=(50, 4))
    y = (X[:, 0] > 0).astype(int)
    a = train_linear(X, y, LinearParams(seed=8))
    b = train_linear(X, y, LinearParams(seed=8))
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_linear_training_matches_loss_computing_loop():
    # the gradient expressions of logistic_loss_and_grad, spelled out: an
    # epoch that skips the loss must still give the same weights bit for bit
    rng = np.random.default_rng(41)
    X = rng.normal(size=(60, 5))
    y = (X[:, 0] + 0.5 * rng.normal(size=60) > 0).astype(float)
    params = LinearParams(learning_rate=0.3, epochs=150, l2=0.01, seed=4)
    w = np.random.default_rng(np.random.SeedSequence(params.seed)).normal(0.0, 0.01, size=5)
    b = 0.0
    for _ in range(params.epochs):
        z = X @ w + b
        residual = _sigmoid(z) - y
        gw = X.T @ residual / X.shape[0] + 2.0 * params.l2 * w
        gb = float(residual.mean())
        w = w - params.learning_rate * gw
        b = b - params.learning_rate * gb
    model = train_linear(X, y, params)
    assert np.array_equal(model.weights, w) and model.bias == b


def _two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_sigmoid_is_bitwise_the_two_branch_form(values):
    z = np.array(values + [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, 36.7, -36.7])
    assert np.array_equal(_sigmoid(z).view(np.uint64), _two_branch_sigmoid(z).view(np.uint64))


def test_linear_below_forest_on_bimodal_corpus():
    from callsift import datagen
    from callsift.evaluation import LabeledDataset, compute_metrics, split_sorted
    from callsift.models import EncodingOptions, HistogramClassifier

    config = datagen.make_config(
        seed=3, goodware_count=220, malware_count=220,
        profiles=datagen.bimodal_malware_profiles(),
    )
    ds = LabeledDataset.from_traces(datagen.generate_corpus(config))
    train, test = split_sorted(ds, train_fraction=0.8)
    enc = EncodingOptions(truncation=1000)
    rf = HistogramClassifier("hist-rf", seed=5, encoding=enc).fit(train.samples, train.labels)
    lin = HistogramClassifier("linear", seed=5, encoding=enc).fit(train.samples, train.labels)
    rf_caa = compute_metrics(rf.predict(test.samples)[0], test.labels)[0].caa
    lin_caa = compute_metrics(lin.predict(test.samples)[0], test.labels)[0].caa
    assert lin_caa < rf_caa
