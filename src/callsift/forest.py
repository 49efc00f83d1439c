"""From-scratch tree learners and a linear baseline over histogram vectors.

The decision tree is CART with Gini-impurity splits; the forest bags trees
over bootstrap resamples with per-split feature subsampling.  The linear
model is logistic regression trained by full-batch gradient descent.  All
learners operate on float feature matrices with integer labels (0 =
goodware, 1 = malware) and share one scoring convention: score in [0, 1] is
the malware probability-like output, and the predicted label is malware
exactly when score >= 0.5 (ties go to malware — the fail-safe direction for
a detector).

Determinism: given identical inputs, params, and seed, training produces a
bit-identical model.  Split ties are broken toward the lowest feature index,
then the lowest threshold.

A forest's trees grow in parallel: each tree draws from its own seed stream,
``SeedSequence([seed, t])``, so ``train_random_forest`` splits them into one
contiguous block per usable CPU, grows the first block itself and each other
block in a worker of a fork-started ``ProcessPoolExecutor``, which returns
the block's trees and re-raises a worker's error, or ``BrokenProcessPool``
for a worker that died, in the caller.  The forest is bitwise the same for
any CPU count; with one usable CPU, one tree or no fork every tree grows
in-process.

Split search is whole-array.  Every column is dense-rank-coded
(``np.unique``; NaN takes the rank above every value) once per forest:
``train_random_forest`` codes the full training matrix and hands each tree
the codes of its bootstrap rows, so a sample's ranks may have gaps, which
leaves the order, the boundaries and the thresholds (midpoints of adjacent
present values) unchanged; a lone ``train_decision_tree`` codes its input.
Each tree ORs its labels into the low bit of its codes once, so a node
gathers the label-keyed codes ``rank << 1 | label`` of its rows for its
candidate features, feature-major, in one fancy index and orders them with
one in-place integer sort along the rows.  Gini is evaluated only at valid
boundaries (a strictly higher, non-NaN rank next in sorted order, with
``min_samples_leaf`` rows on both sides), where the left side is exactly
the rows up to that rank, whatever the order of tied rows.  Both sides of
such a boundary hold rows, so left and right impurities are one stacked
``(2, boundaries)`` expression with no zero guard, rounded element for
element as ``_gini_from_counts`` rounds them; the first ``argmax`` of the
feature-major grid is the lowest-feature, lowest-threshold best split.  The
rows of rank <= the lower rank (exactly the rows with ``x <= threshold``) go
left, and the left side's malware count at that boundary is carried to the
left child and the rest to the right one, so no node re-counts its labels.
The threshold is the midpoint of the two real values around the boundary, in
Python floats, or the lower value when the midpoint does not fall below the
upper one (``-inf``/``inf`` neighbours, overflow, adjacent floats).  Nodes
are grown from an explicit stack in pre-order, so node ids and the order of
feature-subsample draws are those of a recursive grower and depth is not
bounded by Python's recursion limit.

Scoring is level-synchronous: ``DecisionTree.apply`` moves every row that is
still at an internal node one level down per step
(``x[feature] <= threshold`` goes left, NaN goes right) and returns leaf ids;
``predict_scores`` looks up each leaf's malware fraction.  Trees, scores and
Gini importances are bitwise those of a per-feature, per-row reference
implementation (kept in the tests as an oracle).
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

LEAF = -1


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_samples_leaf: int = 1
    feature_subsample: int | None = None  # None = consider all features
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.feature_subsample is not None and self.feature_subsample < 1:
            raise ValueError("feature_subsample must be >= 1")


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    bootstrap: bool = True
    feature_subsample: int | None = None  # None = ceil(sqrt(d))
    max_depth: int | None = None
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


@dataclass(frozen=True)
class LinearParams:
    learning_rate: float = 0.5
    epochs: int = 500
    l2: float = 1e-4
    seed: int = 0


@dataclass(eq=False)
class DecisionTree:
    """Flat-array CART tree.

    Node i is internal when ``feature[i] != LEAF``; then samples with
    ``x[feature[i]] <= threshold[i]`` go to ``left[i]``, the rest to
    ``right[i]``.  ``class_counts[i]`` holds the [goodware, malware] training
    counts that reached node i (kept for every node: leaves need them for
    scoring and rule extraction, internal nodes for Gini importance).
    """

    feature: np.ndarray  # int64, LEAF for leaves
    threshold: np.ndarray  # float64, nan for leaves
    left: np.ndarray  # int64 child index, LEAF for leaves
    right: np.ndarray
    class_counts: np.ndarray  # float64 (n_nodes, 2)
    n_features: int
    params: TreeParams

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id reached by each row, all rows descending one level per step."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) input, got {X.shape}")
        node = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.flatnonzero(self.feature[node] != LEAF)
        while rows.size:
            at = node[rows]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            at = np.where(go_left, self.left[at], self.right[at])
            node[rows] = at
            rows = rows[self.feature[at] != LEAF]
        return node

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Malware fraction of the reached leaf (0.5 on an empty tie)."""
        leaf = self.apply(X)
        total = self.class_counts.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            score = np.where(total > 0, self.class_counts[:, 1] / total, 0.5)
        return score[leaf]


def _gini_from_counts(n1: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Gini impurity of binary-label groups given malware counts and sizes."""
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(n > 0, n1 / n, 0.0)
    return 1.0 - p**2 - (1.0 - p) ** 2


def _best_split(
    keys: np.ndarray, nan_key: np.ndarray, n1: float, min_samples_leaf: int
) -> tuple[int, int, int, float] | None:
    """Best split of one node as (candidate row, lower rank, upper rank,
    malware count of the left side).

    ``keys[i]`` holds ``rank << 1 | label`` of the node's rows for candidate
    feature i, one row per candidate in ascending feature order; it is
    sorted in place, which orders the node by rank.  ``nan_key[i]`` is
    ``rank << 1`` of that feature's NaN and ``n1`` the node's malware count.
    A boundary between sorted positions j and j + 1 is valid when the rank
    rises there (the upper key exceeds the lower one with its label bit
    set), the upper rank is not NaN's, and both sides keep
    >= min_samples_leaf rows; the left side is then exactly the rows of
    rank <= the lower rank, so its malware count does not depend on the
    order of tied rows.  Returns None when no boundary is valid.  The first
    maximum of the feature-major decrease grid is the lowest feature, then
    the lowest threshold.

    Both sides of a valid boundary are non-empty, so the Gini of left and
    right is one stacked expression without a zero guard; it rounds every
    element as ``_gini_from_counts`` does (``p**2`` is ``p * p``).
    """
    m = keys.shape[1]
    keys.sort(axis=1)
    lower, upper = keys[:, :-1], keys[:, 1:]
    valid = (upper > (lower | 1)) & (upper < nan_key)
    if min_samples_leaf > 1:  # left side takes sorted rows [0, j]
        valid[:, : min_samples_leaf - 1] = False
        valid[:, m - min_samples_leaf :] = False
    flat = valid.ravel().nonzero()[0]
    if not flat.size:
        return None
    ones = lower & 1
    ones.cumsum(axis=1, out=ones)
    n_left = flat % (m - 1) + 1.0
    n1_left = ones.take(flat)
    # [sizes, malware counts] x [left, right] x valid boundaries
    n = np.array(((n_left, m - n_left), (n1_left, n1 - n1_left)))
    p = n[1] / n[0]
    q = 1.0 - p
    g = n[0] * ((1.0 - p * p) - q * q)
    p0 = n1 / m
    q0 = 1.0 - p0
    parent = (1.0 - p0 * p0) - q0 * q0
    best = int((parent - (g[0] + g[1]) / m).argmax())
    i, j = divmod(int(flat[best]), m - 1)
    return i, int(keys[i, j]) >> 1, int(keys[i, j + 1]) >> 1, float(n1_left[best])


@dataclass(frozen=True, eq=False)
class _RankedSamples:
    """A sample matrix with its column rank codes, computed once and shared
    by row subsets (``take``).  ``np.asarray`` of it is the matrix itself,
    so anything that accepts a matrix accepts it."""

    values: np.ndarray  # (n, d) float64
    codes: np.ndarray  # (d, n) uint32, rank << 1 (low bit left for the label)
    distinct: tuple[np.ndarray, ...]  # per column, sorted distinct non-NaN values

    @classmethod
    def of(cls, X: np.ndarray) -> "_RankedSamples":
        n, d = X.shape
        codes = np.empty((d, n), dtype=np.uint32)
        distinct = []
        for f in range(d):
            values, rank = np.unique(X[:, f], return_inverse=True)
            codes[f] = rank << 1
            distinct.append(values[~np.isnan(values)])
        return cls(X, codes, tuple(distinct))

    def take(self, idx: np.ndarray) -> "_RankedSamples":
        return _RankedSamples(self.values[idx], self.codes[:, idx], self.distinct)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.values, dtype=dtype, copy=copy)


def train_decision_tree(
    samples: np.ndarray, labels: np.ndarray, params: TreeParams | None = None
) -> DecisionTree:
    """Grow a CART tree by greedy best-Gini-decrease splitting.

    Growth stops at label purity, max_depth, or when no candidate split
    leaves min_samples_leaf on both sides.  Impure nodes split even at zero
    Gini decrease when a valid candidate exists (XOR-style structure needs
    the zero-gain first cut); every split strictly shrinks both children,
    so growth terminates.  ``samples`` may carry precomputed rank codes
    (``_RankedSamples``, as the forest passes them).
    """
    params = params or TreeParams()
    X = np.asarray(samples, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2:
        raise ValueError("samples must be a 2-D matrix")
    if X.shape[0] != y.shape[0]:
        raise ValueError("samples and labels length mismatch")
    if X.shape[0] == 0:
        raise ValueError("cannot train on an empty dataset")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 (goodware) or 1 (malware)")
    n, d = X.shape
    k = params.feature_subsample
    if k is not None and k > d:
        k = d
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))

    # codes[f] are column f's ranks among values[f] (its sorted distinct
    # non-NaN values, possibly of a superset of these rows); NaN codes to
    # len(values[f]), above every value.  keyed carries the label in the
    # low bit, once per tree.
    ranked = samples if isinstance(samples, _RankedSamples) else _RankedSamples.of(X)
    values = ranked.distinct
    keyed = ranked.codes | y.astype(np.uint32)
    nan_key = np.array([[v.size << 1] for v in values], dtype=np.uint32)
    all_features = np.arange(d)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[tuple[float, float]] = []
    # (rows, malware count, depth, node whose right child this is); popped
    # in pre-order, so a left child's id is always its parent's plus one
    stack: list[tuple[np.ndarray, float, int, int]] = [
        (np.arange(n), float(y.sum()), 0, LEAF)
    ]
    while stack:
        idx, n1, depth, right_of = stack.pop()
        node = len(feature)
        if right_of != LEAF:
            right[right_of] = node
        feature.append(LEAF)
        threshold.append(math.nan)
        left.append(LEAF)
        right.append(LEAF)
        m = idx.size
        counts.append((m - n1, n1))
        if n1 == 0 or n1 == m or (
            params.max_depth is not None and depth >= params.max_depth
        ):
            continue
        if m < 2 * params.min_samples_leaf:
            continue
        if k is None:
            candidates = all_features
        else:
            candidates = rng.choice(d, size=k, replace=False)
            candidates.sort()
        split = _best_split(
            keyed[candidates[:, None], idx],
            nan_key[candidates],
            n1,
            params.min_samples_leaf,
        )
        if split is None:
            continue
        i, lo, hi, n1_left = split
        f = int(candidates[i])
        below, above = values[f].item(lo), values[f].item(hi)
        # Python floats round as float64; an overflowing sum gives inf and
        # -inf + inf gives nan, which the fallback below catches
        thr = (below + above) / 2.0
        if not thr < above:  # the midpoint must separate the two values
            thr = below
        feature[node] = f
        threshold[node] = thr
        left[node] = node + 1
        # the rows of rank <= lo, which are exactly those with x <= thr
        go_left = keyed[f][idx] <= (lo << 1 | 1)
        stack.append((idx[~go_left], n1 - n1_left, depth + 1, node))
        stack.append((idx[go_left], n1_left, depth + 1, LEAF))

    return DecisionTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        class_counts=np.array(counts, dtype=np.float64),
        n_features=d,
        params=params,
    )


@dataclass(eq=False)
class RandomForest:
    trees: list[DecisionTree]
    n_features: int
    params: ForestParams

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Fraction of trees voting malware, per sample."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) input, got {X.shape}")
        votes = np.zeros(X.shape[0])
        for tree in self.trees:
            votes += tree.predict_scores(X) >= 0.5
        return votes / len(self.trees)


def train_random_forest(
    samples: np.ndarray, labels: np.ndarray, params: ForestParams | None = None
) -> RandomForest:
    params = params or ForestParams()
    X = np.asarray(samples, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ValueError("samples must be a non-empty 2-D matrix matching labels")
    d = X.shape[1]
    k = params.feature_subsample
    if k is None:
        k = max(1, math.ceil(math.sqrt(d)))
    ranked = _RankedSamples.of(X)

    def grow(t: int) -> DecisionTree:
        # independent, reproducible stream per tree
        tree_seed_seq = np.random.SeedSequence([params.seed, t])
        tree_rng = np.random.default_rng(tree_seed_seq)
        if params.bootstrap:
            idx = tree_rng.integers(0, X.shape[0], size=X.shape[0])
            Xb, yb = ranked.take(idx), y[idx]
        else:
            Xb, yb = ranked, y
        tree_params = TreeParams(
            max_depth=params.max_depth,
            min_samples_leaf=params.min_samples_leaf,
            feature_subsample=min(k, d),
            seed=int(tree_rng.integers(0, 2**31 - 1)),
        )
        return train_decision_tree(Xb, yb, tree_params)

    trees = _grow_forked(grow, params.n_trees)
    return RandomForest(trees=trees, n_features=d, params=params)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _grow_forked(grow, n_trees: int) -> list:
    """``[grow(t) for t in range(n_trees)]``, the trees split into one
    contiguous block per usable CPU.  The calling process grows block 0 and
    a fork-started process pool the other blocks; its workers inherit
    ``grow`` and everything it reads, so only block bounds and trees are
    pickled."""
    workers = min(n_trees, _usable_cpus())
    if workers < 2 or not hasattr(os, "fork"):
        return [grow(t) for t in range(n_trees)]
    bounds = [n_trees * w // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(workers - 1, multiprocessing.get_context("fork"),
                             initializer=_set_worker_grow, initargs=(grow,)) as pool:
        blocks = [pool.submit(_grow_block, range(bounds[w], bounds[w + 1]))
                  for w in range(1, workers)]
        trees = [grow(t) for t in range(bounds[1])]
        for block in blocks:
            trees += block.result()
    return trees


_worker_grow = None  # a pool worker's ``grow``, set once as the worker starts


def _set_worker_grow(grow) -> None:
    global _worker_grow
    _worker_grow = grow


def _grow_block(block: range) -> list:
    return [_worker_grow(t) for t in block]


@dataclass(eq=False)
class LinearModel:
    weights: np.ndarray
    bias: float
    params: LinearParams

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) input, got {X.shape}")
        return _sigmoid(X @ self.weights + self.bias)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_grad(
    weights: np.ndarray,
    bias: float,
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
) -> tuple[np.ndarray, float]:
    """Gradients of the mean logistic loss with L2 penalty on the weights."""
    residual = _sigmoid(X @ weights + bias) - y
    grad_w = X.T @ residual / X.shape[0] + 2.0 * l2 * weights
    grad_b = float(residual.mean())
    return grad_w, grad_b


def logistic_loss_and_grad(
    weights: np.ndarray,
    bias: float,
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss with L2 penalty on the weights, plus gradients."""
    z = X @ weights + bias
    # log(1 + exp(z)) - y*z, computed stably
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + l2 * float(weights @ weights)
    return (loss, *_logistic_grad(weights, bias, X, y, l2))


def train_linear(
    samples: np.ndarray, labels: np.ndarray, params: LinearParams | None = None
) -> LinearModel:
    """Logistic regression by full-batch gradient descent."""
    params = params or LinearParams()
    X = np.asarray(samples, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ValueError("samples must be a non-empty 2-D matrix matching labels")
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    w = rng.normal(0.0, 0.01, size=X.shape[1])
    b = 0.0
    for _ in range(params.epochs):
        gw, gb = _logistic_grad(w, b, X, y, params.l2)
        w = w - params.learning_rate * gw
        b = b - params.learning_rate * gb
    if not (np.isfinite(w).all() and math.isfinite(b)):
        raise ValueError("linear training diverged; lower the learning rate")
    return LinearModel(weights=w, bias=b, params=params)


def predict_labels(model, X: np.ndarray) -> np.ndarray:
    return (model.predict_scores(X) >= 0.5).astype(np.int64)


def tree_importance(tree: DecisionTree) -> np.ndarray:
    """Unnormalized per-feature impurity decrease, weighted by node fraction."""
    imp = np.zeros(tree.n_features)
    totals = tree.class_counts.sum(axis=1)
    root_total = totals[0]
    if root_total == 0:
        return imp
    weighted = totals * _gini_from_counts(tree.class_counts[:, 1], totals)
    node = np.flatnonzero(tree.feature != LEAF)
    l, r = tree.left[node], tree.right[node]
    # np.add.at accumulates in node order, as a per-node loop would
    np.add.at(
        imp, tree.feature[node], (weighted[node] - weighted[l] - weighted[r]) / root_total
    )
    return imp


def gini_importance(model: RandomForest | DecisionTree) -> np.ndarray:
    """Mean impurity decrease per feature, normalized to sum to 1.

    A model with no internal node anywhere yields an all-zero vector
    (nothing to normalize).  Constant features are never split on and
    therefore always score zero.
    """
    trees = model.trees if isinstance(model, RandomForest) else [model]
    imp = np.zeros(trees[0].n_features)
    for tree in trees:
        imp += tree_importance(tree)
    imp /= len(trees)
    total = imp.sum()
    if total > 0:
        imp = imp / total
    return imp
