"""Characterize what a trained detector learned.

Four views, from local to global:

* local surrogate explanations: perturb one histogram around its corpus
  context, fit a weighted ridge surrogate to the model's malware score,
  and report signed per-feature weights (negative = pushes toward malware,
  positive = pushes toward goodware — bars drawn left/right accordingly);
  ``lime_explain_batch`` explains a whole histogram matrix: every sample
  shares one perturbation mask (``LimeConfig.mask``, drawn once from the
  seed), and the perturbations of many samples are scored in one call of
  at most ``SCORE_ROW_BOUND`` rows, whole samples per call, before one
  ``lime_explain`` surrogate fit per sample;
* group summaries: mean +- std of local weights over a group of samples
  (e.g. correctly classified malware vs missed malware);
* decision-tree rule extraction: one human-readable rule per leaf,
  jointly exhaustive and mutually exclusive, replaying the tree exactly;
* class frequency marks: which calls are used more by which class.

A scorer -- a callable mapping an (n, d) matrix to n malware scores, or an
object exposing ``score_histograms`` -- must score each row independently
of the other rows in the call: batching perturbations never changes a score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .forest import LEAF, DecisionTree
from .traces import (
    GOODWARE,
    INT_TO_LABEL,
    MALWARE,
    MultiHotMatrix,
    SyscallTrace,
    SyscallVocabulary,
    encode_histogram,
    labels_of,
)


KERNEL_WIDTH_PER_SQRT_D = 0.75  # the surrogate's kernel width over sqrt(d)
RIDGE = 1e-3  # the surrogate's ridge penalty


@dataclass(frozen=True)
class LimeConfig:
    feature_means: np.ndarray  # corpus means used as the masking baseline
    perturbations: int = 1000
    top_k: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.perturbations < 1:
            raise ValueError("perturbations must be >= 1")
        if self.top_k is not None and self.top_k < 0:
            raise ValueError("top_k must be >= 0")

    @cached_property
    def mask(self) -> np.ndarray:
        """(perturbations, d) read-only mask, True (with probability 1/2)
        where a feature is set to its corpus mean; a function of the seed
        alone, so every sample explained under this config shares it."""
        d = np.asarray(self.feature_means).shape[0]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 5]))
        mask = rng.random((self.perturbations, d)) < 0.5
        mask.flags.writeable = False
        return mask


@dataclass(eq=False)
class LocalExplanation:
    sample_id: str
    weights: np.ndarray  # signed, negative supports malware
    fidelity: float | None  # weighted R^2 of the surrogate; None if undefined
    top: list[tuple[int, float]] = field(default_factory=list)
    notes: tuple[str, ...] = ()

    def top_features(self, names: list[str] | None = None) -> list[tuple[str, float]]:
        return [(names[idx] if names else f"f{idx}", w) for idx, w in self.top]


def _weighted_ridge(
    X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray
) -> tuple[np.ndarray, float]:
    """Ridge fit with intercept on weighted, centered data."""
    w = sample_weight / sample_weight.sum()
    x_mean = w @ X
    y_mean = float(w @ y)
    Xc = X - x_mean
    yc = y - y_mean
    a = Xc.T @ (Xc * w[:, None]) + RIDGE * np.eye(X.shape[1])
    b = Xc.T @ (w * yc)
    coef = np.linalg.solve(a, b)
    intercept = y_mean - float(x_mean @ coef)
    return coef, intercept


# Most perturbation rows one scoring call of lime_explain_batch takes: about
# 13 MB at 25 features, so paper-scale batches stay bounded in memory.
SCORE_ROW_BOUND = 65_536


def _score_fn(model):
    return model.score_histograms if hasattr(model, "score_histograms") else model


def _perturb(X: np.ndarray, config: LimeConfig) -> np.ndarray:
    """(n, perturbations, d) perturbations of each row of X: masked features
    take their corpus mean, and perturbation 0 is the row itself."""
    Z = np.where(config.mask, np.asarray(config.feature_means, dtype=np.float64),
                 X[:, None, :])
    Z[:, 0] = X  # keep the anchor itself in the fit
    return Z


def lime_explain(model, sample: np.ndarray, config: LimeConfig,
                 sample_id: str = "", *, scores: np.ndarray | None = None
                 ) -> LocalExplanation:
    """Fit a local linear surrogate to the model's malware score.

    ``model`` is a scorer as the module docstring defines it.  Perturbations
    mask each feature to its corpus mean independently with probability
    1/2; samples are weighted by an exponential kernel on Euclidean distance
    from the original.  The reported weight sign follows the display
    convention: the surrogate coefficient is negated, so weights pointing
    toward malware are negative (drawn leftward).  ``scores``, when given, are the
    model's scores of this sample's perturbations (as ``lime_explain_batch``
    computes them) and the model is not called.
    """
    x = np.asarray(sample, dtype=np.float64)
    means = np.asarray(config.feature_means, dtype=np.float64)
    if x.shape != means.shape:
        raise ValueError("sample and feature_means dimensionality mismatch")
    d = x.shape[0]
    kernel_width = KERNEL_WIDTH_PER_SQRT_D * math.sqrt(d)
    Z = _perturb(x[None, :], config)[0]
    if scores is None:
        scores = _score_fn(model)(Z)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (config.perturbations,):
        raise ValueError(f"expected {config.perturbations} scores, got {scores.shape}")
    notes = tuple(getattr(model, "explanation_notes", ()))
    if np.allclose(scores, scores[0], atol=1e-12):
        return LocalExplanation(
            sample_id, np.zeros(d), fidelity=None,
            notes=notes + ("degenerate: constant model score over perturbations",),
        )
    dist = np.linalg.norm(Z - x, axis=1)
    sample_weight = np.exp(-(dist**2) / kernel_width**2)
    coef, intercept = _weighted_ridge(Z, scores, sample_weight)
    fitted = Z @ coef + intercept
    w = sample_weight / sample_weight.sum()
    ss_res = float(w @ (scores - fitted) ** 2)
    ss_tot = float(w @ (scores - w @ scores) ** 2)
    fidelity = 1.0 - ss_res / ss_tot if ss_tot > 0 else None
    weights = -coef  # display convention: malware-supporting weights negative
    order = np.argsort(-np.abs(weights), kind="stable")
    k = config.top_k if config.top_k is not None else d
    top = [(int(i), float(weights[i])) for i in order[:k]]
    return LocalExplanation(sample_id, weights, fidelity, top=top, notes=notes)


def lime_explain_batch(model, X: np.ndarray, config: LimeConfig,
                       sample_ids: list[str]) -> list[LocalExplanation]:
    """``lime_explain`` of every row of X, equal to explaining them one by one.

    The perturbations of as many whole rows as fit in ``SCORE_ROW_BOUND``
    are scored in one call (a row with more perturbations than that is
    scored alone); the scorer contract makes the scores those of one call
    per row.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected an (n, d) histogram matrix")
    if len(sample_ids) != X.shape[0]:
        raise ValueError("sample_ids and rows length mismatch")
    if X.shape[1] != np.asarray(config.feature_means).shape[0]:
        raise ValueError("sample and feature_means dimensionality mismatch")
    score_fn = _score_fn(model)
    p = config.perturbations
    per_call = max(1, SCORE_ROW_BOUND // p)
    out = []
    for start in range(0, X.shape[0], per_call):
        rows = X[start:start + per_call]
        Z = _perturb(rows, config)
        scores = np.asarray(score_fn(Z.reshape(-1, X.shape[1])), dtype=np.float64)
        for i, chunk_scores in enumerate(scores.reshape(rows.shape[0], p)):
            out.append(lime_explain(model, rows[i], config, sample_ids[start + i],
                                    scores=chunk_scores))
    return out


CORRECT_MALWARE = "correct-malware"
MISCLASSIFIED_MALWARE = "misclassified-malware"


@dataclass(eq=False)
class ExplanationSummary:
    group: str
    feature_indices: np.ndarray  # ranked by |mean weight|, top_k kept
    means: np.ndarray
    stds: np.ndarray
    n_samples: int


def summarize_explanations(
    explanations: list[LocalExplanation], group: str, top_k: int = 15
) -> ExplanationSummary:
    """Per-feature mean +- std of local weights over one group of samples."""
    if not explanations:
        raise ValueError(f"empty explanation group {group!r}")
    W = np.vstack([e.weights for e in explanations])
    means = W.mean(axis=0)
    stds = W.std(axis=0)  # population std: a single sample has spread 0
    order = np.argsort(-np.abs(means), kind="stable")[:top_k]
    return ExplanationSummary(
        group=group,
        feature_indices=order,
        means=means[order],
        stds=stds[order],
        n_samples=len(explanations),
    )


def group_explanations(
    explanations: list[LocalExplanation],
    predictions: np.ndarray,
    labels: np.ndarray,
    group: str,
) -> list[LocalExplanation]:
    """Select the explanations of one group of malware samples: those
    predicted malware (``CORRECT_MALWARE``) or goodware (``MISCLASSIFIED_MALWARE``)."""
    predicted = {CORRECT_MALWARE: 1, MISCLASSIFIED_MALWARE: 0}
    if group not in predicted:
        raise ValueError(f"unknown group {group!r}")
    keep = (np.asarray(labels) == 1) & (np.asarray(predictions) == predicted[group])
    return [e for e, k in zip(explanations, keep) if k]


def render_summary(summary: ExplanationSummary, names: list[str]) -> str:
    """Signed text bar chart: malware-supporting bars grow leftward."""
    if summary.means.size == 0:
        return f"[{summary.group}] no features"
    scale = float(np.abs(summary.means).max()) or 1.0
    half = 24
    name_w = max(len(names[i]) for i in summary.feature_indices)
    lines = [f"[{summary.group}]  n={summary.n_samples}  (# left = malware, right = goodware)"]
    for idx, mean, std in zip(summary.feature_indices, summary.means, summary.stds):
        bar = int(round(abs(mean) / scale * half))
        left = ("#" * bar).rjust(half) if mean < 0 else " " * half
        right = ("#" * bar) if mean > 0 else ""
        lines.append(
            f"{names[idx]:>{name_w}} {left}|{right:<{half}} {mean:+.4f} (+-{std:.4f})"
        )
    return "\n".join(lines)


# --- decision rules -------------------------------------------------------------


@dataclass(frozen=True)
class RuleCondition:
    feature_index: int
    feature_name: str
    op: str  # "<=" or ">"
    threshold: float


@dataclass(frozen=True)
class DecisionRule:
    conditions: tuple[RuleCondition, ...]
    predicted: str  # goodware | malware
    leaf_counts: tuple[float, float]  # [goodware, malware]


def extract_rules(
    tree: DecisionTree, feature_names: list[str] | None = None
) -> list[DecisionRule]:
    """One rule per leaf: the root-to-leaf threshold path.

    The rule set partitions the input space, so exactly one rule matches
    any vector and replaying the rules reproduces the tree's predictions.
    """
    names = feature_names or [f"f{i}" for i in range(tree.n_features)]
    labels = labels_of(tree.leaf_scores)
    rules: list[DecisionRule] = []
    # an explicit stack reaches any depth the grower makes; pushing the right
    # child first visits the left subtree first (pre-order)
    stack: list[tuple[int, tuple[RuleCondition, ...]]] = [(0, ())]
    while stack:
        node, conds = stack.pop()
        f = int(tree.feature[node])
        if f == LEAF:
            g, m = tree.class_counts[node]
            rules.append(DecisionRule(conditions=conds,
                                      predicted=INT_TO_LABEL[int(labels[node])],
                                      leaf_counts=(float(g), float(m))))
            continue
        thr = float(tree.threshold[node])
        stack.append((int(tree.right[node]), conds + (RuleCondition(f, names[f], ">", thr),)))
        stack.append((int(tree.left[node]), conds + (RuleCondition(f, names[f], "<=", thr),)))
    return rules


def render_rule(rule: DecisionRule) -> str:
    lines = [f"if {c.feature_name} {c.op} {_fmt(c.threshold)}," for c in rule.conditions]
    g, m = rule.leaf_counts
    lines.append(f"class={rule.predicted}, [ {g:g}. {m:g}.]")
    return "\n".join(lines)


def render_rules(rules: list[DecisionRule]) -> str:
    return "\n\n".join(render_rule(r) for r in rules)


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".") if x != int(x) else f"{x:g}"


# --- class frequency comparison ---------------------------------------------------

FREQUENCY_TIE_TOLERANCE = 0.05  # a relative difference of class means this small ties


@dataclass(frozen=True)
class ClassFrequencyMark:
    feature: str
    mark: str  # goodware | malware | tie


def class_frequency_marks(
    traces: list[SyscallTrace],
    features: list[str],
    vocab: SyscallVocabulary,
) -> list[ClassFrequencyMark]:
    """Which class uses each call more, by mean normalized frequency.

    A relative difference within ``FREQUENCY_TIE_TOLERANCE`` is a tie.
    Raises when a class is absent from the dataset (means would be undefined).
    """
    hists = encode_histogram(traces, vocab)
    labels = np.array([t.label for t in traces], dtype=object)
    means = []  # each class's mean frequency of each feature
    for label in (GOODWARE, MALWARE):
        rows = hists[labels == label]
        if not len(rows):
            raise ValueError(f"class {label!r} absent from dataset")
        means.append(rows.mean(axis=0)[vocab.indices_of(features)].tolist())
    marks = []
    for name, g, m in zip(features, *means):
        denom = max(g, m)
        if denom == 0 or abs(g - m) / denom <= FREQUENCY_TIE_TOLERANCE:
            mark = "tie"
        else:
            mark = GOODWARE if g > m else MALWARE
        marks.append(ClassFrequencyMark(feature=name, mark=mark))
    return marks


def render_frequency_table(marks: list[ClassFrequencyMark]) -> str:
    """Feature/goodware/malware columns; ties render as '-' in both."""
    name_w = max(len(m.feature) for m in marks) if marks else 8
    lines = [f"{'Feature':<{name_w}}  {'Goodware':>8}  {'Malware':>8}"]
    for m in marks:
        if m.mark == "tie":
            g_cell, m_cell = "-", "-"
        elif m.mark == GOODWARE:
            g_cell, m_cell = "X", ""
        else:
            g_cell, m_cell = "", "X"
        lines.append(f"{m.feature:<{name_w}}  {g_cell:>8}  {m_cell:>8}")
    return "\n".join(lines)


# --- adapting sequence models to histogram explanations -----------------------------

NOMINAL_LENGTH = 100  # events a normalized histogram is scaled to before spreading


class LsmHistogramScorer:
    """Score histograms through an LSM by uniform temporal spreading.

    The LSM natively consumes multi-hot sequences; to explain it on the
    histogram surface, a histogram in the classifier's own encoding (scaled
    to ``NOMINAL_LENGTH`` events when ``encoding.normalize``) is rounded to
    counts and spread one event per millisecond step in vocabulary order.
    This is an approximation and is flagged in every explanation produced
    through it.
    """

    explanation_notes = ("approximation: histogram spread uniformly over time for LSM input",)

    def __init__(self, lsm_classifier):
        if lsm_classifier.model is None or lsm_classifier.vocab is None:
            raise ValueError("LSM classifier must be fitted first")
        self.classifier = lsm_classifier

    def score_histograms(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.classifier.encoding.normalize:
            X = X * NOMINAL_LENGTH
        return self.classifier.score_inputs(_spread(hist) for hist in X)


def _spread(hist: np.ndarray) -> MultiHotMatrix:
    """A histogram rounded to counts, one event per step in vocabulary order."""
    counts = np.rint(hist).astype(np.int64)
    calls = np.repeat(np.arange(counts.size), np.maximum(counts, 0))
    rows = np.zeros((calls.size, counts.size), dtype=np.int64)
    rows[np.arange(calls.size), calls] = 1
    return MultiHotMatrix(rows, np.arange(calls.size, dtype=np.int64))
