import numpy as np
import pytest

from callsift import explain
from callsift import reservoir as rv
from callsift.explain import (
    CORRECT_MALWARE,
    MISCLASSIFIED_MALWARE,
    LimeConfig,
    class_frequency_marks,
    extract_rules,
    group_explanations,
    lime_explain,
    render_frequency_table,
    render_rule,
    render_rules,
    render_summary,
    summarize_explanations,
)
from callsift.forest import train_decision_tree
from callsift.models import EncodingOptions, LsmClassifier
from callsift.traces import (
    MultiHotMatrix,
    SyscallVocabulary,
    encode_histogram,
    encode_multihot,
    labels_of,
)
from conftest import make_trace, rule_matches, rules_predict


def sigmoid_oracle(w, bias=0.0):
    w = np.asarray(w, dtype=float)

    def model(X):
        return 1.0 / (1.0 + np.exp(-(X @ w + bias)))

    return model


def bounded_linear_oracle(w, base=0.5):
    """Scores are exactly affine in the features (no squashing)."""
    w = np.asarray(w, dtype=float)

    def model(X):
        return base + X @ w

    return model


D = 10
MEANS = np.full(D, 0.5)


def config(seed=0, **kw):
    return LimeConfig(feature_means=MEANS, seed=seed, **kw)


# --- local explanations -------------------------------------------------------


def test_lime_recovers_linear_signs_and_fidelity(rng):
    w = np.zeros(D)
    w[0], w[1], w[2], w[3] = 4.0, -3.0, 2.0, -1.5
    model = sigmoid_oracle(w)
    for _ in range(5):
        x = rng.uniform(0, 1, D)
        e = lime_explain(model, x, config(seed=3))
        # display convention: positive true coefficient pushes the malware
        # score up, so the reported weight is negative
        for i in (0, 1, 2, 3):
            assert np.sign(e.weights[i]) == -np.sign(w[i])
        assert e.fidelity is not None and e.fidelity >= 0.8


def test_lime_ignores_noise_floor_coefficients(rng):
    w = np.zeros(D)
    w[0] = 5.0
    w[5] = 1e-4  # essentially noise
    e = lime_explain(sigmoid_oracle(w), rng.uniform(0, 1, D), config(seed=1))
    assert abs(e.weights[0]) > 50 * abs(e.weights[5])


def test_lime_constant_model_all_zero(rng):
    e = lime_explain(lambda X: np.full(X.shape[0], 0.42), rng.uniform(0, 1, D), config())
    assert np.abs(e.weights).max() <= 1e-8
    assert e.fidelity is None
    assert any("degenerate" in note for note in e.notes)


def test_lime_deterministic_under_seed(rng):
    model = sigmoid_oracle(np.linspace(-1, 1, D))
    x = rng.uniform(0, 1, D)
    a = lime_explain(model, x, config(seed=9))
    b = lime_explain(model, x, config(seed=9))
    assert np.array_equal(a.weights, b.weights)
    c = lime_explain(model, x, config(seed=10))
    assert not np.array_equal(a.weights, c.weights)


def test_lime_weights_scale_with_model_coefficients(rng):
    w = np.zeros(D)
    w[0], w[4] = 0.3, -0.2
    # keep the probed features well away from the masking baseline: a feature
    # sitting at its corpus mean is invisible to mask-to-mean perturbations
    x = rng.uniform(0, 1, D)
    x[0], x[4] = 0.95, 0.05
    e1 = lime_explain(bounded_linear_oracle(w), x, config(seed=5))
    e2 = lime_explain(bounded_linear_oracle(2.0 * w), x, config(seed=5))
    ratio = e2.weights[[0, 4]] / e1.weights[[0, 4]]
    assert ratio == pytest.approx([2.0, 2.0], rel=1e-3)
    # and the surrogate essentially recovers the (negated) coefficients
    assert e1.weights[[0, 4]] == pytest.approx(-w[[0, 4]], rel=0.05)


def test_lime_sign_convention_on_strong_malware_sample():
    w = np.full(D, 1.2)  # every feature pushes toward malware
    model = sigmoid_oracle(w, bias=-3.0)
    x = np.full(D, 0.9)
    assert model(x.reshape(1, -1))[0] >= 0.9
    e = lime_explain(model, x, config(seed=2))
    assert e.weights.sum() < 0


def test_lime_top_k_and_names(rng):
    w = np.zeros(D)
    w[7] = 3.0
    e = lime_explain(sigmoid_oracle(w), rng.uniform(0, 1, D), config(seed=0, top_k=3))
    assert len(e.top) == 3
    assert e.top[0][0] == 7
    names = [f"call{i}" for i in range(D)]
    assert e.top_features(names)[0][0] == "call7"


def test_lime_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensionality"):
        lime_explain(lambda X: X.sum(axis=1), np.zeros(3), config())


# --- summaries ------------------------------------------------------------------


def fake_explanation(weights, sample_id="s"):
    w = np.asarray(weights, dtype=float)
    return explain.LocalExplanation(
        sample_id=sample_id, weights=w, fidelity=1.0)


def test_summary_single_explanation():
    e = fake_explanation([0.5, -1.0, 0.0])
    s = summarize_explanations([e], "correct-malware", top_k=3)
    assert s.means.tolist() == [-1.0, 0.5, 0.0]  # ranked by |mean|
    assert s.stds.tolist() == [0.0, 0.0, 0.0]
    assert s.n_samples == 1


def test_summary_opposite_weights_cancel():
    a = fake_explanation([0.8, 0.2])
    b = fake_explanation([-0.8, 0.2])
    s = summarize_explanations([a, b], "g", top_k=2)
    by_feature = dict(zip(s.feature_indices.tolist(), zip(s.means, s.stds)))
    assert by_feature[0][0] == pytest.approx(0.0)
    assert by_feature[0][1] == pytest.approx(0.8)
    assert by_feature[1] == (pytest.approx(0.2), pytest.approx(0.0))


def test_summary_matches_two_pass_oracle(rng):
    expls = [fake_explanation(rng.normal(size=6)) for _ in range(25)]
    s = summarize_explanations(expls, "g", top_k=6)
    W = np.vstack([e.weights for e in expls])
    for idx, mean, std in zip(s.feature_indices, s.means, s.stds):
        col = W[:, idx]
        assert mean == pytest.approx(col.sum() / len(col), abs=1e-12)
        assert std == pytest.approx(
            np.sqrt(((col - col.mean()) ** 2).sum() / len(col)), abs=1e-12
        )


def test_summary_default_depth_is_fifteen(rng):
    import inspect

    assert inspect.signature(summarize_explanations).parameters["top_k"].default == 15
    expls = [fake_explanation(rng.normal(size=30)) for _ in range(4)]
    assert summarize_explanations(expls, "g").means.shape == (15,)


def test_summary_empty_group_rejected():
    with pytest.raises(ValueError, match="empty"):
        summarize_explanations([], "correct-malware")


def test_group_explanations_partitions():
    expls = [fake_explanation([0.0], sample_id=f"s{i}") for i in range(4)]
    pred = np.array([1, 0, 1, 0])
    labels = np.array([1, 1, 0, 0])
    assert [e.sample_id for e in group_explanations(expls, pred, labels, CORRECT_MALWARE)] == ["s0"]
    assert [e.sample_id for e in group_explanations(expls, pred, labels, MISCLASSIFIED_MALWARE)] == ["s1"]
    with pytest.raises(ValueError, match="unknown group"):
        group_explanations(expls, pred, labels, "whatever")


def test_render_summary_direction():
    s = summarize_explanations(
        [fake_explanation([-0.9, 0.4])], "correct-malware", top_k=2
    )
    text = render_summary(s, ["NtEvil", "NtNice"])
    lines = text.splitlines()
    evil = next(l for l in lines if "NtEvil" in l)
    nice = next(l for l in lines if "NtNice" in l)
    assert evil.index("#") < evil.index("|")  # malware bar grows leftward
    assert nice.index("#") > nice.index("|")


# --- rules -----------------------------------------------------------------------


def test_single_leaf_tree_single_unconditional_rule():
    tree = train_decision_tree(np.array([[1.0], [2.0]]), np.array([1, 1]))
    rules = extract_rules(tree)
    assert len(rules) == 1
    assert rules[0].conditions == ()
    assert rules[0].predicted == "malware"
    assert rules[0].leaf_counts == (0.0, 2.0)


def test_depth_two_tree_four_exhaustive_exclusive_rules(rng):
    X = rng.uniform(0, 1, size=(400, 2))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
    tree = train_decision_tree(X, y, params=None)
    rules = extract_rules(tree, ["a", "b"])
    probe = rng.uniform(0, 1, size=(500, 2))
    match_counts = np.array([sum(rule_matches(r, row) for r in rules) for row in probe])
    assert (match_counts == 1).all()  # mutually exclusive and exhaustive


def test_rules_replay_tree_exactly(rng):
    X = rng.uniform(0, 1, size=(300, 6))
    y = ((X[:, 1] > 0.4) & (X[:, 4] < 0.6) | (X[:, 0] > 0.9)).astype(int)
    tree = train_decision_tree(X, y)
    rules = extract_rules(tree)
    probe = rng.uniform(-0.2, 1.2, size=(10_000, 6))
    assert np.array_equal(rules_predict(rules, probe), labels_of(tree.predict_scores(probe)))


def test_rules_reach_a_chain_deeper_than_the_recursion_limit():
    # alternating labels along one feature grow a chain that peels off one
    # row per split: 1,299 splits deep
    n = 1300
    X = np.arange(n, dtype=np.float64)[:, None]
    tree = train_decision_tree(X, np.arange(n) % 2)
    leaves = int((tree.feature == -1).sum())
    assert leaves == n and tree.feature.size == 2 * n - 1
    rules = extract_rules(tree)
    assert len(rules) == leaves
    assert max(len(r.conditions) for r in rules) == n - 1
    probe = X[[0, 1, 2, n // 2, n - 2, n - 1]]
    assert np.array_equal(rules_predict(rules, probe), labels_of(tree.predict_scores(probe)))


def test_rule_rendering_style():
    X = np.array([[0.0, 0.31], [0.0, 0.32], [1.0, 0.31], [1.0, 0.32]])
    y = np.array([0, 0, 1, 1])
    tree = train_decision_tree(X, y)
    rules = extract_rules(tree, ["NtSetInformationFile", "NtReadFile"])
    text = render_rules(rules)
    assert "if NtSetInformationFile <= 0.5," in text
    assert "class=goodware, [ 2. 0.]" in text
    assert "class=malware, [ 0. 2.]" in text
    # deeper path renders one condition per line ending with the leaf
    rule = next(r for r in rules if r.predicted == "malware")
    rendered = render_rule(rule)
    assert rendered.splitlines()[-1].startswith("class=")


# --- class frequency marks -----------------------------------------------------------


def freq_traces():
    traces = []
    for i in range(10):
        traces.append(make_trace(
            [(0, "NtShared"), (1, "NtShared"), (2, "NtGoodish")],
            label="goodware", trace_id=f"g{i}", observed_at=i,
        ))
        traces.append(make_trace(
            [(0, "NtShared"), (1, "NtShared"), (2, "NtEvilish")],
            label="malware", trace_id=f"m{i}", observed_at=i,
        ))
    return traces


def unlabeled_traces():
    # these flip a mark wherever they are counted: NtEvilish's in goodware's mean,
    # NtShared's in malware's, NtEvilish's to a tie in both
    return [make_trace([(0, "NtEvilish")], label=None, trace_id=f"u{i}") for i in range(100)]


def test_class_frequency_marks_basic():
    traces = unlabeled_traces() + freq_traces()
    vocab = SyscallVocabulary(("NtEvilish", "NtGoodish", "NtShared"))
    marks = {
        m.feature: m.mark
        for m in class_frequency_marks(traces, ["NtEvilish", "NtGoodish", "NtShared"], vocab)
    }
    assert marks["NtEvilish"] == "malware"
    assert marks["NtGoodish"] == "goodware"
    assert marks["NtShared"] == "tie"


def test_class_frequency_marks_requires_both_classes():
    vocab = SyscallVocabulary(("NtEvilish", "NtGoodish", "NtShared"))
    for kept, absent in (("goodware", "malware"), ("malware", "goodware")):
        traces = [t for t in freq_traces() if t.label == kept] + unlabeled_traces()
        with pytest.raises(ValueError, match=f"class '{absent}' absent"):
            class_frequency_marks(traces, ["NtShared"], vocab)


def test_frequency_table_rendering():
    traces = freq_traces()
    vocab = SyscallVocabulary(("NtEvilish", "NtGoodish", "NtShared"))
    marks = class_frequency_marks(traces, ["NtEvilish", "NtGoodish", "NtShared"], vocab)
    text = render_frequency_table(marks)
    lines = text.splitlines()
    assert lines[0].split() == ["Feature", "Goodware", "Malware"]
    shared_row = next(l for l in lines if "NtShared" in l)
    assert shared_row.count("-") == 2  # tie renders as dashes in both columns


# --- LSM adapter -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def lsm_clf(small_corpus, small_labels):
    clf = LsmClassifier(seed=1, encoding=EncodingOptions(truncation=60), folds=5)
    return clf.fit(small_corpus, small_labels)


def test_lsm_histogram_scorer_flags_approximation(lsm_clf):
    clf = lsm_clf
    scorer = explain.LsmHistogramScorer(clf)
    hist = np.zeros(clf.vocab.width)
    hist[0] = 1.0
    scores = scorer.score_histograms(np.vstack([hist, hist]))
    assert scores.shape == (2,)
    assert np.isfinite(scores).all()
    e = lime_explain(
        scorer,
        hist,
        LimeConfig(feature_means=np.full(clf.vocab.width, 1.0 / clf.vocab.width),
                   perturbations=50, seed=0),
    )
    assert any("approximation" in note for note in e.notes)


def liquid_row(lsm, matrix):
    """One input's state on the per-row path: simulate, then flatten to a row."""
    return rv.simulate_liquid(lsm.topology, lsm.lif, matrix)[0].reshape(1, -1)


def spread(hist):
    """A raw-count histogram spread one call per step in vocabulary order."""
    calls = np.repeat(np.arange(hist.size), hist.astype(np.int64))
    rows = np.zeros((calls.size, hist.size), dtype=np.int64)
    rows[np.arange(calls.size), calls] = 1
    return MultiHotMatrix(rows, np.arange(calls.size, dtype=np.int64))


def test_lsm_scores_match_the_per_row_oracle(lsm_clf, small_corpus):
    lsm, vocab = lsm_clf.model, lsm_clf.vocab
    # the oracle scores each input alone, one readout call on a one-row
    # matrix; the histograms are in the classifier's own (normalized)
    # encoding, which the scorer spreads as 100 (its nominal length) events
    hists = encode_histogram(small_corpus, vocab)
    want = [lsm.readout.predict_scores(liquid_row(lsm, spread(np.rint(h * 100))))[0]
            for h in hists]
    got = explain.LsmHistogramScorer(lsm_clf).score_histograms(hists)
    assert np.array_equal(got, want)
    # predict's one readout call over all stacked rows scores each as alone
    rows = [liquid_row(lsm, encode_multihot(t, vocab, 60)) for t in small_corpus]
    want = [lsm.readout.predict_scores(row)[0] for row in rows]
    assert np.array_equal(lsm_clf.predict(small_corpus)[1], want)


@pytest.fixture(scope="module")
def raw_lsm_clf(small_corpus, small_labels):
    clf = LsmClassifier(seed=1, encoding=EncodingOptions(truncation=60, normalize=False),
                        folds=5)
    return clf.fit(small_corpus, small_labels)


@pytest.mark.parametrize("case", ["normalized-total-1.96", "raw-one-event"])
def test_lsm_scorer_reads_the_classifier_normalization(request, case):
    """A histogram is spread as its classifier's encoding says, whatever its
    total suggests."""
    if case == "normalized-total-1.96":
        clf = request.getfixturevalue("lsm_clf")
        # a LIME perturbation of a one-call trace: every other feature masked
        # to its mean, 1/width
        hist = np.full(clf.vocab.width, 1.0 / clf.vocab.width)
        hist[0] = 1.0
        events = np.rint(hist * 100)  # the nominal length
    else:
        clf = request.getfixturevalue("raw_lsm_clf")
        hist = np.zeros(clf.vocab.width)
        hist[0] = 1.0  # a one-event trace, in raw counts
        events = hist
    want = clf.model.readout.predict_scores(liquid_row(clf.model, spread(events)))[0]
    assert explain.LsmHistogramScorer(clf).score_histograms(hist[None, :])[0] == want


# --- batch explanations ------------------------------------------------------------


def assert_same_explanations(batch, single):
    assert len(batch) == len(single)
    for a, b in zip(batch, single):
        assert a.sample_id == b.sample_id
        assert np.array_equal(a.weights, b.weights)
        assert a.fidelity == b.fidelity
        assert a.top == b.top
        assert a.notes == b.notes


class CountingScorer:
    """Delegates to a scoring surface and records the rows of each call."""

    def __init__(self, inner):
        self.inner = inner
        self.explanation_notes = getattr(inner, "explanation_notes", ())
        self.calls = []

    def score_histograms(self, X):
        self.calls.append(X.shape[0])
        return explain._score_fn(self.inner)(X)


def one_by_one(model, X, cfg, ids):
    return [lime_explain(model, X[i], cfg, ids[i]) for i in range(X.shape[0])]


@pytest.fixture(scope="module")
def histogram_models(small_corpus, small_labels):
    from callsift.models import HistogramClassifier

    fitted = {
        kind: HistogramClassifier(kind, seed=3).fit(small_corpus, small_labels)
        for kind in ("hist-rf", "tree", "linear")
    }
    X = fitted["tree"]._encode(small_corpus)
    return fitted, X, [t.id for t in small_corpus]


@pytest.mark.parametrize("kind", ["hist-rf", "tree", "linear"])
def test_batch_equals_one_by_one(histogram_models, kind):
    fitted, X, ids = histogram_models
    cfg = LimeConfig(feature_means=X.mean(axis=0), perturbations=30, seed=4, top_k=5)
    model = CountingScorer(fitted[kind])
    batch = explain.lime_explain_batch(model, X, cfg, ids)
    assert_same_explanations(batch, one_by_one(fitted[kind], X, cfg, ids))
    # every model scores all samples' perturbations in one call
    assert model.calls == [X.shape[0] * 30]


def test_batch_splits_at_the_row_bound(histogram_models, monkeypatch):
    fitted, X, ids = histogram_models
    cfg = LimeConfig(feature_means=X.mean(axis=0), perturbations=30, seed=1)
    monkeypatch.setattr(explain, "SCORE_ROW_BOUND", 7 * 30 + 29)
    model = CountingScorer(fitted["hist-rf"])
    batch = explain.lime_explain_batch(model, X, cfg, ids)
    assert X.shape[0] % 7 != 0
    assert model.calls == [7 * 30] * (X.shape[0] // 7) + [X.shape[0] % 7 * 30]
    assert_same_explanations(batch, one_by_one(fitted["hist-rf"], X, cfg, ids))
    # a bound below one sample's perturbations still scores whole samples
    monkeypatch.setattr(explain, "SCORE_ROW_BOUND", 10)
    model = CountingScorer(fitted["hist-rf"])
    assert_same_explanations(explain.lime_explain_batch(model, X[:3], cfg, ids[:3]), batch[:3])
    assert model.calls == [30, 30, 30]


def test_batch_constant_model_is_degenerate_everywhere(rng):
    class Constant:
        def score_histograms(self, X):
            return np.full(X.shape[0], 0.42)

    X = rng.uniform(0, 1, size=(9, D))
    ids = [f"s{i}" for i in range(9)]
    batch = explain.lime_explain_batch(Constant(), X, config(perturbations=25), ids)
    assert_same_explanations(batch, one_by_one(Constant(), X, config(perturbations=25), ids))
    assert all(e.fidelity is None and any("degenerate" in n for n in e.notes) for e in batch)


def test_batch_lsm_scorer_equals_one_by_one(lsm_clf, small_corpus):
    clf = lsm_clf
    scorer = explain.LsmHistogramScorer(clf)
    rows = small_corpus[:5] + small_corpus[-4:]
    X = encode_histogram(rows, clf.vocab)
    cfg = LimeConfig(feature_means=X.mean(axis=0), perturbations=11, seed=2)
    ids = [t.id for t in rows]
    batch = explain.lime_explain_batch(scorer, X, cfg, ids)
    assert_same_explanations(batch, one_by_one(scorer, X, cfg, ids))
    assert all(any("approximation" in n for n in e.notes) for e in batch)


def test_batch_input_validation():
    with pytest.raises(ValueError, match="dimensionality"):
        explain.lime_explain_batch(lambda X: X.sum(axis=1), np.zeros((2, 3)), config(),
                                   ["a", "b"])
    with pytest.raises(ValueError, match="length mismatch"):
        explain.lime_explain_batch(lambda X: X.sum(axis=1), np.zeros((2, D)), config(), ["a"])
    with pytest.raises(ValueError, match="expected 10 scores"):
        lime_explain(lambda X: X.sum(axis=1), np.zeros(D), config(perturbations=10),
                     scores=np.zeros(9))


@pytest.mark.parametrize("kw", [{"perturbations": 0}, {"perturbations": -3}, {"top_k": -2}])
def test_lime_config_rejects_out_of_range_settings(kw):
    with pytest.raises(ValueError):
        config(**kw)


def test_lime_config_mask_is_shared_and_read_only():
    cfg = config(perturbations=6, seed=8)
    assert cfg.mask is cfg.mask
    assert cfg.mask.shape == (6, D)
    assert not cfg.mask.flags.writeable
    assert np.array_equal(cfg.mask, config(perturbations=6, seed=8).mask)
    assert config(top_k=0).top_k == 0
