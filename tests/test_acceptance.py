"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime.  Tolerances are pinned here, not computed.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np
import pytest

from callsift import cli, datagen, evaluation, explain, models, persistence
from callsift import reservoir as rv
from callsift import significance as sig
from callsift.evaluation import LabeledDataset, compute_metrics, evaluate_cv, split_sorted
from callsift.forest import train_decision_tree
from callsift.traces import GOODWARE, MALWARE, MultiHotMatrix, labels_of
from conftest import logistic_loss_and_grad, rules_predict


class _Gate:
    def __init__(self, number, title, limit_s):
        self.number = number
        self.title = title
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:>2} [{status}] {self.title} ({elapsed:.1f}s)")
        if exc_type is None and elapsed > self.limit_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s > {self.limit_s}s"
            )
        return False


def test_01_metric_oracle_equivalence():
    with _Gate(1, "compute_metrics matches the counting oracle exactly", 5):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            labels = rng.integers(0, 2, size=n)
            pred = rng.integers(0, 2, size=n)
            metrics, confusion = compute_metrics(pred, labels)
            tp = fp = tn = fn = 0
            for p, l in zip(pred, labels):
                if p == 1 and l == 1:
                    tp += 1
                elif p == 1 and l == 0:
                    fp += 1
                elif p == 0 and l == 0:
                    tn += 1
                else:
                    fn += 1
            assert (confusion.tp, confusion.fp, confusion.tn, confusion.fn) == (
                tp, fp, tn, fn,
            )
            assert abs(metrics.acc - (tp + tn) / n) <= 1e-12
            per_class = []
            if tp + fn:
                per_class.append(tp / (tp + fn))
            if tn + fp:
                per_class.append(tn / (tn + fp))
            assert abs(metrics.caa - sum(per_class) / len(per_class)) <= 1e-12
            if tp + fp:
                assert abs(metrics.mpr - tp / (tp + fp)) <= 1e-12
            if tp + fn:
                assert abs(metrics.mre - tp / (tp + fn)) <= 1e-12


def test_02_skew_reproduction():
    with _Gate(2, "precision collapse on the 4728/45 skewed test shape", 1):
        # stub detector: perfect malware recall, exactly 142 false positives
        labels = np.concatenate([np.ones(45), np.zeros(4728)]).astype(int)
        pred = np.concatenate(
            [np.ones(45), np.ones(142), np.zeros(4728 - 142)]
        ).astype(int)
        metrics, confusion = compute_metrics(pred, labels)
        assert confusion.fp == 142 and confusion.fn == 0
        assert metrics.mre == 1.0
        assert abs(metrics.mpr - 45 / 187) <= 5e-4
        assert abs(metrics.mpr - 0.2406) <= 5e-4
        assert metrics.caa >= 0.98


def test_03_sidak_constant():
    with _Gate(3, "Sidak-corrected alpha for 15 pairs", 1):
        assert abs(sig.sidak_alpha(0.05, 15) - 0.003413) <= 1e-6


def test_04_cochran_mcnemar_fidelity():
    with _Gate(4, "Cochran's Q and exact McNemar worked examples", 1):
        bits = np.array([[1, 1, 0], [1, 0, 0], [1, 1, 1], [1, 0, 0]])
        q, p = sig.cochran_q(bits)
        assert abs(q - 28 / 6) <= 1e-9
        # independent oracle: chi-square sf with 2 dof is exp(-q/2)
        assert abs(p - math.exp(-q / 2)) <= 1e-12
        assert abs(p - 0.097) <= 1e-3

        a = np.concatenate([np.ones(10), np.zeros(2), np.ones(20)]).astype(int)
        b = np.concatenate([np.zeros(10), np.ones(2), np.ones(20)]).astype(int)
        _, p_exact = sig.mcnemar(a, b)
        # independent oracle: exact two-sided binomial tail with math.comb
        oracle = min(1.0, 2 * sum(math.comb(12, i) for i in range(3)) / 2**12)
        assert abs(p_exact - oracle) <= 1e-12
        assert abs(p_exact - 0.0386) <= 1e-4


def test_05_end_to_end_synthetic_pipeline():
    with _Gate(5, "Hist+RF on the drifted Table-1-shaped corpus", 120):
        config = datagen.table1_shape(
            "sorted", scale=0.01, seed=13,
            profiles=datagen.default_profiles(separation=2.0),
            drift=datagen.DriftSchedule(0.3),
        )
        corpus = datagen.generate_corpus(config)
        ds = LabeledDataset.from_traces(corpus)
        train, test = split_sorted(ds, train_counts=config.train_counts)
        assert (test.labels == 0).sum() == 32 and (test.labels == 1).sum() == 20
        rf = models.make_classifier("hist-rf", seed=5)
        rf.fit(train.samples, train.labels)
        sorted_caa = compute_metrics(rf.predict(test.samples)[0], test.labels)[0].caa
        assert sorted_caa >= 0.90

        cv_caas = []
        for seed in range(5):
            report = evaluate_cv(
                ds,
                {"hist-rf": lambda s: models.make_classifier("hist-rf", seed=s)},
                k=10, seed=seed, ensemble=False,
            )
            cv_caas.append(report.models["hist-rf"].metrics.caa)
        cv_median = sorted(cv_caas)[2]
        assert cv_median >= sorted_caa - 0.01


def test_06_sequence_length_sweep_shape():
    with _Gate(6, "RF rises with length while LSM stays flat", 600):
        config = datagen.make_config(
            seed=21, goodware_count=180, malware_count=180,
            profiles=datagen.accumulating_profiles(),
        )
        ds = LabeledDataset.from_traces(datagen.generate_corpus(config))
        train, test = split_sorted(ds, train_fraction=0.8)
        caa = {}
        for n in (100, 1000):
            enc = models.EncodingOptions(truncation=n)
            rf = models.make_classifier("hist-rf", seed=3, encoding=enc)
            rf.fit(train.samples, train.labels)
            rf_caa = compute_metrics(rf.predict(test.samples)[0], test.labels)[0].caa
            lsm = models.make_classifier("lsm", seed=3, encoding=enc)
            lsm.fit(train.samples, train.labels)
            lsm_caa = compute_metrics(lsm.predict(test.samples)[0], test.labels)[0].caa
            caa[n] = (rf_caa, lsm_caa)
        rf_rise = caa[1000][0] - caa[100][0]
        lsm_delta = abs(caa[1000][1] - caa[100][1])
        assert rf_rise >= 0.05, f"RF rise {rf_rise:.3f} < 5 points"
        assert lsm_delta <= 0.03, f"LSM varies {lsm_delta:.3f} > 3 points"


def test_07_rule_replay():
    with _Gate(7, "extracted rules replay the tree on 10k vectors", 10):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, size=(400, 8))
        y = (((X[:, 0] > 0.4) & (X[:, 3] < 0.7)) | (X[:, 6] > 0.85)).astype(int)
        tree = train_decision_tree(X, y)
        rules = explain.extract_rules(tree)
        probe = rng.uniform(-0.5, 1.5, size=(10_000, 8))
        assert np.array_equal(
            rules_predict(rules, probe), labels_of(tree.predict_scores(probe))
        )


def test_08_explanation_fidelity():
    with _Gate(8, "local surrogate recovers an analytic linear model", 30):
        rng = np.random.default_rng(8)
        d = 12
        w = np.zeros(d)
        w[0], w[1], w[2], w[3] = 4.0, -3.0, 2.0, -1.5

        def model(X):
            return 1.0 / (1.0 + np.exp(-(X @ w)))

        config = explain.LimeConfig(feature_means=np.full(d, 0.5), seed=11)
        for _ in range(5):
            x = rng.uniform(0, 1, d)
            e = explain.lime_explain(model, x, config)
            # noise floor: only the four real coefficients are above it
            for i in range(4):
                assert np.sign(e.weights[i]) == -np.sign(w[i])
            assert e.fidelity is not None and e.fidelity >= 0.8
        const = explain.lime_explain(
            lambda X: np.full(X.shape[0], 0.3), rng.uniform(0, 1, d), config
        )
        assert np.abs(const.weights).max() <= 1e-8


def test_09_lsm_structural_and_dynamical(monkeypatch):
    with _Gate(9, "default liquid structure and LIF dynamics", 10):
        topo = rv.build_liquid(25, seed=4)
        assert topo.neuron_count == 135
        assert all((topo.input_weights[ch] != 0).sum() == 40 for ch in range(25))

        lif = rv.LifParams()
        zero = MultiHotMatrix(
            np.zeros((0, 25), dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert not rv.simulate_liquid(topo, lif, zero)[0].any()

        # closed-form single LIF: injected current above threshold-reset
        # spikes exactly once; below it never spikes
        one = rv.LiquidTopology(
            neuron_count=1, input_weights=np.array([[0.6]]),
            recurrent_weights=np.zeros((1, 1)), seed=0,
        )
        pulse = MultiHotMatrix(np.array([[2]], dtype=np.int64),
                               np.array([5], dtype=np.int64))
        with monkeypatch.context() as patch:
            patch.setattr(rv, "LIQUID_WINDOWS", 1)
            counts, _ = rv.simulate_liquid(one, lif, pulse)
            assert counts.sum() == 1.0
            weak = MultiHotMatrix(np.array([[1]], dtype=np.int64),
                                  np.array([5], dtype=np.int64))
            counts, _ = rv.simulate_liquid(one, lif, weak)
            assert counts.sum() == 0.0

        rng = np.random.default_rng(0)
        m = MultiHotMatrix(
            rng.integers(0, 3, size=(30, 25)).astype(np.int64),
            np.arange(30, dtype=np.int64),
        )
        again = rv.build_liquid(25, seed=4)
        a = rv.simulate_liquid(topo, lif, m)[0]
        b = rv.simulate_liquid(again, lif, m)[0]
        assert np.array_equal(a, b)


def test_10_determinism_and_persistence(tmp_path):
    with _Gate(10, "byte-identical reports and bit-exact archives", 30):
        config = datagen.make_config(
            seed=6, goodware_count=40, malware_count=40,
            profiles=datagen.default_profiles(length_min=40, length_max=80),
        )
        doc = persistence.encode(config)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        c1, c2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
        assert cli.main(["gen", "--config", str(cfg_path), "--out", str(c1),
                         "--reproducible"]) == 0
        assert cli.main(["gen", "--config", str(cfg_path), "--out", str(c2),
                         "--reproducible"]) == 0
        assert c1.read_bytes() == c2.read_bytes()

        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        eval_args = ["eval", "--corpus", str(c1), "--split", "sorted",
                     "--models", "tree,hist-rf,linear", "--length", "80",
                     "--seed", "3"]
        assert cli.main(eval_args + ["--out", str(r1)]) == 0
        assert cli.main(eval_args + ["--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

        corpus = datagen.generate_corpus(config)
        labels = np.array([1 if t.label == MALWARE else 0 for t in corpus])
        clf = models.make_classifier(
            "hist-rf", seed=2, encoding=models.EncodingOptions(truncation=80)
        )
        clf.fit(corpus, labels)
        archive_path = tmp_path / "model.json"
        persistence.save_model(clf, archive_path, seed=2)
        loaded = persistence.load_model(archive_path)
        rng = np.random.default_rng(5)
        probe = rng.uniform(0, 1, size=(1000, clf.vocab.width))
        assert np.array_equal(
            clf.score_histograms(probe), loaded.score_histograms(probe)
        )


def test_11_numerical_checks():
    with _Gate(11, "gradients vs finite differences; chi-square anchors", 5):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 7))
        y = rng.integers(0, 2, size=30).astype(float)
        w = rng.normal(size=7)
        b = 0.2
        _, gw, gb = logistic_loss_and_grad(w, b, X, y, 0.01)
        eps = 1e-6
        for i in range(7):
            wp, wm = w.copy(), w.copy()
            wp[i] += eps
            wm[i] -= eps
            lp, _, _ = logistic_loss_and_grad(wp, b, X, y, 0.01)
            lm, _, _ = logistic_loss_and_grad(wm, b, X, y, 0.01)
            num = (lp - lm) / (2 * eps)
            assert abs(num - gw[i]) / max(abs(num), 1e-8) <= 1e-5
        assert abs(sig.chi_square_sf(3.841, 1) - 0.05) <= 1e-3
        assert abs(sig.chi_square_sf(5.991, 2) - 0.05) <= 1e-3
