"""Trace-level classifiers: encoding + learner bundles with a shared
fit/predict surface, and the model-kind registry used by the CLI.

Every classifier here:

* builds its vocabulary from the training traces only (later traces may
  contain new call names; those fall into the OOV slot),
* encodes each trace's first ``encoding.truncation`` events, into one
  histogram matrix (``traces.encode_histogram``) or one liquid-state matrix
  (``reservoir.liquid_states``) per call,
* predicts (labels_int, scores), labels by ``traces.labels_of`` (0.5 is
  malware); a trace's score does not depend on which other traces
  are scored with it,
* exposes its registry ``kind``, its ``vocab`` and its ``encoding``, which
  is all an archive needs besides the trained ``model`` that each
  single-model classifier holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forest, reservoir
from .evaluation import ENSEMBLE, majority_vote
from .traces import (
    SyscallTrace,
    SyscallVocabulary,
    build_vocabulary,
    encode_histogram,
    encode_multihot,
    labels_of,
)

DEFAULT_TRUNCATION = 1000

TREE = "tree"
HIST_RF = "hist-rf"
LINEAR = "linear"
LSM = "lsm"
# the kinds a HistogramClassifier learns
HISTOGRAM_KINDS = (TREE, HIST_RF, LINEAR)
# the single-model kinds; an ensemble votes over one of each
BASE_KINDS = HISTOGRAM_KINDS + (LSM,)
MODEL_KINDS = BASE_KINDS + (ENSEMBLE,)


@dataclass(frozen=True)
class EncodingOptions:
    truncation: int = DEFAULT_TRUNCATION
    normalize: bool = True

    def __post_init__(self) -> None:
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")


class HistogramClassifier:
    """Histogram encoding in front of a tree, forest, or linear learner, each
    trained with its default settings and this classifier's seed."""

    def __init__(self, kind: str, seed: int = 0, encoding: EncodingOptions | None = None):
        if kind not in HISTOGRAM_KINDS:
            raise ValueError(f"not a histogram model kind: {kind!r}")
        self.kind = kind
        self.seed = seed
        self.encoding = encoding or EncodingOptions()
        self.vocab: SyscallVocabulary | None = None
        self.model = None

    def _encode(self, traces) -> np.ndarray:
        assert self.vocab is not None, "fit before predict"
        return encode_histogram(traces, self.vocab, self.encoding.normalize,
                                self.encoding.truncation)

    def fit(self, traces: list[SyscallTrace], labels: np.ndarray) -> "HistogramClassifier":
        self.vocab = build_vocabulary(traces)
        X = self._encode(traces)
        y = np.asarray(labels, dtype=np.int64)
        if self.kind == TREE:
            self.model = forest.train_decision_tree(X, y, forest.TreeParams(seed=self.seed))
        elif self.kind == HIST_RF:
            self.model = forest.train_random_forest(X, y, forest.ForestParams(seed=self.seed))
        else:
            self.model = forest.train_linear(X, y, forest.LinearParams(seed=self.seed))
        return self

    def score_histograms(self, X: np.ndarray) -> np.ndarray:
        """Score pre-encoded histogram vectors (the explanation surface)."""
        assert self.model is not None, "fit before predict"
        return self.model.predict_scores(np.asarray(X, dtype=np.float64))

    def predict(self, traces) -> tuple[np.ndarray, np.ndarray]:
        scores = self.score_histograms(self._encode(traces))
        return labels_of(scores), scores


class LsmClassifier:
    """Multi-hot encoding into a fixed liquid, then a trained readout; the
    liquid's wiring and the readout live in the trained ``LsmModel``, ``model``."""

    kind = LSM

    def __init__(
        self,
        seed: int = 0,
        encoding: EncodingOptions | None = None,
        folds: int = 10,
    ):
        self.seed = seed
        self.encoding = encoding or EncodingOptions()
        self.folds = folds
        self.vocab: SyscallVocabulary | None = None
        self.model: reservoir.LsmModel | None = None

    def _inputs(self, traces):
        assert self.vocab is not None, "fit before predict"
        return (encode_multihot(t, self.vocab, self.encoding.truncation) for t in traces)

    def fit(self, traces: list[SyscallTrace], labels: np.ndarray) -> "LsmClassifier":
        if self.folds < 2:
            raise ValueError(f"LSM readout folds must be >= 2, got {self.folds}")
        self.vocab = build_vocabulary(traces)
        topology = reservoir.build_liquid(self.vocab.width, seed=self.seed)
        states = reservoir.liquid_states(topology, self._inputs(traces))
        y = np.asarray(labels, dtype=np.int64)
        folds = min(self.folds, int(np.bincount(y, minlength=2).min()))
        if folds < 2:
            raise ValueError("LSM readout needs at least 2 samples of each class")
        readout = reservoir.train_readout(states, y, folds=folds, seed=self.seed)
        self.model = reservoir.LsmModel(topology=topology, readout=readout)
        return self

    def score_inputs(self, matrices) -> np.ndarray:
        """Malware scores of multi-hot matrices (an iterable, consumed one at a
        time) run through the trained liquid and readout."""
        assert self.model is not None, "fit first"
        states = reservoir.liquid_states(self.model.topology, matrices)
        return self.model.readout.predict_scores(states)

    def predict(self, traces) -> tuple[np.ndarray, np.ndarray]:
        scores = self.score_inputs(self._inputs(traces))
        return labels_of(scores), scores


class VotingEnsembleClassifier:
    """Majority vote over member classifiers; even ties go to malware."""

    kind = ENSEMBLE

    def __init__(self, members: dict[str, object]):
        if not members:
            raise ValueError("ensemble needs at least one member")
        self.members = members

    @property
    def vocab(self) -> SyscallVocabulary | None:
        """The first member's vocabulary (every member trains on the same traces)."""
        return next(iter(self.members.values())).vocab

    @property
    def encoding(self) -> EncodingOptions:
        return next(iter(self.members.values())).encoding

    def fit(self, traces, labels) -> "VotingEnsembleClassifier":
        for member in self.members.values():
            member.fit(traces, labels)
        return self

    def predict(self, traces) -> tuple[np.ndarray, np.ndarray]:
        votes = [m.predict(traces)[0] for m in self.members.values()]
        return majority_vote(votes), np.vstack(votes).mean(axis=0)


def make_classifier(
    kind: str,
    seed: int = 0,
    encoding: EncodingOptions | None = None,
    folds: int = 10,
):
    """A classifier of registry ``kind``.  ``folds`` is the LSM readout's
    cross-validation fold count (an ensemble passes it to its ``lsm``
    member; the histogram kinds have no use for it)."""
    if kind in HISTOGRAM_KINDS:
        return HistogramClassifier(kind, seed=seed, encoding=encoding)
    if kind == LSM:
        return LsmClassifier(seed=seed, encoding=encoding, folds=folds)
    if kind == ENSEMBLE:
        return VotingEnsembleClassifier({
            m: make_classifier(m, seed=seed, encoding=encoding, folds=folds)
            for m in BASE_KINDS
        })
    raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
