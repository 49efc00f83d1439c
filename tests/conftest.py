import numpy as np
import pytest

from callsift import datagen
from callsift.forest import _logistic_grad
from callsift.traces import MALWARE, SyscallTrace, TraceEvents


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def events_of(pairs) -> TraceEvents:
    """The events of ``(step, name)`` pairs, coded into a table of their own
    names in order of first use."""
    pairs = tuple(pairs)
    table = tuple(dict.fromkeys(name for _, name in pairs))
    code_of = {name: code for code, name in enumerate(table)}
    steps = np.array([step for step, _ in pairs], dtype=np.int64)
    codes = np.array([code_of[name] for _, name in pairs], dtype=np.int32)
    return TraceEvents(steps, codes, table)


def make_trace(events, label="malware", trace_id="t", observed_at=0):
    return SyscallTrace(
        id=trace_id, label=label, observed_at=observed_at, events=events_of(events)
    )


def trace_to_record(trace: SyscallTrace) -> dict:
    """The record ``write_corpus`` writes for a trace; tests compare traces by it."""
    events = trace.events
    return {
        "id": trace.id,
        "label": trace.label,
        "observed_at": trace.observed_at,
        "events": list(zip(events.steps.tolist(), map(events.table.__getitem__,
                                                       events.codes.tolist()))),
    }


def logistic_loss_and_grad(weights, bias, X, y, l2):
    """Mean logistic loss with L2 penalty on the weights, plus the gradients
    ``train_linear`` steps along."""
    z = X @ weights + bias
    # log(1 + exp(z)) - y*z, computed stably
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + l2 * float(weights @ weights)
    return (loss, *_logistic_grad(weights, bias, X, y, l2))


def rule_matches(rule, x) -> bool:
    """Whether vector ``x`` meets every condition of an extracted rule."""
    return all(
        x[c.feature_index] <= c.threshold if c.op == "<=" else x[c.feature_index] > c.threshold
        for c in rule.conditions
    )


def rules_predict(rules, X) -> np.ndarray:
    """Replay a rule set over a matrix; exactly one rule fires per row."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.int64)
    for i, row in enumerate(X):
        matched = [r for r in rules if rule_matches(r, row)]
        if len(matched) != 1:
            raise ValueError(f"rule set must match exactly once, got {len(matched)}")
        out[i] = 1 if matched[0].predicted == MALWARE else 0
    return out


@pytest.fixture(scope="session")
def small_corpus():
    """Strongly separated corpus shared by model-level tests."""
    config = datagen.make_config(
        seed=101,
        goodware_count=60,
        malware_count=60,
        profiles=datagen.default_profiles(length_min=40, length_max=80),
    )
    return datagen.generate_corpus(config)


@pytest.fixture(scope="session")
def small_labels(small_corpus):
    return np.array([1 if t.label == "malware" else 0 for t in small_corpus])
