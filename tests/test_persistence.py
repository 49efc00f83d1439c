import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from callsift import persistence, reservoir
from callsift.forest import (
    LEAF,
    DecisionTree,
    ForestParams,
    LinearModel,
    LinearParams,
    TreeParams,
)
from callsift.models import (
    EncodingOptions,
    VotingEnsembleClassifier,
    make_classifier,
)
from callsift.persistence import (
    ArchiveError,
    canonical_json,
    decode,
    encode,
    load_model,
    save_model,
)
from callsift.reservoir import (
    LINEAR,
    LifParams,
    ReadoutModel,
)
from callsift.traces import SyscallVocabulary


def fitted(kind, small_corpus, small_labels):
    enc = EncodingOptions(truncation=60)
    if kind == "lsm":
        clf = make_classifier(kind, seed=2, encoding=enc, folds=5)
    elif kind == "ensemble":
        clf = VotingEnsembleClassifier({
            "tree": make_classifier("tree", seed=2, encoding=enc),
            "linear": make_classifier("linear", seed=2, encoding=enc),
        })
    else:
        clf = make_classifier(kind, seed=2, encoding=enc)
    return clf.fit(small_corpus, small_labels)


@pytest.mark.parametrize("kind", ["tree", "hist-rf", "linear", "lsm", "ensemble"])
def test_round_trip_preserves_predictions_bit_exactly(
    kind, tmp_path, small_corpus, small_labels
):
    clf = fitted(kind, small_corpus, small_labels)
    path = tmp_path / f"{kind}.json"
    save_model(clf, path, seed=2, config_digest="d" * 64)
    loaded = load_model(path)
    p1, s1 = clf.predict(small_corpus)
    p2, s2 = loaded.predict(small_corpus)
    assert np.array_equal(p1, p2)
    assert np.array_equal(s1, s2)  # bit-exact scores, not just labels


def test_archive_is_self_describing(tmp_path, small_corpus, small_labels):
    clf = fitted("tree", small_corpus, small_labels)
    save_model(clf, tmp_path / "m.json", seed=2, config_digest="abc",
               created_at="2026-01-01T00:00:00+00:00")
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["format_version"] == 1
    assert doc["kind"] == "tree"
    assert doc["vocabulary"] == list(clf.vocab.names)
    assert doc["encoding"] == {"truncation": 60, "normalize": True}
    assert doc["provenance"]["config_hash"] == "abc"
    assert doc["provenance"]["seed"] == 2
    assert doc["provenance"]["created_at"] == "2026-01-01T00:00:00+00:00"
    assert len(doc["payload_sha256"]) == 64


def test_future_format_version_rejected(tmp_path, small_corpus, small_labels):
    clf = fitted("linear", small_corpus, small_labels)
    save_model(clf, tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    doc["format_version"] = 2
    (tmp_path / "future.json").write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match="format_version"):
        load_model(tmp_path / "future.json")


def test_corrupted_payload_rejected(tmp_path, small_corpus, small_labels):
    clf = fitted("linear", small_corpus, small_labels)
    save_model(clf, tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    doc["payload"]["bias"] = doc["payload"]["bias"] + 1.0
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match="checksum"):
        load_model(tmp_path / "bad.json")
    (tmp_path / "noise.json").write_text("{broken")
    with pytest.raises(ArchiveError, match="JSON"):
        load_model(tmp_path / "noise.json")


def test_non_object_archive_rejected(tmp_path):
    (tmp_path / "list.json").write_text("[]")
    with pytest.raises(ArchiveError, match="JSON object"):
        load_model(tmp_path / "list.json")


def test_payload_with_missing_field_names_the_type(tmp_path, small_corpus, small_labels):
    clf = fitted("tree", small_corpus, small_labels)
    doc = save_model(clf, tmp_path / "m.json")
    del doc["payload"]["left"]
    doc["payload_sha256"] = persistence.config_hash(doc["payload"])
    (tmp_path / "missing.json").write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match="DecisionTree"):
        load_model(tmp_path / "missing.json")


def test_spelled_out_kind_is_unknown(tmp_path, small_corpus, small_labels):
    clf = fitted("tree", small_corpus, small_labels)
    doc = save_model(clf, tmp_path / "m.json")
    doc["kind"] = "decision_tree"  # the spelling archives used before registry names
    (tmp_path / "old.json").write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match="unknown model kind"):
        load_model(tmp_path / "old.json")


def _drop(*keys):
    def mutate(doc):
        for key in keys:
            del doc[key]
    return mutate


@pytest.mark.parametrize("mutate, message", [
    # every call would fall into the OOV slot
    (lambda doc: doc.update(vocabulary=list(range(len(doc["vocabulary"])))),
     "^vocabulary: str payload is a int$"),
    (lambda doc: doc.update(vocabulary=None), "^vocabulary: .* payload is a NoneType$"),
    (_drop("payload"), "^archive lacks payload$"),
    (_drop("vocabulary", "encoding"), "^archive lacks vocabulary, encoding$"),
], ids=["integer-vocabulary", "null-vocabulary", "no-payload", "no-vocabulary-or-encoding"])
def test_malformed_archive_envelope_is_rejected_naming_the_key(
    tmp_path, small_corpus, small_labels, mutate, message
):
    doc = save_model(fitted("tree", small_corpus, small_labels), tmp_path / "m.json")
    mutate(doc)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match=message):
        load_model(tmp_path / "bad.json")


def _set_payload(mutate):
    def set_payload(doc):
        mutate(doc["payload"])
        doc["payload_sha256"] = persistence.config_hash(doc["payload"])
    return set_payload


def _edit_member(edit):
    return _set_payload(lambda payload: edit(payload["members"]["tree"]))


@pytest.mark.parametrize("mutate, message", [
    (_set_payload(lambda p: p.update(members=[])),
     r"^EnsemblePayload\.members: dict\[.*\] payload is a list$"),
    (_set_payload(lambda p: p.update(members={})), "^ensemble archive has no members$"),
    (_set_payload(lambda p: p.pop("members")),
     r"^EnsemblePayload payload has fields \[\], expected \['members'\]$"),
    (_edit_member(lambda m: m.pop("kind")),
     r"^EnsemblePayload\.members: EnsembleMember payload has fields \['payload'\]"),
    (_edit_member(lambda m: m.update(seed=2)), r"EnsembleMember payload has fields \['kind', "),
    (_edit_member(lambda m: m.update(payload=[])),
     r"^EnsemblePayload\.members: EnsembleMember\.payload: .* payload is a list$"),
], ids=["members-list", "no-member", "no-members-key", "member-without-kind",
        "member-with-extra-field", "member-payload-list"])
def test_malformed_ensemble_archive_is_rejected(
    tmp_path, small_corpus, small_labels, mutate, message
):
    doc = save_model(fitted("ensemble", small_corpus, small_labels), tmp_path / "m.json")
    mutate(doc)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match=message):
        load_model(tmp_path / "bad.json")


def _save_edited(clf, tmp_path, edit):
    """Save ``clf``, apply ``edit`` to the archive's payload, recompute its
    checksum and return the edited archive's path."""
    doc = save_model(clf, tmp_path / "saved.json")
    edit(doc["payload"])
    doc["payload_sha256"] = persistence.config_hash(doc["payload"])
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    return tmp_path / "edited.json"


def test_lsm_archive_with_another_window_count_is_refused(tmp_path, small_corpus,
                                                          small_labels):
    clf = fitted("lsm", small_corpus, small_labels)
    doc = save_model(clf, tmp_path / "lsm.json")
    assert doc["payload"]["windows"] == reservoir.LIQUID_WINDOWS == 4
    assert doc["payload"]["lif"] == encode(LifParams())
    # the window count and the LIF dynamics are fixed: an archive that
    # records others is refused by name
    edited = _save_edited(clf, tmp_path, lambda p: p.update(windows=2))
    with pytest.raises(ValueError, match=r"^LsmModel\.windows is fixed at 4, got 2$"):
        load_model(edited)
    edited = _save_edited(clf, tmp_path, lambda p: p["lif"].update(refractory_period=1))
    with pytest.raises(ValueError, match=r"^LifParams\.refractory_period is fixed at 2, got 1$"):
        load_model(edited)


@pytest.mark.parametrize("kind, edit, message", [
    ("hist-rf", lambda p: p.update(trees=[]), r"^a forest of n_trees 100 holds 0 trees$"),
    ("hist-rf", lambda p: p.update(trees=p["trees"][:3]), r"^a forest of n_trees 100 holds 3 trees$"),
    ("lsm", lambda p: p["topology"].update(neuron_count=200_000),
     r"^a liquid of neuron_count 200000 needs \(channels, 200000\) input and "),
    ("lsm", lambda p: p["topology"].update(neuron_count=10**9), r"^a liquid of neuron_count 10+ "),
    ("lsm", lambda p: p["topology"].update(recurrent_weights=[[0.0]]),
     r"^a liquid of neuron_count 135 needs "),
], ids=["forest-of-no-trees", "forest-of-3-trees", "liquid-of-200000-neurons",
        "liquid-of-1e9-neurons", "liquid-of-one-recurrent-weight"])
def test_archive_whose_arrays_disagree_with_its_sizes_is_refused(
    tmp_path, small_corpus, small_labels, kind, edit, message
):
    # each is refused as it is built, before anything is sized by it
    edited = _save_edited(fitted(kind, small_corpus, small_labels), tmp_path, edit)
    with pytest.raises(ValueError, match=message):
        load_model(edited)


def test_hist_rf_archive_with_another_forest_recipe_is_refused(tmp_path, small_corpus,
                                                               small_labels):
    doc = save_model(fitted("hist-rf", small_corpus, small_labels), tmp_path / "rf.json")
    assert doc["payload"]["params"] == encode(ForestParams(seed=2))
    doc["payload"]["params"]["n_trees"] = 50
    doc["payload_sha256"] = persistence.config_hash(doc["payload"])
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"^ForestParams\.n_trees is fixed at 100, got 50$"):
        load_model(tmp_path / "edited.json")


def test_unfitted_model_cannot_be_saved(tmp_path):
    with pytest.raises(ArchiveError, match="trained"):
        save_model(make_classifier("tree"), tmp_path / "m.json")


def test_loaded_model_keeps_vocabulary_and_scores_new_calls(
    tmp_path, small_corpus, small_labels
):
    from conftest import make_trace

    clf = fitted("hist-rf", small_corpus, small_labels)
    save_model(clf, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    assert isinstance(loaded.vocab, SyscallVocabulary)
    assert loaded.vocab.names == clf.vocab.names
    alien = make_trace([(0, "NtNeverSeen")] * 3, label=None)
    pred, _ = loaded.predict([alien])
    assert pred.shape == (1,)


def test_canonical_hash_stable():
    assert persistence.config_hash({"b": 1, "a": 2}) == persistence.config_hash(
        {"a": 2, "b": 1}
    )


# --- payload codec -----------------------------------------------------------


def _golden_tree():
    return DecisionTree(
        feature=np.array([1, LEAF, LEAF]),
        threshold=np.array([0.25, np.nan, np.nan]),
        left=np.array([1, LEAF, LEAF]),
        right=np.array([2, LEAF, LEAF]),
        class_counts=np.array([[3.0, 2.0], [3.0, 0.0], [0.0, 2.0]]),
        n_features=2,
        params=TreeParams(max_depth=4, min_samples_leaf=1, feature_subsample=None, seed=7),
    )


def _golden_linear():
    return LinearModel(
        weights=np.array([0.5, -1.25]), bias=0.125,
        params=LinearParams(learning_rate=0.5, epochs=500, l2=1e-4, seed=3),
    )


# Canonical payloads as written by the per-class serializers this codec
# replaced; a change to the archive layout must fail here.
GOLDEN_TREE = (
    '{"class_counts":[[3.0,2.0],[3.0,0.0],[0.0,2.0]],"feature":[1,-1,-1],'
    '"left":[1,-1,-1],"n_features":2,"params":{"feature_subsample":null,'
    '"max_depth":4,"min_samples_leaf":1,"seed":7},"right":[2,-1,-1],'
    '"threshold":[0.25,NaN,NaN]}'
)
GOLDEN_LINEAR = (
    '{"bias":0.125,"params":{"epochs":500,"l2":0.0001,"learning_rate":0.5,"seed":3},'
    '"weights":[0.5,-1.25]}'
)


def test_golden_payloads():
    assert canonical_json(encode(_golden_tree())) == GOLDEN_TREE
    assert canonical_json(encode(_golden_linear())) == GOLDEN_LINEAR
    tree = decode(DecisionTree, json.loads(GOLDEN_TREE))
    assert tree.feature.dtype == np.int64 and tree.class_counts.shape == (3, 2)
    assert tree.predict_scores(np.array([[0.0, 0.5]]))[0] == 1.0


floats = st.floats(allow_nan=True, allow_infinity=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
small_int = st.integers(min_value=0, max_value=2**31)


def float_array(shape):
    return hnp.arrays(np.float64, shape, elements=floats)


@st.composite
def trees(draw):
    """Any tree ``DecisionTree`` accepts: an internal node's children come
    after it, a leaf's child entries are arbitrary, and the class counts are
    finite and non-negative."""
    n = draw(st.integers(1, 7))
    n_features = draw(st.integers(1, 10))
    feature = draw(hnp.arrays(np.int64, n, elements=st.integers(LEAF, n_features - 1)))
    feature[-1] = LEAF  # no node comes after the last one

    def children():
        return np.array([draw(st.integers(LEAF, 10) if f == LEAF else st.integers(i + 1, n - 1))
                         for i, f in enumerate(feature)], dtype=np.int64)

    return DecisionTree(
        feature=feature, threshold=draw(float_array(n)),
        left=children(), right=children(),
        class_counts=draw(hnp.arrays(np.float64, (n, 2), elements=st.floats(0, 1e300))),
        n_features=n_features,
        params=TreeParams(
            max_depth=draw(st.none() | st.integers(0, 8)),
            min_samples_leaf=draw(st.integers(1, 5)),
            feature_subsample=draw(st.none() | st.integers(1, 5)),
            seed=draw(small_int),
        ),
    )


@st.composite
def linear_models(draw, d=None):
    d = d or draw(st.integers(1, 6))
    return LinearModel(
        weights=draw(float_array(d)), bias=draw(floats),
        params=LinearParams(learning_rate=draw(finite), epochs=draw(small_int),
                            l2=draw(finite), seed=draw(small_int)),
    )


@st.composite
def readouts(draw):
    d = draw(st.integers(1, 6))
    point = st.dictionaries(st.sampled_from(["l2", "learning_rate"]), finite, min_size=1)
    return ReadoutModel(
        kind=LINEAR, model=draw(linear_models(d)), hyperparams=draw(point),
        feature_mean=draw(float_array(d)), feature_std=draw(float_array(d)),
        search_log=draw(st.lists(st.tuples(point, finite), max_size=3)),
    )


def _assert_same(a, b):
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype
        # JSON keeps no shape for an empty array: (0, d) reloads as (0,)
        assert a.shape == b.shape or a.size == b.size == 0
        assert np.array_equal(a, b.reshape(a.shape), equal_nan=a.dtype.kind == "f")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert canonical_json(a) == canonical_json(b)  # NaN-safe scalar equality


@settings(deadline=None)
@given(st.one_of(trees(), linear_models(), readouts()))
def test_codec_round_trip(model):
    payload = encode(model)
    loaded = decode(type(model), json.loads(json.dumps(payload)))
    _assert_same(model, loaded)
    assert canonical_json(encode(loaded)) == canonical_json(payload)


@pytest.mark.parametrize("tp, payload, message", [
    (ForestParams, {"bootstrap": 1}, "ForestParams.bootstrap: bool payload is a int"),
    (ForestParams, {"seed": 1.0}, "ForestParams.seed: int payload is a float"),
    (ForestParams, {"max_depth": False}, "ForestParams.max_depth: int payload is a bool"),
    (LinearParams, {"l2": True}, "LinearParams.l2: float payload is a bool"),
    (LinearParams, {"l2": "0.1"}, "LinearParams.l2: float payload is a str"),
], ids=["bool-as-int", "int-as-float", "optional-int-as-bool", "float-as-bool", "float-as-str"])
def test_scalar_of_the_wrong_json_type_names_the_field(tp, payload, message):
    doc = {**encode(tp()), **payload}
    with pytest.raises(ArchiveError, match=f"^{message}$"):
        decode(tp, doc)


def test_nested_scalar_error_names_every_field_on_the_way():
    doc = encode(LinearModel(np.zeros(2), 0.0, LinearParams()))
    readout = {"kind": LINEAR, "model": {**doc, "bias": "big"}, "hyperparams": {},
               "feature_mean": [0.0, 0.0], "feature_std": [1.0, 1.0], "search_log": []}
    with pytest.raises(ArchiveError,
                       match=r"^ReadoutModel\.model: LinearModel\.bias: float payload is a str$"):
        decode(ReadoutModel, readout)


@pytest.mark.parametrize("threshold, message", [
    ("abc", "array payload is a str"),
    (0.25, "array payload is a float"),
    (None, "array payload is a NoneType"),
    ([0.25, None, None], "array payload has object items, not numbers"),
    (["0.25", "nan", "1"], "array payload has <U4 items, not numbers"),
    ([[0.25], [1.0, 2.0], []], "array payload is ragged"),
], ids=["string", "scalar", "null", "null-items", "string-items", "ragged"])
def test_array_that_is_not_a_list_of_numbers_names_the_field(threshold, message):
    doc = {**json.loads(GOLDEN_TREE), "threshold": threshold}
    with pytest.raises(ArchiveError, match=f"^DecisionTree.threshold: {message}$"):
        decode(DecisionTree, doc)


def test_float_field_keeps_an_integer_as_given():
    doc = {**encode(LinearParams()), "learning_rate": 2}
    params = decode(LinearParams, doc)
    assert params.learning_rate == 2 and type(params.learning_rate) is int
    assert canonical_json(encode(params)) == canonical_json(doc)
