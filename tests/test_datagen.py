import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from callsift import datagen, persistence
from callsift.datagen import (
    ClassProfile,
    CorpusConfig,
    DriftSchedule,
    Motif,
    drifted_frequencies,
    generate_corpus,
    make_config,
    table1_shape,
)
from callsift.evaluation import LabeledDataset, compute_metrics, split_sorted
from callsift.traces import (
    GOODWARE, LABEL_TO_INT, MALWARE, SyscallTrace, SyscallVocabulary, parse_trace, write_corpus,
)
from conftest import events_of, trace_to_record


def small_config(seed=3, drift=0.0, mode="frequency-shift", counts=(40, 40)):
    return make_config(
        seed=seed,
        goodware_count=counts[0],
        malware_count=counts[1],
        profiles=datagen.default_profiles(length_min=40, length_max=80),
        drift=DriftSchedule(drift, mode),
    )


def test_generate_corpus_deterministic():
    config = small_config()
    a = generate_corpus(config)
    b = generate_corpus(config)
    assert [trace_to_record(x) for x in a] == [trace_to_record(x) for x in b]


def test_generate_corpus_counts_and_labels():
    corpus = generate_corpus(small_config(counts=(100, 100)))
    assert sum(1 for t in corpus if t.label == GOODWARE) == 100
    assert sum(1 for t in corpus if t.label == MALWARE) == 100


def test_generate_corpus_timestamps_strictly_increasing():
    corpus = generate_corpus(small_config())
    stamps = [t.observed_at for t in corpus]
    assert all(b > a for a, b in zip(stamps, stamps[1:]))


def test_generate_corpus_round_trips_through_parser():
    corpus = generate_corpus(small_config(counts=(10, 10)))
    for trace in corpus:
        back = parse_trace(trace_to_record(trace))
        assert tuple(back.events) == tuple(trace.events)
        assert back.label == trace.label


def test_timestamp_range_respected():
    config = make_config(
        seed=1, goodware_count=10, malware_count=10,
        profiles=datagen.default_profiles(length_min=5, length_max=10),
        timestamp_range=(100, 400),
    )
    corpus = generate_corpus(config)
    stamps = [t.observed_at for t in corpus]
    assert min(stamps) >= 100 and max(stamps) < 400
    assert all(b > a for a, b in zip(stamps, stamps[1:]))
    with pytest.raises(ValueError, match="timestamp_range"):
        make_config(
            seed=1, goodware_count=10, malware_count=10,
            profiles=datagen.default_profiles(), timestamp_range=(0, 5),
        )


def test_profile_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        ClassProfile(call_frequencies={"A": 0.5, "B": 0.4})
    with pytest.raises(ValueError, match="length_min"):
        ClassProfile(call_frequencies={"A": 1.0}, length_min=0)
    with pytest.raises(ValueError, match="probability"):
        Motif(calls=("A",), probability=1.5)
    with pytest.raises(ValueError, match="magnitude"):
        DriftSchedule(magnitude=2.0)
    with pytest.raises(ValueError, match="mode"):
        DriftSchedule(magnitude=0.5, mode="sideways")


def test_drifted_frequencies_is_a_distribution():
    base = np.array([0.5, 0.3, 0.2])
    for u in (0.0, 0.4, 1.0):
        for m in (0.0, 0.5, 1.0):
            p = drifted_frequencies(base, u, m)
            assert p.sum() == pytest.approx(1.0)
            assert (p >= 0).all()
    assert np.array_equal(drifted_frequencies(base, 0.0, 1.0), base)


def test_table1_shape_counts():
    sorted_cfg = table1_shape("sorted")
    assert sorted_cfg.train_counts == {GOODWARE: 13265, MALWARE: 9092}
    assert sorted_cfg.goodware_count == 13265 + 3220
    assert sorted_cfg.malware_count == 9092 + 2044
    dist_cfg = table1_shape("distributed")
    assert dist_cfg.train_counts == {GOODWARE: 11757, MALWARE: 11091}
    assert dist_cfg.goodware_count - dist_cfg.train_counts[GOODWARE] == 4728
    assert dist_cfg.malware_count - dist_cfg.train_counts[MALWARE] == 45


def test_table1_shape_scaled():
    cfg = table1_shape("sorted", scale=0.01)
    assert cfg.train_counts == {GOODWARE: 132, MALWARE: 90}
    assert cfg.goodware_count - 132 == 32
    assert cfg.malware_count - 90 == 20


def test_table1_shape_scale_floors_at_one():
    cfg = table1_shape("distributed", scale=0.0001)
    assert cfg.malware_count - cfg.train_counts[MALWARE] == 1


def test_table1_shape_unknown_name():
    with pytest.raises(ValueError, match="unknown shape"):
        table1_shape("glorious")


def test_table1_corpus_blocks_match_split():
    cfg = table1_shape("sorted", scale=0.005, seed=9)
    corpus = generate_corpus(cfg)
    cut = cfg.train_counts[GOODWARE] + cfg.train_counts[MALWARE]
    train = corpus[:cut]
    assert sum(1 for t in train if t.label == GOODWARE) == cfg.train_counts[GOODWARE]
    assert sum(1 for t in train if t.label == MALWARE) == cfg.train_counts[MALWARE]


# --- profile-likelihood oracle ------------------------------------------------


ORACLE_SMOOTHING = 1e-6  # the uniform mass mixed into each profile


class ProfileLikelihoodOracle:
    """Multinomial likelihood classifier built from the generating profiles.

    Independent of the package's learners and encodings on purpose: it
    counts call names straight off the trace and scores each class by the
    log-likelihood of those counts under the class's (mixture of) start
    profiles.  Used to certify that a generated corpus is separable and to
    probe drift-induced evaluation gaps.
    """

    def __init__(self, config: CorpusConfig):
        self.names: list[str] = sorted(
            {n for comps in config.profiles.values() for c in comps for n in c.call_frequencies}
        )
        index = {n: i for i, n in enumerate(self.names)}
        self._vocab = SyscallVocabulary(tuple(self.names))
        self._log_probs: dict[str, np.ndarray] = {}
        v = len(self.names)
        for label, comps in config.profiles.items():
            rows = []
            for comp in comps:
                p = np.full(v, 0.0)
                for name, prob in comp.call_frequencies.items():
                    p[index[name]] = prob
                p = (1.0 - ORACLE_SMOOTHING) * p + ORACLE_SMOOTHING / v
                rows.append(np.log(p))
            self._log_probs[label] = np.vstack(rows)

    def _counts(self, trace: SyscallTrace) -> np.ndarray:
        """How often the trace makes each profile call; other calls are dropped."""
        column = self._vocab.lookup(trace.events.table)[trace.events.codes]
        return np.bincount(column, minlength=self._vocab.width)[:-1].astype(np.float64)

    def log_likelihoods(self, trace: SyscallTrace) -> dict[str, float]:
        counts = self._counts(trace)
        out = {}
        for label, logp in self._log_probs.items():
            comp = logp @ counts  # per mixture component
            m = comp.max()
            out[label] = float(m + np.log(np.mean(np.exp(comp - m))))
        return out

    def predict(self, trace: SyscallTrace) -> str:
        ll = self.log_likelihoods(trace)
        # deterministic tie-break toward malware (fail-safe direction)
        return MALWARE if ll[MALWARE] >= ll[GOODWARE] else GOODWARE


def drift_gap_probe(
    corpus: list[SyscallTrace],
    oracle: ProfileLikelihoodOracle,
    train_fraction: float = 0.8,
    seed: int = 0,
) -> tuple[float, float]:
    """(CAA on the temporally-last test block, CAA on a shuffled test block).

    The same fixed oracle scores both blocks of equal size; under drift the
    shuffled block mixes early and late samples and therefore scores higher,
    quantifying how much discarding temporal order inflates evaluation.
    """
    train, test = split_sorted(LabeledDataset(list(corpus)), train_fraction)
    ordered = train.samples + test.samples
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    perm = rng.permutation(len(ordered))
    shuffled_test = [ordered[i] for i in perm[len(train):]]

    def caa(traces: list[SyscallTrace]) -> float:
        predicted = [LABEL_TO_INT[oracle.predict(t)] for t in traces]
        labels = [LABEL_TO_INT[t.label] for t in traces]
        return compute_metrics(np.array(predicted), np.array(labels))[0].caa

    return caa(test.samples), caa(shuffled_test)


def test_likelihood_oracle_separates_drift_free_corpus():
    config = small_config(seed=17, counts=(120, 120))
    corpus = generate_corpus(config)
    oracle = ProfileLikelihoodOracle(config)
    ordered = sorted(corpus, key=lambda t: t.observed_at)
    held_out = ordered[int(0.8 * len(ordered)):]
    per_class = []
    for label in (GOODWARE, MALWARE):
        members = [t for t in held_out if t.label == label]
        per_class.append(
            sum(1 for t in members if oracle.predict(t) == label) / len(members)
        )
    assert sum(per_class) / 2 >= 0.95


def test_drift_gap_zero_magnitude_within_noise():
    gaps = []
    for seed in range(5):
        config = small_config(seed=seed, counts=(120, 120))
        corpus = generate_corpus(config)
        s, sh = drift_gap_probe(corpus, ProfileLikelihoodOracle(config), 0.8, seed=seed)
        gaps.append(sh - s)
    assert abs(sorted(gaps)[2]) <= 0.03


def test_drift_gap_direction_at_high_magnitude():
    config = make_config(
        seed=5, goodware_count=250, malware_count=250,
        profiles=datagen.default_profiles(separation=2.0),
        drift=DriftSchedule(0.8),
    )
    corpus = generate_corpus(config)
    s, sh = drift_gap_probe(corpus, ProfileLikelihoodOracle(config), 0.8, seed=1)
    assert sh > s


def test_drift_gap_monotone_in_magnitude():
    def median_gap(magnitude):
        gaps = []
        for seed in range(5):
            config = make_config(
                seed=seed, goodware_count=250, malware_count=250,
                profiles=datagen.default_profiles(separation=2.0),
                drift=DriftSchedule(magnitude),
            )
            corpus = generate_corpus(config)
            s, sh = drift_gap_probe(corpus, ProfileLikelihoodOracle(config), 0.8, seed=seed)
            gaps.append(sh - s)
        return sorted(gaps)[2]

    g0, g1, g2 = median_gap(0.0), median_gap(0.5), median_gap(1.0)
    assert g0 <= g1 <= g2


def test_perfectly_separated_drift_free_corpus_scores_one():
    config = make_config(
        seed=2, goodware_count=40, malware_count=40,
        profiles={
            GOODWARE: ClassProfile(call_frequencies={"GoodCall": 1.0},
                                   length_min=20, length_max=30),
            MALWARE: ClassProfile(call_frequencies={"EvilCall": 1.0},
                                  length_min=20, length_max=30),
        },
    )
    corpus = generate_corpus(config)
    s, sh = drift_gap_probe(corpus, ProfileLikelihoodOracle(config), 0.8, seed=0)
    assert s == 1.0 and sh == 1.0


def test_motif_burst_lands_in_one_time_step():
    motif = Motif(calls=("X", "X", "X"), probability=1.0, style="burst", every=1000)
    profile = ClassProfile(
        call_frequencies={"A": 1.0}, motifs=(motif,),
        length_min=30, length_max=30, burstiness=1.0,
    )
    config = make_config(
        seed=4, goodware_count=0, malware_count=5,
        profiles={GOODWARE: profile, MALWARE: profile},
    )
    for trace in generate_corpus(config):
        x_steps = [s for s, c in trace.events if c == "X"]
        assert len(x_steps) == 3  # one anchor (every=1000 > length)
        assert len(set(x_steps)) == 1


def test_motif_spread_spaces_calls_apart():
    motif = Motif(calls=("X", "X", "X"), probability=1.0, style="spread",
                  every=1000, spread_gap=8)
    profile = ClassProfile(
        call_frequencies={"A": 1.0}, motifs=(motif,),
        length_min=30, length_max=30, burstiness=1.0,
    )
    config = make_config(
        seed=4, goodware_count=0, malware_count=5,
        profiles={GOODWARE: profile, MALWARE: profile},
    )
    for trace in generate_corpus(config):
        x_steps = sorted(s for s, c in trace.events if c == "X")
        assert len(x_steps) == 3
        assert x_steps[1] - x_steps[0] == 8 and x_steps[2] - x_steps[1] == 8


def test_motif_swap_drift_exchanges_motifs_late():
    good_motif = Motif(calls=("GoodSig",), probability=1.0, every=1000)
    mal_motif = Motif(calls=("EvilSig",), probability=1.0, every=1000)
    base = {"A": 1.0}
    config = make_config(
        seed=8, goodware_count=60, malware_count=60,
        profiles={
            GOODWARE: ClassProfile(call_frequencies=base, motifs=(good_motif,),
                                   length_min=10, length_max=10),
            MALWARE: ClassProfile(call_frequencies=base, motifs=(mal_motif,),
                                  length_min=10, length_max=10),
        },
        drift=DriftSchedule(1.0, mode="motif-swap"),
    )
    corpus = generate_corpus(config)
    half = len(corpus) // 2
    def swap_rate(traces):
        swapped = 0
        for t in traces:
            calls = {c for _, c in t.events}
            native = "GoodSig" if t.label == GOODWARE else "EvilSig"
            if native not in calls:
                swapped += 1
        return swapped / len(traces)
    assert swap_rate(corpus[:half]) < swap_rate(corpus[half:])


def test_mixture_profiles_pick_components():
    config = make_config(
        seed=6, goodware_count=0, malware_count=200,
        profiles={
            GOODWARE: ClassProfile(call_frequencies={"G": 1.0}, length_min=5, length_max=5),
            MALWARE: (
                ClassProfile(call_frequencies={"M1": 1.0}, length_min=5, length_max=5),
                ClassProfile(call_frequencies={"M2": 1.0}, length_min=5, length_max=5),
            ),
        },
    )
    corpus = generate_corpus(config)
    kinds = {t.events[0][1] for t in corpus}
    assert kinds == {"M1", "M2"}


def test_config_json_round_trip():
    config = table1_shape("sorted", scale=0.01, seed=42,
                          drift=DriftSchedule(0.3, "motif-swap"))
    doc = persistence.encode(config)
    doc = json.loads(json.dumps(doc))  # force plain-JSON types
    back = persistence.decode(CorpusConfig, doc)
    assert back == config
    assert [trace_to_record(t) for t in generate_corpus(back)] == [
        trace_to_record(t) for t in generate_corpus(config)
    ]


@pytest.mark.parametrize("config, sha256", [
    (table1_shape("sorted", scale=0.01, seed=13,
                  profiles=datagen.default_profiles(separation=2.0), drift=DriftSchedule(0.3)),
     "9c48dd2f5f37d4171d22f6e1630df9dc54ad9c2792ee634caff2f5d857043596"),
    (table1_shape("sorted", scale=0.1, seed=13,
                  profiles=datagen.default_profiles(separation=2.0), drift=DriftSchedule(0.3)),
     "4f6a0b4ad23578c9d2536f25e78b5e8bf2a13901b0e8468a1ecc55dcb89f118c"),
    (make_config(seed=21, goodware_count=180, malware_count=180,
                 profiles=datagen.accumulating_profiles()),
     "3d86c1b8284e786eb5d7c3f57473b91cc61c2fb74ace1295e312847fa61ac371"),
], ids=["pipeline", "hist-scale", "length-sweep"])
def test_benchmark_corpora_are_written_byte_for_byte(tmp_path, config, sha256):
    """The bytes of the three benchmark set-up corpora, as generated and
    written before call names became codes into a table."""
    path = tmp_path / "corpus.jsonl"
    write_corpus(generate_corpus(config), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_config_hash_golden():
    """The sidecar hash of the pipeline's seed-13 config, as written before
    configs went through the archive codec."""
    config = table1_shape("sorted", scale=0.01, seed=13,
                          profiles=datagen.default_profiles(separation=2.0),
                          drift=DriftSchedule(0.3))
    assert persistence.config_hash(persistence.encode(config)) == (
        "8c267532a3ff5de945a379ce2405398653294864eeebea788cbaeb31fcc2a257"
    )


_CALLS = ("NtClose", "NtOpenKey", "NtReadFile", "NtWriteFile", "NtMapViewOfSection")


@st.composite
def motifs(draw):
    return Motif(
        calls=tuple(draw(st.lists(st.sampled_from(_CALLS), min_size=1, max_size=7))),
        probability=draw(st.floats(0.0, 1.0)),
        style=draw(st.sampled_from(("burst", "spread"))),
        every=draw(st.integers(1, 12)),
        window=draw(st.none() | st.integers(1, 40)),
        spread_gap=draw(st.integers(1, 9)),
    )


@st.composite
def class_profiles(draw):
    names = draw(st.lists(st.sampled_from(_CALLS), min_size=1, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(names),
                            max_size=len(names)))
    total = sum(weights)
    length_min = draw(st.integers(1, 25))
    return ClassProfile(
        call_frequencies={n: w / total for n, w in zip(names, weights)},
        motifs=tuple(draw(st.lists(motifs(), max_size=2))),
        length_min=length_min,
        length_max=draw(st.integers(length_min, 40)),
        length_law=draw(st.sampled_from(("uniform", "loguniform"))),
        burstiness=draw(st.floats(0.2, 3.0)),
    )


@st.composite
def corpus_configs(draw):
    goodware, malware = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    lo = draw(st.integers(0, 10**6))
    return CorpusConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        goodware_count=goodware,
        malware_count=malware,
        profiles={  # one or two mixture components per class
            GOODWARE: tuple(draw(st.lists(class_profiles(), min_size=1, max_size=2))),
            MALWARE: tuple(draw(st.lists(class_profiles(), min_size=1, max_size=2))),
        },
        drift=DriftSchedule(draw(st.floats(0.0, 1.0)),
                            draw(st.sampled_from(datagen.DRIFT_MODES))),
        timestamp_range=draw(st.none() | st.integers(goodware + malware, 10**4).map(
            lambda width: (lo, lo + width))),
        train_counts=draw(st.none() | st.builds(
            lambda g, m: {GOODWARE: g, MALWARE: m},
            st.integers(0, goodware), st.integers(0, malware))),
    )


@settings(deadline=None, max_examples=60)
@given(corpus_configs())
def test_config_codec_round_trip(config):
    doc = json.loads(json.dumps(persistence.encode(config)))
    back = persistence.decode(CorpusConfig, doc)
    assert back == config
    assert [trace_to_record(t) for t in generate_corpus(back)] == [
        trace_to_record(t) for t in generate_corpus(config)
    ]


def test_config_validation():
    with pytest.raises(ValueError, match="counts"):
        CorpusConfig(seed=0, goodware_count=-1, malware_count=0,
                     profiles=datagen._normalize_profiles(datagen.default_profiles()))
    with pytest.raises(ValueError, match="profile"):
        make_config(seed=0, goodware_count=1, malware_count=1,
                    profiles={GOODWARE: datagen.default_profiles()[GOODWARE]})
    with pytest.raises(ValueError, match="train_counts"):
        make_config(seed=0, goodware_count=1, malware_count=1,
                    profiles=datagen.default_profiles(),
                    train_counts={GOODWARE: 5, MALWARE: 0})


def _loop_generate_trace(ordinal, label, u, observed_at, config):
    """The per-burst, per-anchor loop generator that the whole-array draws of
    ``datagen._generate_trace`` replaced: the oracle they must equal."""
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, datagen._STREAM_TRACE, ordinal])
    )
    components = config.profiles[label]
    profile = components[int(rng.integers(0, len(components)))]
    motif_list = profile.motifs
    if config.drift.mode == datagen.MOTIF_SWAP and config.drift.magnitude > 0:
        if rng.random() < u * config.drift.magnitude:
            other = MALWARE if label == GOODWARE else GOODWARE
            motif_list = config.profiles[other][0].motifs
    names = sorted(profile.call_frequencies)
    freqs = np.array([profile.call_frequencies[n] for n in names])
    if config.drift.mode == datagen.FREQUENCY_SHIFT and config.drift.magnitude > 0:
        freqs = drifted_frequencies(freqs, u, config.drift.magnitude)
    length = datagen._sample_length(profile, rng)
    steps_per_event = np.empty(length, dtype=np.int64)
    filled = 0
    step = 0
    while filled < length:
        chunk = max(16, int((length - filled) / profile.burstiness) + 8)
        for b in rng.poisson(profile.burstiness, size=chunk):
            take = min(int(b), length - filled)
            if take:
                steps_per_event[filled : filled + take] = step
                filled += take
            step += 1
            if filled >= length:
                break
    calls = rng.choice(len(names), size=length, p=freqs)
    motif_steps, motif_calls = [], []
    for motif in motif_list:
        limit = length if motif.window is None else min(motif.window, length)
        for anchor in range(0, limit, motif.every):
            if rng.random() >= motif.probability:
                continue
            start = int(steps_per_event[anchor])
            gap = 0 if motif.style == "burst" else motif.spread_gap
            motif_steps.extend(start + j * gap for j in range(len(motif.calls)))
            motif_calls.extend(motif.calls)
    steps = np.concatenate([steps_per_event, np.array(motif_steps, dtype=np.int64)])
    call_names = [names[c] for c in calls.tolist()] + motif_calls
    order = np.argsort(steps, kind="stable")
    return SyscallTrace(
        id=f"t{ordinal:06d}", label=label, observed_at=observed_at,
        events=events_of((steps[i], call_names[i]) for i in order.tolist()),
    )


def assert_generated_as_by_the_loop_oracle(config):
    with mock.patch.object(datagen, "_generate_trace", _loop_generate_trace):
        want = [trace_to_record(t) for t in generate_corpus(config)]
    assert [trace_to_record(t) for t in generate_corpus(config)] == want


@settings(deadline=None, max_examples=80)
@given(corpus_configs())
def test_whole_array_draws_equal_the_loop_oracle(config):
    # burstiness, length range and law, motif style, window, every, spread_gap
    assert_generated_as_by_the_loop_oracle(config)


@pytest.mark.parametrize("profiles", [
    datagen.accumulating_profiles(),  # about 1,050-1,400 events, motifs every 16
    datagen.bimodal_malware_profiles(),
    datagen.default_profiles(burstiness=0.3),
])
def test_whole_array_draws_equal_the_loop_oracle_on_the_presets(profiles):
    assert_generated_as_by_the_loop_oracle(make_config(
        seed=21, goodware_count=4, malware_count=4, profiles=profiles,
        drift=DriftSchedule(0.9, datagen.MOTIF_SWAP),
    ))
