"""Seeded synthetic corpus generator.

Stands in for a proprietary gateway/feed corpus: emits labeled, timestamped
system-call traces with controllable class separability, concept drift, and
class skew.  Two kinds of class signal are generated because the learners
in this package exploit different structure:

* frequency signal — the classes draw calls from different multinomial
  profiles, visible to histogram models and accumulating with trace length;
* motif signal — short call subsequences spliced into the stream either as
  a single-time-step burst or spread over distant steps; burst vs spread is
  invisible to histograms but visible to temporal models.

Everything is a pure function of the config: per-trace random streams are
derived from (seed, trace ordinal), so corpora are reproducible even if
traces are generated out of order.  A config's JSON form is the archive
codec's (``persistence.encode``/``decode``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluation import LabeledDataset, compute_metrics, split_sorted
from .traces import GOODWARE, LABEL_TO_INT, LABELS, MALWARE, SyscallTrace

FREQUENCY_SHIFT = "frequency-shift"
MOTIF_SWAP = "motif-swap"
DRIFT_MODES = (FREQUENCY_SHIFT, MOTIF_SWAP)

# sub-stream tags so the per-purpose RNGs cannot collide
_STREAM_TRACE = 1
_STREAM_LABELS = 2


@dataclass(frozen=True)
class Motif:
    """A call subsequence spliced into generated traces.

    ``probability`` applies independently at each anchor; anchors sit every
    ``every`` base events, confined to the first ``window`` events when set.
    ``style`` "burst" puts every call of the motif into one time step;
    "spread" spaces them ``spread_gap`` steps apart.
    """

    calls: tuple[str, ...]
    probability: float
    style: str = "burst"
    every: int = 25
    window: int | None = None
    spread_gap: int = 8

    def __post_init__(self) -> None:
        if not self.calls:
            raise ValueError("motif needs at least one call")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("motif probability must be in [0, 1]")
        if self.style not in ("burst", "spread"):
            raise ValueError("motif style must be 'burst' or 'spread'")
        if self.every < 1:
            raise ValueError("motif anchor spacing must be >= 1")


@dataclass(frozen=True)
class ClassProfile:
    """Generator profile for one class (or one mixture component of it)."""

    call_frequencies: dict[str, float]
    motifs: tuple[Motif, ...] = ()
    length_min: int = 80
    length_max: int = 160
    length_law: str = "uniform"
    burstiness: float = 1.2  # mean calls per occupied-or-not millisecond step

    def __post_init__(self) -> None:
        if self.length_min < 1 or self.length_max < self.length_min:
            raise ValueError("need 1 <= length_min <= length_max")
        if self.length_law not in ("uniform", "loguniform"):
            raise ValueError("length_law must be 'uniform' or 'loguniform'")
        if self.burstiness <= 0:
            raise ValueError("burstiness must be positive")
        total = sum(self.call_frequencies.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("call_frequencies must sum to 1")
        if any(p < 0 for p in self.call_frequencies.values()):
            raise ValueError("call_frequencies must be non-negative")


@dataclass(frozen=True)
class DriftSchedule:
    """How far and in what way class behavior rotates over corpus time."""

    magnitude: float = 0.0
    mode: str = FREQUENCY_SHIFT

    def __post_init__(self) -> None:
        if not 0.0 <= self.magnitude <= 1.0:
            raise ValueError("drift magnitude must be in [0, 1]")
        if self.mode not in DRIFT_MODES:
            raise ValueError(f"drift mode must be one of {DRIFT_MODES}")


@dataclass(frozen=True)
class CorpusConfig:
    seed: int
    goodware_count: int
    malware_count: int
    profiles: dict[str, tuple[ClassProfile, ...]]
    drift: DriftSchedule = DriftSchedule()
    timestamp_range: tuple[int, int] | None = None
    # when set, traces are emitted train-block-first so that a temporal cut
    # reproduces exactly these per-class training counts
    train_counts: dict[str, int] | None = None

    def __post_init__(self) -> None:
        if self.goodware_count < 0 or self.malware_count < 0:
            raise ValueError("class counts must be >= 0")
        for label in LABELS:
            if label not in self.profiles or not self.profiles[label]:
                raise ValueError(f"missing profile for class {label!r}")
        if self.train_counts is not None:
            for label, total in (
                (GOODWARE, self.goodware_count),
                (MALWARE, self.malware_count),
            ):
                want = self.train_counts.get(label, 0)
                if not 0 <= want <= total:
                    raise ValueError("train_counts must fit within class counts")
        n = self.goodware_count + self.malware_count
        if self.timestamp_range is not None:
            lo, hi = self.timestamp_range
            if hi - lo < n:
                raise ValueError(
                    "timestamp_range too narrow for strictly increasing stamps"
                )

    def total(self) -> int:
        return self.goodware_count + self.malware_count


def _normalize_profiles(
    profiles: dict[str, ClassProfile | tuple[ClassProfile, ...] | list],
) -> dict[str, tuple[ClassProfile, ...]]:
    out = {}
    for label, value in profiles.items():
        if isinstance(value, ClassProfile):
            out[label] = (value,)
        else:
            out[label] = tuple(value)
    return out


def make_config(
    seed: int,
    goodware_count: int,
    malware_count: int,
    profiles: dict,
    drift: DriftSchedule | None = None,
    timestamp_range: tuple[int, int] | None = None,
    train_counts: dict[str, int] | None = None,
) -> CorpusConfig:
    return CorpusConfig(
        seed=seed,
        goodware_count=goodware_count,
        malware_count=malware_count,
        profiles=_normalize_profiles(profiles),
        drift=drift or DriftSchedule(),
        timestamp_range=timestamp_range,
        train_counts=train_counts,
    )


def _label_sequence(config: CorpusConfig) -> list[str]:
    """Deterministic label order: seeded shuffle within each block."""

    def block(goodware: int, malware: int, tag: int) -> list[str]:
        labels = [GOODWARE] * goodware + [MALWARE] * malware
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, _STREAM_LABELS, tag])
        )
        rng.shuffle(labels)
        return labels

    if config.train_counts is None:
        return block(config.goodware_count, config.malware_count, 0)
    tg = config.train_counts.get(GOODWARE, 0)
    tm = config.train_counts.get(MALWARE, 0)
    return block(tg, tm, 0) + block(
        config.goodware_count - tg, config.malware_count - tm, 1
    )


def drifted_frequencies(base: np.ndarray, u: float, magnitude: float) -> np.ndarray:
    """Linear interpolation from the base profile toward its rotation.

    At corpus-time fraction u in [0, 1] the distribution is
    (1 - u*m) * base + u*m * roll(base, 1): still a distribution for any
    u, m in [0, 1], equal to base at u = 0, and progressively further from
    it as time and magnitude grow.
    """
    w = u * magnitude
    return (1.0 - w) * base + w * np.roll(base, 1)


def _sample_length(profile: ClassProfile, rng: np.random.Generator) -> int:
    lo, hi = profile.length_min, profile.length_max
    if lo == hi:
        return lo
    if profile.length_law == "uniform":
        return int(rng.integers(lo, hi + 1))
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi + 0.5)))))


def _motif_events(
    motifs: tuple[Motif, ...],
    base_steps: np.ndarray,
    rng: np.random.Generator,
) -> list[tuple[int, str]]:
    extra: list[tuple[int, str]] = []
    n = base_steps.shape[0]
    for motif in motifs:
        limit = n if motif.window is None else min(motif.window, n)
        for anchor in range(0, limit, motif.every):
            if rng.random() >= motif.probability:
                continue
            start = int(base_steps[anchor])
            if motif.style == "burst":
                extra.extend((start, call) for call in motif.calls)
            else:
                extra.extend(
                    (start + j * motif.spread_gap, call)
                    for j, call in enumerate(motif.calls)
                )
    return extra


def _generate_trace(
    ordinal: int,
    label: str,
    u: float,
    observed_at: int,
    config: CorpusConfig,
) -> SyscallTrace:
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _STREAM_TRACE, ordinal])
    )
    components = config.profiles[label]
    profile = components[int(rng.integers(0, len(components)))]

    motifs = profile.motifs
    if config.drift.mode == MOTIF_SWAP and config.drift.magnitude > 0:
        if rng.random() < u * config.drift.magnitude:
            other = MALWARE if label == GOODWARE else GOODWARE
            motifs = config.profiles[other][0].motifs

    names = sorted(profile.call_frequencies)
    base = np.array([profile.call_frequencies[n] for n in names])
    freqs = base
    if config.drift.mode == FREQUENCY_SHIFT and config.drift.magnitude > 0:
        freqs = drifted_frequencies(base, u, config.drift.magnitude)

    length = _sample_length(profile, rng)
    # occupy millisecond steps with Poisson burst sizes until length is met
    steps_per_event = np.empty(length, dtype=np.int64)
    filled = 0
    step = 0
    while filled < length:
        chunk = max(16, int((length - filled) / profile.burstiness) + 8)
        bursts = rng.poisson(profile.burstiness, size=chunk)
        for b in bursts:
            take = min(int(b), length - filled)
            if take:
                steps_per_event[filled : filled + take] = step
                filled += take
            step += 1
            if filled >= length:
                break
    calls = rng.choice(len(names), size=length, p=freqs)
    events = [(int(s), names[c]) for s, c in zip(steps_per_event, calls)]
    events.extend(_motif_events(motifs, steps_per_event, rng))
    events.sort(key=lambda e: e[0])
    return SyscallTrace(
        id=f"t{ordinal:06d}",
        label=label,
        observed_at=observed_at,
        events=tuple(events),
    )


def generate_corpus(config: CorpusConfig) -> list[SyscallTrace]:
    """Emit exactly the configured per-class counts, observed_at strictly
    increasing, fully determined by the config."""
    labels = _label_sequence(config)
    n = len(labels)
    if config.timestamp_range is not None:
        lo, hi = config.timestamp_range
        stamps = np.linspace(lo, hi - 1, num=n).round().astype(np.int64)
        # guarantee strict monotonicity after rounding
        stamps = np.maximum(stamps, lo + np.arange(n))
    else:
        stamps = np.arange(n, dtype=np.int64)
    traces = []
    for i, label in enumerate(labels):
        u = i / (n - 1) if n > 1 else 0.0
        traces.append(_generate_trace(i, label, u, int(stamps[i]), config))
    return traces


# --- Known split shapes -----------------------------------------------------

SORTED_SHAPE = {
    "train": {GOODWARE: 13265, MALWARE: 9092},
    "test": {GOODWARE: 3220, MALWARE: 2044},
}
DISTRIBUTED_SHAPE = {
    "train": {GOODWARE: 11757, MALWARE: 11091},
    "test": {GOODWARE: 4728, MALWARE: 45},
}
_SHAPES = {"sorted": SORTED_SHAPE, "distributed": DISTRIBUTED_SHAPE}


def scale_count(count: int, scale: float) -> int:
    """Down-scale a split count: floor, but never below one sample."""
    return max(1, int(count * scale))


def table1_shape(
    shape: str,
    scale: float = 1.0,
    seed: int = 7,
    profiles: dict | None = None,
    drift: DriftSchedule | None = None,
) -> CorpusConfig:
    """Corpus config whose temporal split reproduces a known split shape.

    ``shape`` is "sorted" (roughly balanced test classes) or "distributed"
    (operationally skewed test malware).  ``scale`` shrinks every split
    count (floor, minimum 1) for fast tests.
    """
    if shape not in _SHAPES:
        raise ValueError(f"unknown shape {shape!r}; expected one of {sorted(_SHAPES)}")
    counts = _SHAPES[shape]
    train_g = scale_count(counts["train"][GOODWARE], scale)
    train_m = scale_count(counts["train"][MALWARE], scale)
    test_g = scale_count(counts["test"][GOODWARE], scale)
    test_m = scale_count(counts["test"][MALWARE], scale)
    return make_config(
        seed=seed,
        goodware_count=train_g + test_g,
        malware_count=train_m + test_m,
        profiles=profiles or default_profiles(),
        drift=drift,
        train_counts={GOODWARE: train_g, MALWARE: train_m},
    )


# --- Profile presets ---------------------------------------------------------

_GOODWARE_LEANING = (
    "NtClose", "NtCreateFile", "NtOpenKey", "NtQueryAttributesFile",
    "NtQueryInformationFile", "NtQueryInformationProcess",
    "NtQueryInformationToken", "NtQueryValueKey", "NtReadFile",
    "NtSetInformationFile",
)
_MALWARE_LEANING = (
    "NtAllocateVirtualMemory", "NtFreeVirtualMemory", "NtFsControlFile",
    "NtMapViewOfSection", "NtOpenSection", "NtQuerySection",
    "NtQuerySystemInformation", "NtRequestWaitReplyPort",
)
_NEUTRAL = (
    "NtCreateEvent", "NtCreateSection", "NtCreateSymbolicLinkObject",
    "NtDuplicateObject", "NtOpenFile", "NtWriteFile",
)
CALL_UNIVERSE = tuple(sorted(_GOODWARE_LEANING + _MALWARE_LEANING + _NEUTRAL))


def _weighted_frequencies(
    high: tuple[str, ...], low: tuple[str, ...], high_w: float, low_w: float
) -> dict[str, float]:
    weights = {}
    for name in CALL_UNIVERSE:
        if name in high:
            weights[name] = high_w
        elif name in low:
            weights[name] = low_w
        else:
            weights[name] = 1.0
    total = sum(weights.values())
    return {name: w / total for name, w in weights.items()}


def default_profiles(
    separation: float = 4.0,
    length_min: int = 80,
    length_max: int = 160,
    burstiness: float = 1.2,
) -> dict[str, tuple[ClassProfile, ...]]:
    """Strongly frequency-separated goodware/malware profiles.

    ``separation`` is the frequency ratio between each class's leaning
    calls and the other class's; 1.0 makes the classes identical.
    """
    good = ClassProfile(
        call_frequencies=_weighted_frequencies(
            _GOODWARE_LEANING, _MALWARE_LEANING, separation, 1.0
        ),
        length_min=length_min,
        length_max=length_max,
        burstiness=burstiness,
    )
    mal = ClassProfile(
        call_frequencies=_weighted_frequencies(
            _MALWARE_LEANING, _GOODWARE_LEANING, separation, 1.0
        ),
        length_min=length_min,
        length_max=length_max,
        burstiness=burstiness,
    )
    return {GOODWARE: (good,), MALWARE: (mal,)}


def accumulating_profiles(
    separation: float = 1.30,
    burst_size: int = 6,
    motif_rate: float = 0.9,
    anchor_every: int = 16,
    spread_gap: int = 6,
    length_min: int = 1050,
    length_max: int = 1400,
    burstiness: float = 1.0,
) -> dict[str, tuple[ClassProfile, ...]]:
    """Weak per-call frequency deltas plus a histogram-neutral count motif.

    The small ``separation`` makes short histograms noisy and long ones
    informative: frequency evidence accumulates with trace length, so
    histogram models improve as the truncation grows.  Independently, both
    classes splice in the same number of extra NtDuplicateObject calls at
    the same uniform rate — invisible to histograms at every truncation —
    but malware packs each group into a single time step (a count spike
    that drives liquid neurons over threshold) while goodware spreads the
    same calls several steps apart.  Temporal models see that contrast
    within the first hundred calls, so their accuracy saturates early and
    stays flat as the truncation grows.
    """
    motif_calls = ("NtDuplicateObject",) * burst_size
    mal_motif = Motif(calls=motif_calls, probability=motif_rate, style="burst",
                      every=anchor_every)
    good_motif = Motif(calls=motif_calls, probability=motif_rate, style="spread",
                       every=anchor_every, spread_gap=spread_gap)
    shared = dict(
        length_min=length_min, length_max=length_max, burstiness=burstiness
    )
    good = ClassProfile(
        call_frequencies=_weighted_frequencies(
            _GOODWARE_LEANING, _MALWARE_LEANING, separation, 1.0
        ),
        motifs=(good_motif,),
        **shared,
    )
    mal = ClassProfile(
        call_frequencies=_weighted_frequencies(
            _MALWARE_LEANING, _GOODWARE_LEANING, separation, 1.0
        ),
        motifs=(mal_motif,),
        **shared,
    )
    return {GOODWARE: (good,), MALWARE: (mal,)}


def bimodal_malware_profiles(
    separation: float = 5.0,
    length_min: int = 80,
    length_max: int = 160,
) -> dict[str, tuple[ClassProfile, ...]]:
    """Goodware sits between two malware modes on the leaning calls.

    One malware family over-uses memory-mapping calls, the other over-uses
    file-control calls; goodware uses both moderately.  No single hyperplane
    on those frequencies separates the classes, while axis-aligned splits do
    — the shape that favors trees over a linear model.
    """
    mem = ("NtAllocateVirtualMemory", "NtFreeVirtualMemory", "NtMapViewOfSection")
    fsc = ("NtFsControlFile", "NtOpenSection", "NtRequestWaitReplyPort")
    shared = dict(length_min=length_min, length_max=length_max)
    good = ClassProfile(
        call_frequencies=_weighted_frequencies(mem + fsc, (), math.sqrt(separation), 1.0),
        **shared,
    )
    mal_a = ClassProfile(
        call_frequencies=_weighted_frequencies(mem, fsc, separation, 1.0), **shared
    )
    mal_b = ClassProfile(
        call_frequencies=_weighted_frequencies(fsc, mem, separation, 1.0), **shared
    )
    return {GOODWARE: (good,), MALWARE: (mal_a, mal_b)}


# --- Profile-likelihood oracle ----------------------------------------------


class ProfileLikelihoodOracle:
    """Multinomial likelihood classifier built from the generating profiles.

    Independent of the package's learners and encodings on purpose: it
    counts call names straight off the trace and scores each class by the
    log-likelihood of those counts under the class's (mixture of) start
    profiles.  Used to certify that a generated corpus is separable and to
    probe drift-induced evaluation gaps.
    """

    def __init__(self, config: CorpusConfig, smoothing: float = 1e-6):
        self.names: list[str] = sorted(
            {n for comps in config.profiles.values() for c in comps for n in c.call_frequencies}
        )
        index = {n: i for i, n in enumerate(self.names)}
        self._index = index
        self._log_probs: dict[str, np.ndarray] = {}
        v = len(self.names)
        for label, comps in config.profiles.items():
            rows = []
            for comp in comps:
                p = np.full(v, 0.0)
                for name, prob in comp.call_frequencies.items():
                    p[index[name]] = prob
                p = (1.0 - smoothing) * p + smoothing / v
                rows.append(np.log(p))
            self._log_probs[label] = np.vstack(rows)

    def _counts(self, trace: SyscallTrace) -> np.ndarray:
        counts = np.zeros(len(self.names))
        for _, call in trace.events:
            i = self._index.get(call)
            if i is not None:
                counts[i] += 1.0
        return counts

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


def likelihood_oracle(config: CorpusConfig) -> ProfileLikelihoodOracle:
    return ProfileLikelihoodOracle(config)


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
    train, test = split_sorted(LabeledDataset.from_traces(corpus), train_fraction)
    ordered = train.samples + test.samples
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    perm = rng.permutation(len(ordered))
    shuffled_test = [ordered[i] for i in perm[len(train):]]

    def caa(traces: list[SyscallTrace]) -> float:
        predicted = [LABEL_TO_INT[oracle.predict(t)] for t in traces]
        labels = [LABEL_TO_INT[t.label] for t in traces]
        return compute_metrics(np.array(predicted), np.array(labels))[0].caa

    return caa(test.samples), caa(shuffled_test)
