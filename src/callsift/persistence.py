"""The one JSON codec of every callsift artifact, and versioned model archives.

``encode`` turns a dataclass into a dict of its fields (nested dataclasses
likewise, numpy arrays as nested lists); ``decode`` rebuilds it from the
field annotations, and ``write_json`` writes any artifact as key-sorted,
indented JSON.  Decoding is strict: a payload must hold every field of its
dataclass and no other, and a value of the wrong container type, or an
array that is not a regular nesting of numbers, is an ``ArchiveError``.
The codec serves:

* model archives: format version, model kind (the CLI registry name:
  ``tree``, ``hist-rf``, ``linear``, ``lsm`` or ``ensemble``), the model
  payload, the vocabulary snapshot, the encoding options, and training
  provenance.  The payload of a single model is its model dataclass
  (``DecisionTree``, ``RandomForest``, ``LinearModel`` or ``LsmModel``); an
  ensemble's is an ``EnsemblePayload``, which maps each member name to an
  ``EnsembleMember``: that member's kind and own payload;
* corpus configs (``datagen.CorpusConfig``): ``callsift gen --config``
  decodes its file and hashes the config's ``encode`` form into the
  corpus's ``.meta.json``;
* evaluation reports (``evaluation.EvaluationReport``), which ``eval`` and
  ``sweep`` write and ``stats`` and ``report`` decode, and significance
  matrices (``significance.SignificanceMatrix``), which ``stats`` writes.

A SHA-256 checksum over the canonical payload JSON guards an archive
against corruption, and loading an archive reproduces the saved model's
predictions bit-exactly (floats survive the JSON round-trip unchanged: the
serializer emits shortest round-tripping representations).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing
from pathlib import Path

import numpy as np

from . import forest, models, reservoir
from .traces import SyscallVocabulary

FORMAT_VERSION = 1

# the model dataclass each single-model kind stores as its payload
_MODEL_TYPES = {
    models.TREE: forest.DecisionTree,
    models.HIST_RF: forest.RandomForest,
    models.LINEAR: forest.LinearModel,
    models.LSM: reservoir.LsmModel,
}


class ArchiveError(ValueError):
    """Raised for version, checksum, or payload problems."""


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def read_json(path: str | Path):
    """The JSON document in a file; text that is not JSON, an integer of more
    digits than the decoder takes, or JSON nested deeper than the decoder's
    recursion limit, is an ``ArchiveError``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ArchiveError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ArchiveError(f"{path} nests deeper than the JSON decoder allows") from None


def write_json(doc, path: str | Path) -> None:
    """Write ``doc`` as indented, key-sorted JSON, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# --- payload codec -----------------------------------------------------------------


def encode(value):
    """JSON-ready form of an artifact value: a dataclass becomes a dict of its
    fields, an array nested lists, a tuple a list, a numpy scalar a number."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    return value


@functools.cache
def _field_types(cls) -> dict:
    # resolving the string annotations is the costly part of decoding
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


# JSON values a scalar field accepts: bool is an int subclass in Python but
# not a number here, and a float field keeps an integer as given, so the
# hash of a config that spells 2.0 as 2 does not move
_SCALARS = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    str: lambda v: isinstance(v, str),
    bool: lambda v: isinstance(v, bool),
}


def decode(tp, value):
    """Rebuild a value of annotated type ``tp`` from its ``encode`` form.

    A payload of the wrong JSON type raises ``ArchiveError`` naming each
    dataclass field on the way down to it."""
    if dataclasses.is_dataclass(tp):
        fields = _field_types(tp)
        if not isinstance(value, dict) or value.keys() != fields.keys():
            got = sorted(value) if isinstance(value, dict) else type(value).__name__
            raise ArchiveError(
                f"{tp.__name__} payload has fields {got}, expected {sorted(fields)}"
            )
        decoded = {}
        for name, t in fields.items():
            try:
                decoded[name] = decode(t, value[name])
            except ArchiveError as exc:
                raise ArchiveError(f"{tp.__name__}.{name}: {exc}") from None
        return tp(**decoded)
    if tp is np.ndarray:
        if not isinstance(value, list):
            raise ArchiveError(f"array payload is a {type(value).__name__}")
        try:
            array = np.array(value)
        except ValueError:  # lists nested to no regular shape
            raise ArchiveError("array payload is ragged") from None
        if array.dtype.kind not in "biuf":
            raise ArchiveError(f"array payload has {array.dtype} items, not numbers")
        return array
    if isinstance(tp, types.UnionType):
        # every union in an artifact is ``X | None``: null stays None, any
        # other value decodes as X
        if value is None:
            return None
        (member,) = (t for t in typing.get_args(tp) if t is not type(None))
        return decode(member, value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (dict, list, tuple) and not isinstance(
            value, dict if origin is dict else list):
        raise ArchiveError(f"{tp} payload is a {type(value).__name__}")
    if origin is dict:
        return {k: decode(args[1], v) for k, v in value.items()}
    if origin is list:
        return [decode(args[0], v) for v in value]
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(decode(args[0], v) for v in value)
        if len(value) != len(args):
            raise ArchiveError(f"{tp} payload has {len(value)} items")
        return tuple(decode(t, v) for t, v in zip(args, value))
    if tp in _SCALARS and not _SCALARS[tp](value):
        raise ArchiveError(f"{tp.__name__} payload is a {type(value).__name__}")
    return value


@dataclasses.dataclass(frozen=True)
class EnsembleMember:
    """An ensemble member in an archive: its registry kind and its own payload."""

    kind: str
    payload: dict[str, object]


@dataclasses.dataclass(frozen=True)
class EnsemblePayload:
    members: dict[str, EnsembleMember]


def _classifier_payload(clf) -> dict:
    if clf.kind == models.ENSEMBLE:
        return encode(EnsemblePayload({
            name: EnsembleMember(member.kind, _classifier_payload(member))
            for name, member in clf.members.items()
        }))
    return encode(clf.model)


def _classifier_from_payload(kind: str, payload, vocab: SyscallVocabulary,
                             encoding: models.EncodingOptions):
    if kind == models.ENSEMBLE:
        members = decode(EnsemblePayload, payload).members
        if not members:
            raise ArchiveError("ensemble archive has no members")
        return models.VotingEnsembleClassifier({
            name: _classifier_from_payload(m.kind, m.payload, vocab, encoding)
            for name, m in members.items()
        })
    if kind not in _MODEL_TYPES:
        raise ArchiveError(f"unknown model kind {kind!r} in archive")
    clf = models.make_classifier(kind, encoding=encoding)
    clf.model = decode(_MODEL_TYPES[kind], payload)
    clf.vocab = vocab
    return clf


# --- archive I/O -----------------------------------------------------------------


def save_model(
    clf,
    path: str | Path,
    seed: int | None = None,
    config_digest: str | None = None,
    created_at: str | None = None,
) -> dict:
    """Write a trained classifier to a versioned archive file and return the
    archive document."""
    if clf.vocab is None:
        raise ArchiveError("model must be trained before saving")
    payload = _classifier_payload(clf)
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": clf.kind,
        "payload": payload,
        "payload_sha256": config_hash(payload),
        "vocabulary": list(clf.vocab.names),
        "encoding": encode(clf.encoding),
        "provenance": {
            "seed": seed,
            "config_hash": config_digest,
            "created_at": created_at,
        },
    }
    write_json(doc, path)
    return doc


def load_model(path: str | Path):
    """Load an archive back into a ready-to-predict classifier."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ArchiveError(f"archive must be a JSON object, not {type(doc).__name__}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ArchiveError(
            f"unsupported archive format_version {version!r} (expected {FORMAT_VERSION})"
        )
    # every field read below (provenance is written, never read)
    missing = [key for key in ("kind", "payload", "payload_sha256", "vocabulary", "encoding")
               if key not in doc]
    if missing:
        raise ArchiveError(f"archive lacks {', '.join(missing)}")
    if doc["payload_sha256"] != config_hash(doc["payload"]):
        raise ArchiveError("archive payload checksum mismatch (corrupted file)")
    try:
        vocab = SyscallVocabulary(decode(tuple[str, ...], doc["vocabulary"]))
    except ArchiveError as exc:
        raise ArchiveError(f"vocabulary: {exc}") from None
    encoding = decode(models.EncodingOptions, doc["encoding"])
    return _classifier_from_payload(decode(str, doc["kind"]), doc["payload"], vocab, encoding)
