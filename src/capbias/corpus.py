"""Caption corpus loading, tokenization, validation, and balanced splitting.

Corpora are read from JSON Lines files (one caption object per line) plus a
separate annotation file mapping image ids to protected-attribute values.
All types are immutable after construction.
"""

from __future__ import annotations

import enum
import json
import logging
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class CorpusError(ValueError):
    """Raised when an input file or corpus violates a contract."""


class Source(enum.Enum):
    HUMAN = "human"
    MODEL = "model"


_SOURCES = {member.value: member for member in Source}


# A word runs from a word character to the last word character of its
# whitespace-delimited piece ("_" counts as punctuation): the same tokens as
# stripping [\W_] from both ends of each `str.split()` piece.
_WORD = re.compile(r"[^\W_](?:\S*[^\W_])?")


def tokenize(text: str) -> list[str]:
    """Lowercase and split a caption into word tokens.

    Punctuation is stripped from token boundaries; internal apostrophes
    (and other internal characters) are preserved. Raises CorpusError if
    nothing survives.
    """
    tokens = _WORD.findall(text.lower())
    if not tokens:
        raise CorpusError(f"caption is empty after tokenization: {text!r}")
    return tokens


@dataclass(frozen=True)
class AttributeSpec:
    """A protected attribute: its value set and maskable word lists.

    word_lists maps each attribute value to its singular surface words;
    plural_overrides supplies irregular plurals (e.g. woman -> women) that
    override the rule-based pluralizer.
    """

    name: str
    values: tuple[str, ...]
    mask_token: str
    word_lists: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    plural_overrides: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise CorpusError(f"attribute {self.name!r} needs >= 2 values")
        if len(set(self.values)) != len(self.values):
            raise CorpusError(f"attribute {self.name!r} has duplicate values")
        for value in self.word_lists:
            if value not in self.values:
                raise CorpusError(
                    f"word list for unknown value {value!r} of {self.name!r}"
                )

    @property
    def has_word_lists(self) -> bool:
        return any(self.word_lists.get(v) for v in self.values)


@dataclass(frozen=True, slots=True)
class CaptionRecord:
    """One caption: id, image, tokens, origin, and optional attribute label."""

    caption_id: str
    image_id: str
    tokens: tuple[str, ...]
    source: Source
    attribute: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.tokens:
            raise CorpusError(f"record {self.caption_id!r} has no tokens")


class _Quoted(dict):
    """JSON string literals, each made once: `self[text]` is
    `encode_basestring(text)`."""

    def __missing__(self, text: str) -> str:
        self[text] = literal = encode_basestring(text)
        return literal


class TokenTable(NamedTuple):
    """A corpus's tokens as ids: the distinct tokens in first-seen order, and
    every caption's token ids, concatenated in record order, with the record
    index of each."""

    tokens: tuple[str, ...]
    ids: np.ndarray      # int32, an index into `tokens`
    caption: np.ndarray  # int32, an index into `Corpus.records`


@dataclass(frozen=True)
class Corpus:
    """A set of caption records sharing one attribute spec."""

    records: tuple[CaptionRecord, ...]
    attribute_spec: AttributeSpec
    object_annotations: Optional[Mapping[str, frozenset[str]]] = None

    def __post_init__(self) -> None:
        for record in self.records:
            if record.attribute is not None and record.attribute not in self.attribute_spec.values:
                raise CorpusError(
                    f"record {record.caption_id!r} carries attribute "
                    f"{record.attribute!r} outside {self.attribute_spec.values}"
                )

    def __len__(self) -> int:
        return len(self.records)

    def annotation_map(self) -> dict[str, str]:
        """image_id -> attribute value, for annotated records."""
        out: dict[str, str] = {}
        for record in self.records:
            if record.attribute is None:
                continue
            previous = out.setdefault(record.image_id, record.attribute)
            if previous != record.attribute:
                raise CorpusError(
                    f"image {record.image_id!r} has conflicting attributes "
                    f"{previous!r} and {record.attribute!r}"
                )
        return out

    def content_hash(self) -> str:
        return self._content_digest

    # Records are immutable, so each of these is computed at most once per
    # corpus and kept on the instance, which drops them with the corpus.
    @cached_property
    def token_table(self) -> TokenTable:
        """The records' tokens as ids into a table of distinct tokens."""
        records = self.records
        index = dict.fromkeys(chain.from_iterable(r.tokens for r in records))
        for i, token in enumerate(index):
            index[token] = i
        lengths = np.fromiter((len(r.tokens) for r in records), dtype=np.intp,
                              count=len(records))
        ids = np.fromiter(
            map(index.__getitem__, chain.from_iterable(r.tokens for r in records)),
            dtype=np.int32, count=int(lengths.sum()),
        )
        caption = np.repeat(np.arange(len(records), dtype=np.int32), lengths)
        return TokenTable(tokens=tuple(index), ids=ids, caption=caption)

    @cached_property
    def _content_digest(self) -> str:
        import hashlib

        # The bytes of `json.dumps(fields, ensure_ascii=False)` for each
        # record's fields, in `caption_id` order, with each distinct token and
        # value quoted once: items are joined by ", " and None is `null`.
        quoted = _Quoted()
        human, model = (encode_basestring(s.value) for s in (Source.HUMAN, Source.MODEL))
        attribute = {v: encode_basestring(v) for v in self.attribute_spec.values}
        attribute[None] = "null"
        digest = hashlib.sha256()
        for r in sorted(self.records, key=attrgetter("caption_id")):
            digest.update((
                f"[{encode_basestring(r.caption_id)}, {encode_basestring(r.image_id)}, "
                f"[{', '.join(map(quoted.__getitem__, r.tokens))}], "
                f"{human if r.source is Source.HUMAN else model}, {attribute[r.attribute]}]"
            ).encode("utf-8"))
        return digest.hexdigest()

    @cached_property
    def mentions(self) -> np.ndarray:
        """Each record's explicitly mentioned attribute value, as an index into
        `attribute_spec.values`; -1 where it names none, -2 where it names
        more than one (`Masker.mention`)."""
        # masking imports this module
        from capbias.masking import MIXED_MENTION, NO_MENTION, Masker

        # One token names at most one value, since the word lists are
        # disjoint, and only an attribute word names one; a caption's count
        # per value is one bincount over the tokens that name one.
        masker = Masker(self.attribute_spec)
        table = self.token_table
        n_values = len(self.attribute_spec.values)
        value = np.fromiter(
            (masker.mention((token,)) if token in masker.all_words else NO_MENTION
             for token in table.tokens),
            dtype=np.intp, count=len(table.tokens),
        )
        at = np.flatnonzero((value >= 0)[table.ids])
        present = np.bincount(
            table.caption[at] * n_values + value[table.ids[at]],
            minlength=len(self.records) * n_values,
        ).reshape(len(self.records), n_values) > 0
        n_named = present.sum(axis=1)
        return np.where(
            n_named > 1, MIXED_MENTION,
            np.where(n_named == 1, present.argmax(axis=1), NO_MENTION),
        ).astype(np.int64, copy=False)

    @cached_property
    def labels(self) -> np.ndarray:
        """Each record's annotated attribute value, as an index into
        `attribute_spec.values`; -1 where it has none."""
        index = {v: i for i, v in enumerate(self.attribute_spec.values)}
        index[None] = -1
        return np.fromiter(
            (index[record.attribute] for record in self.records),
            dtype=np.int64, count=len(self.records),
        )


_DECODER = json.JSONDecoder()


def _read_jsonl(path: Path, required: Sequence[str] = ()) -> Iterable[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON Lines file;
    every object must carry the `required` fields."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            # `json.loads` of a line with no whitespace at either end, without
            # its per-call checks and scans for whitespace
            try:
                obj, end = _DECODER.raw_decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise CorpusError(f"{path}:{lineno}: expected a JSON object")
            for name in required:
                if name not in obj:
                    raise CorpusError(f"{path}:{lineno}: missing field {name!r}")
            yield lineno, obj


def load_annotations(path: Path | str, attribute_spec: AttributeSpec) -> dict[str, str]:
    """Read an annotations JSONL file into an image_id -> value map."""
    path = Path(path)
    annotations: dict[str, str] = {}
    for lineno, obj in _read_jsonl(path, ("image_id", "attribute")):
        image_id = str(obj["image_id"])
        value = str(obj["attribute"])
        if value not in attribute_spec.values:
            raise CorpusError(
                f"{path}:{lineno}: attribute value {value!r} is not one of "
                f"{attribute_spec.values}"
            )
        previous = annotations.setdefault(image_id, value)
        if previous != value:
            raise CorpusError(
                f"{path}:{lineno}: image {image_id!r} annotated both "
                f"{previous!r} and {value!r}"
            )
    return annotations


def load_object_annotations(path: Path | str) -> dict[str, frozenset[str]]:
    """Read an objects JSONL file into an image_id -> object-label-set map."""
    path = Path(path)
    objects: dict[str, frozenset[str]] = {}
    for lineno, obj in _read_jsonl(path, ("image_id", "objects")):
        image_id = str(obj["image_id"])
        if not isinstance(obj["objects"], list):
            raise CorpusError(f"{path}:{lineno}: field 'objects' must be a JSON list")
        labels = frozenset(str(x) for x in obj["objects"])
        if image_id in objects:
            objects[image_id] = objects[image_id] | labels
        else:
            objects[image_id] = labels
    return objects


def load_corpus(
    captions_path: Path | str,
    annotations_path: Optional[Path | str],
    attribute_spec: AttributeSpec,
    objects_path: Optional[Path | str] = None,
    *,
    annotations: Optional[Mapping[str, str]] = None,
    objects: Optional[Mapping[str, frozenset[str]]] = None,
) -> Corpus:
    """Load a caption corpus from JSON Lines files.

    `annotations` and `objects`, when given, are the contents of the files
    at `annotations_path` and `objects_path` as already read by
    `load_annotations` and `load_object_annotations`, so corpora that share
    those files read them once; the paths still name them in errors.

    Captions whose text is empty after tokenization are rejected with a
    logged diagnostic. Contract violations (duplicate caption ids, unknown
    attribute values, annotations for unreferenced images) raise CorpusError.
    """
    captions_path = Path(captions_path)
    if annotations is None:
        annotations = (
            load_annotations(annotations_path, attribute_spec)
            if annotations_path is not None
            else {}
        )
    if objects is None and objects_path is not None:
        objects = load_object_annotations(objects_path)

    records: list[CaptionRecord] = []
    # one string object per distinct token, shared by every caption using it
    interned: dict[str, str] = {}
    seen_ids: set[str] = set()
    referenced_images: set[str] = set()
    n_rejected = 0
    required = ("caption_id", "image_id", "source", "caption")
    for lineno, obj in _read_jsonl(captions_path, required):
        caption_id = str(obj["caption_id"])
        if caption_id in seen_ids:
            raise CorpusError(
                f"{captions_path}:{lineno}: duplicate caption_id {caption_id!r}"
            )
        seen_ids.add(caption_id)
        image_id = str(obj["image_id"])
        referenced_images.add(image_id)
        try:
            source = _SOURCES[obj["source"]]
        except (KeyError, TypeError):  # TypeError: a JSON list or object
            raise CorpusError(
                f"{captions_path}:{lineno}: source must be 'human' or 'model'"
            ) from None
        try:
            tokens = tokenize(str(obj["caption"]))
        except CorpusError:
            logger.warning(
                "%s:%d: rejected caption %r (empty after tokenization)",
                captions_path, lineno, caption_id,
            )
            n_rejected += 1
            continue
        # positional arguments cost about half of keywords per record
        records.append(CaptionRecord(
            caption_id, image_id, tuple(map(interned.setdefault, tokens, tokens)),
            source, annotations.get(image_id),
        ))

    stray = sorted(set(annotations) - referenced_images)
    if stray:
        raise CorpusError(
            f"{annotations_path}: annotations reference images with no "
            f"captions: {stray[:5]}{'...' if len(stray) > 5 else ''}"
        )

    logger.info(
        "loaded %d records from %s (%d rejected)",
        len(records), captions_path, n_rejected,
    )
    return Corpus(
        records=tuple(records),
        attribute_spec=attribute_spec,
        object_annotations=objects,
    )


def balanced_image_split(
    annotations: Mapping[str, str],
    values: Sequence[str],
    test_fraction: float,
    seed: int,
) -> tuple[set[str], set[str]]:
    """Partition annotated image ids into balanced (train, test) sets.

    Image counts per attribute value are equalized by discarding the excess
    of majority values; discarded images enter neither set. Deterministic
    given the seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise CorpusError(f"test_fraction must be in (0, 1), got {test_fraction}")
    by_value: dict[str, list[str]] = {v: [] for v in values}
    for image_id in sorted(annotations):
        by_value[annotations[image_id]].append(image_id)
    for value, ids in by_value.items():
        if len(ids) < 2:
            raise CorpusError(
                f"attribute value {value!r} has {len(ids)} annotated images; "
                "need at least 2 to split"
            )

    n_min = min(len(ids) for ids in by_value.values())
    n_test = max(1, int(round(test_fraction * n_min)))
    n_train = n_min - n_test
    if n_train < 1:
        raise CorpusError(
            f"test_fraction {test_fraction} leaves no training images"
        )

    rng = np.random.default_rng(seed)
    train_ids: set[str] = set()
    test_ids: set[str] = set()
    for value in values:
        ids = by_value[value]
        perm = rng.permutation(len(ids))
        shuffled = [ids[i] for i in perm]
        test_ids.update(shuffled[:n_test])
        train_ids.update(shuffled[n_test:n_test + n_train])
    return train_ids, test_ids
