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
import string
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional

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
    # `_WORD.findall`, piece by piece: [^\W_] is `str.isalnum()` and \s is
    # `str.isspace()`, the characters `str.split()` splits on, so a piece
    # holds at most one word, from its first to its last word character.
    # Stripping ASCII punctuation keeps both, and often leaves only them.
    tokens = []
    for piece in text.lower().split():
        if not piece.isalnum():
            piece = piece.strip(string.punctuation)
            if not piece.isalnum():
                match = _WORD.search(piece)
                if match is None:
                    continue
                piece = match.group()
        tokens.append(piece)
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


class _Ids(dict):
    """Keys numbered in first-seen order: `self[key]` numbers a new key."""

    def __missing__(self, key) -> int:
        self[key] = n = len(self)
        return n


class TokenTable(NamedTuple):
    """A corpus's tokens as ids: the distinct tokens in first-seen order, and
    every caption's token ids, concatenated in caption order; caption i's ids
    are `ids[starts[i]:starts[i + 1]]`."""

    tokens: tuple[str, ...]
    ids: np.ndarray     # int32, an index into `tokens`
    starts: np.ndarray  # intp, one more than there are captions

    def present(self, columns: Mapping[str, Sequence[int]], start: np.ndarray) -> np.ndarray:
        """The sorted, distinct keys `start[i] + j`, one for each caption i
        with `start[i] >= 0` and each column j that `columns[token]` lists
        for a token the caption holds; int32 where every key fits."""
        rows = [(i, columns[t]) for i, t in enumerate(self.tokens) if t in columns]
        top = start.max(initial=0) + max((max(c) for c in columns.values() if c), default=0)
        # each token's caption's start
        start = np.repeat(start.astype(np.int32) if top < 2**31 else start,
                          np.diff(self.starts))
        keys = []
        for k in range(max([1, *(len(c) for _, c in rows)])):
            # the k-th column of each token, or -1
            column = np.full(len(self.tokens), -1, dtype=np.int32)
            column[[i for i, c in rows if len(c) > k]] = [c[k] for _, c in rows if len(c) > k]
            hit = (column >= 0)[self.ids]
            hit &= start >= 0
            key = start[hit]
            key += column[self.ids[hit]]
            keys.append(key)
        key = keys[0] if len(keys) == 1 else np.concatenate(keys)
        key.sort()
        new = np.ones(key.size, dtype=bool)
        new[1:] = key[1:] != key[:-1]
        return key[new]


def _columns(captions: Iterable[tuple[str, str, Source, Sequence[str]]]) -> tuple:
    """The `Corpus` columns up to `token_table`, of (caption id, image id,
    source, tokens) rows."""
    caption_ids, images, sources, ids, starts = [], [], [], [], [0]
    image_ids, token_ids = _Ids(), _Ids()
    for caption_id, image_id, source, tokens in captions:
        caption_ids.append(caption_id)
        images.append(image_ids[image_id])
        sources.append(source)
        ids.extend(map(token_ids.__getitem__, tokens))
        starts.append(len(ids))
    return (tuple(caption_ids), tuple(image_ids), np.array(images, dtype=np.int32),
            np.array(sources, dtype=object),
            TokenTable(tuple(token_ids), np.array(ids, dtype=np.int32),
                       np.array(starts, dtype=np.intp)))


class _Records(Sequence):
    """A corpus's captions as `CaptionRecord`s, each made when it is read."""

    def __init__(self, corpus: "Corpus"):
        self._corpus = corpus

    def __len__(self) -> int:
        return len(self._corpus)

    def __getitem__(self, i: int) -> CaptionRecord:
        # `range` takes negative indices and raises IndexError past the end
        corpus, i = self._corpus, range(len(self))[i]
        table, label = corpus.token_table, corpus.labels[i]
        ids = table.ids[table.starts[i]:table.starts[i + 1]].tolist()
        return CaptionRecord(
            corpus.caption_ids[i], corpus.image_ids[corpus.images[i]],
            tuple(map(table.tokens.__getitem__, ids)), corpus.sources[i],
            None if label < 0 else corpus.attribute_spec.values[label],
        )


@dataclass(frozen=True, eq=False)
class Corpus:
    """Captions sharing one attribute spec, as columns in caption order."""

    caption_ids: tuple[str, ...]
    image_ids: tuple[str, ...]  # the distinct images, in first-seen order
    images: np.ndarray  # int32, an index into `image_ids`
    sources: np.ndarray  # object, each caption's `Source`
    token_table: TokenTable
    # int64, the annotated value as an index into `attribute_spec.values`;
    # -1 for none
    labels: np.ndarray
    attribute_spec: AttributeSpec
    object_annotations: Optional[Mapping[str, frozenset[str]]] = None

    @classmethod
    def from_records(
        cls,
        records: Iterable[CaptionRecord],
        attribute_spec: AttributeSpec,
        object_annotations: Optional[Mapping[str, frozenset[str]]] = None,
    ) -> "Corpus":
        """The corpus of `records`, in their order."""
        records = tuple(records)
        value_index = {v: i for i, v in enumerate(attribute_spec.values)}
        value_index[None] = -1
        for record in records:
            if record.attribute not in value_index:
                raise CorpusError(
                    f"record {record.caption_id!r} carries attribute "
                    f"{record.attribute!r} outside {attribute_spec.values}"
                )
        return cls(
            *_columns((r.caption_id, r.image_id, r.source, r.tokens) for r in records),
            np.array([value_index[r.attribute] for r in records], dtype=np.int64),
            attribute_spec, object_annotations,
        )

    def __len__(self) -> int:
        return len(self.caption_ids)

    @property
    def records(self) -> Sequence[CaptionRecord]:
        """The captions as records, made one at a time when read."""
        return _Records(self)

    def content_hash(self) -> str:
        return self._content_digest

    # The columns are immutable, so each of these is computed at most once per
    # corpus and kept on the instance, which drops them with the corpus.
    @cached_property
    def by_caption_id(self) -> np.ndarray:
        """The captions' indices in `caption_id` order, ties in corpus order."""
        ids = self.caption_ids
        return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)

    @cached_property
    def _content_digest(self) -> str:
        import hashlib

        # The bytes of `json.dumps(fields, ensure_ascii=False)` for each
        # caption's fields, in `caption_id` order, a block of captions at a
        # time; each distinct text is quoted once.
        def quoted(texts, index, *extra):
            """The JSON string of `texts[i]`, or `extra[i - len(texts)]`, for
            each i of `index`."""
            known = np.array([*map(encode_basestring, texts), *extra], dtype=object)
            return known[index].tolist()

        order, table = self.by_caption_id, self.token_table
        words = quoted(table.tokens, table.ids)
        fields = (
            f"[{caption_id}, {image}, [{', '.join(words[start:end])}], {source}, {label}]"
            for caption_id, image, start, end, source, label in zip(
                map(encode_basestring, map(self.caption_ids.__getitem__, order.tolist())),
                quoted(self.image_ids, self.images[order]),
                table.starts[order].tolist(), table.starts[order + 1].tolist(),
                map({s: encode_basestring(s.value) for s in Source}.__getitem__,
                    self.sources[order].tolist()),
                quoted(self.attribute_spec.values, self.labels[order], "null"),
            )
        )
        digest = hashlib.sha256()
        for block in iter(lambda: "".join(islice(fields, 256)), ""):
            digest.update(block.encode("utf-8"))
        return digest.hexdigest()

    @cached_property
    def mentions(self) -> np.ndarray:
        """Each caption's explicitly mentioned attribute value, as an index into
        `attribute_spec.values`; -1 where it names none, -2 where it names
        more than one (`Masker.mention`)."""
        # masking imports this module
        from capbias.masking import MIXED_MENTION, NO_MENTION, Masker

        # One token names at most one value, since the word lists are
        # disjoint, and only an attribute word names one: its one column.
        masker = Masker(self.attribute_spec)
        table = self.token_table
        n_values = len(self.attribute_spec.values)
        words = masker.all_words.intersection(table.tokens)
        key = table.present({w: (masker.mention((w,)),) for w in words},
                            np.arange(len(self)) * n_values)
        caption, value = np.divmod(key, n_values)
        mentions = np.full(len(self), NO_MENTION, dtype=np.int64)
        mentions[caption] = value
        mentions[np.bincount(caption, minlength=len(self)) > 1] = MIXED_MENTION
        return mentions

    @property
    def object_table(self) -> TokenTable:
        """Each caption's object labels, its image's, as a token table; built on
        every read, as a report reads it once per corpus."""
        annotations, label_ids = self.object_annotations or {}, _Ids()
        by_image = [[label_ids[label] for label in annotations.get(image, ())]
                    for image in self.image_ids]
        size = np.fromiter(map(len, by_image), dtype=np.intp, count=len(by_image))
        n = size[self.images]
        starts = np.concatenate(([0], np.cumsum(n)))
        # caption i's labels are its image's run in the images' labels, end to end
        at = np.repeat((np.cumsum(size) - size)[self.images] - starts[:-1], n)
        at += np.arange(starts[-1])
        ids = np.fromiter(chain.from_iterable(by_image), dtype=np.int32, count=size.sum())
        return TokenTable(tuple(label_ids), ids[at], starts)


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
        labels = obj["objects"]
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise CorpusError(
                f"{path}:{lineno}: field 'objects' must be a JSON list of strings"
            )
        labels = frozenset(labels)
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
    source: Optional[Source] = None,
) -> Corpus:
    """Load a caption corpus from JSON Lines files.

    `annotations` and `objects`, when given, are the contents of the files
    at `annotations_path` and `objects_path` as already read by
    `load_annotations` and `load_object_annotations`, so corpora that share
    those files read them once; the paths still name them in errors. When
    `source` is given, a caption from the other side is an input error.

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

    seen_ids: set[str] = set()
    # images whose every caption was rejected are still referenced
    rejected_images: set[str] = set()

    def captions():
        required = ("caption_id", "image_id", "source", "caption")
        for lineno, obj in _read_jsonl(captions_path, required):
            caption_id = str(obj["caption_id"])
            if caption_id in seen_ids:
                raise CorpusError(
                    f"{captions_path}:{lineno}: duplicate caption_id {caption_id!r}"
                )
            seen_ids.add(caption_id)
            image_id = str(obj["image_id"])
            try:
                side = _SOURCES[obj["source"]]
            except (KeyError, TypeError):  # TypeError: a JSON list or object
                raise CorpusError(
                    f"{captions_path}:{lineno}: source must be 'human' or 'model'"
                ) from None
            if source not in (None, side):
                raise CorpusError(f"{captions_path}:{lineno}: caption {caption_id!r} has "
                                  f"source {side.value!r}, expected {source.value!r}")
            try:
                tokens = tokenize(str(obj["caption"]))
            except CorpusError:
                logger.warning(
                    "%s:%d: rejected caption %r (empty after tokenization)",
                    captions_path, lineno, caption_id,
                )
                rejected_images.add(image_id)
                continue
            yield caption_id, image_id, side, tokens

    columns = _columns(captions())
    caption_ids, image_ids, images = columns[:3]
    stray = sorted(set(annotations).difference(image_ids, rejected_images))
    if stray:
        raise CorpusError(
            f"{annotations_path}: annotations reference images with no "
            f"captions: {stray[:5]}{'...' if len(stray) > 5 else ''}"
        )
    # the annotations hold only the spec's values (`load_annotations`)
    value_index = {v: i for i, v in enumerate(attribute_spec.values)}
    value_index[None] = -1
    labels = np.array([value_index[annotations.get(i)] for i in image_ids],
                      dtype=np.int64)[images]
    logger.info(
        "loaded %d records from %s (%d rejected)",
        len(caption_ids), captions_path, len(seen_ids) - len(caption_ids),
    )
    return Corpus(*columns, labels, attribute_spec, objects)


def balanced_image_split(
    image_ids: Sequence[str],
    labels: np.ndarray,
    values: Sequence[str],
    test_fraction: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Partition the annotated images into balanced (train, test) masks over
    `image_ids`; `labels[i]` is image i's value index, or -1 for none.

    Image counts per attribute value are equalized by discarding the excess
    of majority values; discarded images enter neither set. Each value's
    images are shuffled in image-id order, one permutation per value in
    `values` order, so the split is deterministic given the seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise CorpusError(f"test_fraction must be in (0, 1), got {test_fraction}")
    order = np.array(sorted(range(len(image_ids)), key=image_ids.__getitem__), dtype=np.intp)
    by_value = [order[labels[order] == v] for v in range(len(values))]
    for value, images in zip(values, by_value):
        if len(images) < 2:
            raise CorpusError(
                f"attribute value {value!r} has {len(images)} annotated images; "
                "need at least 2 to split"
            )

    n_min = min(map(len, by_value))
    n_test = max(1, int(round(test_fraction * n_min)))
    n_train = n_min - n_test
    if n_train < 1:
        raise CorpusError(
            f"test_fraction {test_fraction} leaves no training images"
        )

    rng = np.random.default_rng(seed)
    in_train = np.zeros(len(image_ids), dtype=bool)
    in_test = np.zeros(len(image_ids), dtype=bool)
    for images in by_value:
        shuffled = images[rng.permutation(len(images))]
        in_test[shuffled[:n_test]] = True
        in_train[shuffled[n_test:n_test + n_train]] = True
    return in_train, in_test
