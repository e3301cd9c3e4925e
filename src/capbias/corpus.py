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
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class CorpusError(ValueError):
    """Raised when an input file or corpus violates a contract."""


class Source(enum.Enum):
    HUMAN = "human"
    MODEL = "model"


_BOUNDARY_PUNCT = re.compile(r"^[\W_]+|[\W_]+$", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split a caption into word tokens.

    Punctuation is stripped from token boundaries; internal apostrophes
    (and other internal characters) are preserved. Raises CorpusError if
    nothing survives.
    """
    tokens = []
    for piece in text.lower().split():
        token = _BOUNDARY_PUNCT.sub("", piece)
        if token:
            tokens.append(token)
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


@dataclass(frozen=True)
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

    # Records are immutable, so both of these are computed at most once per
    # corpus and kept on the instance, which drops them with the corpus.
    @cached_property
    def _content_digest(self) -> str:
        import hashlib

        digest = hashlib.sha256()
        for record in sorted(self.records, key=lambda r: r.caption_id):
            digest.update(
                json.dumps(
                    [record.caption_id, record.image_id, list(record.tokens),
                     record.source.value, record.attribute],
                    ensure_ascii=False,
                ).encode("utf-8")
            )
        return digest.hexdigest()

    @cached_property
    def mention_kinds(self) -> tuple[str, ...]:
        """Each record's explicit attribute mention, as `Mention.kind`: the
        one value it names, `MENTION_MIXED`, or `MENTION_NONE`."""
        from capbias.masking import Masker  # masking imports this module

        masker = Masker(self.attribute_spec)
        return tuple(masker.mention(record.tokens).kind for record in self.records)

    def filter_images(self, image_ids: Iterable[str]) -> "Corpus":
        keep = set(image_ids)
        return Corpus(
            records=tuple(r for r in self.records if r.image_id in keep),
            attribute_spec=self.attribute_spec,
            object_annotations=self.object_annotations,
        )


@dataclass(frozen=True)
class SplitPair:
    """A balanced train split and held-out test split, disjoint by image."""

    train: Corpus
    test: Corpus
    seed: int


def _read_jsonl(path: Path) -> Iterable[tuple[int, dict]]:
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise CorpusError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, obj


def load_annotations(path: Path | str, attribute_spec: AttributeSpec) -> dict[str, str]:
    """Read an annotations JSONL file into an image_id -> value map."""
    path = Path(path)
    annotations: dict[str, str] = {}
    for lineno, obj in _read_jsonl(path):
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
    for lineno, obj in _read_jsonl(path):
        image_id = str(obj["image_id"])
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
    seen_ids: set[str] = set()
    referenced_images: set[str] = set()
    n_rejected = 0
    for lineno, obj in _read_jsonl(captions_path):
        caption_id = str(obj["caption_id"])
        if caption_id in seen_ids:
            raise CorpusError(
                f"{captions_path}:{lineno}: duplicate caption_id {caption_id!r}"
            )
        seen_ids.add(caption_id)
        image_id = str(obj["image_id"])
        referenced_images.add(image_id)
        try:
            source = Source(obj["source"])
        except ValueError:
            raise CorpusError(
                f"{captions_path}:{lineno}: source must be 'human' or 'model'"
            ) from None
        try:
            tokens = tuple(tokenize(str(obj["caption"])))
        except CorpusError:
            logger.warning(
                "%s:%d: rejected caption %r (empty after tokenization)",
                captions_path, lineno, caption_id,
            )
            n_rejected += 1
            continue
        records.append(
            CaptionRecord(
                caption_id=caption_id,
                image_id=image_id,
                tokens=tokens,
                source=source,
                attribute=annotations.get(image_id),
            )
        )

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


def balanced_split(corpus: Corpus, test_fraction: float, seed: int) -> SplitPair:
    """Split a corpus by image into a balanced train set and a balanced test set."""
    train_ids, test_ids = balanced_image_split(
        corpus.annotation_map(), corpus.attribute_spec.values, test_fraction, seed
    )
    return SplitPair(
        train=corpus.filter_images(train_ids),
        test=corpus.filter_images(test_ids),
        seed=seed,
    )
