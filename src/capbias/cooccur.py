"""Co-occurrence based bias metrics: BA, directional BA, Ratio, and Error.

All metric functions return unscaled values; the x100 reporting scale is
applied at the report layer.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from capbias.corpus import Corpus, CorpusError
from capbias.masking import Masker

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TaskWordSet:
    """The task words (or object labels) whose attribute skew is measured."""

    words: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise CorpusError("task word set is empty")
        if len(set(self.words)) != len(self.words):
            raise CorpusError("task word set contains duplicates")


@dataclass(frozen=True)
class CooccurrenceTable:
    """Counts of attribute value a co-occurring with task word l."""

    values: tuple[str, ...]
    words: tuple[str, ...]
    counts: np.ndarray  # shape (|A|, |L|), non-negative integers

    def __post_init__(self) -> None:
        if self.counts.shape != (len(self.values), len(self.words)):
            raise CorpusError(
                f"counts shape {self.counts.shape} does not match "
                f"({len(self.values)}, {len(self.words)})"
            )
        if (self.counts < 0).any():
            raise CorpusError("co-occurrence counts must be non-negative")

    @property
    def word_marginals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


@dataclass(frozen=True)
class JointDistribution:
    """Joint and conditional probabilities over attribute values x task words.

    Conditionals may contain NaN where the conditioning marginal is zero;
    metrics skip those cells and reduce the divisor. gate is the DBA sign
    indicator y_al = 1[p(a,l) > p(a)p(l)], decided by `from_table` on the
    integer counts so that exact independence ties give y = 0.
    """

    values: tuple[str, ...]
    words: tuple[str, ...]
    p_al: np.ndarray           # (|A|, |L|)
    p_a: np.ndarray            # (|A|,)
    p_l: np.ndarray            # (|L|,)
    p_a_given_l: np.ndarray    # (|A|, |L|)
    p_l_given_a: np.ndarray    # (|A|, |L|)
    gate: np.ndarray           # (|A|, |L|), bool

    @classmethod
    def from_table(cls, table: CooccurrenceTable) -> "JointDistribution":
        counts = table.counts.astype(float)
        total = counts.sum()
        if total <= 0:
            raise CorpusError("cannot form a distribution from an all-zero table")
        p_al = counts / total
        p_a = p_al.sum(axis=1)
        p_l = p_al.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            p_a_given_l = np.where(p_l > 0, p_al / p_l, np.nan)
            p_l_given_a = np.where(p_a[:, None] > 0, p_al / p_a[:, None], np.nan)
        # c(a,l) * T > c(a) * c(l) in Python integers: exact, and no overflow
        exact = table.counts.astype(object)
        gate = exact * exact.sum() > np.outer(exact.sum(axis=1), exact.sum(axis=0))
        return cls(
            values=table.values,
            words=table.words,
            p_al=p_al,
            p_a=p_a,
            p_l=p_l,
            p_a_given_l=p_a_given_l,
            p_l_given_a=p_l_given_a,
            gate=gate.astype(bool),
        )


def annotated(corpus: Corpus) -> np.ndarray:
    """`corpus.labels`, for counting by annotation: every caption needs one."""
    missing = np.flatnonzero(corpus.labels < 0)
    if missing.size:
        raise CorpusError(
            f"record {corpus.caption_ids[missing[0]]!r} lacks an attribute "
            "annotation (required to count by annotation)"
        )
    return corpus.labels


def select_task_words(
    human_corpus: Corpus,
    values: np.ndarray,
    top_k: int = 1000,
    min_per_value: int = 100,
) -> CooccurrenceTable:
    """Frequent caption words that co-occur enough with every attribute value.

    Candidates are the top_k most frequent tokens (attribute words excluded),
    ties broken by the token; a word survives only if it co-occurs at least
    min_per_value times with each attribute value in the ground-truth
    captions, whose values are `values` as in `count_cooccurrence`. Returns
    the kept words' counts.
    """
    spec = human_corpus.attribute_spec
    excluded = Masker(spec).all_words | {spec.mask_token}
    table = human_corpus.token_table
    # `np.add.at` counts the int32 ids without the intp copy `np.bincount` makes
    freq = np.zeros(len(table.tokens), dtype=np.intp)
    np.add.at(freq, table.ids, 1)
    count = dict(zip(table.tokens, freq.tolist()))
    # by token, then (stably) by falling count
    ranked = sorted(count)
    ranked.sort(key=count.__getitem__, reverse=True)
    candidates = [t for t in ranked if t not in excluded][:top_k]
    if not candidates:
        raise CorpusError("no task-word candidates; corpus may be too small")

    table = count_cooccurrence(human_corpus, TaskWordSet(tuple(candidates)), values)
    keep = (table.counts >= min_per_value).all(axis=0)
    words = tuple(w for w, k in zip(candidates, keep) if k)
    if not words:
        raise CorpusError(
            f"no task words co-occur >= {min_per_value} times with every "
            "attribute value; lower min_per_value or top_k filters"
        )
    return CooccurrenceTable(
        values=table.values, words=words, counts=table.counts[:, keep]
    )


def count_cooccurrence(
    corpus: Corpus,
    task_words: TaskWordSet,
    values: np.ndarray,
    synonyms: Optional[Mapping[str, frozenset[str]]] = None,
    objects: bool = False,
) -> CooccurrenceTable:
    """Count captions where a task word appears and an attribute value holds.

    `values` holds each caption's attribute value as an index into the
    spec's values (`corpus.mentions`, or `annotated(corpus)`); captions
    with a negative value contribute nothing. A caption contributes at most
    once per (value, word) cell. With `objects`, presence is read from the
    image's object annotations instead of the caption tokens. A synonyms
    lexicon (label -> surface forms) makes a label count as present when any
    of its surface forms, or the label itself, appears in the caption.
    """
    spec = corpus.attribute_spec
    n_words = len(task_words.words)
    # surface form -> the columns it marks present; a label is its own form
    columns: dict[str, list[int]] = {}
    lexicon = synonyms or {}
    for j, word in enumerate(task_words.words):
        for form in lexicon.get(word, frozenset()) | {word}:
            columns.setdefault(form, []).append(j)

    counted = values >= 0
    if objects:
        annotations = corpus.object_annotations
        if annotations is None:
            raise CorpusError("object-label counting requires object annotations")
        image_ids, items = corpus.image_ids, corpus.images
        missing = counted & np.array(
            [image not in annotations for image in image_ids], dtype=bool
        )[items]
        if missing.any():
            raise CorpusError(
                f"image {image_ids[items[missing.argmax()]]!r} has no object annotation"
            )

    # One key per (caption, value, column): where the caption's value row
    # starts, plus the column. A caption with a negative value has none.
    n_cells = len(spec.values) * n_words
    start = np.where(counted, np.arange(len(values)) * n_cells + values * n_words, -1)
    key = (corpus.object_table if objects else corpus.token_table).present(columns, start)
    key %= n_cells
    counts = np.zeros(n_cells, dtype=np.intp)
    np.add.at(counts, key, 1)
    counts = counts.reshape(len(spec.values), n_words)
    return CooccurrenceTable(values=spec.values, words=task_words.words, counts=counts)


def ba(b_hat: np.ndarray, b: np.ndarray, n_values: int) -> float:
    """Bias amplification: mean over words of the gated per-cell deltas.

    Only cells where the ground-truth share strictly exceeds 1/|A|
    contribute. Positive means the model amplifies the skew.
    """
    if b_hat.shape != b.shape:
        raise CorpusError(f"shape mismatch: {b_hat.shape} vs {b.shape}")
    gate = b > (1.0 / n_values)
    n_words = b.shape[1]
    return float(((b_hat - b) * gate).sum() / n_words)


def ba_from_tables(gt_table: CooccurrenceTable, gen_table: CooccurrenceTable) -> float:
    """BA over the task words with non-zero counts in both tables."""
    if gt_table.words != gen_table.words or gt_table.values != gen_table.values:
        raise CorpusError("tables must share the same task words and values")
    keep = (gt_table.word_marginals > 0) & (gen_table.word_marginals > 0)
    dropped = [w for w, k in zip(gt_table.words, keep) if not k]
    if dropped:
        logger.warning(
            "excluding %d task words with zero co-occurrence on a side: %s",
            len(dropped), dropped[:10],
        )
    if not keep.any():
        raise CorpusError("no task word has counts on both sides")
    gt = gt_table.counts[:, keep].astype(float)
    gen = gen_table.counts[:, keep].astype(float)
    b = gt / gt.sum(axis=0, keepdims=True)
    b_hat = gen / gen.sum(axis=0, keepdims=True)
    return ba(b_hat, b, len(gt_table.values))


class DbaDirection(enum.Enum):
    GENDER_GIVEN_OBJECT = "gender_given_object"   # DBA_G: delta on p(a|l)
    OBJECT_GIVEN_GENDER = "object_given_gender"   # DBA_O: delta on p(l|a)


def dba(
    gt: JointDistribution, gen: JointDistribution, direction: DbaDirection
) -> float:
    """Directional bias amplification with the independence-gated sign.

    The gate y_al = 1[p(a,l) > p(a)p(l)] is read from the ground-truth
    distribution only (`JointDistribution.gate`). Cells whose conditional is
    undefined on either side are skipped and the divisor reduced accordingly.
    """
    if gt.p_al.shape != gen.p_al.shape:
        raise CorpusError("distributions have mismatched shapes")
    if direction is DbaDirection.GENDER_GIVEN_OBJECT:
        delta = gen.p_a_given_l - gt.p_a_given_l
    else:
        delta = gen.p_l_given_a - gt.p_l_given_a
    y = gt.gate.astype(float)
    valid = ~np.isnan(delta)
    n_skipped = int((~valid).sum())
    if n_skipped:
        logger.warning("dba: skipping %d cells with undefined conditionals", n_skipped)
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise CorpusError("no cell has defined conditionals on both sides")
    contrib = np.where(valid, y * delta + (1.0 - y) * (-delta), 0.0)
    return float(contrib.sum() / n_valid)


def ratio(corpus: Corpus) -> float:
    """Captions mentioning only the second attribute value over those
    mentioning only the first (male/female for the default gender spec).
    """
    spec = corpus.attribute_spec
    listed = [i for i, v in enumerate(spec.values) if spec.word_lists.get(v)]
    if len(listed) != 2:
        raise CorpusError("ratio requires exactly 2 attribute values with word lists")
    first, second = listed
    n_first = int((corpus.mentions == first).sum())
    if n_first == 0:
        raise CorpusError(
            f"no caption mentions only {spec.values[first]!r}; ratio undefined"
        )
    return int((corpus.mentions == second).sum()) / n_first


def error_rate(corpus: Corpus) -> float:
    """Fraction of attribute-mentioning captions contradicting the annotation.

    Captions that mention no value or more than one are excluded.
    """
    mentions, labels = corpus.mentions, corpus.labels
    counted = (mentions >= 0) & (labels >= 0)
    n_total = int(counted.sum())
    if n_total == 0:
        raise CorpusError("no caption mentions an attribute value; error undefined")
    return int((mentions != labels)[counted].sum()) / n_total
