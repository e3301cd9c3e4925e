"""Attribute-word masking and explicit-mention detection.

Replaces attribute-revealing words (and their plurals) with the spec's
mask token, and labels captions by which attribute values they mention
explicitly. Matching is whole-token exact match, never substring.
"""

from __future__ import annotations

import logging
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from capbias.corpus import AttributeSpec, CorpusError

logger = logging.getLogger(__name__)

# `Masker.mention` of a caption that names no value, and of one that names
# more than one; both are negative, so no value index can be either.
NO_MENTION = -1
MIXED_MENTION = -2


def pluralize(word: str, overrides: Mapping[str, str] | None = None) -> str:
    """Rule-based English plural, with explicit irregular overrides."""
    if overrides and word in overrides:
        return overrides[word]
    if word.endswith(("s", "x", "ch", "sh")):
        return word + "es"
    if len(word) > 1 and word.endswith("y") and word[-2] not in "aeiou":
        return word[:-1] + "ies"
    return word + "s"


def expand_plurals(
    words: Iterable[str], overrides: Mapping[str, str] | None = None
) -> tuple[str, ...]:
    """Each word plus its plural form, order preserved, deduplicated."""
    out: list[str] = []
    seen: set[str] = set()
    for word in words:
        for form in (word, pluralize(word, overrides)):
            if form not in seen:
                seen.add(form)
                out.append(form)
    return tuple(out)


def expanded_word_lists(spec: AttributeSpec) -> dict[str, frozenset[str]]:
    """Per-value word sets after plural expansion; validates disjointness."""
    expanded: dict[str, frozenset[str]] = {}
    for value in spec.values:
        words = spec.word_lists.get(value, ())
        expanded[value] = frozenset(expand_plurals(words, spec.plural_overrides))
    values = list(expanded)
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            overlap = expanded[a] & expanded[b]
            if overlap:
                raise CorpusError(
                    f"word lists for {a!r} and {b!r} overlap after plural "
                    f"expansion: {sorted(overlap)}"
                )
    return expanded


class Masker:
    """Precomputed masking tables for one attribute spec."""

    def __init__(self, spec: AttributeSpec):
        self.spec = spec
        self.by_value = expanded_word_lists(spec)
        self.all_words = frozenset().union(*self.by_value.values())
        if spec.mask_token in self.all_words:
            raise CorpusError(
                f"mask token {spec.mask_token!r} collides with an attribute word"
            )

    def mask(self, tokens: Sequence[str]) -> tuple[str, ...]:
        """The caption with every attribute word replaced by the mask token."""
        words = self.all_words
        if words.isdisjoint(tokens):
            return tuple(tokens)
        mask_token = self.spec.mask_token
        # a list comprehension: `tuple` of a generator raised peak RSS
        return tuple([mask_token if t in words else t for t in tokens])

    def mention(self, tokens: Sequence[str]) -> int:
        """The index in `spec.values` of the one value whose words occur in
        the caption; NO_MENTION if none does, MIXED_MENTION if several do."""
        found = NO_MENTION
        for i, words in enumerate(self.by_value.values()):
            if not words.isdisjoint(tokens):
                if found != NO_MENTION:
                    return MIXED_MENTION
                found = i
        return found


def load_word_list_file(
    path: Path | str,
) -> tuple[dict[str, tuple[str, ...]], dict[str, str]]:
    """Parse a word-list TSV: value<TAB>word[<TAB>irregular_plural].

    Lines starting with '#' are comments. Returns (word_lists, overrides).
    """
    path = Path(path)
    word_lists: dict[str, list[str]] = {}
    overrides: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise CorpusError(f"{path}:{lineno}: expected 2 or 3 tab-separated fields")
            value, word = parts[0].strip(), parts[1].strip()
            word_lists.setdefault(value, []).append(word)
            if len(parts) == 3 and parts[2].strip():
                overrides[word] = parts[2].strip()
    return {v: tuple(ws) for v, ws in word_lists.items()}, overrides


def default_gender_spec(mask_token: str = "<gender>") -> AttributeSpec:
    """The shipped female/male word lists with rule-exception plurals."""
    data = resources.files("capbias").joinpath("data/gender_words.tsv")
    with resources.as_file(data) as path:
        word_lists, overrides = load_word_list_file(path)
    return AttributeSpec(
        name="gender",
        values=("female", "male"),
        mask_token=mask_token,
        word_lists=word_lists,
        plural_overrides=overrides,
    )
