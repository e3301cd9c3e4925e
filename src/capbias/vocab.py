"""Vocabulary building and prediction-side vocabulary alignment.

The alignment step replaces human-caption tokens missing from the model
vocabulary with an out-of-vocabulary token, so richer human vocabularies
cannot inflate the measured gap between the two caption sets.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, Sequence

from capbias.corpus import CorpusError

MASK_INDEX = 0
OOV_INDEX = 1
PAD_INDEX = 2

OOV_TOKEN = "<oov>"
PAD_TOKEN = "<pad>"


class Vocabulary:
    """Token-to-index map with mask/oov/pad specials at indices 0..2."""

    def __init__(self, tokens: Sequence[str], mask_token: str):
        specials = (mask_token, OOV_TOKEN, PAD_TOKEN)
        if len(set(specials)) != 3:
            raise CorpusError(f"special tokens must be distinct, got {specials}")
        self.mask_token = mask_token
        self.oov_token = OOV_TOKEN
        self.pad_token = PAD_TOKEN
        self._index: dict[str, int] = {
            mask_token: MASK_INDEX,
            OOV_TOKEN: OOV_INDEX,
            PAD_TOKEN: PAD_INDEX,
        }
        for token in tokens:
            if token in self._index:
                if token in specials:
                    continue
                raise CorpusError(f"duplicate token {token!r} in vocabulary")
            self._index[token] = len(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def encode(self, tokens: Sequence[str]) -> list[int]:
        """Map tokens to indices; unknown tokens map to the OOV index."""
        return [self._index.get(t, OOV_INDEX) for t in tokens]

    def to_json(self) -> str:
        return json.dumps(self._index, ensure_ascii=False, sort_keys=False)


def build_vocab(token_lists: Iterable[Sequence[str]], mask_token: str) -> Vocabulary:
    """Vocabulary of every token of the captions, plus specials.

    Ordering is frequency descending with lexicographic tie-break, so the
    result is deterministic for a given corpus.
    """
    counts: Counter[str] = Counter()
    n_captions = 0
    for tokens in token_lists:
        n_captions += 1
        counts.update(tokens)
    if n_captions == 0:
        raise CorpusError("cannot build a vocabulary from an empty corpus")

    specials = {mask_token, OOV_TOKEN, PAD_TOKEN}
    kept = sorted(
        (t for t in counts if t not in specials),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(kept, mask_token=mask_token)


def align_to_prediction_vocab(
    tokens: Sequence[str], v_pre: Vocabulary
) -> tuple[str, ...]:
    """Replace tokens absent from the model vocabulary with the OOV token.

    The mask token always survives; it is injected by our own pipeline on
    both sides.
    """
    return tuple(
        t if (t == v_pre.mask_token or t in v_pre) else v_pre.oov_token
        for t in tokens
    )
