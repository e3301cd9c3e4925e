import json
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capbias.corpus import CorpusError
from capbias.vocab import (
    MASK_INDEX,
    OOV_INDEX,
    PAD_INDEX,
    align_to_prediction_vocab,
    build_vocab,
)


def exported_tokens(vocabulary):
    return set(json.loads(vocabulary.to_json()))


class TestBuildVocab:
    def test_single_caption(self, plain_spec):
        vocabulary = build_vocab(Counter(["a", "cat"]), mask_token=plain_spec.mask_token)
        assert exported_tokens(vocabulary) == {"<gender>", "<oov>", "<pad>", "a", "cat"}
        assert vocabulary.encode(["<gender>"]) == [MASK_INDEX]

    def test_empty_corpus_errors(self):
        with pytest.raises(CorpusError):
            build_vocab(Counter(), mask_token="<gender>")

    def test_deterministic_ordering(self):
        captions = [["b", "a", "a"], ["c", "b", "a"]]
        vocabulary = build_vocab(Counter(chain.from_iterable(captions)), mask_token="<m>")
        # a:3, b:2, c:1 -> freq desc after the three specials
        assert vocabulary.encode(["a", "b", "c"]) == [3, 4, 5]

    def test_specials_reserved(self):
        vocabulary = build_vocab(Counter(["x"]), mask_token="<m>")
        assert vocabulary.encode(["<m>"]) == [MASK_INDEX]
        assert vocabulary.encode(["<oov>"]) == [OOV_INDEX]
        assert vocabulary.encode(["<pad>"]) == [PAD_INDEX]
        assert vocabulary.encode(["unseen-token"]) == [OOV_INDEX]


class TestAlign:
    def _vocab(self, tokens):
        return build_vocab(Counter(tokens), mask_token="<gender>")

    def test_identity_when_covered(self):
        v_pre = self._vocab(["a", "girl", "with", "racquet"])
        tokens = ("a", "racquet")
        assert align_to_prediction_vocab(tokens, v_pre) == tokens

    def test_oov_replacement(self):
        v_pre = self._vocab(["a", "racquet"])
        out = align_to_prediction_vocab(("a", "<gender>", "wields", "racquet"), v_pre)
        assert out == ("a", "<gender>", "<oov>", "racquet")

    def test_saturation(self):
        v_pre = self._vocab(["zzz"])
        out = align_to_prediction_vocab(("foo", "bar", "<gender>"), v_pre)
        assert out == ("<oov>", "<oov>", "<gender>")

    @given(st.lists(st.sampled_from(["a", "b", "c", "x", "y", "<gender>"]), min_size=1))
    def test_invariants(self, tokens):
        v_pre = self._vocab(["a", "b", "c"])
        aligned = align_to_prediction_vocab(tuple(tokens), v_pre)
        assert len(aligned) == len(tokens)
        allowed = {"a", "b", "c", v_pre.oov_token, v_pre.mask_token, v_pre.pad_token}
        assert set(aligned) <= allowed
        assert align_to_prediction_vocab(aligned, v_pre) == aligned


_TOKENS = st.sampled_from(["a", "b", "c", "x", "y", "<gender>", "<oov>", "<pad>"])


@given(
    # A caption has at least one token: loading skips empty ones.
    captions=st.lists(st.lists(_TOKENS, min_size=1, max_size=6), min_size=1, max_size=4),
    tokens=st.lists(_TOKENS, max_size=12),
)
def test_encoding_aligned_tokens_equals_encoding_them(captions, tokens):
    # The LIC protocol encodes both sides through one lookup built from the
    # aligned tokens, which is right only if this holds for every token.
    v_pre = build_vocab(Counter(chain.from_iterable(captions)), mask_token="<gender>")
    aligned = align_to_prediction_vocab(tuple(tokens), v_pre)
    assert v_pre.encode(aligned) == v_pre.encode(tokens)
