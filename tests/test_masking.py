from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capbias.corpus import AttributeSpec, CorpusError
from capbias.masking import (
    MIXED_MENTION,
    NO_MENTION,
    Masker,
    expand_plurals,
    expanded_word_lists,
    load_word_list_file,
    pluralize,
)
from conftest import make_corpus


class TestPlurals:
    def test_irregular_override(self):
        assert expand_plurals(["woman"], {"woman": "women"}) == ("woman", "women")

    def test_empty(self):
        assert expand_plurals([]) == ()

    def test_es_rule(self):
        assert expand_plurals(["waitress"]) == ("waitress", "waitresses")

    @pytest.mark.parametrize("word,plural", [
        ("boy", "boys"),
        ("lady", "ladies"),
        ("box", "boxes"),
        ("church", "churches"),
        ("brush", "brushes"),
        ("guy", "guys"),
    ])
    def test_rules(self, word, plural):
        assert pluralize(word) == plural


class TestMaskCaption:
    def test_single_gendered_word(self, gender_spec):
        out = Masker(gender_spec).mask(["a", "girl", "is", "playing", "piano"])
        assert out == ("a", "<gender>", "is", "playing", "piano")

    def test_empty_word_lists_identity(self):
        race = AttributeSpec(name="race", values=("darker", "lighter"), mask_token="<race>")
        out = Masker(race).mask(["a", "person", "walking"])
        assert out == ("a", "person", "walking")

    def test_plural_and_possessive_words(self, gender_spec):
        out = Masker(gender_spec).mask(["the", "man", "and", "his", "sons"])
        assert out == ("the", "<gender>", "and", "<gender>", "<gender>")

    def test_no_substring_matching(self, gender_spec):
        out = Masker(gender_spec).mask(["the", "mandate", "manual"])
        assert out == ("the", "mandate", "manual")

    def test_unchanged_caption_is_returned_as_it_is(self, gender_spec):
        tokens = ("a", "dog", "in", "a", "park")
        assert Masker(gender_spec).mask(tokens) is tokens

    def test_idempotent(self, gender_spec):
        masker = Masker(gender_spec)
        once = masker.mask(["a", "woman", "and", "her", "uncle"])
        twice = masker.mask(once)
        assert once == twice

    @given(st.lists(st.sampled_from(
        ["a", "woman", "women", "man", "men", "dog", "his", "hers",
         "waitresses", "cowboys", "piano", "daughters"]), min_size=1))
    def test_no_word_list_member_survives(self, gender_spec, tokens):
        masker = Masker(gender_spec)
        masked = masker.mask(tokens)
        assert not set(masked) & masker.all_words

    @given(st.lists(st.sampled_from(
        ["woman", "man", "girl", "boys", "dog", "tree"]), min_size=1))
    def test_masked_caption_has_no_mention(self, gender_spec, tokens):
        masker = Masker(gender_spec)
        assert masker.mention(masker.mask(tokens)) == NO_MENTION


class TestMentionLabel:
    def test_only_female(self, gender_spec):
        tokens = ["a", "woman", "cooking"]
        assert Masker(gender_spec).mention(tokens) == gender_spec.values.index("female")

    def test_mixed(self, gender_spec):
        tokens = ["a", "man", "and", "a", "woman"]
        assert Masker(gender_spec).mention(tokens) == MIXED_MENTION

    def test_none(self, gender_spec):
        assert Masker(gender_spec).mention(["a", "dog", "running"]) == NO_MENTION


THREE_VALUES = AttributeSpec(
    name="size",
    values=("small", "medium", "large"),
    mask_token="<size>",
    word_lists={"small": ("tiny", "little"), "medium": ("mid",), "large": ("huge", "box")},
)


@given(st.lists(st.sampled_from(
    ["tiny", "tinies", "little", "mid", "mids", "huge", "box", "boxes",
     "dog", "tree", "<size>"]), min_size=1))
def test_mention_and_mask_match_brute_force(tokens):
    """`mention` and `mask` against a direct reading of the expanded word
    lists, for every value at once."""
    tokens = tuple(tokens)
    masker = Masker(THREE_VALUES)
    by_value = expanded_word_lists(THREE_VALUES)
    named = [i for i, value in enumerate(THREE_VALUES.values)
             if any(t in by_value[value] for t in tokens)]
    expected = (NO_MENTION if not named else named[0] if len(named) == 1
                else MIXED_MENTION)
    assert masker.mention(tokens) == expected
    attribute_words = set().union(*by_value.values())
    assert masker.mask(tokens) == tuple(
        "<size>" if t in attribute_words else t for t in tokens
    )


@given(st.lists(st.lists(st.sampled_from(
    ["tiny", "tinies", "little", "mid", "mids", "huge", "box", "boxes",
     "dog", "tree", "<size>"]), min_size=1, max_size=6), max_size=8))
def test_corpus_mentions_match_mention_of_each_caption(captions):
    """`Corpus.mentions`, counted over the token table, against `mention` of
    each caption; the table's ids and starts give back every caption."""
    corpus = make_corpus(THREE_VALUES, [
        (f"c{i}", f"i{i}", tokens, None) for i, tokens in enumerate(captions)
    ])
    masker = Masker(THREE_VALUES)
    assert corpus.mentions.tolist() == [masker.mention(r.tokens) for r in corpus.records]
    assert corpus.mentions.dtype == np.int64
    table = corpus.token_table
    assert list(table.tokens) == list(dict.fromkeys(t for tokens in captions for t in tokens))
    assert table.ids.dtype == np.int32
    assert table.starts.dtype == np.intp
    assert table.starts.tolist() == [0, *accumulate(map(len, captions))]
    assert [tuple(table.tokens[i] for i in table.ids[a:b])
            for a, b in zip(table.starts, table.starts[1:])] == [tuple(t) for t in captions]


def test_disjointness_enforced_after_expansion():
    spec = AttributeSpec(
        name="bad",
        values=("a", "b"),
        mask_token="<m>",
        word_lists={"a": ("prince",), "b": ("princes",)},
    )
    with pytest.raises(CorpusError, match="overlap"):
        expanded_word_lists(spec)


def test_word_list_file_roundtrip(tmp_path):
    path = tmp_path / "words.tsv"
    path.write_text(
        "# comment line\n"
        "female\twoman\twomen\n"
        "female\tgirl\n"
        "male\tman\tmen\n",
        encoding="utf-8",
    )
    word_lists, overrides = load_word_list_file(path)
    assert word_lists == {"female": ("woman", "girl"), "male": ("man",)}
    assert overrides == {"woman": "women", "man": "men"}


def test_default_gender_spec_covers_core_words(gender_spec):
    feminine = set(gender_spec.word_lists["female"])
    masculine = set(gender_spec.word_lists["male"])
    assert {"woman", "female", "lady", "mother", "girl", "aunt", "wife",
            "actress", "princess", "waitress", "sister", "queen", "pregnant",
            "daughter", "she", "her", "hers", "herself"} <= feminine
    assert {"man", "male", "father", "gentleman", "boy", "uncle", "husband",
            "actor", "prince", "waiter", "son", "brother", "guy", "emperor",
            "dude", "cowboy", "he", "his", "him", "himself"} <= masculine
