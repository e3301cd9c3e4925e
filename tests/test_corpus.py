import hashlib
import json
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capbias.corpus import (
    AttributeSpec,
    CaptionRecord,
    Corpus,
    CorpusError,
    Source,
    balanced_image_split,
    load_corpus,
    tokenize,
)
from conftest import make_corpus, write_jsonl

# The code points `str.split()` splits on.
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]

_BOUNDARY_PUNCT = re.compile(r"^[\W_]+|[\W_]+$", re.UNICODE)


def split_strip_tokens(text):
    """Oracle: each whitespace piece with [\\W_] stripped from both ends."""
    tokens = []
    for piece in text.lower().split():
        token = _BOUNDARY_PUNCT.sub("", piece)
        if token:
            tokens.append(token)
    return tokens


class TestTokenize:
    def test_lowercase_and_strip_punctuation(self):
        assert tokenize("A girl is playing piano.") == ["a", "girl", "is", "playing", "piano"]

    def test_empty_caption_rejected(self):
        with pytest.raises(CorpusError):
            tokenize("")
        with pytest.raises(CorpusError):
            tokenize("  ... !! ")

    def test_boundary_punctuation(self):
        assert tokenize("Two men, riding horses!") == ["two", "men", "riding", "horses"]

    def test_internal_apostrophe_preserved(self):
        assert tokenize("the woman's hat") == ["the", "woman's", "hat"]

    @given(st.text(alphabet=st.one_of(
        st.characters(),
        st.sampled_from(WHITESPACE + ["a", "_", "'", "-", "\u0301", "İ", "ß"]),
    )))
    def test_matches_split_and_strip(self, text):
        expected = split_strip_tokens(text)
        if not expected:
            with pytest.raises(CorpusError):
                tokenize(text)
        else:
            assert tokenize(text) == expected

    def test_every_whitespace_code_point_separates(self):
        assert len(WHITESPACE) == 29
        for space in WHITESPACE:
            text = f"A{space}_b_{space}{space}c"
            assert tokenize(text) == split_strip_tokens(text) == ["a", "b", "c"]

    def test_underscore_only_pieces_vanish(self):
        assert tokenize("a _ __ b_ _c _-_") == ["a", "b", "c"]
        assert tokenize("snake_case") == ["snake_case"]
        with pytest.raises(CorpusError):
            tokenize("_ __ _._")

    @given(st.lists(st.text(alphabet="abcdefxyz'", min_size=1), min_size=1))
    def test_idempotent(self, words):
        try:
            tokens = tokenize(" ".join(words))
        except CorpusError:
            return  # all-punctuation input; nothing to re-tokenize
        assert tokenize(" ".join(tokens)) == tokens


class TestAttributeSpec:
    def test_needs_two_values(self):
        with pytest.raises(CorpusError):
            AttributeSpec(name="x", values=("only",), mask_token="<m>")

    def test_duplicate_values_rejected(self):
        with pytest.raises(CorpusError):
            AttributeSpec(name="x", values=("a", "a"), mask_token="<m>")


class TestLoadCorpus:
    def _write_inputs(self, tmp_path, captions, annotations):
        cap = write_jsonl(tmp_path / "captions.jsonl", captions)
        ann = write_jsonl(tmp_path / "annotations.jsonl", annotations)
        return cap, ann

    def test_well_formed(self, tmp_path, plain_spec):
        cap, ann = self._write_inputs(
            tmp_path,
            [
                {"caption_id": "c1", "image_id": "i1", "caption": "a woman cooking", "source": "human"},
                {"caption_id": "c2", "image_id": "i2", "caption": "a man running", "source": "human"},
                {"caption_id": "c3", "image_id": "i3", "caption": "a dog", "source": "human"},
            ],
            [
                {"image_id": "i1", "attribute": "female"},
                {"image_id": "i2", "attribute": "male"},
            ],
        )
        corpus = load_corpus(cap, ann, plain_spec)
        assert len(corpus) == 3
        assert corpus.records[0].attribute == "female"
        assert corpus.records[2].attribute is None

    def test_unknown_attribute_value(self, tmp_path, plain_spec):
        cap, ann = self._write_inputs(
            tmp_path,
            [{"caption_id": "c1", "image_id": "i1", "caption": "hi there", "source": "human"}],
            [{"image_id": "i1", "attribute": "other"}],
        )
        with pytest.raises(CorpusError, match="other"):
            load_corpus(cap, ann, plain_spec)

    def test_duplicate_caption_id(self, tmp_path, plain_spec):
        cap, ann = self._write_inputs(
            tmp_path,
            [
                {"caption_id": "c1", "image_id": "i1", "caption": "one caption", "source": "human"},
                {"caption_id": "c1", "image_id": "i2", "caption": "another one", "source": "human"},
            ],
            [],
        )
        with pytest.raises(CorpusError, match="c1"):
            load_corpus(cap, ann, plain_spec)

    def test_annotation_for_missing_image(self, tmp_path, plain_spec):
        cap, ann = self._write_inputs(
            tmp_path,
            [{"caption_id": "c1", "image_id": "i1", "caption": "a caption", "source": "human"}],
            [{"image_id": "i1", "attribute": "female"},
             {"image_id": "i9", "attribute": "male"}],
        )
        with pytest.raises(CorpusError, match="i9"):
            load_corpus(cap, ann, plain_spec)

    def test_captions_share_token_objects(self, tmp_path, plain_spec):
        cap, ann = self._write_inputs(
            tmp_path,
            [
                {"caption_id": "c1", "image_id": "i1", "caption": "A skateboard.", "source": "human"},
                {"caption_id": "c2", "image_id": "i2", "caption": "one skateboard", "source": "human"},
            ],
            [],
        )
        first, second = load_corpus(cap, ann, plain_spec).records
        assert first.tokens[1] == second.tokens[1] == "skateboard"
        assert first.tokens[1] is second.tokens[1]

    @pytest.mark.parametrize("source", [["human"], None, 1, "robot"])
    def test_source_must_be_a_known_string(self, tmp_path, plain_spec, source):
        cap, ann = self._write_inputs(
            tmp_path,
            [
                {"caption_id": "c1", "image_id": "i1", "caption": "a dog", "source": "human"},
                {"caption_id": "c2", "image_id": "i2", "caption": "a cat", "source": source},
            ],
            [],
        )
        message = f"{cap}:2: source must be 'human' or 'model'"
        with pytest.raises(CorpusError, match=re.escape(message)):
            load_corpus(cap, ann, plain_spec)

    def test_empty_caption_rejected_with_diagnostic(self, tmp_path, plain_spec, caplog):
        cap, ann = self._write_inputs(
            tmp_path,
            [
                {"caption_id": "c1", "image_id": "i1", "caption": "!!!", "source": "human"},
                {"caption_id": "c2", "image_id": "i1", "caption": "fine caption", "source": "human"},
            ],
            [],
        )
        with caplog.at_level("WARNING"):
            corpus = load_corpus(cap, ann, plain_spec)
        assert len(corpus) == 1
        assert any("c1" in message for message in caplog.messages)


def _image_corpus(spec, n_female, n_male):
    captions = []
    for i in range(n_female):
        captions.append((f"f{i}", f"imgf{i}", ["some", "tokens"], "female"))
    for i in range(n_male):
        captions.append((f"m{i}", f"imgm{i}", ["other", "tokens"], "male"))
    return make_corpus(spec, captions)


def split_records(corpus, test_fraction, seed):
    """The train and test records of a corpus under `balanced_image_split`."""
    train_ids, test_ids = balanced_image_split(
        corpus.annotation_map(), corpus.attribute_spec.values, test_fraction, seed
    )
    return (
        [r for r in corpus.records if r.image_id in train_ids],
        [r for r in corpus.records if r.image_id in test_ids],
    )


class TestBalancedSplit:
    def test_even_counts(self, plain_spec):
        corpus = _image_corpus(plain_spec, 100, 100)
        train, test = split_records(corpus, 0.1, seed=0)
        train_counts = {v: 0 for v in plain_spec.values}
        for record in train:
            train_counts[record.attribute] += 1
        assert train_counts == {"female": 90, "male": 90}
        assert len(test) == 20

    def test_majority_excess_excluded(self, plain_spec):
        corpus = _image_corpus(plain_spec, 120, 100)
        train, test = split_records(corpus, 0.1, seed=0)
        counts = {"train": {}, "test": {}}
        for part, records in (("train", train), ("test", test)):
            for record in records:
                counts[part][record.attribute] = counts[part].get(record.attribute, 0) + 1
        assert counts["train"] == {"female": 90, "male": 90}
        assert counts["test"] == {"female": 10, "male": 10}

    def test_disjoint_by_image(self, plain_spec):
        train, test = split_records(_image_corpus(plain_spec, 30, 25), 0.2, seed=3)
        train_images = {r.image_id for r in train}
        test_images = {r.image_id for r in test}
        assert not train_images & test_images

    def test_deterministic(self, plain_spec):
        corpus = _image_corpus(plain_spec, 50, 60)
        a = split_records(corpus, 0.1, seed=42)
        b = split_records(corpus, 0.1, seed=42)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_single_count_value_in_train(self, plain_spec):
        train, _ = split_records(_image_corpus(plain_spec, 33, 47), 0.25, seed=1)
        counts = {}
        for record in train:
            counts[record.attribute] = counts.get(record.attribute, 0) + 1
        assert len(set(counts.values())) == 1

    def test_zero_record_value_errors(self, plain_spec):
        corpus = make_corpus(plain_spec, [("c1", "i1", ["x"], "female"),
                                          ("c2", "i2", ["y"], "female")])
        with pytest.raises(CorpusError):
            split_records(corpus, 0.5, seed=0)


# Field values that JSON escapes or that ensure_ascii=False leaves as they are.
ESCAPE_CAPTIONS = [
    ("c2", "imgé", ["café", "über", "日本"], "female"),
    ("c1", "i1", ['say "hi"', "back\\slash", "tab\there", "bell\x07\x1f"], None),
    ("c10", "i2", ["İstanbul", "straße", "e\u0301", "\U0001f600"], "male"),
]


def test_content_hash_is_sha256_of_json_records(plain_spec):
    corpus = make_corpus(plain_spec, ESCAPE_CAPTIONS)
    digest = hashlib.sha256()
    for record in sorted(corpus.records, key=lambda r: r.caption_id):
        digest.update(json.dumps(
            [record.caption_id, record.image_id, list(record.tokens),
             record.source.value, record.attribute],
            ensure_ascii=False,
        ).encode("utf-8"))
    assert corpus.content_hash() == digest.hexdigest()
    # the digest of these records before the hash took one encoder per corpus
    assert corpus.content_hash() == (
        "d9066db6f4cc0ad8a28a044e5e18a7499a872ba088e64fa92167482ddbf65549"
    )


def json_records_digest(corpus):
    """Oracle: sha256 over `json.dumps(fields, ensure_ascii=False)` of each
    record, in `caption_id` order."""
    digest = hashlib.sha256()
    for record in sorted(corpus.records, key=lambda r: r.caption_id):
        digest.update(json.dumps(
            [record.caption_id, record.image_id, list(record.tokens),
             record.source.value, record.attribute],
            ensure_ascii=False,
        ).encode("utf-8"))
    return digest.hexdigest()


# Characters JSON escapes, characters it writes as they are, and non-BMP
# ones; lone surrogates cannot be written as UTF-8 by either side.
HASH_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "/", "\x00", "\x07", "\n", "\t", "\x1f", "\x7f",
                         "é", "日", " ", "\U0001f600", "a"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    min_size=1, max_size=6,
)


@given(
    st.lists(
        st.tuples(HASH_TEXT, HASH_TEXT, st.lists(HASH_TEXT, min_size=1, max_size=5),
                  st.sampled_from([None, "female", "male"]), st.booleans()),
        min_size=1, max_size=6, unique_by=lambda caption: caption[0],
    )
)
def test_content_hash_equals_json_dumps_oracle(captions):
    spec = AttributeSpec(name="gender", values=("female", "male"), mask_token="<gender>")
    records = tuple(
        CaptionRecord(cid, img, tuple(tokens), Source.MODEL if model else Source.HUMAN, attr)
        for cid, img, tokens, attr, model in captions
    )
    corpus = Corpus(records=records, attribute_spec=spec)
    assert corpus.content_hash() == json_records_digest(corpus)


# Repeated tokens and images, a model source, no attribute, and fields JSON
# escapes; the digest is the one the per-record JSON encoder gave.
FIXED_CAPTIONS = [
    ("b7", "img/1", ["a", "man", "and", "a", "dog"], "male"),
    ('a"q', "img/1", ["a", "woman", "says", '"hi"'], None),
    ("a\\b", "imgé2", ["new\nline", "café", "\U0001f431", "a"], "female"),
    ("日本", "img/3", ["\x00nul", "tab\t", "a"], "male"),
]


def test_content_hash_of_a_fixed_corpus_is_pinned(plain_spec):
    corpus = make_corpus(plain_spec, FIXED_CAPTIONS, Source.MODEL)
    assert corpus.content_hash() == json_records_digest(corpus) == (
        "4d884e07dfba256dad85377e015f14138903eb55e8fa24324efa2a5b763acef0"
    )


def test_content_hash_stable_and_order_independent(plain_spec):
    caps = [("c1", "i1", ["a", "b"], "female"), ("c2", "i2", ["c"], "male")]
    a = make_corpus(plain_spec, caps)
    b = make_corpus(plain_spec, list(reversed(caps)))
    assert a.content_hash() == b.content_hash()
    c = make_corpus(plain_spec, [("c1", "i1", ["a", "x"], "female"),
                                 ("c2", "i2", ["c"], "male")])
    assert a.content_hash() != c.content_hash()


def test_conflicting_image_attributes_rejected(plain_spec):
    corpus = make_corpus(plain_spec, [("c1", "i1", ["a"], "female"),
                                      ("c2", "i1", ["b"], "male")])
    with pytest.raises(CorpusError):
        corpus.annotation_map()
