import hashlib
import json
import random
import re
import string
import sys

import numpy as np
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

# The tokenizer's specification: one regex over the whole lowercased text.
WORD = re.compile(r"[^\W_](?:\S*[^\W_])?")

# Characters around the tokenizer's fast paths: ASCII punctuation ("_", "'"
# and "." among it), every whitespace code point, combining marks, letters
# whose lowercase is longer or depends on the context, and non-ASCII digits
# and numerals.
TRICKY = st.one_of(
    st.characters(blacklist_categories=("Cs",)),
    st.characters(whitelist_categories=("Mn", "Mc", "Me")),
    st.sampled_from([*string.punctuation, *WHITESPACE, "a", "İ", "Σ", "½", "Ⅰ", "٠"]),
)


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

    @given(st.text(alphabet=TRICKY))
    def test_matches_the_regex_over_the_whole_text(self, text):
        words = WORD.findall(text.lower())
        if not words:
            with pytest.raises(CorpusError):
                tokenize(text)
        else:
            assert tokenize(text) == words

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

    def test_empty_caption_logs_file_and_line_and_adds_no_token(self, tmp_path, plain_spec,
                                                                caplog):
        cap, ann = self._write_inputs(
            tmp_path,
            [
                {"caption_id": "c1", "image_id": "i1", "caption": "A dog.", "source": "human"},
                {"caption_id": "c2", "image_id": "i2", "caption": "_ -- ...", "source": "human"},
                {"caption_id": "c3", "image_id": "i1", "caption": "a cat", "source": "human"},
            ],
            # an image whose only caption is rejected is still referenced
            [{"image_id": "i2", "attribute": "male"}],
        )
        with caplog.at_level("WARNING"):
            corpus = load_corpus(cap, ann, plain_spec)
        assert f"{cap}:2: rejected caption 'c2' (empty after tokenization)" in caplog.text
        assert corpus.caption_ids == ("c1", "c3")
        assert corpus.image_ids == ("i1",)
        assert corpus.token_table.tokens == ("a", "dog", "cat")
        assert corpus.token_table.ids.tolist() == [0, 1, 0, 2]
        assert corpus.token_table.starts.tolist() == [0, 2, 4]
        assert corpus.labels.tolist() == [-1, -1]

    @pytest.mark.parametrize("seed", range(4))
    def test_token_table_is_in_first_seen_order_of_the_file(self, tmp_path, plain_spec, seed):
        rng = random.Random(seed)
        words = ["A", "woman", "MAN", "dog's", "dog", "(cat)", "cat.", "_x_", "-", "Ünïcode"]
        rows = [
            {"caption_id": f"c{i}", "image_id": f"i{i % 7}", "source": "human",
             "caption": " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))}
            for i in range(40)
        ]
        rng.shuffle(rows)
        cap, ann = self._write_inputs(tmp_path, rows, [])
        corpus = load_corpus(cap, ann, plain_spec)
        # per caption, in file order, the captions that keep a token
        kept = [row for row in rows if WORD.search(row["caption"].lower())]
        captions = [tuple(tokenize(row["caption"])) for row in kept]
        table = corpus.token_table
        assert table.tokens == tuple(dict.fromkeys(t for tokens in captions for t in tokens))
        starts = table.starts.tolist()
        assert [tuple(table.tokens[i] for i in table.ids[a:b]) for a, b in
                zip(starts, starts[1:])] == captions
        assert corpus.caption_ids == tuple(row["caption_id"] for row in kept)
        assert corpus.image_ids == tuple(dict.fromkeys(row["image_id"] for row in kept))
        assert [corpus.image_ids[i] for i in corpus.images] == [row["image_id"] for row in kept]

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


def image_labels(corpus):
    """Each image's value index, from its captions' labels; -1 for none."""
    labels = np.full(len(corpus.image_ids), -1, dtype=np.int64)
    labels[corpus.images] = corpus.labels
    return labels


def split_records(corpus, test_fraction, seed):
    """The train and test records of a corpus under `balanced_image_split`."""
    in_train, in_test = balanced_image_split(
        corpus.image_ids, image_labels(corpus), corpus.attribute_spec.values,
        test_fraction, seed,
    )
    records = list(corpus.records)
    return (
        [r for r, image in zip(records, corpus.images) if in_train[image]],
        [r for r, image in zip(records, corpus.images) if in_test[image]],
    )


def string_split(annotations, values, test_fraction, seed):
    """The balanced split over image-id strings that the masks replaced, kept
    as their oracle: (train, test) sets of the ids in `annotations`, an
    image id -> value map."""
    if not 0.0 < test_fraction < 1.0:
        raise CorpusError(f"test_fraction must be in (0, 1), got {test_fraction}")
    by_value = {v: [] for v in values}
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
    train_ids, test_ids = set(), set()
    for value in values:
        ids = by_value[value]
        perm = rng.permutation(len(ids))
        shuffled = [ids[i] for i in perm]
        test_ids.update(shuffled[:n_test])
        train_ids.update(shuffled[n_test:n_test + n_train])
    return train_ids, test_ids


# Ids whose code-point order differs from their insertion order: "img10"
# sorts before "img9", and the non-ASCII ones after every ASCII id.
SPLIT_IDS = st.one_of(
    st.builds("img{}".format, st.integers(0, 30)),
    st.sampled_from(["é", "ä1", "日本", "Z", "z", "\U0001f600", "img"]),
)


@given(
    ids=st.lists(SPLIT_IDS, unique=True, min_size=8, max_size=40),
    n_values=st.sampled_from([2, 3]),
    data=st.data(),
    test_fraction=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]),
    seed=st.integers(0, 2**64 - 1),
)
def test_split_masks_select_the_string_split(ids, n_values, data, test_fraction, seed):
    """The masks select exactly the images of the string-based split, with
    unlabelled images in neither, and both raise the same input errors."""
    values = ("female", "male", "other")[:n_values]
    labels = np.array(data.draw(st.lists(st.integers(-1, n_values - 1),
                                         min_size=len(ids), max_size=len(ids))),
                      dtype=np.int64)
    annotations = {i: values[v] for i, v in zip(ids, labels.tolist()) if v >= 0}
    try:
        expected = string_split(annotations, values, test_fraction, seed)
    except CorpusError as exc:
        with pytest.raises(CorpusError, match=f"^{re.escape(str(exc))}$"):
            balanced_image_split(ids, labels, values, test_fraction, seed)
        return
    in_train, in_test = balanced_image_split(ids, labels, values, test_fraction, seed)
    assert in_train.dtype == in_test.dtype == bool
    assert ({ids[i] for i in np.flatnonzero(in_train)},
            {ids[i] for i in np.flatnonzero(in_test)}) == expected


@pytest.mark.parametrize("labels,test_fraction,message", [
    ([0, 1, 0, -1], 0.5, "attribute value 'male' has 1 annotated images; need at least 2 to split"),
    ([0, 1, 0, 1], 0.9, "test_fraction 0.9 leaves no training images"),
    ([0, 1, 0, 1], 1.0, "test_fraction must be in (0, 1), got 1.0"),
])
def test_split_input_errors_match_the_string_split(labels, test_fraction, message):
    ids, values = ["img10", "img9", "img8", "é"], ("female", "male")
    annotations = {i: values[v] for i, v in zip(ids, labels) if v >= 0}
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        balanced_image_split(ids, np.array(labels), values, test_fraction, 0)
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        string_split(annotations, values, test_fraction, 0)


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
    corpus = Corpus.from_records(records, spec)
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


def test_from_records_rejects_a_value_outside_the_spec(plain_spec):
    with pytest.raises(CorpusError, match=re.escape(
        "record 'c2' carries attribute 'other' outside ('female', 'male')"
    )):
        make_corpus(plain_spec, [("c1", "i1", ["a"], "female"), ("c2", "i2", ["b"], "other")])


def test_records_are_a_view_of_the_columns(plain_spec):
    captions = [("c2", "i2", ["a", "man"], "male"), ("c1", "i1", ["a", "dog"], None),
                ("c3", "i2", ["men"], "male")]
    corpus = make_corpus(plain_spec, captions, Source.MODEL)
    records = corpus.records
    assert len(records) == 3
    assert records[0] == CaptionRecord("c2", "i2", ("a", "man"), Source.MODEL, "male")
    assert records[-2] == CaptionRecord("c1", "i1", ("a", "dog"), Source.MODEL, None)
    assert [r.caption_id for r in records] == ["c2", "c1", "c3"]
    with pytest.raises(IndexError):
        records[3]
    again = Corpus.from_records(records, plain_spec)
    assert list(again.records) == list(records)
    assert again.content_hash() == corpus.content_hash()
    assert corpus.by_caption_id.tolist() == [1, 0, 2]
    assert corpus.labels.tolist() == [1, -1, 1]
