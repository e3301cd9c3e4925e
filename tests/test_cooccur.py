from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capbias.cooccur import (
    CooccurrenceTable,
    DbaDirection,
    JointDistribution,
    TaskWordSet,
    ba,
    annotated,
    ba_from_tables,
    count_cooccurrence,
    dba,
    error_rate,
    ratio,
    select_task_words,
)
from capbias.corpus import AttributeSpec, CorpusError
from conftest import make_corpus


def table(values, words, counts):
    return CooccurrenceTable(
        values=tuple(values), words=tuple(words),
        counts=np.asarray(counts, dtype=np.int64),
    )


class TestCountCooccurrence:
    def test_single_caption(self, plain_spec):
        corpus = make_corpus(plain_spec, [
            ("c1", "i1", ["a", "woman", "with", "a", "pizza"], "female"),
        ])
        words = TaskWordSet(("pizza",))
        out = count_cooccurrence(corpus, words, corpus.mentions)
        assert out.counts.tolist() == [[1], [0]]

    def test_empty_corpus(self, plain_spec):
        corpus = make_corpus(plain_spec, [("c1", "i1", ["just", "filler"], None)])
        words = TaskWordSet(("pizza",))
        out = count_cooccurrence(corpus, words, corpus.mentions)
        assert out.counts.sum() == 0

    def test_mixed_mention_contributes_nothing(self, plain_spec):
        corpus = make_corpus(plain_spec, [
            ("c1", "i1", ["man", "woman", "pizza"], "female"),
        ])
        words = TaskWordSet(("pizza",))
        out = count_cooccurrence(corpus, words, corpus.mentions)
        assert out.counts.sum() == 0

    def test_annotation_mode_requires_labels(self, plain_spec):
        corpus = make_corpus(plain_spec, [("c1", "i1", ["pizza"], None)])
        words = TaskWordSet(("pizza",))
        with pytest.raises(CorpusError, match="annotation"):
            count_cooccurrence(corpus, words, annotated(corpus))

    def test_hand_corpus_matches_brute_force(self, plain_spec):
        captions = [
            ("c1", "i1", ["a", "woman", "eating", "pizza", "pizza"], "female"),
            ("c2", "i2", ["a", "man", "with", "pizza"], "male"),
            ("c3", "i3", ["a", "man", "riding", "horse"], "male"),
            ("c4", "i4", ["women", "near", "a", "horse"], "female"),
        ]
        corpus = make_corpus(plain_spec, captions)
        words = TaskWordSet(("pizza", "horse"))
        out = count_cooccurrence(corpus, words, corpus.mentions)

        # independent enumeration over every (caption, value, word) event
        expected = np.zeros((2, 2), dtype=int)
        gendered = {"female": {"woman", "women"}, "male": {"man", "men"}}
        for _, _, tokens, _ in captions:
            hits = [v for v, ws in gendered.items() if set(tokens) & ws]
            if len(hits) != 1:
                continue
            for j, word in enumerate(("pizza", "horse")):
                if word in tokens:
                    expected[plain_spec.values.index(hits[0]), j] += 1
        assert out.counts.tolist() == expected.tolist()

    def test_order_invariance(self, plain_spec):
        captions = [
            ("c1", "i1", ["woman", "pizza"], "female"),
            ("c2", "i2", ["man", "horse"], "male"),
            ("c3", "i3", ["woman", "horse"], "female"),
        ]
        words = TaskWordSet(("pizza", "horse"))
        forward = make_corpus(plain_spec, captions)
        backward = make_corpus(plain_spec, list(reversed(captions)))
        a = count_cooccurrence(forward, words, forward.mentions)
        b = count_cooccurrence(backward, words, backward.mentions)
        assert a.counts.tolist() == b.counts.tolist()


class TestSelectTaskWords:
    def test_thresholds(self, plain_spec):
        captions = []
        k = 0
        # pizza: 4 female / 3 male; dress: 3 female / 1 male
        for n_f, n_m, word in ((4, 3, "pizza"), (3, 1, "dress")):
            for _ in range(n_f):
                captions.append((f"c{k}", f"i{k}", ["woman", word], "female")); k += 1
            for _ in range(n_m):
                captions.append((f"c{k}", f"i{k}", ["man", word], "male")); k += 1
        corpus = make_corpus(plain_spec, captions)
        out = select_task_words(corpus, corpus.mentions, top_k=10, min_per_value=2)
        assert "pizza" in out.words
        assert "dress" not in out.words
        assert "woman" not in out.words  # attribute words excluded

    def test_singleton(self, plain_spec):
        corpus = make_corpus(plain_spec, [
            ("c1", "i1", ["woman", "pizza"], "female"),
            ("c2", "i2", ["man", "pizza"], "male"),
        ])
        out = select_task_words(corpus, corpus.mentions, top_k=1, min_per_value=1)
        assert out.words == ("pizza",)

    def test_empty_result_suggests_relaxation(self, plain_spec):
        corpus = make_corpus(plain_spec, [
            ("c1", "i1", ["woman", "pizza"], "female"),
            ("c2", "i2", ["man", "horse"], "male"),
        ])
        with pytest.raises(CorpusError, match="min_per_value"):
            select_task_words(corpus, corpus.mentions, top_k=5, min_per_value=3)


class TestBiasOf:
    """The per-word attribute shares b_al = c_al / sum_a c_al, through the BA
    of a one-word table against a reference whose shares are known."""

    def test_symmetry(self):
        # shares 0.5 / 0.5 against a reference at 0.75 / 0.25, whose female
        # cell alone passes the gate
        even = table(("f", "m"), ("l",), [[2], [2]])
        gt = table(("f", "m"), ("l",), [[3], [1]])
        assert ba_from_tables(gt, even) == -0.25
        # neither share of an even column exceeds 1/2, so no cell is gated in
        assert ba_from_tables(even, gt) == 0.0

    def test_skew(self):
        gt = table(("f", "m"), ("l",), [[3], [1]])
        assert ba_from_tables(gt, table(("f", "m"), ("l",), [[3], [1]])) == 0.0
        gen = table(("f", "m"), ("l",), [[1], [3]])
        assert ba_from_tables(gt, gen) == -0.5

    def test_degenerate_column(self):
        gt = table(("f", "m"), ("l",), [[0], [5]])
        assert ba_from_tables(gt, table(("f", "m"), ("l",), [[1], [1]])) == -0.5

    def test_zero_column_excluded(self, caplog):
        gt = table(("f", "m"), ("l1", "l2"), [[3, 0], [1, 0]])
        gen = table(("f", "m"), ("l1", "l2"), [[1, 2], [1, 2]])
        with caplog.at_level("WARNING"):
            assert ba_from_tables(gt, gen) == -0.25
        assert any("excluding 1 task words" in m and "'l2'" in m
                   for m in caplog.messages)

    def test_columns_sum_to_one(self):
        # shares sum to one per word, so scaling a word's counts on one side
        # leaves BA unchanged
        rng = np.random.default_rng(0)
        counts = rng.integers(1, 50, size=(3, 7))
        scale = rng.integers(1, 9, size=7)
        words = [f"w{i}" for i in range(7)]
        gt = table("abc", words, counts)
        assert ba_from_tables(gt, table("abc", words, counts * scale)) == pytest.approx(
            0.0, abs=1e-12
        )


class TestBa:
    def test_identity(self):
        b = np.array([[0.7, 0.3], [0.3, 0.7]])
        assert ba(b, b, 2) == 0.0

    def test_single_gated_cell(self):
        b = np.array([[0.75], [0.25]])
        b_hat = np.array([[0.85], [0.15]])
        assert ba(b_hat, b, 2) == pytest.approx(0.10, abs=1e-12)

    def test_indicator_gate_excludes_cell(self):
        # female share 0.4 <= 1/2: that cell contributes nothing
        b = np.array([[0.4], [0.6]])
        b_hat = np.array([[0.4], [0.5]])
        assert ba(b_hat, b, 2) == pytest.approx(-0.1, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(CorpusError):
            ba(np.zeros((2, 1)), np.zeros((2, 2)), 2)

    def test_from_tables_matches_brute_force(self, plain_spec):
        words = ("pizza", "horse", "kitchen")

        def random_corpus(seed):
            captions = []
            local = np.random.default_rng(seed)
            for i in range(18):
                gender_word = "woman" if local.random() < 0.5 else "man"
                tokens = [gender_word] + [w for w in words if local.random() < 0.5]
                captions.append((f"c{i}", f"i{i}", tokens, None))
            return make_corpus(plain_spec, captions)
        human, generated = random_corpus(1), random_corpus(2)
        word_set = TaskWordSet(words)
        gt = count_cooccurrence(human, word_set, human.mentions)
        gen = count_cooccurrence(generated, word_set, generated.mentions)
        measured = ba_from_tables(gt, gen)

        # brute force: plain python loops over all co-occurrence events
        def brute_counts(corpus):
            counts = {}
            for record in corpus.records:
                tokens = set(record.tokens)
                female = bool(tokens & {"woman", "women"})
                male = bool(tokens & {"man", "men"})
                if female == male:
                    continue
                value = "female" if female else "male"
                for word in words:
                    if word in tokens:
                        counts[(value, word)] = counts.get((value, word), 0) + 1
            return counts
        hc, gc = brute_counts(human), brute_counts(generated)
        total = 0.0
        n_words = 0
        for word in words:
            gt_col = [hc.get(("female", word), 0), hc.get(("male", word), 0)]
            gen_col = [gc.get(("female", word), 0), gc.get(("male", word), 0)]
            if sum(gt_col) == 0 or sum(gen_col) == 0:
                continue
            n_words += 1
            for i in range(2):
                b_val = gt_col[i] / sum(gt_col)
                b_hat_val = gen_col[i] / sum(gen_col)
                if b_val > 0.5:
                    total += b_hat_val - b_val
        assert measured == pytest.approx(total / n_words, abs=1e-12)


def _diag_dist(shift=0.0):
    p_al = np.array([[0.4, 0.1], [0.1, 0.4]])
    p_a = p_al.sum(axis=1)
    p_l = p_al.sum(axis=0)
    cond = np.array([[0.8, 0.2], [0.2, 0.8]])
    cond_shifted = cond.copy()
    cond_shifted[0, 0] += shift
    return JointDistribution(
        values=("f", "m"), words=("l1", "l2"),
        p_al=p_al, p_a=p_a, p_l=p_l,
        p_a_given_l=cond_shifted, p_l_given_a=cond_shifted,
        gate=p_al > np.outer(p_a, p_l),
    )


class TestDba:
    def test_identity(self):
        d = _diag_dist()
        assert dba(d, d, DbaDirection.GENDER_GIVEN_OBJECT) == 0.0
        assert dba(d, d, DbaDirection.OBJECT_GIVEN_GENDER) == 0.0

    def test_single_cell_shift(self):
        gt, gen = _diag_dist(), _diag_dist(shift=0.2)
        out = dba(gt, gen, DbaDirection.GENDER_GIVEN_OBJECT)
        assert out == pytest.approx(0.2 / 4, abs=1e-12)

    def test_downward_cell_negative_sign(self):
        # shift on an independence-respecting cell (y=0): positive delta counts negative
        gt = _diag_dist()
        gen = _diag_dist()
        cond = gen.p_a_given_l.copy()
        cond[0, 1] += 0.1  # p(f, l2)=0.1 < p(f)p(l2)=0.25 so y=0
        gen = JointDistribution(
            values=gen.values, words=gen.words, p_al=gen.p_al,
            p_a=gen.p_a, p_l=gen.p_l, p_a_given_l=cond, p_l_given_a=gen.p_l_given_a,
            gate=gen.gate,
        )
        out = dba(gt, gen, DbaDirection.GENDER_GIVEN_OBJECT)
        assert out == pytest.approx(-0.1 / 4, abs=1e-12)

    def test_antisymmetric_with_fixed_gate(self):
        # identical joints (same gate), different conditionals
        gt, gen = _diag_dist(), _diag_dist(shift=0.15)
        forward = dba(gt, gen, DbaDirection.GENDER_GIVEN_OBJECT)
        backward = dba(gen, gt, DbaDirection.GENDER_GIVEN_OBJECT)
        assert forward == pytest.approx(-backward, abs=1e-12)

    def test_undefined_conditional_skipped(self):
        counts = table(("f", "m"), ("l1", "l2"), [[4, 0], [4, 0]])
        gt = JointDistribution.from_table(counts)
        gen = JointDistribution.from_table(counts)
        assert dba(gt, gen, DbaDirection.GENDER_GIVEN_OBJECT) == 0.0

    def test_gate_is_exact_at_independence_ties(self):
        # rank one: every cell has c(a,l) * T == c(a) * c(l), so no gate opens
        t = table(("f", "m"), ("l1", "l2"), [[2, 3], [6, 9]])
        d = JointDistribution.from_table(t)
        # in float64, 0.45 > 0.75 * 0.6 opens cell (m, l2) by rounding alone
        assert (d.p_al > np.outer(d.p_a, d.p_l)).tolist() == [
            [False, False], [False, True]
        ]
        assert not d.gate.any()
        gen = JointDistribution.from_table(
            table(("f", "m"), ("l1", "l2"), [[3, 3], [6, 8]])
        )
        delta = gen.p_l_given_a - d.p_l_given_a
        assert dba(d, gen, DbaDirection.OBJECT_GIVEN_GENDER) == pytest.approx(
            -delta.mean(), abs=1e-15
        )

    @given(
        u=st.lists(st.integers(1, 10**6), min_size=1, max_size=6),
        v=st.lists(st.integers(1, 10**6), min_size=1, max_size=6),
    )
    def test_gate_of_independent_counts_is_closed(self, u, v):
        counts = np.outer(np.array(u, dtype=np.int64), np.array(v, dtype=np.int64))
        t = table([f"a{i}" for i in range(len(u))],
                  [f"l{j}" for j in range(len(v))], counts)
        assert not JointDistribution.from_table(t).gate.any()

    def test_from_table_consistency(self):
        t = table(("f", "m"), ("l1", "l2"), [[3, 1], [2, 4]])
        d = JointDistribution.from_table(t)
        assert d.p_al.sum() == pytest.approx(1.0, abs=1e-12)
        recon = d.p_a_given_l * d.p_l
        assert np.allclose(recon, d.p_al, atol=1e-12)
        recon = d.p_l_given_a * d.p_a[:, None]
        assert np.allclose(recon, d.p_al, atol=1e-12)


class TestRatioError:
    def test_ratio(self, plain_spec):
        captions = [(f"m{i}", f"im{i}", ["a", "man"], None) for i in range(10)]
        captions += [(f"f{i}", f"if{i}", ["a", "woman"], None) for i in range(5)]
        captions += [("x0", "ix0", ["a", "man", "and", "woman"], None)]
        captions += [("x1", "ix1", ["a", "dog"], None)]
        assert ratio(make_corpus(plain_spec, captions)) == 2.0

    def test_ratio_equal_counts(self, plain_spec):
        captions = [("m0", "im0", ["a", "man"], None), ("f0", "if0", ["a", "woman"], None)]
        assert ratio(make_corpus(plain_spec, captions)) == 1.0

    def test_ratio_zero_denominator(self, plain_spec):
        captions = [("m0", "im0", ["a", "man"], None)]
        with pytest.raises(CorpusError):
            ratio(make_corpus(plain_spec, captions))

    @pytest.mark.parametrize("values", [("none", "some"), ("female", "mixed")])
    def test_values_named_like_the_no_or_mixed_case(self, values):
        # captions naming the first value, the second, nothing, and both
        spec = AttributeSpec(
            name="named", values=values, mask_token="<m>",
            word_lists={values[0]: ("alpha",), values[1]: ("beta",)},
        )
        corpus = make_corpus(spec, [
            ("c0", "i0", ["an", "alpha"], None),
            ("c1", "i1", ["a", "beta"], None),
            ("c2", "i2", ["a", "dog"], None),
            ("c3", "i3", ["alpha", "and", "beta"], None),
        ])
        assert corpus.mentions.tolist() == [0, 1, -1, -2]
        assert ratio(corpus) == 1.0

    def test_error_all_agree(self, plain_spec):
        captions = [("c0", "i0", ["a", "man"], "male"), ("c1", "i1", ["a", "woman"], "female")]
        assert error_rate(make_corpus(plain_spec, captions)) == 0.0

    def test_error_one_of_four(self, plain_spec):
        captions = [
            ("c0", "i0", ["a", "man"], "male"),
            ("c1", "i1", ["a", "man"], "male"),
            ("c2", "i2", ["a", "woman"], "female"),
            ("c3", "i3", ["a", "man"], "female"),
        ]
        assert error_rate(make_corpus(plain_spec, captions)) == 0.25

    def test_error_mixed_excluded(self, plain_spec):
        captions = [
            ("c0", "i0", ["a", "man"], "male"),
            ("c1", "i1", ["man", "woman"], "male"),
        ]
        assert error_rate(make_corpus(plain_spec, captions)) == 0.0


# ---------------------------------------------------------------- oracles
#
# Plain-Python recounts that know nothing of the package's counting code:
# every (caption, value, word) event is enumerated directly.

# The plain_spec fixture as a constant: hypothesis tests take no
# function-scoped fixtures.
SPEC = AttributeSpec(
    name="gender", values=("female", "male"), mask_token="<gender>",
    word_lists={"female": ("woman",), "male": ("man",)},
    plural_overrides={"woman": "women", "man": "men"},
)
GENDERED = {"female": {"woman", "women"}, "male": {"man", "men"}}
CONTENT = ("a", "b", "c", "d", "e")

tokens_st = st.lists(
    st.sampled_from(CONTENT + ("woman", "women", "man", "men")),
    min_size=1, max_size=6,
)
records_st = st.lists(
    st.tuples(
        tokens_st,
        st.sampled_from(("female", "male")),
        st.frozensets(st.sampled_from(CONTENT), max_size=3),
    ),
    max_size=12,
)
words_st = st.lists(st.sampled_from(CONTENT), min_size=1, max_size=4, unique=True)


def _corpus_with_objects(spec, rows, attributes=True):
    """rows: (tokens, attribute, object labels), one image per caption."""
    corpus = make_corpus(spec, [
        (f"c{i}", f"i{i}", tokens, attr if attributes else None)
        for i, (tokens, attr, _) in enumerate(rows)
    ])
    objects = {f"i{i}": labels for i, (_, _, labels) in enumerate(rows)}
    return replace(corpus, object_annotations=objects)


def _only_value(tokens):
    hits = [v for v, ws in GENDERED.items() if set(tokens) & ws]
    return hits[0] if len(hits) == 1 else None


# The two readings of a caption's attribute value: the one value it names, or
# its image's annotation.
VALUES = {"mentions": lambda corpus: corpus.mentions, "annotation": annotated}
values_st = st.sampled_from(sorted(VALUES))


def _brute_counts(corpus, words, kind, forms=None, objects=False):
    counts = [[0] * len(words) for _ in corpus.attribute_spec.values]
    for record in corpus.records:
        if kind == "annotation":
            value = record.attribute
        else:
            value = _only_value(record.tokens)
        if value is None:
            continue
        seen = (
            corpus.object_annotations[record.image_id] if objects
            else set(record.tokens)
        )
        row = counts[corpus.attribute_spec.values.index(value)]
        for j, word in enumerate(words):
            surface = forms[word] if forms is not None else {word}
            if surface & seen:
                row[j] += 1
    return counts


class TestCountOracle:
    @settings(max_examples=150, deadline=None)
    @given(rows=records_st, words=words_st, kind=values_st)
    def test_token_words(self, rows, words, kind):
        corpus = _corpus_with_objects(SPEC, rows)
        out = count_cooccurrence(corpus, TaskWordSet(tuple(words)), VALUES[kind](corpus))
        assert out.counts.tolist() == _brute_counts(corpus, words, kind)

    @settings(max_examples=150, deadline=None)
    @given(rows=records_st, words=words_st, kind=values_st)
    def test_object_labels(self, rows, words, kind):
        corpus = _corpus_with_objects(SPEC, rows)
        out = count_cooccurrence(
            corpus, TaskWordSet(tuple(words)), VALUES[kind](corpus), objects=True
        )
        assert out.counts.tolist() == _brute_counts(
            corpus, words, kind, objects=True
        )

    @settings(max_examples=150, deadline=None)
    @given(
        rows=records_st, words=words_st, kind=values_st,
        extra=st.lists(st.frozensets(st.sampled_from(CONTENT), max_size=3),
                       min_size=4, max_size=4),
    )
    def test_lexicon(self, rows, words, kind, extra):
        # each label's forms include the label, as the CLI loads a lexicon
        lexicon = {w: forms | {w} for w, forms in zip(words, extra)}
        corpus = _corpus_with_objects(SPEC, rows)
        out = count_cooccurrence(
            corpus, TaskWordSet(tuple(words)), VALUES[kind](corpus),
            synonyms=lexicon,
        )
        assert out.counts.tolist() == _brute_counts(
            corpus, words, kind, forms=lexicon
        )

    def test_lexicon_by_hand(self):
        lexicon = {
            "dog": frozenset({"dog", "puppy", "pet"}),
            "cat": frozenset({"cat", "kitten", "pet"}),
        }
        corpus = make_corpus(SPEC, [
            ("c1", "i1", ["woman", "pet"], "female"),             # shared form
            ("c2", "i2", ["man", "dog"], "male"),                 # own name
            ("c3", "i3", ["man", "puppy", "dog", "puppy"], "male"),  # once
            ("c4", "i4", ["woman", "kitten"], "male"),
        ])
        words = TaskWordSet(("dog", "cat"))
        by_words = count_cooccurrence(
            corpus, words, corpus.mentions, synonyms=lexicon
        )
        assert by_words.counts.tolist() == [[1, 2], [2, 0]]
        by_annotation = count_cooccurrence(
            corpus, words, annotated(corpus), synonyms=lexicon
        )
        assert by_annotation.counts.tolist() == [[1, 1], [2, 1]]

    def test_label_is_its_own_form(self):
        corpus = make_corpus(SPEC, [
            ("c1", "i1", ["woman", "dog"], "female"),
            ("c2", "i2", ["man", "puppy"], "male"),
        ])
        out = count_cooccurrence(
            corpus, TaskWordSet(("dog",)),
            annotated(corpus), synonyms={"dog": frozenset({"puppy"})},
        )
        assert out.counts.tolist() == [[1], [1]]

    def test_missing_object_annotations(self):
        corpus = make_corpus(SPEC, [("c1", "i1", ["woman", "a"], "female")])
        labels = TaskWordSet(("a",))
        with pytest.raises(CorpusError, match="requires object annotations"):
            count_cooccurrence(corpus, labels, annotated(corpus), objects=True)
        partial = replace(corpus, object_annotations={"other": frozenset({"a"})})
        with pytest.raises(CorpusError, match="has no object annotation"):
            count_cooccurrence(partial, labels, annotated(partial), objects=True)

    def test_missing_annotation_in_lexicon_mode(self):
        corpus = make_corpus(SPEC, [
            ("c1", "i1", ["woman", "a"], "female"),
            ("c2", "i2", ["man", "a"], None),
        ])
        words = TaskWordSet(("a",))
        with pytest.raises(CorpusError, match="annotation"):
            count_cooccurrence(
                corpus, words, annotated(corpus),
                synonyms={"a": frozenset({"a"})},
            )


class TestSelectTaskWordsOracle:
    @settings(max_examples=150, deadline=None)
    @given(rows=records_st, kind=values_st, top_k=st.integers(1, 6),
           min_per_value=st.integers(0, 3))
    def test_table_is_the_count_of_the_kept_words(self, rows, kind, top_k,
                                                  min_per_value):
        corpus = _corpus_with_objects(SPEC, rows)
        values = VALUES[kind](corpus)
        freq = {}
        for tokens, _, _ in rows:
            for token in tokens:
                freq[token] = freq.get(token, 0) + 1
        gendered = set().union(*GENDERED.values())
        candidates = sorted(
            (t for t in freq if t not in gendered), key=lambda t: (-freq[t], t)
        )[:top_k]
        if not candidates:
            with pytest.raises(CorpusError, match="no task-word candidates"):
                select_task_words(corpus, values, top_k, min_per_value)
            return
        counts = _brute_counts(corpus, candidates, kind)
        kept = tuple(
            w for j, w in enumerate(candidates)
            if all(row[j] >= min_per_value for row in counts)
        )
        if not kept:
            with pytest.raises(CorpusError, match="min_per_value"):
                select_task_words(corpus, values, top_k, min_per_value)
            return
        out = select_task_words(corpus, values, top_k, min_per_value)
        assert out.words == kept
        recount = count_cooccurrence(corpus, TaskWordSet(kept), values)
        assert out.counts.tolist() == recount.counts.tolist()


class TestPresence:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=records_st,
        # a form may list several columns, and two forms may share one
        columns=st.dictionaries(
            st.sampled_from(CONTENT + ("woman", "men", "absent")),
            st.lists(st.integers(0, 6), min_size=1, max_size=3),
            max_size=6,
        ),
        data=st.data(),
    )
    def test_keys_are_the_caption_column_pairs(self, rows, columns, data):
        corpus = _corpus_with_objects(SPEC, rows)
        # a negative start drops its caption; one near 2**31 needs int64 keys
        start = data.draw(st.lists(st.one_of(st.integers(-3, 40), st.just(2**31 - 2)),
                                   min_size=len(rows), max_size=len(rows)))
        keys = corpus.token_table.present(columns, np.array(start, dtype=np.int64))
        assert keys.tolist() == sorted({
            s + j
            for s, record in zip(start, corpus.records) if s >= 0
            for token in record.tokens for j in columns.get(token, ())
        })

    @settings(max_examples=150, deadline=None)
    @given(rows=records_st, n_images=st.integers(1, 4))
    def test_object_table_holds_each_records_image_labels(self, rows, n_images):
        # captions share images, and the last image has no annotation
        corpus = make_corpus(SPEC, [
            (f"c{i}", f"i{i % n_images}", tokens, attr)
            for i, (tokens, attr, _) in enumerate(rows)
        ])
        objects = {f"i{k}": rows[k][2] for k in range(min(n_images - 1, len(rows)))}
        table = replace(corpus, object_annotations=objects).object_table
        assert len(set(table.tokens)) == len(table.tokens)
        assert table.ids.dtype == np.int32
        starts = table.starts.tolist()
        labels = [[table.tokens[i] for i in table.ids[a:b]] for a, b in zip(starts, starts[1:])]
        assert [sorted(ls) for ls in labels] == [
            sorted(objects.get(record.image_id, ())) for record in corpus.records
        ]


# ---------------------------------------------------------------- invariants

LEXICON = {
    "a": frozenset({"a", "b"}), "c": frozenset({"c", "d"}), "e": frozenset({"e"}),
}


def _metrics(human, generated, words):
    """BA, DBA_G, DBA_O, Ratio and Error of a pair, each read as
    `cli.run_metrics` reads it; None where the pair leaves it undefined."""
    word_set, labels = TaskWordSet(tuple(words)), TaskWordSet(tuple(sorted(LEXICON)))

    def dist(corpus, word_set, values, **options):
        return JointDistribution.from_table(
            count_cooccurrence(corpus, word_set, values, **options)
        )

    metrics = {
        "ba": lambda: ba_from_tables(
            count_cooccurrence(human, word_set, human.mentions),
            count_cooccurrence(generated, word_set, generated.mentions),
        ),
        "dba_g": lambda: dba(
            dist(human, word_set, human.mentions, objects=True),
            dist(generated, word_set, generated.mentions, objects=True),
            DbaDirection.GENDER_GIVEN_OBJECT,
        ),
        "dba_o": lambda: dba(
            dist(human, labels, annotated(human), synonyms=LEXICON),
            dist(generated, labels, annotated(generated), synonyms=LEXICON),
            DbaDirection.OBJECT_GIVEN_GENDER,
        ),
        "ratio": lambda: ratio(generated),
        "error": lambda: error_rate(generated),
    }
    out = {}
    for name, metric in metrics.items():
        try:
            out[name] = metric()
        except CorpusError:
            out[name] = None
    return out


class TestInvariants:
    @settings(max_examples=150, deadline=None)
    @given(rows=records_st, words=words_st)
    def test_same_corpus_on_both_sides_is_zero(self, rows, words):
        corpus = _corpus_with_objects(SPEC, rows)
        out = _metrics(corpus, corpus, words)
        for name in ("ba", "dba_g", "dba_o"):
            assert out[name] in (None, 0.0)

    @settings(max_examples=150, deadline=None)
    @given(human=records_st, generated=records_st, words=words_st)
    def test_caption_order_changes_nothing(self, human, generated, words):
        forward = _metrics(
            _corpus_with_objects(SPEC, human), _corpus_with_objects(SPEC, generated),
            words,
        )
        backward = _metrics(
            _corpus_with_objects(SPEC, human[::-1]),
            _corpus_with_objects(SPEC, generated[::-1]),
            words,
        )
        assert forward == backward

    @settings(max_examples=150, deadline=None)
    @given(rows=records_st)
    def test_swapping_the_values_inverts_ratio(self, rows):
        swapped = replace(SPEC, values=SPEC.values[::-1])
        named = [_only_value(tokens) for tokens, _, _ in rows]
        assume(named.count("female") and named.count("male"))
        forward = ratio(_corpus_with_objects(SPEC, rows))
        backward = ratio(_corpus_with_objects(swapped, rows))
        assert backward == pytest.approx(1 / forward, rel=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(human=records_st, generated=records_st, words=words_st,
           names=st.lists(st.text(min_size=1, max_size=8), min_size=2, max_size=2,
                          unique=True))
    def test_renaming_the_values_changes_nothing(self, human, generated, words, names):
        rename = dict(zip(SPEC.values, names))
        renamed = replace(
            SPEC, values=tuple(names),
            word_lists={rename[v]: w for v, w in SPEC.word_lists.items()},
        )

        def pair(spec, rename):
            return [
                _corpus_with_objects(spec, [(t, rename[a], o) for t, a, o in rows])
                for rows in (human, generated)
            ]

        same = {v: v for v in SPEC.values}
        assert _metrics(*pair(renamed, rename), words) == _metrics(*pair(SPEC, same), words)


class TestRatioErrorOracle:
    @settings(max_examples=150, deadline=None)
    @given(rows=records_st)
    def test_ratio(self, rows):
        corpus = _corpus_with_objects(SPEC, rows)
        named = [_only_value(tokens) for tokens, _, _ in rows]
        if named.count("female") == 0:
            with pytest.raises(CorpusError, match="ratio undefined"):
                ratio(corpus)
        else:
            assert ratio(corpus) == named.count("male") / named.count("female")

    @settings(max_examples=150, deadline=None)
    @given(rows=records_st, annotated=st.lists(st.booleans(), min_size=12,
                                               max_size=12))
    def test_error_rate(self, rows, annotated):
        corpus = make_corpus(SPEC, [
            (f"c{i}", f"i{i}", tokens, attr if keep else None)
            for i, ((tokens, attr, _), keep) in enumerate(zip(rows, annotated))
        ])
        total = wrong = 0
        for record in corpus.records:
            hits = [v for v, ws in GENDERED.items() if set(record.tokens) & ws]
            if record.attribute is None or len(hits) != 1:
                continue
            total += 1
            wrong += hits[0] != record.attribute
        if total == 0:
            with pytest.raises(CorpusError, match="error undefined"):
                error_rate(corpus)
        else:
            assert error_rate(corpus) == wrong / total
