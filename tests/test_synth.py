import pytest

from capbias.cooccur import (
    TaskWordSet,
    annotated,
    ba_from_tables,
    count_cooccurrence,
)
from capbias.corpus import CorpusError, Source, load_corpus
from capbias.synth import (
    SynthSpec,
    attribute_spec_for,
    bayes_accuracy,
    expected_ba,
    generate,
    generate_pair,
    marker_task_words,
    write_corpus_files,
)


class TestSpecValidation:
    def test_probability_range(self):
        with pytest.raises(CorpusError):
            SynthSpec(n_images=10, marker_probability=0.4)
        with pytest.raises(CorpusError):
            SynthSpec(n_images=10, marker_probability=1.1)

    def test_marker_values_must_match(self):
        with pytest.raises(CorpusError):
            SynthSpec(n_images=10, marker_probability=0.8,
                      marker_words={"female": ("umbrella",)})

    def test_marker_disjointness(self):
        with pytest.raises(CorpusError):
            SynthSpec(n_images=10, marker_probability=0.8,
                      marker_words={"female": ("x",), "male": ("x",)})


class TestGenerate:
    def test_balanced_assignment(self):
        corpus = generate(SynthSpec(n_images=101, marker_probability=0.7))
        counts = {}
        for record in corpus.records:
            counts[record.attribute] = counts.get(record.attribute, 0) + 1
        assert counts == {"female": 51, "male": 50}

    def test_one_caption_per_image(self):
        corpus = generate(SynthSpec(n_images=50, marker_probability=0.7))
        images = [r.image_id for r in corpus.records]
        assert len(set(images)) == len(images) == 50

    def test_exactly_one_marker_per_caption(self):
        spec = SynthSpec(n_images=100, marker_probability=0.8, seed=2)
        markers = set(marker_task_words(spec))
        for record in generate(spec).records:
            assert sum(t in markers for t in record.tokens) == 1

    def test_lengths_in_range(self):
        spec = SynthSpec(n_images=200, marker_probability=0.6,
                         caption_length_range=(4, 7), seed=3)
        lengths = {len(r.tokens) for r in generate(spec).records}
        assert lengths <= set(range(4, 8))
        assert len(lengths) > 1

    def test_deterministic(self):
        spec = SynthSpec(n_images=60, marker_probability=0.75, seed=9)
        assert list(generate(spec).records) == list(generate(spec).records)

    def test_marker_rate_matches_theta(self):
        spec = SynthSpec(n_images=10000, marker_probability=0.8, seed=4)
        corpus = generate(spec)
        agree = 0
        for record in corpus.records:
            own = set(spec.marker_words[record.attribute])
            agree += bool(set(record.tokens) & own)
        assert agree / len(corpus) == pytest.approx(0.8, abs=0.02)

    def test_pair_shares_annotations(self):
        human, generated = generate_pair(
            SynthSpec(n_images=80, marker_probability=0.6, seed=1),
            SynthSpec(n_images=80, marker_probability=0.9, seed=2),
        )
        assert human.image_ids == generated.image_ids
        assert human.images.tolist() == generated.images.tolist()
        assert human.labels.tolist() == generated.labels.tolist()
        assert {r.source for r in generated.records} == {Source.MODEL}


class TestClosedForms:
    def test_expected_ba_cases(self):
        h = SynthSpec(n_images=10, marker_probability=0.75)
        g = SynthSpec(n_images=10, marker_probability=0.9)
        assert expected_ba(h, g) == pytest.approx(0.15)
        assert expected_ba(g, h) == pytest.approx(-0.15)

    def test_expected_ba_boundary_theta_half(self):
        # at theta_human = 1/|A| the strict gate excludes every cell
        h = SynthSpec(n_images=10, marker_probability=0.5)
        g = SynthSpec(n_images=10, marker_probability=0.9)
        assert expected_ba(h, g) == 0.0

    def test_bayes_accuracy(self):
        assert bayes_accuracy(SynthSpec(n_images=10, marker_probability=0.85)) == 0.85

    def test_measured_ba_near_closed_form(self):
        h_spec = SynthSpec(n_images=10000, marker_probability=0.7, seed=11)
        g_spec = SynthSpec(n_images=10000, marker_probability=0.85, seed=22)
        human, generated = generate_pair(h_spec, g_spec)
        words = TaskWordSet(marker_task_words(h_spec))
        gt = count_cooccurrence(human, words, annotated(human))
        gen = count_cooccurrence(generated, words, annotated(generated))
        measured = ba_from_tables(gt, gen)
        assert measured == pytest.approx(expected_ba(h_spec, g_spec), abs=0.02)


def test_file_roundtrip(tmp_path):
    spec = SynthSpec(n_images=40, marker_probability=0.7, seed=5)
    corpus = generate(spec)
    cap, ann = tmp_path / "captions.jsonl", tmp_path / "annotations.jsonl"
    write_corpus_files(corpus, cap, ann)
    reloaded = load_corpus(cap, ann, attribute_spec_for(spec))
    assert list(reloaded.records) == list(corpus.records)
    assert reloaded.content_hash() == corpus.content_hash()
