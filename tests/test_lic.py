import math
import os
import random
from collections import Counter
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capbias import classifier as clf
from capbias import lic as lic_module
from capbias.classifier import ClassifierConfig
from capbias.corpus import AttributeSpec, Corpus, CorpusError, Source, balanced_image_split
from capbias.lic import (
    MetricReport,
    ProtocolConfig,
    derive_seed,
    leakage,
    lic,
    lic_component,
    run_protocol,
    sc_accuracy,
)
from capbias.masking import Masker
from capbias.synth import SynthSpec, generate_pair
from capbias.vocab import OOV_INDEX, align_to_prediction_vocab, build_vocab
from conftest import make_corpus


def constant_rows(probs, n):
    """The confidence rows of a classifier that outputs `probs` for each of
    n captions."""
    return np.tile(np.asarray(probs, dtype=np.float64), (n, 1))


class TestArithmetic:
    def test_lic_difference(self):
        assert lic(49.3, 44.0) == pytest.approx(5.3)

    def test_leakage_difference(self):
        assert leakage(0.93, 0.88) == pytest.approx(0.05)

    def test_derive_seed_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)
        assert derive_seed(8, 3) != derive_seed(7, 3)
        assert 0 <= derive_seed(0, 0) < 2 ** 64


class TestLicComponent:
    def test_constant_three_class(self):
        probs = constant_rows([0.34, 0.33, 0.33], 10)
        labels = [0] * 10
        # always predicts class 0 with confidence 0.34, always correct
        assert lic_component(probs, labels) == pytest.approx(34.0, abs=1e-9)

    def test_constant_wrong_class_scores_zero(self):
        probs = constant_rows([0.9, 0.1], 2)
        assert lic_component(probs, [1, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_saturated_correct(self):
        probs = constant_rows([1 - 1e-12, 1e-12], 1)
        assert lic_component(probs, [0]) == pytest.approx(100.0, abs=1e-6)

    def test_mixed_labels(self):
        probs = constant_rows([0.8, 0.2], 4)
        # half the labels correct (conf 0.8), half wrong (contribute 0)
        out = lic_component(probs, [0, 1, 0, 1])
        assert out == pytest.approx(40.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(CorpusError):
            lic_component(constant_rows([0.5, 0.5], 0), [])


class TestScAccuracy:
    def test_constant_predictor(self):
        probs = constant_rows([0.7, 0.3], 4)
        assert sc_accuracy(probs, [0, 0, 1, 1]) == pytest.approx(0.5)


class TestMetricReport:
    def test_mean_and_sample_std(self):
        report = MetricReport.from_samples("x", [1.0, 2.0, 3.0], {})
        assert report.mean == pytest.approx(2.0)
        assert report.std == pytest.approx(1.0)  # sample (n-1) convention

    def test_single_seed_flagged(self, small_pair, caplog):
        report = MetricReport.from_samples("x", [4.2], {})
        assert report.std is None
        assert math.isclose(report.mean, 4.2)
        # One warning per protocol run names all five metrics.
        with caplog.at_level("WARNING"):
            reports = run_protocol(*small_pair, small_protocol(n_seeds=1))
        flagged = [m for m in caplog.messages if "single seed" in m]
        assert len(flagged) == 1
        assert all(name in flagged[0] for name in reports)
        for report in reports.values():
            assert report.std is None
            assert report.mean == report.per_seed[0]


@pytest.fixture(scope="module")
def small_pair():
    human = SynthSpec(n_images=200, marker_probability=0.6, seed=11)
    generated = SynthSpec(n_images=200, marker_probability=0.95, seed=22)
    return generate_pair(human, generated)


def small_protocol(n_seeds=2):
    return ProtocolConfig(
        n_seeds=n_seeds,
        classifier=ClassifierConfig(
            embed_dim=16, hidden_dim=16, epochs=4, learning_rate=0.005
        ),
        test_fraction=0.1,
    )


class TestRunProtocol:
    def test_report_structure(self, small_pair):
        human, generated = small_pair
        reports = run_protocol(human, generated, small_protocol(), master_seed=3)
        assert set(reports) == {"lic_d", "lic_m", "lic", "sc", "leakage"}
        for report in reports.values():
            assert len(report.per_seed) == 2
            assert report.std is not None
        assert reports["lic"].mean == pytest.approx(
            reports["lic_m"].mean - reports["lic_d"].mean, abs=1e-9
        )
        assert 0.0 <= reports["sc"].mean <= 1.0
        assert reports["lic_m"].provenance["scale"] == "x100"

    def test_deterministic(self, small_pair):
        human, generated = small_pair
        a = run_protocol(human, generated, small_protocol(), master_seed=5)
        b = run_protocol(human, generated, small_protocol(), master_seed=5)
        for name in a:
            assert a[name].per_seed == b[name].per_seed

    def test_master_seed_changes_runs(self, small_pair):
        human, generated = small_pair
        a = run_protocol(human, generated, small_protocol(), master_seed=5)
        b = run_protocol(human, generated, small_protocol(), master_seed=6)
        assert a["lic_m"].per_seed != b["lic_m"].per_seed

    def test_mismatched_specs_rejected(self, small_pair):
        human, _ = small_pair
        other = SynthSpec(n_images=200, marker_probability=0.6,
                          values=("a", "b"),
                          marker_words={"a": ("umbrella",), "b": ("skateboard",)})
        from capbias.synth import generate
        with pytest.raises(CorpusError):
            run_protocol(human, generate(other), small_protocol())

    @pytest.mark.parametrize("side", [0, 1])
    def test_independent_of_record_order(self, small_pair, side):
        # Training batches follow row order, so the protocol takes the
        # records by caption id, as the corpus hash does.
        pair = list(small_pair)
        records = list(pair[side].records)
        random.Random(side).shuffle(records)
        pair[side] = Corpus.from_records(records, pair[side].attribute_spec)
        a = run_protocol(*small_pair, small_protocol(), master_seed=5)
        b = run_protocol(*pair, small_protocol(), master_seed=5)
        for name in a:
            assert a[name].per_seed == b[name].per_seed
            assert a[name].provenance == b[name].provenance

    def test_human_label_disagreeing_with_generated_rejected(self, plain_spec):
        generated = make_corpus(plain_spec, [(f"g{i}", f"i{i}", ["a"], v) for i, v
                                             in enumerate(["female", "male"] * 2)],
                                Source.MODEL)
        human = make_corpus(plain_spec, [("h0", "i0", ["b"], "female"),
                                         ("h2", "i2", ["b"], "male")])
        with pytest.raises(CorpusError,
                           match="^image 'i2' is annotated both 'female' and 'male'$"):
            run_protocol(human, generated, small_protocol(), master_seed=1)

    def test_conflicting_image_attributes_rejected(self, plain_spec):
        # two generated captions of image i1
        generated = make_corpus(plain_spec, [("g0", "i0", ["a"], "female"),
                                             ("g1", "i1", ["b"], "male"),
                                             ("g1b", "i1", ["c"], "female"),
                                             ("g2", "i2", ["d"], "male")], Source.MODEL)
        with pytest.raises(CorpusError,
                           match="^image 'i1' is annotated both '(fe)?male' and '(fe)?male'$"):
            run_protocol(make_corpus(plain_spec, [("h0", "i0", ["a"], "female")]),
                         generated, small_protocol(), master_seed=1)

    def test_human_labels_off_the_split_are_not_checked(self, plain_spec):
        # Image i9, which no generated caption annotates, enters no split.
        captions = [(f"c{i}", f"i{i}", ["a", f"w{i}"], v)
                    for i, v in enumerate(["female", "male"] * 4)]
        generated = make_corpus(plain_spec, captions, Source.MODEL)
        human = make_corpus(plain_spec, [*captions, ("x1", "i9", ["b"], "female"),
                                         ("x2", "i9", ["c"], "male")])
        reports = run_protocol(human, generated, small_protocol(n_seeds=1), master_seed=1)
        assert len(reports["lic"].per_seed) == 1

    def test_single_seed_reports_no_std(self, small_pair):
        human, generated = small_pair
        reports = run_protocol(human, generated, small_protocol(n_seeds=1))
        assert reports["lic"].std is None
        assert len(reports["lic"].per_seed) == 1


def oracle_encode(corpus, image_ids, vocabulary, masker, align):
    """Per-caption encoding of one split: each caption masked, aligned to the
    prediction vocabulary when `align` is set, and encoded on its own, in
    `caption_id` order."""
    value_index = {v: i for i, v in enumerate(corpus.attribute_spec.values)}
    sequences, labels = [], []
    for record in sorted(corpus.records, key=lambda r: r.caption_id):
        if record.image_id not in image_ids or record.attribute is None:
            continue
        tokens = masker.mask(record.tokens)
        if align:
            tokens = align_to_prediction_vocab(tokens, vocabulary)
        sequences.append(vocabulary.encode(tokens))
        labels.append(value_index[record.attribute])
    return sequences, labels


def oracle_sets(human, generated, config, master_seed):
    """Per seed and side ("d" human, "m" generated), the train and test
    sequences and labels, computed caption by caption."""
    spec = human.attribute_spec
    masker = Masker(spec)
    annotations = {r.image_id: r.attribute for r in generated.records if r.attribute}
    image_ids = list(annotations)
    labels = np.array([spec.values.index(annotations[i]) for i in image_ids])
    out = []
    for run in range(config.n_seeds):
        in_train, in_test = balanced_image_split(
            image_ids, labels, spec.values, config.test_fraction,
            derive_seed(master_seed, 3 * run),
        )
        train_ids = {image_ids[i] for i in np.flatnonzero(in_train)}
        test_ids = {image_ids[i] for i in np.flatnonzero(in_test)}
        v_pre = build_vocab(
            Counter(chain.from_iterable(masker.mask(r.tokens) for r in generated.records
                                        if r.image_id in train_ids)),
            mask_token=spec.mask_token,
        )
        for corpus, align in ((human, True), (generated, False)):
            out.append((
                oracle_encode(corpus, train_ids, v_pre, masker, align),
                oracle_encode(corpus, test_ids, v_pre, masker, align),
            ))
    return out


def unpack(packed):
    return [packed.tokens[o:o + n].tolist() for o, n in zip(packed.offsets, packed.lengths)]


def recorded_sets(human, generated, config, master_seed):
    """Per seed and side, as `oracle_sets` gives them, the train and test
    sequences and labels that `run_protocol` hands to the classifier. The
    spies see only this process's calls, so the report trains in one."""
    seen = []
    train, predict = clf.train, clf.predict_proba

    def record_train(model, sequences, labels, *args):
        seen.append(("train", unpack(sequences), np.asarray(labels).tolist()))
        return train(model, sequences, labels, *args)

    def record_predict(model, sequences):
        seen.append(("test", unpack(sequences)))
        return predict(model, sequences)

    def record_component(probs, labels):
        seen.append(("score", np.asarray(labels).tolist()))
        return lic_component(probs, labels)

    with pytest.MonkeyPatch.context() as monkeypatch, \
            mock.patch.object(clf, "train", record_train), \
            mock.patch.object(clf, "predict_proba", record_predict), \
            mock.patch.object(lic_module, "lic_component", record_component):
        monkeypatch.setattr(lic_module, "_n_workers", lambda n_jobs: 1)
        run_protocol(human, generated, config, master_seed=master_seed)
    assert [kind for kind, *_ in seen] == ["train", "test", "score"] * (2 * config.n_seeds)
    return [
        ((train_x, train_y), (test_x, test_y))
        for (_, train_x, train_y), (_, test_x), (_, test_y)
        in zip(seen[::3], seen[1::3], seen[2::3])
    ]


# The plain_spec fixture as a constant: hypothesis tests take no
# function-scoped fixtures.
SPEC = AttributeSpec(
    name="gender", values=("female", "male"), mask_token="<gender>",
    word_lists={"female": ("woman",), "male": ("man",)},
    plural_overrides={"woman": "women", "man": "men"},
)
WORDS = ("a", "b", "c", "woman", "women", "man", "men", "<oov>", "<pad>", "<gender>")


@st.composite
def random_pairs(draw):
    """Small corpora in shuffled lines: every annotated image has one labelled
    caption per side, images may carry unlabelled captions on either side and
    more human ones, and some images are human-only. Tokens mix content words,
    attribute words and their plurals, and the literal special tokens."""
    caption = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5)
    human, generated = [], []
    for value in SPEC.values:
        for i in range(draw(st.integers(2, 4))):
            img = f"{value}{i}"
            generated.append((img, draw(caption), value))
            human.append((img, draw(caption), value))
            for _ in range(draw(st.integers(0, 2))):
                human.append((img, draw(caption), draw(st.sampled_from((value, None)))))
            if draw(st.booleans()):
                generated.append((img, draw(caption), None))
    for i in range(draw(st.integers(0, 2))):
        human.append((f"human_only{i}", draw(caption), draw(st.sampled_from(SPEC.values))))
    corpora = []
    for prefix, rows, source in (("h", human, Source.HUMAN), ("g", generated, Source.MODEL)):
        rows = [(f"{prefix}{k}", *row) for k, row in enumerate(rows)]
        corpora.append(make_corpus(SPEC, draw(st.permutations(rows)), source=source))
    return tuple(corpora)


@pytest.fixture
def mixed_pair(plain_spec):
    """Hand-built corpora with what the protocol's encoding must get right:
    attribute words to mask, a word unique to each image (so every test
    image has tokens the train split never saw), literal "<oov>", "<pad>"
    and mask tokens, captions with no attribute on split images on both
    sides, and human captions of images the generated corpus lacks."""
    human, generated = [], []
    for i in range(24):
        value = ("female", "male")[i % 2]
        word = ("woman", "man")[i % 2]
        img = f"img{i}"
        generated.append((f"g{i}", img, ["a", word, f"only{i}", "rides"], value))
        for k in range(3):
            tokens = ["the", word if k else "person", f"only{i}", f"h{k}"]
            if i % 5 == 0:
                tokens.append(("<oov>", "<pad>", "<gender>")[k])
            human.append((f"h{i}_{k}", img, tokens, value if i % 7 else None))
        if i % 6 == 0:
            generated.append((f"g{i}_none", img, ["<pad>", "women", f"gen{i}"], None))
    for i in range(4):
        human.append((f"x{i}", f"human_only{i}", ["a", "men", "zzz"], "male"))
    return (make_corpus(plain_spec, human),
            make_corpus(plain_spec, generated, source=Source.MODEL))


class TestEncodeOnce:
    @staticmethod
    def _config(n_seeds):
        return ProtocolConfig(
            n_seeds=n_seeds,
            classifier=ClassifierConfig(embed_dim=4, hidden_dim=4, epochs=1,
                                        batch_size=8),
            test_fraction=0.25,
        )

    @pytest.mark.parametrize("master_seed", [1, 3])
    def test_sets_match_per_caption_encoding(self, mixed_pair, master_seed):
        human, generated = mixed_pair
        config = self._config(3)
        sets = recorded_sets(human, generated, config, master_seed)
        assert sets == oracle_sets(human, generated, config, master_seed)
        # Test images carry words the train split never saw.
        assert sum(row.count(OOV_INDEX) for _, (test_x, _) in sets for row in test_x) > 0

    @settings(max_examples=40, deadline=None)
    @given(pair=random_pairs(), master_seed=st.integers(0, 2**32 - 1))
    def test_sets_match_oracle_on_random_pairs(self, pair, master_seed):
        human, generated = pair
        config = self._config(2)
        sets = recorded_sets(human, generated, config, master_seed)
        assert sets == oracle_sets(human, generated, config, master_seed)

    @pytest.mark.parametrize("n_seeds", [1, 3])
    def test_each_corpus_masked_once_per_report(self, mixed_pair, monkeypatch,
                                                n_seeds):
        human, generated = mixed_pair
        calls = []
        mask = Masker.mask

        def counted(self, tokens):
            calls.append(tokens)
            return mask(self, tokens)

        monkeypatch.setattr(Masker, "mask", counted)
        run_protocol(human, generated, self._config(n_seeds), master_seed=2)
        assert calls == [human.token_table.tokens, generated.token_table.tokens]
        for corpus, tokens in zip((human, generated), calls):
            assert len(set(tokens)) == len(tokens)
            assert set(tokens) == {t for r in corpus.records for t in r.tokens}


class TestRunJobs:
    """`_run_jobs` in one process and in two, the second forked."""

    @staticmethod
    def _workers(monkeypatch, n):
        monkeypatch.setattr(lic_module, "_n_workers", lambda n_jobs: min(n_jobs, n))

    @staticmethod
    def _no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n", [1, 2])
    def test_results_in_job_order(self, monkeypatch, n):
        self._workers(monkeypatch, n)
        parent = os.getpid()
        jobs = [lambda j=j: (j, os.getpid() == parent) for j in range(7)]
        results = list(lic_module._run_jobs(jobs, [3, 9, 1, 4, 4, 8, 2]))
        self._no_child_left()
        assert [j for j, _ in results] == list(range(7))
        # Largest first, each to the least loaded, ties to this process: it
        # takes jobs 1 (size 9), 4 (4), 6 (2) and 2 (1), the worker 5 (8),
        # 3 (4) and 0 (3).
        in_parent = {j for j, here in results if here}
        assert in_parent == ({1, 2, 4, 6} if n == 2 else set(range(7)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_meanwhile_runs_once_here_after_this_process_share(self, monkeypatch, n):
        self._workers(monkeypatch, n)
        called = []  # a forked worker's calls do not reach this list
        jobs = [lambda j=j: called.append(j) or j for j in range(7)]
        results = list(lic_module._run_jobs(jobs, [3, 9, 1, 4, 4, 8, 2],
                                            lambda: called.append("meanwhile")))
        assert results == list(range(7))
        assert called == ([1, 2, 4, 6, "meanwhile"] if n == 2
                          else ["meanwhile", *range(7)])

    def test_one_process_calls_each_job_as_its_result_is_read(self, monkeypatch):
        self._workers(monkeypatch, 1)
        called = []
        jobs = [lambda j=j: called.append(j) or j for j in range(3)]
        for j, result in enumerate(lic_module._run_jobs(jobs, [1, 1, 1])):
            assert (result, called) == (j, list(range(j + 1)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_failure_in_job_order_is_raised(self, monkeypatch, n):
        self._workers(monkeypatch, n)

        def fail(j):
            raise clf.ClassifierError(f"job {j} failed")

        # Job 2 is the largest, so this process runs it, and fails, before
        # the worker reaches job 1.
        jobs = [lambda: 0, lambda: fail(1), lambda: fail(2), lambda: 3]
        results = []
        with pytest.raises(clf.ClassifierError, match="^job 1 failed$"):
            for result in lic_module._run_jobs(jobs, [1, 1, 5, 1]):
                results.append(result)
        self._no_child_left()
        assert results == [0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_each_process_stops_at_its_first_failure(self, monkeypatch, tmp_path, n):
        self._workers(monkeypatch, n)
        ran = tmp_path / "ran"

        def run(j):
            with open(ran, "a") as handle:
                handle.write(f"{j}\n")
            if j in (1, 2):
                raise clf.ClassifierError(f"job {j} failed")

        # At W = 2 the worker's share is jobs 0, 1 and 3: it stops at job 1,
        # and this process fails its own share, job 2.
        jobs = [lambda j=j: run(j) for j in range(4)]
        with pytest.raises(clf.ClassifierError, match="^job 1 failed$"):
            list(lic_module._run_jobs(jobs, [1, 1, 5, 1]))
        self._no_child_left()
        assert sorted(ran.read_text().split()) == (["0", "1", "2"] if n == 2 else ["0", "1"])


# OpenBLAS at one thread, the other variables at four
FILLED = {"OMP_NUM_THREADS": "4", "MKL_NUM_THREADS": "4", "OPENBLAS_NUM_THREADS": "1"}


def _show_config(blas):
    """`numpy.show_config` of a numpy built against `blas`; None for a numpy
    older than 1.26, whose `show_config` takes no `mode`."""
    def show_config(*, mode):
        return {"Build Dependencies": {"blas": {"name": blas}}}

    if blas is None:
        return lambda: None
    return show_config


class TestWorkerCount:
    @pytest.fixture(autouse=True)
    def four_cpus_and_openblas(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(np, "show_config", _show_config("scipy-openblas"))
        for var in lic_module.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)

    @pytest.mark.parametrize("env,n_jobs,expected", [
        ({}, 6, 1),  # BLAS takes every CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 6, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
        # OpenBLAS reads its own variable first
        ({"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}, 6, 4),
        ({"MKL_NUM_THREADS": "8"}, 6, 1),
        ({"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "0"}, 6, 2),
    ])
    def test_worker_count(self, monkeypatch, env, n_jobs, expected):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert lic_module._n_workers(n_jobs) == expected

    @pytest.mark.parametrize("blas,env,expected", [
        ("mkl-sdl", {"MKL_NUM_THREADS": "8"}, 1),
        ("mkl-sdl", {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
        ("mkl-sdl", {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}, 2),
        ("mkl-sdl", FILLED, 1),
        # any other BLAS, and a numpy that does not name its BLAS: the largest
        ("accelerate", {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}, 2),
        ("accelerate", FILLED, 1),
        (None, {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}, 2),
        (None, {"OPENBLAS_NUM_THREADS": "1"}, 4),
    ])
    def test_worker_count_of_other_blas(self, monkeypatch, blas, env, expected):
        monkeypatch.setattr(np, "show_config", _show_config(blas))
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert lic_module._n_workers(6) == expected

    @pytest.mark.parametrize("env", [
        {},
        {"OPENBLAS_NUM_THREADS": "1"},
        dict.fromkeys(lic_module.BLAS_THREAD_VARS, "1"),
    ])
    def test_one_usable_cpu_is_one_worker(self, monkeypatch, env):
        # `taskset -c 0`: one process, whatever the BLAS threads
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert lic_module._n_workers(6) == 1
