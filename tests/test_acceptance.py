"""End-to-end acceptance gate.

Each test exercises one release criterion on synthetic or hand-built data
and prints a single PASS line (printed after the assertions, so a failing
criterion produces no line). The heavyweight classifier-protocol criteria
share one calibrated configuration: a small bag-of-embeddings model that
neither underfits (saturation must reach the ceiling) nor overfits (the
no-signal reference must stay near its theoretical value).
"""

import json

import numpy as np
import pytest

from capbias.classifier import ClassifierConfig, init_classifier, gradient_check
from capbias.cli import EXIT_OK, main
from capbias.cooccur import (
    JointDistribution,
    TaskWordSet,
    annotated,
    ba_from_tables,
    count_cooccurrence,
    dba,
    DbaDirection,
)
from capbias.corpus import load_corpus
from capbias.lic import ProtocolConfig, run_protocol
from capbias.masking import Masker, default_gender_spec
from capbias.synth import (
    SynthSpec,
    expected_ba,
    generate_pair,
    marker_task_words,
)
from capbias.vocab import align_to_prediction_vocab, build_vocab
from conftest import write_jsonl

MASTER_SEED = 7
N_IMAGES = 4000

ACCEPTANCE_CLASSIFIER = ClassifierConfig(
    embed_dim=32, hidden_dim=32, learning_rate=0.005, epochs=6
)


def announce(capsys, number, detail):
    with capsys.disabled():
        print(f"[criterion {number:2d}] PASS  {detail}")


def protocol(n_seeds):
    return ProtocolConfig(
        n_seeds=n_seeds, classifier=ACCEPTANCE_CLASSIFIER, test_fraction=0.1
    )


def synth_pair(theta_human, theta_generated, n_images=N_IMAGES):
    return generate_pair(
        SynthSpec(n_images=n_images, marker_probability=theta_human, seed=11),
        SynthSpec(n_images=n_images, marker_probability=theta_generated, seed=22),
    )


def test_criterion_01_unbiased_reference(capsys):
    """No-signal corpus: LIC_M near the 2-class reference value 25."""
    human, generated = synth_pair(0.5, 0.5)
    reports = run_protocol(human, generated, protocol(10), MASTER_SEED)
    lic_m = reports["lic_m"].mean
    lic_val = reports["lic"].mean
    assert 22.0 <= lic_m <= 28.0
    assert abs(lic_val) <= 3.0
    announce(capsys, 1, f"lic_m={lic_m:.2f} in [22,28], |lic|={abs(lic_val):.2f} <= 3")


def test_criterion_02_saturation(capsys):
    """Fully biased generated side: LIC_M and accuracy hit the ceiling."""
    human, generated = synth_pair(0.5, 1.0)
    reports = run_protocol(human, generated, protocol(3), MASTER_SEED)
    lic_m = reports["lic_m"].mean
    lic_val = reports["lic"].mean
    sc = reports["sc"].mean
    assert lic_m >= 90.0
    assert lic_val >= 60.0
    assert sc >= 0.99
    announce(capsys, 2, f"lic_m={lic_m:.2f} >= 90, lic={lic_val:.2f} >= 60, sc={sc:.3f}")


def test_criterion_03_monotonicity(capsys):
    """LIC grows strictly with the generated-side marker correlation."""
    means = []
    for theta_gen in (0.6, 0.75, 0.9):
        human, generated = synth_pair(0.6, theta_gen)
        reports = run_protocol(human, generated, protocol(3), MASTER_SEED)
        means.append(reports["lic"].mean)
    assert means[0] < means[1] < means[2]
    announce(capsys, 3, "lic strictly increasing: "
             + " < ".join(f"{m:.2f}" for m in means))


def test_criterion_04_ba_oracle(capsys):
    # large-sample agreement with the closed form
    h_spec = SynthSpec(n_images=10000, marker_probability=0.7, seed=11)
    g_spec = SynthSpec(n_images=10000, marker_probability=0.85, seed=22)
    human, generated = generate_pair(h_spec, g_spec)
    words = TaskWordSet(marker_task_words(h_spec))
    gt = count_cooccurrence(human, words, annotated(human))
    gen = count_cooccurrence(generated, words, annotated(generated))
    measured = ba_from_tables(gt, gen)
    expected = expected_ba(h_spec, g_spec)
    assert measured == pytest.approx(expected, abs=0.02)

    # exhaustive enumeration on a tiny hand corpus
    h_small, g_small = synth_pair(0.6, 0.9, n_images=20)
    small_words = TaskWordSet(marker_task_words(h_spec))
    gt_s = count_cooccurrence(h_small, small_words, annotated(h_small))
    gen_s = count_cooccurrence(g_small, small_words, annotated(g_small))

    def brute(corpus):
        counts = {}
        for r in corpus.records:
            for w in small_words.words:
                if w in r.tokens:
                    counts[(r.attribute, w)] = counts.get((r.attribute, w), 0) + 1
        return counts
    hc, gc = brute(h_small), brute(g_small)
    total, n_words = 0.0, 0
    for w in small_words.words:
        gt_col = [hc.get(("female", w), 0), hc.get(("male", w), 0)]
        gen_col = [gc.get(("female", w), 0), gc.get(("male", w), 0)]
        if sum(gt_col) == 0 or sum(gen_col) == 0:
            continue
        n_words += 1
        for i in range(2):
            share = gt_col[i] / sum(gt_col)
            if share > 0.5:
                total += gen_col[i] / sum(gen_col) - share
    brute_force = total / n_words
    assert ba_from_tables(gt_s, gen_s) == pytest.approx(brute_force, abs=1e-12)
    announce(capsys, 4, f"ba={measured:.4f} vs closed form {expected:.4f}; "
             "brute force match at 1e-12")


def test_criterion_05_dba_identity_and_sign(capsys):
    p_al = np.array([[0.4, 0.1], [0.1, 0.4]])
    cond = np.array([[0.8, 0.2], [0.2, 0.8]])

    def dist(shift=0.0):
        shifted = cond.copy()
        shifted[0, 0] += shift  # p(f,l1)=0.4 > p(f)p(l1)=0.25: gate open
        return JointDistribution(
            values=("f", "m"), words=("l1", "l2"),
            p_al=p_al, p_a=p_al.sum(axis=1), p_l=p_al.sum(axis=0),
            p_a_given_l=shifted, p_l_given_a=shifted,
            gate=p_al > 0.25,
        )

    base = dist()
    assert dba(base, base, DbaDirection.GENDER_GIVEN_OBJECT) == 0.0
    assert dba(base, base, DbaDirection.OBJECT_GIVEN_GENDER) == 0.0
    shifted = dba(base, dist(0.2), DbaDirection.GENDER_GIVEN_OBJECT)
    assert shifted == pytest.approx(0.2 / 4, abs=1e-12)
    announce(capsys, 5, f"dba(d,d)=0 exact; +0.2 shift -> {shifted:.6f} = 0.05")


def test_criterion_06_leakage_null(capsys):
    """Identical corpora on both sides cannot leak."""
    human, _ = synth_pair(0.7, 0.7)
    reports = run_protocol(human, human, protocol(10), MASTER_SEED)
    value = reports["leakage"].mean
    assert abs(value) <= 0.02
    announce(capsys, 6, f"|leakage|={abs(value):.4f} <= 0.02 over 10 seeds")


def test_criterion_07_gradient_correctness(capsys):
    vocabulary = build_vocab([[f"w{i}" for i in range(30)]], mask_token="<gender>")
    rng = np.random.default_rng(3)
    worst = {}
    for encoder, tolerance in (("bag_mean", 1e-4), ("birecurrent", 1e-3)):
        worst[encoder] = 0.0
        for case in range(5):
            config = ClassifierConfig(
                embed_dim=8, hidden_dim=8, encoder_kind=encoder, seed=case
            )
            model = init_classifier(config, vocabulary, 2)
            tokens = rng.integers(3, len(vocabulary), size=rng.integers(3, 9)).tolist()
            # epsilon large enough that float64 roundoff in the central
            # difference stays below tolerance on near-zero coordinates
            err = gradient_check(model, tokens, label=case % 2, epsilon=1e-4,
                                 n_samples=150, rng_seed=case)
            worst[encoder] = max(worst[encoder], err)
        assert worst[encoder] < tolerance
    announce(capsys, 7, "max rel err bag_mean={bag_mean:.2e}, "
             "birecurrent={birecurrent:.2e}".format(**worst))


HAND_CAPTIONS = [
    "a woman is riding a horse",
    "the man wearing a red shirt",
    "two girls playing in the park",
    "a boy with his skateboard",
    "the mother and her daughter smile",
    "a father holding his son",
    "several ladies at the market",
    "the gentleman tips his hat",
    "a bride and groom cutting cake",
    "two men shaking hands",
    "the queen waves to the crowd",
    "a king on his throne",
    "the waitress carries three plates",
    "a waiter pouring some wine",
    "her aunt bakes fresh bread",
    "his uncle drives an old truck",
    "the actress accepts an award",
    "an actor rehearsing his lines",
    "a princess in a blue dress",
    "the prince rides a white horse",
    "a pregnant woman crossing the street",
    "grandmothers knitting by the window",
    "the grandfathers watch a game",
    "a policewoman directing the traffic",
    "the policeman writes a ticket",
]

HAND_SUFFIXES = ["near the beach", "in the kitchen", "at a busy station",
                 "under a large tree"]


def test_criterion_08_masking_completeness(capsys):
    spec = default_gender_spec()
    masker = Masker(spec)
    attribute_words = sorted(masker.all_words)
    fillers = [f"thing{i}" for i in range(40)]
    rng = np.random.default_rng(9)

    n_checked = 0
    for _ in range(10000):
        length = int(rng.integers(3, 12))
        tokens = [fillers[j] for j in rng.integers(len(fillers), size=length)]
        n_gendered = int(rng.integers(1, 4))
        for _ in range(n_gendered):
            word = attribute_words[rng.integers(len(attribute_words))]
            tokens.insert(int(rng.integers(len(tokens) + 1)), word)
        masked = masker.mask(tokens)
        assert not set(masked) & masker.all_words
        assert masker.mask(masked) == masked
        n_checked += 1

    hand = [f"{caption} {suffix}"
            for caption in HAND_CAPTIONS for suffix in HAND_SUFFIXES]
    assert len(hand) == 100
    for caption in hand:
        tokens = caption.split()
        masked = masker.mask(tokens)
        assert not set(masked) & masker.all_words
        assert masker.mask(masked) == masked
    announce(capsys, 8, f"{n_checked} synthetic + {len(hand)} hand captions, "
             "no survivors, idempotent")


def test_criterion_09_vocabulary_alignment(capsys):
    covered = [f"known{i}" for i in range(15)]
    v_pre = build_vocab([covered], mask_token="<gender>")
    allowed = set(covered) | {v_pre.oov_token, v_pre.mask_token}
    rng = np.random.default_rng(4)
    pool = covered + [f"novel{i}" for i in range(15)] + ["<gender>"]
    for _ in range(2000):
        tokens = tuple(pool[j] for j in rng.integers(len(pool),
                                                     size=rng.integers(1, 12)))
        aligned = align_to_prediction_vocab(tokens, v_pre)
        assert set(aligned) <= allowed
        if set(tokens) <= set(covered) | {v_pre.mask_token}:
            assert aligned == tokens
    announce(capsys, 9, "aligned token sets within prediction vocab + specials; "
             "identity on covered captions")


def test_criterion_10_determinism(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "n_images": 200, "theta_human": 0.6, "theta_generated": 0.9, "seed": 5,
    }))
    corpus_dir = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(corpus_dir),
                 "--quiet"]) == EXIT_OK
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "values": ["female", "male"],
        "attribute": "synthetic",
        "task_words": ["umbrella", "skateboard"],
    }))
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main([
            "report",
            "--config", str(config_path),
            "--human-captions", str(corpus_dir / "human_captions.jsonl"),
            "--generated-captions", str(corpus_dir / "generated_captions.jsonl"),
            "--annotations", str(corpus_dir / "annotations.jsonl"),
            "--metrics", "lic,ba",
            "--n-seeds", "2", "--epochs", "3", "--learning-rate", "0.005",
            "--seed", str(MASTER_SEED),
            "--out", str(out), "--quiet",
        ]) == EXIT_OK
        reports.append(json.loads(out.read_text()))
    a, b = reports
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b
    announce(capsys, 10, "two metric runs with one master seed: reports identical")


def test_criterion_11_external_rankings_declared_not_reproducible(capsys, tmp_path):
    """Published per-model rankings need the original model caption files;
    here we only verify that such files ingest cleanly in the exchange
    format, so anyone holding them can recompute the rankings."""
    captions = write_jsonl(tmp_path / "external.jsonl", [
        {"caption_id": "ext1", "image_id": "i1",
         "caption": "A woman holding an umbrella.", "source": "model"},
        {"caption_id": "ext2", "image_id": "i2",
         "caption": "A man riding a skateboard.", "source": "model"},
    ])
    annotations = write_jsonl(tmp_path / "ann.jsonl", [
        {"image_id": "i1", "attribute": "female"},
        {"image_id": "i2", "attribute": "male"},
    ])
    corpus = load_corpus(captions, annotations, default_gender_spec())
    assert len(corpus) == 2
    assert corpus.records[0].attribute == "female"
    announce(capsys, 11, "declared not reproducible (needs original model "
             "captions); exchange-format ingestion verified")
