"""Tests of the benchmark's own parts: generators, recount, checks, tracing."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import inputs
import recount
import tracing
from workloads import WORKLOADS

WORD_LIST = Path(__file__).resolve().parent.parent / "src/capbias/data/gender_words.tsv"
SMALL = {
    "synthetic": {**WORKLOADS["lic_bag_wide"]["params"], "n_images": 60, "filler_words": 30},
    "coco": {**WORKLOADS["cooccur_coco"]["params"], "n_images": 80, "lexicon_labels": 60,
             "object_labels": 12, "context_words": 300},
}


@pytest.mark.parametrize("kind", ["synthetic", "coco"])
def test_recounting_the_written_files_gives_the_generator_tallies(kind, tmp_path):
    in_dir, tallies = inputs.cached_inputs(tmp_path, kind, SMALL[kind], 3, WORD_LIST)
    assert inputs.recount_files(kind, in_dir, WORD_LIST) == tallies
    again, _ = inputs.cached_inputs(tmp_path / "again", kind, SMALL[kind], 3, WORD_LIST)
    other, _ = inputs.cached_inputs(tmp_path, kind, SMALL[kind], 4, WORD_LIST)
    captions = "human_captions.jsonl"
    assert (again / captions).read_bytes() == (in_dir / captions).read_bytes()
    assert (other / captions).read_bytes() != (in_dir / captions).read_bytes()


def test_plurals_follow_the_word_list():
    words = inputs.attribute_words(WORD_LIST)
    assert {"women", "wives", "princesses", "ladies"} <= words["female"]
    assert {"men", "gentlemen", "boys"} <= words["male"]
    assert not words["female"] & words["male"]


# A toy pair small enough to work out by hand. Images 1..5 carry the values
# f, f, m, m, f; the fifth human caption names the wrong value and the fifth
# generated caption names both.
WORDS = {"female": frozenset({"woman"}), "male": frozenset({"man"})}
ATTR = {"i1": "female", "i2": "female", "i3": "male", "i4": "male", "i5": "female"}
HUMAN = [("i1", "a woman with dog"), ("i2", "a woman with cat"), ("i3", "a man with dog"),
         ("i4", "a man with cat"), ("i5", "a man with dog")]
GENERATED = [("i1", "woman dog"), ("i2", "woman dog"), ("i3", "man cat"),
             ("i4", "man puppy"), ("i5", "woman man dog")]
TOY = {
    "human": [{"image_id": i, "tokens": t.split(), "attribute": ATTR[i]} for i, t in HUMAN],
    "generated": [{"image_id": i, "tokens": t.split(), "attribute": ATTR[i]} for i, t in GENERATED],
    "objects": {"i1": ["dog"], "i2": ["cat"], "i3": ["dog"], "i4": ["cat"], "i5": ["dog"]},
    "lexicon": {"dog": ["puppy"], "cat": []},
}


def test_task_word_selection_by_hand():
    human = TOY["human"]
    assert recount.select_task_words(human, WORDS, top_k=3, min_per_value=1) == ["a", "with", "dog"]
    assert recount.select_task_words(human, WORDS, top_k=3, min_per_value=2) == ["a", "with"]


def test_recount_by_hand():
    # BA over {dog, cat}: only (dog, male) passes the gate, b* = 2/3 -> b~ = 0.
    gt = recount.word_counts(TOY["human"], WORDS, ["dog", "cat"])
    gen = recount.word_counts(TOY["generated"], WORDS, ["dog", "cat"])
    assert recount.ba(gt, gen, ["dog", "cat"]) == pytest.approx(-1 / 3, abs=1e-15)
    # DBA_G: y = 1 on (f, cat) and (m, dog); P(f|dog) 1/3 -> 1/2, P(m|dog) 2/3 -> 1/2.
    labels = ["cat", "dog"]
    assert recount.dba(
        recount.object_counts(TOY["human"], WORDS, TOY["objects"], labels),
        recount.object_counts(TOY["generated"], WORDS, TOY["objects"], labels),
        labels, "g",
    ) == (Fraction(-1, 12), [])
    # DBA_O: y = 1 on (f, dog) and (m, cat); P(dog|f) 2/3 -> 1, P(cat|f) 1/3 -> 0.
    assert recount.dba(
        recount.lexicon_counts(TOY["human"], TOY["lexicon"]),
        recount.lexicon_counts(TOY["generated"], TOY["lexicon"]),
        labels, "o",
    ) == (Fraction(1, 6), [])
    assert recount.ratio(TOY["human"], WORDS) == 1.5
    assert recount.error(TOY["human"], WORDS) == 0.2
    assert recount.ratio(TOY["generated"], WORDS) == 1.0
    assert recount.error(TOY["generated"], WORDS) == 0.0


def test_dba_ties_allow_only_the_values_of_some_gate():
    # P(f, l) = P(f) P(l) exactly for every cell: the gate is a tie everywhere.
    gt = {"female": {"x": 1, "y": 1}, "male": {"x": 1, "y": 1}}
    gen = {"female": {"x": 2, "y": 1}, "male": {"x": 1, "y": 1}}
    value, flips = recount.dba(gt, gen, ["x", "y"], "g")
    # With y = 0 the +1/6 and -1/6 changes of P(a|x) cancel; setting y = 1 on
    # (f, x) or (m, x) moves DBA by 2 (+-1/6) / 4 cells. The y cells do not change.
    assert value == 0 and sorted(flips) == [Fraction(-1, 12), Fraction(1, 12)]
    for target in (0.0, 1 / 12, -1 / 12):
        assert recount.reachable(value, flips, target, 1e-12)
    for target in (1 / 24, 1 / 12 + 1e-9, 1 / 6):
        assert not recount.reachable(value, flips, target, 1e-12)


def _report(tmp_path, in_dir, metrics, extra):
    from capbias import cli

    out = tmp_path / "report.json"
    argv = [
        "report", "--human-captions", str(in_dir / "human_captions.jsonl"),
        "--generated-captions", str(in_dir / "generated_captions.jsonl"),
        "--annotations", str(in_dir / "annotations.jsonl"),
        "--metrics", metrics, "--seed", "3", "--out", str(out), "--quiet", *extra,
    ]
    assert cli.main(argv) == 0
    return json.loads(out.read_text())


def test_cooccurrence_report_matches_recount_and_tallies(tmp_path):
    in_dir, tallies = inputs.cached_inputs(tmp_path, "coco", SMALL["coco"], 5, WORD_LIST)
    report = _report(tmp_path, in_dir, "ba,dba_g,dba_o,ratio,error", [
        "--objects", str(in_dir / "objects.jsonl"),
        "--object-lexicon", str(in_dir / "lexicon.json"), "--min-per-value", "5",
    ])
    pair = inputs.load_pair(in_dir)
    words = inputs.attribute_words(WORD_LIST)
    assert checks.check_cooccur(report, pair, tallies, words, min_per_value=5) == []
    for name in ("ba", "dba_g", "dba_o", "ratio", "error"):
        report["metrics"][name]["value"] += 1e-9
        assert checks.check_cooccur(report, pair, tallies, words, min_per_value=5)
        report["metrics"][name]["value"] -= 1e-9


def test_traced_report_reaches_names_imported_by_name(tmp_path):
    from capbias import cli, lic, masking

    def bound():
        return (cli.run_protocol, cli.load_corpus, lic.build_vocab,
                lic.align_to_prediction_vocab, masking.Masker.mask)

    in_dir, _ = inputs.cached_inputs(tmp_path, "coco", SMALL["coco"], 5, WORD_LIST)
    originals = bound()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert all(now is not then for now, then in zip(bound(), originals))
        _report(tmp_path, in_dir, "lic", ["--n-seeds", "1", "--epochs", "1"])
    finally:
        uninstall()
    assert bound() == originals
    calls = tracer.calls()
    assert all(calls[name] > 0 for name in WORKLOADS["lic_coco_multi"]["reach"])
    assert min(tracer.self_ns()) >= 0
    layers = tracing.layer_metrics(tracer)
    assert layers["corpus.hash_calls"] == 4
    assert layers["lic.seeds"] == 1 and layers["vocab.size"] > 3
