import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capbias
from capbias.classifier import ClassifierConfig, init_classifier, save_checkpoint
from capbias.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    main,
    run_metrics,
)
from capbias.corpus import CorpusError
from capbias.vocab import build_vocab
from conftest import write_jsonl


def read_jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.fixture
def synth_dir(tmp_path):
    """A small synthetic corpus pair written through the synth subcommand."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n_images": 120,
        "theta_human": 0.6,
        "theta_generated": 0.9,
        "seed": 5,
    }))
    out = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec), "--out-dir", str(out),
                 "--quiet"]) == EXIT_OK
    return out


class TestMask:
    def test_masks_file(self, tmp_path):
        src = write_jsonl(tmp_path / "caps.jsonl", [
            {"caption_id": "c1", "caption": "A woman and her sons."},
            {"caption_id": "c2", "caption": "a dog in a park"},
        ])
        out = tmp_path / "masked.jsonl"
        assert main(["mask", "--input", str(src), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        rows = read_jsonl(out)
        assert rows[0]["tokens"] == ["a", "<gender>", "and", "<gender>", "<gender>"]
        assert rows[0]["n_masked"] == 3
        assert rows[1]["tokens"] == ["a", "dog", "in", "a", "park"]

    def test_missing_input(self, tmp_path):
        assert main(["mask", "--input", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o.jsonl"), "--quiet"]) == EXIT_VALIDATION

    def test_malformed_json(self, tmp_path):
        src = tmp_path / "caps.jsonl"
        src.write_text("{not json\n")
        assert main(["mask", "--input", str(src),
                     "--out", str(tmp_path / "o.jsonl"), "--quiet"]) == EXIT_VALIDATION

    def test_custom_wordlist(self, tmp_path):
        wordlist = tmp_path / "words.tsv"
        wordlist.write_text("young\tchild\tchildren\nold\telder\n")
        src = write_jsonl(tmp_path / "caps.jsonl", [
            {"caption_id": "c1", "caption": "two children and an elder"},
        ])
        out = tmp_path / "masked.jsonl"
        assert main(["mask", "--input", str(src), "--out", str(out),
                     "--wordlist", str(wordlist), "--mask-token", "<age>",
                     "--quiet"]) == EXIT_OK
        assert read_jsonl(out)[0]["tokens"] == ["two", "<age>", "and", "an", "<age>"]


class TestVocab:
    def test_export(self, tmp_path):
        src = write_jsonl(tmp_path / "caps.jsonl", [
            {"caption": "a cat sat"},
            {"tokens": ["a", "dog"]},
        ])
        out = tmp_path / "vocab.json"
        assert main(["vocab", "--input", str(src), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        exported = json.loads(out.read_text())
        assert exported["<gender>"] == 0
        assert "cat" in exported


class TestSynth:
    def test_outputs(self, synth_dir):
        for name in ("human_captions.jsonl", "generated_captions.jsonl",
                     "annotations.jsonl", "oracle.json"):
            assert (synth_dir / name).exists()
        oracle = json.loads((synth_dir / "oracle.json").read_text())
        assert oracle["expected_ba"] == pytest.approx(0.3)
        assert oracle["bayes_accuracy_generated"] == 0.9
        assert len(read_jsonl(synth_dir / "human_captions.jsonl")) == 120
        assert len(read_jsonl(synth_dir / "annotations.jsonl")) == 120


class TestScore:
    def test_stub_checkpoint(self, tmp_path):
        vocabulary = build_vocab([["a", "cat", "dog"]], mask_token="<gender>")
        model = init_classifier(
            ClassifierConfig(embed_dim=4, hidden_dim=4), vocabulary, 2
        )
        checkpoint = tmp_path / "model.json"
        save_checkpoint(model, checkpoint, class_names=("female", "male"))
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(vocabulary.to_json())
        src = write_jsonl(tmp_path / "caps.jsonl", [
            {"caption_id": "c1", "caption": "a cat"},
            {"caption_id": "c2", "caption": "a dog"},
        ])
        out = tmp_path / "scores.jsonl"
        assert main(["score", "--checkpoint", str(checkpoint),
                     "--vocab", str(vocab_path), "--input", str(src),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        rows = read_jsonl(out)
        assert len(rows) == 2
        for row in rows:
            assert row["predicted"] in ("female", "male")
            assert sum(row["scores"].values()) == pytest.approx(1.0)

    def test_empty_input(self, tmp_path):
        vocabulary = build_vocab([["a"]], mask_token="<gender>")
        model = init_classifier(
            ClassifierConfig(embed_dim=4, hidden_dim=4), vocabulary, 2
        )
        checkpoint = tmp_path / "model.json"
        save_checkpoint(model, checkpoint)
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(vocabulary.to_json())
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        out = tmp_path / "scores.jsonl"
        assert main(["score", "--checkpoint", str(checkpoint),
                     "--vocab", str(vocab_path), "--input", str(src),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        assert read_jsonl(out) == []


class TestReport:
    def _report_args(self, synth_dir, out, metrics, extra=()):
        return [
            "report",
            "--human-captions", str(synth_dir / "human_captions.jsonl"),
            "--generated-captions", str(synth_dir / "generated_captions.jsonl"),
            "--annotations", str(synth_dir / "annotations.jsonl"),
            "--metrics", metrics,
            "--out", str(out),
            "--quiet",
            *extra,
        ]

    def test_ba_on_synth_pair(self, synth_dir, tmp_path):
        out = tmp_path / "report.json"
        args = self._report_args(
            synth_dir, out, "ba",
            extra=["--config", str(self._task_word_config(tmp_path))],
        )
        assert main(args) == EXIT_OK
        report = json.loads(out.read_text())
        assert set(report["metrics"]) == {"ba"}
        assert report["metrics"]["ba"]["scale"] == "x100"
        # theta 0.6 -> 0.9 at n=120: closed form 30, wide tolerance for noise
        assert report["metrics"]["ba"]["value"] == pytest.approx(30.0, abs=15.0)

    @staticmethod
    def _task_word_config(tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "values": ["female", "male"],
            "attribute": "synthetic",
            "task_words": ["umbrella", "skateboard"],
        }))
        return config

    def test_shared_inputs_read_once_per_report(self, synth_dir, tmp_path, monkeypatch):
        import capbias.cli
        import capbias.corpus

        image_ids = [row["image_id"] for row in read_jsonl(synth_dir / "annotations.jsonl")]
        objects = write_jsonl(tmp_path / "objects.jsonl", [
            {"image_id": image_id, "objects": ["umbrella"]} for image_id in image_ids
        ])
        calls = {"load_annotations": 0, "load_object_annotations": 0}
        for name in calls:
            original = getattr(capbias.corpus, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(capbias.corpus, name, counted)
            monkeypatch.setattr(capbias.cli, name, counted)
        args = self._report_args(
            synth_dir, tmp_path / "r.json", "ba",
            extra=["--config", str(self._task_word_config(tmp_path)),
                   "--objects", str(objects)],
        )
        assert main(args) == EXIT_OK
        assert calls == {"load_annotations": 1, "load_object_annotations": 1}

    def test_annotation_error_names_file_and_line(self, synth_dir, tmp_path):
        bad = tmp_path / "annotations.jsonl"
        bad.write_text(
            (synth_dir / "annotations.jsonl").read_text()
            + '{"image_id": "extra", "attribute": "neither"}\n'
        )
        n_lines = len(bad.read_text().splitlines())
        args = self._report_args(synth_dir, tmp_path / "r.json", "ba")
        args[args.index("--annotations") + 1] = str(bad)
        with pytest.raises(CorpusError, match=rf"{bad}:{n_lines}: attribute value"):
            run_metrics({}, build_parser().parse_args(args))
        assert main(args) == EXIT_VALIDATION

    def test_dba_g_without_objects_fails(self, synth_dir, tmp_path):
        args = self._report_args(synth_dir, tmp_path / "r.json", "dba_g")
        assert main(args) == EXIT_VALIDATION

    def test_unknown_metric(self, synth_dir, tmp_path):
        args = self._report_args(synth_dir, tmp_path / "r.json", "nonsense")
        assert main(args) == EXIT_VALIDATION

    def test_lic_small_scale_deterministic(self, synth_dir, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            args = self._report_args(
                synth_dir, out, "lic",
                extra=["--config", str(self._task_word_config(tmp_path)),
                       "--n-seeds", "2", "--epochs", "3",
                       "--learning-rate", "0.005", "--seed", "7"],
            )
            assert main(args) == EXIT_OK
            reports.append(json.loads(out.read_text()))
        a, b = reports
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b
        assert set(a["metrics"]) == {"lic", "lic_m", "lic_d"}

    def test_ratio_error_preset(self, synth_dir, tmp_path):
        # synthetic captions never mention attribute words: both undefined
        out = tmp_path / "r.json"
        args = [
            "ratio-error",
            "--generated-captions", str(synth_dir / "generated_captions.jsonl"),
            "--annotations", str(synth_dir / "annotations.jsonl"),
            "--config", str(self._task_word_config(tmp_path)),
            "--out", str(out), "--quiet",
        ]
        assert main(args) == EXIT_VALIDATION

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_exit_code(self, synth_dir, tmp_path):
        args = self._report_args(
            synth_dir, tmp_path / "r.json", "lic",
            extra=["--config", str(self._task_word_config(tmp_path)),
                   "--n-seeds", "1", "--epochs", "2",
                   "--learning-rate", "1e200"],
        )
        assert main(args) == EXIT_NUMERICAL


@pytest.mark.skipif(
    not Path("/proc/self/status").exists() or (os.cpu_count() or 1) < 2,
    reason="needs /proc and at least two CPUs to tell one BLAS thread apart",
)
def test_capbias_threads_caps_blas_threads():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["CAPBIAS_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(capbias.__file__).parents[1])
    script = (
        "import capbias.cli, re\n"
        "status = open('/proc/self/status').read()\n"
        "print(re.search(r'^Threads:\\s*(\\d+)', status, re.M).group(1))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "1"
