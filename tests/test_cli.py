import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import capbias
from capbias.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    SETTINGS,
    build_parser,
    load_settings,
    main,
    run_metrics,
)
from capbias.corpus import CorpusError
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

    @pytest.mark.parametrize("caption,config,tokens,n_masked", [
        ("A girl is playing piano", {},
         ["a", "<gender>", "is", "playing", "piano"], 1),
        ("a person walking",
         {"attribute": "race", "values": ["darker", "lighter"], "mask_token": "<race>"},
         ["a", "person", "walking"], 0),
        ("The man and his sons", {},
         ["the", "<gender>", "and", "<gender>", "<gender>"], 3),
    ])
    def test_counts_masked_tokens(self, tmp_path, caption, config, tokens, n_masked):
        src = write_jsonl(tmp_path / "caps.jsonl", [{"caption_id": "c1", "caption": caption}])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "masked.jsonl"
        assert main(["mask", "--input", str(src), "--out", str(out),
                     "--config", str(path), "--quiet"]) == EXIT_OK
        [row] = read_jsonl(out)
        assert row["tokens"] == tokens
        assert row["caption"] == " ".join(tokens)
        assert row["n_masked"] == n_masked

    def test_missing_input(self, tmp_path):
        assert main(["mask", "--input", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o.jsonl"), "--quiet"]) == EXIT_VALIDATION
        assert not (tmp_path / "o.jsonl").exists()

    def test_malformed_json(self, tmp_path):
        src = tmp_path / "caps.jsonl"
        src.write_text("{not json\n")
        assert main(["mask", "--input", str(src),
                     "--out", str(tmp_path / "o.jsonl"), "--quiet"]) == EXIT_VALIDATION

    def test_invalid_line_writes_no_output(self, tmp_path, caplog):
        src = write_jsonl(tmp_path / "caps.jsonl", [
            {"caption_id": "c1", "caption": "a woman"},
            {"caption_id": "c2", "caption": "!!!"},
        ])
        out = tmp_path / "o.jsonl"
        assert main(["mask", "--input", str(src), "--out", str(out),
                     "--quiet"]) == EXIT_VALIDATION
        assert f"{src}:2: caption is empty after tokenization" in caplog.text
        assert not out.exists()

    def test_config_keys_are_those_of_report(self, tmp_path, caplog):
        src = write_jsonl(tmp_path / "caps.jsonl", [{"caption_id": "c1", "caption": "a man"}])
        path = tmp_path / "config.json"
        out = tmp_path / "masked.jsonl"
        args = ["mask", "--input", str(src), "--out", str(out), "--config", str(path),
                "--quiet"]
        path.write_text(json.dumps({"task_words": ["dog"], "protocol": {"n_seeds": 2}}))
        assert main(args) == EXIT_OK
        path.write_text(json.dumps({"mask_tokn": "<m>"}))
        assert main(args) == EXIT_VALIDATION
        assert f"{path}: unknown key 'mask_tokn'" in caplog.text

    def test_wrong_protocol_value_is_an_error_without_a_protocol_metric(self, tmp_path,
                                                                      caplog):
        src = write_jsonl(tmp_path / "caps.jsonl", [{"caption_id": "c1", "caption": "a man"}])
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"protocol": {"n_seeds": "many",
                                                 "classifier": {"epochs": "x"}}}))
        assert main(["mask", "--input", str(src), "--out", str(tmp_path / "o.jsonl"),
                     "--config", str(path), "--quiet"]) == EXIT_VALIDATION
        assert f"{path}: 'protocol.n_seeds' has a value of the wrong type" in caplog.text
        assert not (tmp_path / "o.jsonl").exists()

    def test_unknown_metric_in_config_is_an_error(self, tmp_path, caplog):
        src = write_jsonl(tmp_path / "caps.jsonl", [{"caption_id": "c1", "caption": "a man"}])
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"metrics": ["ba", "bogus"]}))
        assert main(["mask", "--input", str(src), "--out", str(tmp_path / "o.jsonl"),
                     "--config", str(path), "--quiet"]) == EXIT_VALIDATION
        assert f"{path}: 'metrics' has unknown names ['bogus']" in caplog.text
        assert not (tmp_path / "o.jsonl").exists()

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

    def test_out_is_required(self, tmp_path, capsys):
        src = write_jsonl(tmp_path / "caps.jsonl", [{"caption_id": "c1", "caption": "a man"}])
        with pytest.raises(SystemExit) as exc:
            main(["mask", "--input", str(src), "--quiet"])
        assert exc.value.code == EXIT_VALIDATION
        assert "--out" in capsys.readouterr().err


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

    def test_missing_field_names_file_and_line(self, tmp_path, caplog):
        spec = tmp_path / "spec.json"
        spec.write_text('\n{"n_images": 120,\n "theta_human": 0.6}\n')
        assert main(["synth", "--spec", str(spec), "--out-dir",
                     str(tmp_path / "corpus"), "--quiet"]) == EXIT_VALIDATION
        assert f"{spec}:2: missing field 'theta_generated'" in caplog.text

    @pytest.mark.parametrize("field,value,message", [
        ("seed", -1, "field 'seed' has a value out of range: -1"),
        ("theta_human", 0.4, "field 'theta_human': marker_probability must be in [0.5, 1]"),
        ("theta_generated", 1.5,
         "field 'theta_generated': marker_probability must be in [0.5, 1]"),
        ("n_images", 1, "need at least one image per attribute value"),
        ("filler_vocab_size", 0, "field 'filler_vocab_size' has a value out of range: 0"),
    ])
    def test_out_of_range_field_names_file_and_line(self, tmp_path, caplog, field, value,
                                                    message):
        fields = {"n_images": 120, "theta_human": 0.6, "theta_generated": 0.9,
                  field: value}
        spec = tmp_path / "spec.json"
        spec.write_text("\n" + json.dumps(fields) + "\n")
        assert main(["synth", "--spec", str(spec), "--out-dir",
                     str(tmp_path / "corpus"), "--quiet"]) == EXIT_VALIDATION
        assert f"{spec}:2: {message}" in caplog.text

    def test_negative_seed_flag_names_the_flag(self, tmp_path, caplog):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_images": 120, "theta_human": 0.6,
                                    "theta_generated": 0.9}))
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "corpus"),
                     "--seed", "-1", "--quiet"]) == EXIT_VALIDATION
        assert "--seed has a value out of range: -1" in caplog.text

    def test_seed_flag_wins_over_spec(self, tmp_path):
        fields = {"n_images": 120, "theta_human": 0.6, "theta_generated": 0.9}
        spec, plain = tmp_path / "spec.json", tmp_path / "plain.json"
        spec.write_text(json.dumps({**fields, "seed": 5}))
        plain.write_text(json.dumps(fields))
        runs = {
            "flag": ["--spec", str(spec), "--seed", "9"],
            "seed9": ["--spec", str(plain), "--seed", "9"],
            "seed5": ["--spec", str(spec)],
        }
        for name, args in runs.items():
            assert main(["synth", *args, "--out-dir", str(tmp_path / name),
                         "--quiet"]) == EXIT_OK
        for name in ("human_captions.jsonl", "generated_captions.jsonl",
                     "annotations.jsonl"):
            flag = (tmp_path / "flag" / name).read_bytes()
            assert flag == (tmp_path / "seed9" / name).read_bytes(), name
        assert ((tmp_path / "flag" / "human_captions.jsonl").read_bytes()
                != (tmp_path / "seed5" / "human_captions.jsonl").read_bytes())

    @pytest.mark.parametrize("field,value", [
        ("n_images", "many"),
        ("theta_generated", [0.9]),
        ("seed", {}),
        ("caption_length_range", 5),
        ("caption_length_range", ["six", "ten"]),
        ("values", "ab"),
        ("values", ["female"]),
        ("values", ["female", 3]),
        ("marker_words", 5),
        ("marker_words", {"female": "umbrella", "male": ["skateboard"]}),
        ("marker_words", {"female": [], "male": ["skateboard"]}),
        ("n_images", "120"),
        ("n_images", 120.0),
        ("theta_human", True),
        ("caption_length_range", [6, 8, 10]),
    ])
    def test_wrong_type_names_file_and_line(self, tmp_path, caplog, field, value):
        fields = {"n_images": 120, "theta_human": 0.6, "theta_generated": 0.9,
                  field: value}
        spec = tmp_path / "spec.json"
        spec.write_text("\n" + json.dumps(fields) + "\n")
        assert main(["synth", "--spec", str(spec), "--out-dir",
                     str(tmp_path / "corpus"), "--quiet"]) == EXIT_VALIDATION
        assert f"{spec}:2: field {field!r} has a value of the wrong type" in caplog.text


def test_score_command_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["score", "--checkpoint", str(tmp_path / "model.json"),
              "--vocab", str(tmp_path / "vocab.json"),
              "--input", str(tmp_path / "caps.jsonl"),
              "--out", str(tmp_path / "scores.jsonl")])
    assert exc.value.code == EXIT_VALIDATION
    assert "invalid choice: 'score'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["vocab", "ba", "dba", "ratio-error", "lic", "leakage"])
def test_removed_command_is_gone(tmp_path, capsys, command):
    # `report --metrics` computes what each of these computed
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(tmp_path / "caps.jsonl"),
              "--out", str(tmp_path / "out.json")])
    assert exc.value.code == EXIT_VALIDATION
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_commands():
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert set(commands) == {"mask", "synth", "report"}


@pytest.mark.parametrize("command,flag", [
    ("synth", ["--config", "config.json"]),
    ("synth", ["--out", "out.json"]),
    ("synth", ["--wordlist", "words.tsv"]),
    ("synth", ["--mask-token", "<m>"]),
    ("synth", ["--attribute", "age"]),
    ("mask", ["--seed", "3"]),
])
def test_flag_a_command_does_not_read_is_rejected(tmp_path, capsys, command, flag):
    required = {
        "synth": ["--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path / "d")],
        "mask": ["--input", str(tmp_path / "caps.jsonl"), "--out", str(tmp_path / "o.jsonl")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, *flag])
    assert exc.value.code == EXIT_VALIDATION
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def _readme_commands():
    """Each `capbias ...` command of the README's `sh` blocks, its
    continuation lines joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("capbias ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {shlex.split(c)[1] for c in commands} == {"mask", "synth", "report"}
    for command in commands:
        build_parser().parse_args(shlex.split(command)[1:])


def test_readme_settings_table_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    keys = re.findall(r"^\| `([a-z_.]+)` \|", readme, re.M)
    assert sorted(keys) == sorted(SETTINGS)


@pytest.mark.parametrize("flag", ["--config", "--object-lexicon", "--spec"])
def test_malformed_json_names_file_and_line(synth_dir, tmp_path, caplog, flag):
    inputs = {"--config": tmp_path / "config.json", "--object-lexicon": tmp_path / "lexicon.json"}
    inputs["--config"].write_text("{}")
    inputs["--object-lexicon"].write_text('{"umbrella": ["umbrellas"]}')
    bad = inputs[flag] = tmp_path / "bad.json"
    bad.write_text('{"top_k": 5,\n "min_per_value": }\n')
    if flag == "--spec":
        args = ["synth", "--spec", str(bad), "--out-dir", str(tmp_path / "corpus")]
    else:
        args = [
            "report", "--metrics", "dba_o",
            "--human-captions", str(synth_dir / "human_captions.jsonl"),
            "--generated-captions", str(synth_dir / "generated_captions.jsonl"),
            "--annotations", str(synth_dir / "annotations.jsonl"),
            "--config", str(inputs["--config"]),
            "--object-lexicon", str(inputs["--object-lexicon"]),
        ]
    assert main([*args, "--quiet"]) == EXIT_VALIDATION
    assert f"{bad}:2: invalid JSON (Expecting value: line 2" in caplog.text


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
            run_metrics(load_settings(build_parser().parse_args(args)))
        assert main(args) == EXIT_VALIDATION

    @pytest.mark.parametrize("flag,field", [
        ("--human-captions", "source"),
        ("--generated-captions", "caption"),
        ("--annotations", "attribute"),
        ("--objects", "objects"),
    ])
    def test_missing_field_names_file_and_line(self, synth_dir, tmp_path, caplog,
                                               flag, field):
        image_ids = [row["image_id"] for row in read_jsonl(synth_dir / "annotations.jsonl")]
        write_jsonl(tmp_path / "objects.jsonl", [
            {"image_id": image_id, "objects": ["umbrella"]} for image_id in image_ids
        ])
        args = self._report_args(
            synth_dir, tmp_path / "r.json", "ba",
            extra=["--config", str(self._task_word_config(tmp_path)),
                   "--objects", str(tmp_path / "objects.jsonl")],
        )
        source = Path(args[args.index(flag) + 1])
        rows = read_jsonl(source)
        del rows[2][field]
        bad = write_jsonl(tmp_path / f"bad_{source.name}", rows)
        args[args.index(flag) + 1] = str(bad)
        assert main(args) == EXIT_VALIDATION
        assert f"{bad}:3: missing field '{field}'" in caplog.text

    @pytest.mark.parametrize("objects", [5, "abc", {"umbrella": 1}])
    def test_objects_must_be_a_list(self, synth_dir, tmp_path, caplog, objects):
        image_ids = [row["image_id"] for row in read_jsonl(synth_dir / "annotations.jsonl")]
        rows = [{"image_id": image_id, "objects": ["umbrella"]} for image_id in image_ids]
        rows[2]["objects"] = objects
        bad = write_jsonl(tmp_path / "objects.jsonl", rows)
        args = self._report_args(
            synth_dir, tmp_path / "r.json", "ba",
            extra=["--config", str(self._task_word_config(tmp_path)),
                   "--objects", str(bad)],
        )
        assert main(args) == EXIT_VALIDATION
        assert f"{bad}:3: field 'objects' must be a JSON list" in caplog.text

    def test_program_error_is_not_an_input_error(self, synth_dir, tmp_path):
        # a KeyError inside a metric is a bug: a traceback and exit 1, not 2
        args = self._report_args(
            synth_dir, tmp_path / "r.json", "ba",
            extra=["--config", str(self._task_word_config(tmp_path))],
        )
        script = (
            "import sys\n"
            "from capbias import cli, cooccur\n"
            "def broken(*args, **kwargs):\n"
            "    raise KeyError('task word')\n"
            "cooccur.ba_from_tables = broken\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(capbias.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", script, *args], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert out.returncode == 1
        assert "Traceback" in out.stderr and "KeyError" in out.stderr

    def test_each_test_split_scored_once_per_seed(self, synth_dir, tmp_path,
                                                  monkeypatch):
        import capbias.classifier

        calls = []
        original = capbias.classifier.predict_proba

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(capbias.classifier, "predict_proba", counted)
        # A forked worker's calls never reach the spy: train in this process.
        monkeypatch.setenv("CAPBIAS_THREADS", "1")
        args = self._report_args(
            synth_dir, tmp_path / "r.json", "lic,sc,leakage",
            extra=["--config", str(self._task_word_config(tmp_path)),
                   "--n-seeds", "2", "--epochs", "1"],
        )
        assert main(args) == EXIT_OK
        assert len(calls) == 4

    @pytest.mark.parametrize("config,key", [
        ({"protocol": {"n_seeds": "many"}}, "'protocol.n_seeds'"),
        ({"protocol": {"test_fraction": [0.1]}}, "'protocol.test_fraction'"),
        ({"protocol": {"classifier": {"epochs": "x"}}}, "'protocol.classifier.epochs'"),
        ({"protocol": {"classifier": {"encoder_kind": 3}}},
         "'protocol.classifier.encoder_kind'"),
        ({"protocol": {"classifier": {"epoch": 2}}}, "'protocol.classifier.epoch'"),
        ({"protocol": {"classifier": [2]}}, "'protocol.classifier'"),
        ({"protocol": 5}, "'protocol'"),
        ({"seed": "seven"}, "'seed'"),
        ({"protocol": {"classifier": {"epochs": 0}}}, "'protocol.classifier.epochs'"),
        ({"protocol": {"classifier": {"encoder_kind": "lstm"}}},
         "'protocol.classifier.encoder_kind'"),
        ({"n_seeds": 2}, "unknown key 'n_seeds'"),
        ({"tpo_k": 10}, "unknown key 'tpo_k'"),
        ({"master_seed": 7}, "unknown key 'master_seed'"),
        ({"protocol": {"seeds": 2}}, "unknown key 'protocol.seeds'"),
        ({"epochs": 2}, "unknown key 'epochs'"),
        ({"top_k": 0}, "'top_k' has a value out of range"),
        ({"min_per_value": -1}, "'min_per_value' has a value out of range"),
        ({"protocol": {"n_seeds": 0}}, "'protocol.n_seeds': n_seeds must be >= 1"),
        ({"protocol": {"test_fraction": 1.5}},
         "'protocol.test_fraction': test_fraction must be in (0, 1)"),
        ({"protocol": {"test_fraction": 0}},
         "'protocol.test_fraction': test_fraction must be in (0, 1)"),
    ])
    def test_wrong_config_value_names_file_and_key(self, synth_dir, tmp_path,
                                                    caplog, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = self._report_args(synth_dir, tmp_path / "r.json", "lic",
                                 extra=["--config", str(path)])
        assert main(args) == EXIT_VALIDATION
        assert f"{path}: " in caplog.text and key in caplog.text

    def test_out_of_range_classifier_flag_names_the_flag(self, synth_dir, tmp_path,
                                                         caplog):
        args = self._report_args(synth_dir, tmp_path / "r.json", "lic",
                                 extra=["--epochs", "0"])
        assert main(args) == EXIT_VALIDATION
        assert "--epochs: epochs and batch_size must be positive" in caplog.text

    @pytest.mark.parametrize("flag,value,message", [
        ("--top-k", "-1", "--top-k has a value out of range: -1"),
        ("--top-k", "0", "--top-k has a value out of range: 0"),
        ("--min-per-value", "-1", "--min-per-value has a value out of range: -1"),
        ("--n-seeds", "0", "--n-seeds: n_seeds must be >= 1"),
        ("--test-fraction", "1.5", "--test-fraction: test_fraction must be in (0, 1)"),
    ])
    def test_out_of_range_flag_names_the_flag(self, synth_dir, tmp_path, caplog, flag,
                                             value, message):
        args = self._report_args(
            synth_dir, tmp_path / "r.json", "ba",
            extra=["--config", str(self._task_word_config(tmp_path)), flag, value],
        )
        assert main(args) == EXIT_VALIDATION
        assert message in caplog.text

    # One wrong-typed value for each config key: a number is never a string or
    # a boolean, and an integer setting takes no float.
    WRONG_TYPED = {
        "attribute": 4, "values": 5, "wordlist": 0, "mask_token": 3, "seed": 1.5,
        "metrics": 5, "out": 5, "human_captions": 5, "generated_captions": ["a.jsonl"],
        "annotations": 5, "objects": 5, "object_lexicon": 5, "task_words": [5],
        "top_k": "lots", "min_per_value": True, "protocol": 5,
        "protocol.n_seeds": 2.7, "protocol.test_fraction": "0.2", "protocol.classifier": 5,
    }

    def test_every_config_key_has_a_wrong_typed_case(self):
        assert sorted(self.WRONG_TYPED) == sorted(SETTINGS)

    @pytest.mark.parametrize("key", sorted(WRONG_TYPED))
    def test_wrong_typed_config_key_names_file_and_key(self, synth_dir, tmp_path, caplog,
                                                       key):
        # a config that `report --metrics ba` runs with, one value made wrong
        path = self._task_word_config(tmp_path)
        config = json.loads(path.read_text())
        section, _, name = key.rpartition(".")
        (config.setdefault(section, {}) if section else config)[name] = self.WRONG_TYPED[key]
        path.write_text(json.dumps(config))
        args = self._report_args(synth_dir, tmp_path / "r.json", "ba",
                                 extra=["--config", str(path)])
        assert main(args) == EXIT_VALIDATION
        assert f"{path}: {key!r} has a value of the wrong type" in caplog.text
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("metrics", ["ba", "lic"])
    def test_wrong_protocol_value_is_an_error_for_every_metric(self, synth_dir, tmp_path,
                                                               caplog, metrics):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"protocol": {"n_seeds": "many",
                                                 "classifier": {"epochs": "x"}}}))
        args = self._report_args(synth_dir, tmp_path / "r.json", metrics,
                                 extra=["--config", str(path)])
        assert main(args) == EXIT_VALIDATION
        assert f"{path}: 'protocol.n_seeds' has a value of the wrong type" in caplog.text

    def test_unknown_metric_names_file_and_key(self, synth_dir, tmp_path, caplog):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"metrics": ["bogus"]}))
        args = self._report_args(synth_dir, tmp_path / "r.json", "ba",
                                 extra=["--config", str(path)])
        args[args.index("--metrics"):args.index("--metrics") + 2] = []
        assert main(args) == EXIT_VALIDATION
        assert (f"{path}: 'metrics' has unknown names ['bogus'] (expected some of lic, "
                "leakage, sc, ba, dba_g, dba_o, ratio, error)") in caplog.text
        assert not (tmp_path / "r.json").exists()

    def test_unknown_metric_names_the_flag(self, synth_dir, tmp_path, caplog):
        args = self._report_args(synth_dir, tmp_path / "r.json", "ba,bogus,lic")
        assert main(args) == EXIT_VALIDATION
        assert "--metrics has unknown names ['bogus']" in caplog.text
        assert not (tmp_path / "r.json").exists()

    def test_object_lexicon_is_read_only_for_dba_o(self, synth_dir, tmp_path):
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text('{"umbrella": \n')
        args = self._report_args(
            synth_dir, tmp_path / "r.json", "ba",
            extra=["--config", str(self._task_word_config(tmp_path)),
                   "--object-lexicon", str(lexicon)],
        )
        assert main(args) == EXIT_OK

    @pytest.mark.parametrize("flag,source,expected", [
        ("--human-captions", "model", "human"),
        ("--generated-captions", "human", "model"),
    ])
    def test_caption_source_must_match_its_side(self, synth_dir, tmp_path, caplog, flag,
                                                source, expected):
        args = self._report_args(
            synth_dir, tmp_path / "r.json", "ba",
            extra=["--config", str(self._task_word_config(tmp_path))],
        )
        rows = read_jsonl(args[args.index(flag) + 1])
        for row in rows[3:5]:
            row["source"] = source
        bad = write_jsonl(tmp_path / "captions.jsonl", rows)
        args[args.index(flag) + 1] = str(bad)
        assert main(args) == EXIT_VALIDATION
        assert (f"{bad}: caption {rows[3]['caption_id']!r} has source {source!r}, "
                f"expected {expected!r}") in caplog.text

    @pytest.mark.parametrize("config,key", [
        ({"top_k": "lots"}, "'top_k'"),
        ({"min_per_value": None}, "'min_per_value'"),
        ({"task_words": 5}, "'task_words'"),
        ({"task_words": "umbrella"}, "'task_words'"),
        ({"values": 5}, "'values'"),
        ({"values": "ab"}, "'values'"),
    ])
    def test_wrong_task_word_setting_names_file_and_key(self, synth_dir, tmp_path,
                                                       caplog, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = self._report_args(synth_dir, tmp_path / "r.json", "ba",
                                 extra=["--config", str(path)])
        assert main(args) == EXIT_VALIDATION
        assert f"{path}: {key} has a value of the wrong type" in caplog.text

    @pytest.mark.parametrize("lexicon,message", [
        (["umbrella"], "expected a JSON object"),
        ({"umbrella": 5}, "'umbrella' has a value of the wrong type"),
        ({"umbrella": "umbrella"}, "'umbrella' has a value of the wrong type"),
    ])
    def test_object_lexicon_must_map_labels_to_lists(self, synth_dir, tmp_path,
                                                    caplog, lexicon, message):
        path = tmp_path / "lexicon.json"
        path.write_text(json.dumps(lexicon))
        args = self._report_args(
            synth_dir, tmp_path / "r.json", "dba_o",
            extra=["--config", str(self._task_word_config(tmp_path)),
                   "--object-lexicon", str(path)],
        )
        assert main(args) == EXIT_VALIDATION
        assert f"{path}: {message}" in caplog.text

    def test_config_must_be_an_object(self, synth_dir, tmp_path, caplog):
        path = tmp_path / "config.json"
        path.write_text('[{"n_seeds": 2}]')
        args = self._report_args(synth_dir, tmp_path / "r.json", "ba",
                                 extra=["--config", str(path)])
        assert main(args) == EXIT_VALIDATION
        assert f"{path}: expected a JSON object" in caplog.text

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

    def test_ratio_error_undefined_without_mentions(self, synth_dir, tmp_path):
        # synthetic captions never mention attribute words: both undefined
        out = tmp_path / "r.json"
        args = [
            "report", "--metrics", "ratio,error",
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

    def test_standard_output_without_out_is_the_json_report(self, synth_dir, tmp_path,
                                                            capsys):
        args = self._report_args(
            synth_dir, tmp_path / "r.json", "ba",
            extra=["--config", str(self._task_word_config(tmp_path))],
        )
        assert main(args) == EXIT_OK
        written = json.loads((tmp_path / "r.json").read_text())
        capsys.readouterr()
        # without --out and without --quiet: only the report, as JSON
        at = args.index("--out")
        del args[at:at + 3]
        assert main(args) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert printed.pop("timestamp") and written.pop("timestamp")
        assert printed == written

    def test_out_prints_the_path_and_a_table_unless_quiet(self, synth_dir, tmp_path,
                                                          capsys):
        out = tmp_path / "r.json"
        args = self._report_args(
            synth_dir, out, "ba",
            extra=["--config", str(self._task_word_config(tmp_path))],
        )
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == ""
        args.remove("--quiet")
        assert main(args) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"report -> {out}"
        assert lines[1].split() == ["metric", "mean", "std"]
        assert lines[2].split()[0] == "ba"


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


def _coco_shaped_inputs(directory):
    """A small COCO-shaped pair: three human captions and one model caption
    per image, gender words on both sides, several object labels per image,
    and a lexicon whose labels have several forms, some of them shared."""
    import random

    rng = random.Random(3)
    words = {"female": ["woman", "girl", "her"], "male": ["man", "boy", "his"]}
    lexicon = {"dog": ["puppy", "dogs"], "cat": ["kitten", "cats"], "kite": ["kites"],
               "bench": ["seat"], "tree": ["seat", "trees"], "ball": ["puppy"]}
    vocabulary = ["a", "the", "on", "park", "street", "grass", *lexicon,
                  *{form for forms in lexicon.values() for form in forms}]
    annotations, objects, sides = [], [], {"human": [], "model": []}
    for i in range(80):
        value = rng.choice(["female", "male"])
        other = "male" if value == "female" else "female"
        annotations.append({"image_id": f"i{i}", "attribute": value})
        objects.append({"image_id": f"i{i}", "objects": rng.sample(sorted(lexicon), 3)})
        for source, n in (("human", 3), ("model", 1)):
            for k in range(n):
                tokens = rng.choices(vocabulary, k=rng.randint(4, 8))
                if rng.random() < 0.7:
                    tokens.append(rng.choice(words[value]))
                if rng.random() < 0.15:
                    tokens.append(rng.choice(words[other]))
                sides[source].append({"caption_id": f"{source}{i}-{k}", "image_id": f"i{i}",
                                      "source": source, "caption": " ".join(tokens)})
    paths = {name: directory / name for name in (
        "human.jsonl", "model.jsonl", "annotations.jsonl", "objects.jsonl", "lexicon.json")}
    write_jsonl(paths["human.jsonl"], sides["human"])
    write_jsonl(paths["model.jsonl"], sides["model"])
    write_jsonl(paths["annotations.jsonl"], annotations)
    write_jsonl(paths["objects.jsonl"], objects)
    paths["lexicon.json"].write_text(json.dumps(lexicon))
    return paths


def test_cooccurrence_report_does_not_depend_on_the_hash_seed(tmp_path):
    """Object label sets and lexicon form sets iterate in an order set by the
    hash seed; the report must not follow it."""
    paths = _coco_shaped_inputs(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(capbias.__file__).parents[1])}
    reports = []
    for hash_seed in ("0", "1"):  # one after the other
        out = tmp_path / f"report-{hash_seed}.json"
        subprocess.run(
            [sys.executable, "-m", "capbias.cli", "report",
             "--metrics", "ba,dba_g,dba_o,ratio,error",
             "--human-captions", str(paths["human.jsonl"]),
             "--generated-captions", str(paths["model.jsonl"]),
             "--annotations", str(paths["annotations.jsonl"]),
             "--objects", str(paths["objects.jsonl"]),
             "--object-lexicon", str(paths["lexicon.json"]),
             "--top-k", "20", "--min-per-value", "1",
             "--out", str(out), "--quiet"],
            env={**env, "PYTHONHASHSEED": hash_seed}, check=True, timeout=120,
        )
        report = json.loads(out.read_text())
        del report["timestamp"]
        reports.append(report)
    assert set(reports[0]["metrics"]) == {"ba", "dba_g", "dba_o", "ratio", "error"}
    assert reports[0] == reports[1]


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _lic_inputs(directory, pair="synth"):
    """The captions and annotations flags of the synthetic pair in
    `directory`, or of a COCO-shaped pair written to it, whose human side has
    three captions per image."""
    if pair == "coco":
        paths = _coco_shaped_inputs(directory)
        files = [paths[name] for name in ("human.jsonl", "model.jsonl", "annotations.jsonl")]
    else:
        files = [directory / name for name in (
            "human_captions.jsonl", "generated_captions.jsonl", "annotations.jsonl")]
    flags = ("--human-captions", "--generated-captions", "--annotations")
    return [arg for flag, path in zip(flags, files) for arg in (flag, str(path))]


@pytest.mark.skipif(_usable_cpus() < 2,
                    reason="needs two usable CPUs to run two BLAS threads or two workers")
@pytest.mark.parametrize("encoder,n_seeds,pair", [
    pytest.param("bag_mean", 1, "synth", id="bag_mean"),
    pytest.param("birecurrent", 1, "synth", id="birecurrent"),
    pytest.param("bag_mean", 3, "synth", id="bag_mean-3-seeds"),
    pytest.param("birecurrent", 3, "synth", id="birecurrent-3-seeds"),
    # three human captions per image: the jobs of one seed differ in size
    pytest.param("bag_mean", 3, "coco", id="coco-bag_mean-3-seeds"),
])
def test_lic_report_same_with_one_and_two_blas_threads(synth_dir, tmp_path, encoder,
                                                       n_seeds, pair):
    """The same report from one BLAS thread in one process, two BLAS threads
    in one process, and one BLAS thread in each of two training processes."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "CAPBIAS_THREADS")}
    env["PYTHONPATH"] = str(Path(capbias.__file__).parents[1])
    inputs = _lic_inputs(synth_dir if pair == "synth" else tmp_path, pair)
    runs = {
        "one-thread": {"CAPBIAS_THREADS": "1"},
        "two-threads": {"CAPBIAS_THREADS": "2"},
        "two-workers": {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "1"},
    }
    reports = []
    for name, extra in runs.items():
        out = tmp_path / f"report-{name}.json"
        subprocess.run(
            [sys.executable, "-m", "capbias.cli", "report", "--metrics", "lic,sc,leakage",
             *inputs, "--encoder", encoder, "--n-seeds", str(n_seeds), "--epochs", "2",
             "--out", str(out), "--quiet"],
            env={**env, **extra}, check=True, timeout=300,
        )
        report = json.loads(out.read_text())
        del report["timestamp"]
        reports.append(report)
    assert len(reports[0]["metrics"]["lic"]["per_seed"]) == n_seeds
    assert reports[0] == reports[1] == reports[2]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTrainingWorkers:
    """The trainings of a report in one process and in two. The worker count
    is set directly, so that two workers run whatever the host's CPUs."""

    @staticmethod
    def _args(synth_dir, out, *extra):
        return ["report", "--metrics", "lic,sc,leakage", *_lic_inputs(synth_dir),
                "--n-seeds", "2", "--epochs", "1", "--out", str(out), "--quiet", *extra]

    @staticmethod
    def _workers(monkeypatch, n):
        monkeypatch.setattr(capbias.lic, "_n_workers", lambda n_jobs: min(n_jobs, n))

    def test_same_report_and_no_child_left(self, synth_dir, tmp_path, monkeypatch):
        reports = []
        for n in (1, 2):
            self._workers(monkeypatch, n)
            out = tmp_path / f"report-{n}.json"
            assert main(self._args(synth_dir, out)) == EXIT_OK
            _no_child_left()
            report = json.loads(out.read_text())
            del report["timestamp"]
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_same_in_one_and_two_processes(self, synth_dir, tmp_path,
                                                             monkeypatch, caplog):
        errors = []
        for n in (1, 2):
            self._workers(monkeypatch, n)
            caplog.clear()
            args = self._args(synth_dir, tmp_path / "r.json", "--learning-rate", "1e200")
            assert main(args) == EXIT_NUMERICAL
            _no_child_left()
            errors.append([r.getMessage() for r in caplog.records if r.levelname == "ERROR"])
        assert len(errors[0]) == 1 and errors[0][0].startswith("numerical failure: ")
        assert errors[0] == errors[1]

    def test_killed_worker_is_a_program_error(self, synth_dir, tmp_path):
        script = (
            "import os, signal, sys\n"
            "from capbias import classifier, cli, lic\n"
            "parent, train = os.getpid(), classifier.train\n"
            "def train_or_die(*args):\n"
            "    if os.getpid() != parent:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return train(*args)\n"
            "classifier.train = train_or_die\n"
            "lic._n_workers = lambda n_jobs: min(n_jobs, 2)\n"
            "try:\n"
            "    sys.exit(cli.main(sys.argv[1:]))\n"
            "finally:\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        print('no child left')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(capbias.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", script, *self._args(synth_dir, tmp_path / "r.json")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 1
        assert re.search(r"WorkerError: training worker 1 \(pid \d+\) was killed by "
                         r"signal 9", out.stderr)
        assert out.stdout == "no child left\n"


@pytest.mark.parametrize("encoder", ["bag_mean", "birecurrent"])
def test_lic_report_does_not_depend_on_the_heap_layout(synth_dir, tmp_path, encoder):
    """The same report under three allocators: glibc's default, glibc with
    every allocation mapped on its own, and Python's small-object allocator
    switched off. A read of memory the program never wrote, or a result that
    follows addresses, would show as a difference."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("MALLOC_MMAP_THRESHOLD_", "PYTHONMALLOC")}
    env["PYTHONPATH"] = str(Path(capbias.__file__).parents[1])
    layouts = {"default": {}, "mmap": {"MALLOC_MMAP_THRESHOLD_": "0"},
               "malloc": {"PYTHONMALLOC": "malloc"}}
    reports = []
    for name, extra in layouts.items():  # one after the other
        out = tmp_path / f"report-{name}.json"
        subprocess.run(
            [sys.executable, "-m", "capbias.cli", "report", "--metrics", "lic,sc,leakage",
             "--human-captions", str(synth_dir / "human_captions.jsonl"),
             "--generated-captions", str(synth_dir / "generated_captions.jsonl"),
             "--annotations", str(synth_dir / "annotations.jsonl"),
             "--encoder", encoder, "--n-seeds", "2", "--epochs", "2",
             "--out", str(out), "--quiet"],
            env={**env, **extra}, check=True, timeout=300,
        )
        report = json.loads(out.read_text())
        del report["timestamp"]
        reports.append(report)
    assert set(reports[0]["metrics"]) == {"lic_d", "lic_m", "lic", "sc", "leakage"}
    assert reports[0] == reports[1] == reports[2]
