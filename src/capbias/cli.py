"""Command-line entry point: masking, synthetic corpora, and the metric
report pipeline.

Exit codes: 0 success, 2 validation/input failure, 3 numerical failure; any
other exception is a program error and propagates with its traceback.
Every command is deterministic given its inputs and the master seed; the
report timestamp is the only field allowed to differ between reruns.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from capbias import cooccur, lic as lic_mod, masking, synth
from capbias.classifier import ClassifierConfig, ClassifierError
from capbias.corpus import (
    AttributeSpec,
    CorpusError,
    _read_jsonl,
    load_annotations,
    load_corpus,
    load_object_annotations,
    tokenize,
)
from capbias.lic import ProtocolConfig, run_protocol

logger = logging.getLogger("capbias")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

ALL_METRICS = ("lic", "leakage", "sc", "ba", "dba_g", "dba_o", "ratio", "error")
PROTOCOL_METRICS = {"lic", "leakage", "sc"}

# The keys a config file may hold, the same for `mask` and `report` so that
# one file serves both; `protocol.classifier` is checked against
# `ClassifierConfig`.
_CONFIG_KEYS = frozenset({
    "attribute", "values", "wordlist", "mask_token", "seed", "metrics", "out",
    "human_captions", "generated_captions", "annotations", "objects",
    "object_lexicon", "task_words", "top_k", "min_per_value",
    "protocol", "protocol.n_seeds", "protocol.test_fraction", "protocol.classifier",
})


def _read_json(path: str) -> tuple[object, int]:
    """A JSON file's value and the line it starts on; malformed JSON is an
    input error naming the file and the line."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}:{exc.lineno}: invalid JSON ({exc})") from exc
    return value, text[:len(text) - len(text.lstrip())].count("\n") + 1


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    config = _read_json(path)[0]
    if not isinstance(config, dict):
        raise CorpusError(f"{path}: expected a JSON object")
    protocol = config.get("protocol")
    nested = [f"protocol.{key}" for key in protocol] if isinstance(protocol, dict) else []
    for key in [*config, *nested]:
        if key not in _CONFIG_KEYS:
            raise CorpusError(f"{path}: unknown key {key!r}")
    return config


def _wrong_type(where: str, value, expected: str = "") -> CorpusError:
    """The input error for a value of the wrong type at `where`: the file and
    the key, or `file:line` and the field."""
    return CorpusError(f"{where} has a value of the wrong type: {value!r}{expected}")


def _number(value, kind, where: str):
    """`value` converted by `kind`; a value it cannot convert is an input
    error naming `where`."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise _wrong_type(where, value) from None


def _strings(value, where: str, at_least: int = 0) -> tuple[str, ...]:
    """A JSON list of at least `at_least` strings, as a tuple; any other value
    is an input error naming `where`."""
    if (not isinstance(value, list) or len(value) < at_least
            or not all(isinstance(item, str) for item in value)):
        expected = f", at least {at_least}" if at_least else ""
        raise _wrong_type(where, value, f" (expected a list of strings{expected})")
    return tuple(value)


def _config_number(config: dict, args: argparse.Namespace, key: str, kind, default,
                   name: Optional[str] = None):
    """`kind` of a numeric setting resolved as by `_resolve`; a value it cannot
    convert is an input error naming the config file and the key (`name`
    where `config` is a section of the file)."""
    return _number(_resolve(config, args, key, default), kind,
                   f"{args.config}: {name or key!r}")


def _config_object(value, args: argparse.Namespace, key: str) -> dict:
    """A copy of a config section, which must be a JSON object."""
    if not isinstance(value, dict):
        raise CorpusError(f"{args.config}: {key!r} must be a JSON object")
    return dict(value)


def _config_strings(config: dict, args: argparse.Namespace, key: str) -> tuple[str, ...]:
    """A config file's list of strings; () where the key is absent or null."""
    value = config.get(key)
    return () if value is None else _strings(value, f"{args.config}: {key!r}")


def _resolve(config: dict, args: argparse.Namespace, key: str, default=None):
    """Flag value if given, else config file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return config.get(key, default)


def _build_spec(config: dict, args: argparse.Namespace) -> AttributeSpec:
    wordlist = _resolve(config, args, "wordlist")
    mask_token = _resolve(config, args, "mask_token", "<gender>")
    values = _config_strings(config, args, "values")
    name = _resolve(config, args, "attribute", "gender")
    if wordlist:
        word_lists, overrides = masking.load_word_list_file(wordlist)
        return AttributeSpec(
            name=name, values=values or tuple(word_lists), mask_token=mask_token,
            word_lists=word_lists, plural_overrides=overrides,
        )
    if values:
        return AttributeSpec(name=name, values=values, mask_token=mask_token)
    return masking.default_gender_spec(mask_token)


# ---------------------------------------------------------------- mask


def cmd_mask(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    spec = _build_spec(config, args)
    masker = masking.Masker(spec)
    total_masked = 0
    out_path = Path(args.out)
    # read and tokenize the whole input first, so invalid input writes nothing
    rows = []
    for lineno, obj in _read_jsonl(args.input, ("caption",)):
        try:
            rows.append((obj, tokenize(str(obj["caption"]))))
        except CorpusError as exc:
            raise CorpusError(f"{args.input}:{lineno}: {exc}") from exc
    with open(out_path, "w", encoding="utf-8") as dst:
        for obj, tokens in rows:
            masked = masker.mask(tokens)
            n_masked = sum(t in masker.all_words for t in tokens)
            obj["tokens"] = list(masked)
            obj["caption"] = " ".join(masked)
            obj["n_masked"] = n_masked
            total_masked += n_masked
            dst.write(json.dumps(obj, ensure_ascii=False) + "\n")
    if not args.quiet:
        print(f"masked {total_masked} tokens -> {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------- synth


def _int_pair(value) -> tuple[int, int]:
    lo, hi = value
    return int(lo), int(hi)


def cmd_synth(args: argparse.Namespace) -> int:
    spec_obj, lineno = _read_json(args.spec)
    # the spec is one JSON object; errors name the line it starts on
    at = f"{args.spec}:{lineno}"
    if not isinstance(spec_obj, dict):
        raise CorpusError(f"{at}: expected a JSON object")
    for name in ("n_images", "theta_human", "theta_generated"):
        if name not in spec_obj:
            raise CorpusError(f"{at}: missing field {name!r}")

    values = (
        _strings(spec_obj["values"], f"{at}: field 'values'", 2) if "values" in spec_obj
        else ("female", "male")
    )
    marker_words = dict(synth.DEFAULT_MARKERS)
    if "marker_words" in spec_obj:
        marker_words = spec_obj["marker_words"]
        where = f"{at}: field 'marker_words'"
        if not isinstance(marker_words, dict):
            raise _wrong_type(
                where, marker_words, " (expected an object of value -> list of strings)"
            )
        marker_words = {v: _strings(ws, where, 1) for v, ws in marker_words.items()}
    numbers = {
        name: _number(spec_obj.get(name, default), kind, f"{at}: field {name!r}")
        for name, kind, default in (
            ("n_images", int, None),
            ("filler_vocab_size", int, 50),
            ("caption_length_range", _int_pair, (6, 10)),
            ("seed", int, args.seed or 0),
            ("theta_human", float, None),
            ("theta_generated", float, None),
        )
    }
    seed = numbers.pop("seed")
    theta_human = numbers.pop("theta_human")
    theta_generated = numbers.pop("theta_generated")
    common = {**numbers, "values": values, "marker_words": marker_words}
    human_spec = synth.SynthSpec(marker_probability=theta_human, seed=seed, **common)
    generated_spec = synth.SynthSpec(
        marker_probability=theta_generated,
        seed=lic_mod.derive_seed(seed, 1),
        **common,
    )
    human, generated = synth.generate_pair(human_spec, generated_spec)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    synth.write_corpus_files(
        human, out_dir / "human_captions.jsonl", out_dir / "annotations.jsonl"
    )
    synth.write_corpus_files(
        generated, out_dir / "generated_captions.jsonl", out_dir / "annotations.jsonl"
    )
    oracle = {
        "theta_human": human_spec.marker_probability,
        "theta_generated": generated_spec.marker_probability,
        "expected_ba": synth.expected_ba(human_spec, generated_spec),
        "expected_ba_x100": 100 * synth.expected_ba(human_spec, generated_spec),
        "bayes_accuracy_human": synth.bayes_accuracy(human_spec),
        "bayes_accuracy_generated": synth.bayes_accuracy(generated_spec),
        "marker_words": {v: list(w) for v, w in common["marker_words"].items()},
    }
    (out_dir / "oracle.json").write_text(json.dumps(oracle, indent=2), encoding="utf-8")
    if not args.quiet:
        print(f"wrote corpus pair and oracle to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------- report


def _require(config: dict, args: argparse.Namespace, key: str, metric: str):
    value = _resolve(config, args, key)
    if value is None:
        raise CorpusError(f"metric {metric!r} requires the {key!r} input")
    return value


# The JSON type each classifier setting takes: that of its default, where an
# integer also serves for a float. Values are passed on unconverted, so the
# config hash in the report is that of the file's values.
_CLASSIFIER_TYPES = {
    f.name: (int, float) if isinstance(f.default, float) else type(f.default)
    for f in dataclasses.fields(ClassifierConfig)
}


def _protocol_config(config: dict, args: argparse.Namespace) -> ProtocolConfig:
    protocol = _config_object(config.get("protocol", {}), args, "protocol")
    classifier_cfg = _config_object(
        protocol.get("classifier", {}), args, "protocol.classifier"
    )
    for key, value in classifier_cfg.items():
        if key not in _CLASSIFIER_TYPES:
            raise CorpusError(f"{args.config}: unknown key 'protocol.classifier.{key}'")
        if isinstance(value, bool) or not isinstance(value, _CLASSIFIER_TYPES[key]):
            raise CorpusError(
                f"{args.config}: 'protocol.classifier.{key}' has a value of the "
                f"wrong type: {value!r}"
            )
    source = {key: f"{args.config}: 'protocol.classifier.{key}'" for key in classifier_cfg}
    for key, flag, value in (("encoder_kind", "--encoder", args.encoder),
                             ("epochs", "--epochs", args.epochs),
                             ("learning_rate", "--learning-rate", args.learning_rate)):
        if value is not None:
            classifier_cfg[key], source[key] = value, flag
    # Each setting checked alone, the others at their defaults, so that an
    # out-of-range one is named as an input error.
    for key, value in classifier_cfg.items():
        try:
            ClassifierConfig(**{key: value})
        except ClassifierError as exc:
            raise CorpusError(f"{source[key]}: {exc}") from None
    return ProtocolConfig(
        n_seeds=_config_number(protocol, args, "n_seeds", int, 10, "protocol.n_seeds"),
        test_fraction=_config_number(
            protocol, args, "test_fraction", float, 0.1, "protocol.test_fraction"
        ),
        classifier=ClassifierConfig(**classifier_cfg),
    )


def _load_lexicon(path: Optional[str]) -> Optional[dict[str, frozenset[str]]]:
    if not path:
        return None
    raw = _read_json(path)[0]
    if not isinstance(raw, dict):
        raise CorpusError(f"{path}: expected a JSON object of label -> list of strings")
    return {
        label: frozenset(_strings(forms, f"{path}: {label!r}"))
        for label, forms in raw.items()
    }


def _dba_entry(human, generated, words, values_of, direction, **count) -> dict:
    """DBA on the x100 scale over `words`, each side's caption values read by
    `values_of`; `count` goes to `count_cooccurrence`."""
    word_set = cooccur.TaskWordSet(tuple(words))
    gt, gen = (
        cooccur.JointDistribution.from_table(cooccur.count_cooccurrence(
            corpus, word_set, values_of(corpus), **count
        ))
        for corpus in (human, generated)
    )
    return {
        "value": 100 * cooccur.dba(gt, gen, direction),
        "scale": "x100",
        "n_objects": len(words),
    }


def run_metrics(config: dict, args: argparse.Namespace) -> dict:
    """Compute the selected metrics and return the report document."""
    metrics = _resolve(config, args, "metrics", list(ALL_METRICS))
    if isinstance(metrics, str):
        metrics = [m.strip() for m in metrics.split(",") if m.strip()]
    unknown = set(metrics) - set(ALL_METRICS)
    if unknown:
        raise CorpusError(f"unknown metrics: {sorted(unknown)}")

    spec = _build_spec(config, args)
    master_seed = _config_number(config, args, "seed", int, 0)
    annotations_path = _resolve(config, args, "annotations")
    objects_path = _resolve(config, args, "objects")
    if "dba_g" in metrics and objects_path is None:
        raise CorpusError("metric 'dba_g' requires the 'objects' input file")

    # Both sides share the annotation and object files: read each once.
    annotations = objects = None
    if annotations_path is not None:
        annotations = load_annotations(annotations_path, spec)
    if objects_path is not None:
        objects = load_object_annotations(objects_path)
    human = generated = None
    if {"lic", "leakage", "sc", "ba", "dba_g", "dba_o"} & set(metrics):
        human = load_corpus(
            _require(config, args, "human_captions", "ba/lic"),
            annotations_path, spec, objects_path,
            annotations=annotations, objects=objects,
        )
    if metrics:
        generated = load_corpus(
            _require(config, args, "generated_captions", metrics[0]),
            annotations_path, spec, objects_path,
            annotations=annotations, objects=objects,
        )

    results: dict[str, dict] = {}

    if PROTOCOL_METRICS & set(metrics):
        protocol = _protocol_config(config, args)
        reports = run_protocol(human, generated, protocol, master_seed)
        wanted = set()
        if "lic" in metrics:
            wanted |= {"lic", "lic_m", "lic_d"}
        if "leakage" in metrics:
            wanted |= {"leakage"}
        if "sc" in metrics:
            wanted |= {"sc"}
        for name, report in reports.items():
            if name in wanted:
                results[name] = {
                    "per_seed": list(report.per_seed),
                    "mean": report.mean,
                    "std": report.std,
                    **report.provenance,
                }

    if "ba" in metrics:
        # a caption's value is the one it names where the spec has word lists
        values_of = (lambda c: c.mentions) if spec.has_word_lists else cooccur.annotated
        task_words = _config_strings(config, args, "task_words")
        if task_words:
            gt_table = cooccur.count_cooccurrence(
                human, cooccur.TaskWordSet(task_words), values_of(human)
            )
        else:
            gt_table = cooccur.select_task_words(
                human, values_of(human),
                top_k=_config_number(config, args, "top_k", int, 1000),
                min_per_value=_config_number(config, args, "min_per_value", int, 100),
            )
        gen_table = cooccur.count_cooccurrence(
            generated, cooccur.TaskWordSet(gt_table.words), values_of(generated)
        )
        results["ba"] = {
            "value": 100 * cooccur.ba_from_tables(gt_table, gen_table),
            "scale": "x100",
            "n_task_words": len(gt_table.words),
        }

    lexicon = _load_lexicon(_resolve(config, args, "object_lexicon"))
    if "dba_g" in metrics:
        labels = sorted({l for s in human.object_annotations.values() for l in s})
        results["dba_g"] = _dba_entry(
            human, generated, labels, lambda c: c.mentions,
            cooccur.DbaDirection.GENDER_GIVEN_OBJECT, objects=True,
        )
    if "dba_o" in metrics:
        if lexicon is None:
            raise CorpusError("metric 'dba_o' requires the 'object_lexicon' input")
        results["dba_o"] = _dba_entry(
            human, generated, sorted(lexicon), cooccur.annotated,
            cooccur.DbaDirection.OBJECT_GIVEN_GENDER, synonyms=lexicon,
        )

    if "ratio" in metrics:
        results["ratio"] = {"value": cooccur.ratio(generated), "scale": "none"}
    if "error" in metrics:
        results["error"] = {
            "value": 100 * cooccur.error_rate(generated),
            "scale": "x100",
        }

    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "master_seed": master_seed,
        "attribute": spec.name,
        "input_hashes": {
            side: corpus.content_hash()
            for side, corpus in (("human", human), ("generated", generated))
            if corpus is not None
        },
        "metrics": results,
    }


def _render_table(report: dict) -> str:
    lines = [f"{'metric':<10} {'mean':>10} {'std':>8}"]
    for name, entry in report["metrics"].items():
        if "mean" in entry:
            std = f"{entry['std']:.2f}" if entry.get("std") is not None else "-"
            lines.append(f"{name:<10} {entry['mean']:>10.2f} {std:>8}")
        else:
            lines.append(f"{name:<10} {entry['value']:>10.2f} {'-':>8}")
    return "\n".join(lines) + "\n"


def cmd_report(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    report = run_metrics(config, args)
    out = _resolve(config, args, "out")
    text = json.dumps(report, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
        if not args.quiet:
            print(f"report -> {out}")
    else:
        print(text)
    if not args.quiet:
        sys.stdout.write(_render_table(report))
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capbias",
        description="Societal-bias metrics for image-caption corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # No abbreviated flags: `synth --out` would otherwise read as `--out-dir`.
    mask = sub.add_parser("mask", allow_abbrev=False,
                          help="mask attribute words in a captions file")
    synth_p = sub.add_parser("synth", allow_abbrev=False,
                             help="generate a synthetic corpus pair with oracle")
    report = sub.add_parser("report", allow_abbrev=False, help="compute the metric report")

    for p in (mask, synth_p, report):
        p.add_argument("--quiet", action="store_true")
    for p in (mask, report):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--wordlist", help="attribute word-list TSV")
        p.add_argument("--mask-token", dest="mask_token")
        p.add_argument("--attribute", help="attribute name (default: gender)")
    for p in (synth_p, report):
        p.add_argument("--seed", type=int, help="master seed")

    mask.add_argument("--input", required=True)
    mask.add_argument("--out", required=True, help="masked captions JSONL")
    mask.set_defaults(func=cmd_mask)

    synth_p.add_argument("--spec", required=True, help="synthesis spec JSON")
    synth_p.add_argument("--out-dir", dest="out_dir", required=True)
    synth_p.set_defaults(func=cmd_synth)

    report.add_argument("--out", help="report JSON path (default: stdout)")
    report.add_argument("--human-captions", dest="human_captions")
    report.add_argument("--generated-captions", dest="generated_captions")
    report.add_argument("--annotations")
    report.add_argument("--objects")
    report.add_argument("--object-lexicon", dest="object_lexicon")
    report.add_argument("--metrics", help="comma-separated metric names")
    report.add_argument("--n-seeds", dest="n_seeds", type=int)
    report.add_argument("--test-fraction", dest="test_fraction", type=float)
    report.add_argument("--top-k", dest="top_k", type=int)
    report.add_argument("--min-per-value", dest="min_per_value", type=int)
    report.add_argument("--encoder", choices=["bag_mean", "birecurrent"])
    report.add_argument("--epochs", type=int)
    report.add_argument("--learning-rate", dest="learning_rate", type=float)
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (CorpusError, FileNotFoundError) as exc:
        logger.error("%s", exc)
        return EXIT_VALIDATION
    except (ClassifierError, FloatingPointError) as exc:
        logger.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
