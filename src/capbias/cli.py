"""Command-line entry point: masking, vocabulary export, synthetic corpora,
per-caption bias scores, and the metric report pipeline.

Exit codes: 0 success, 2 validation/input failure, 3 numerical failure.
Every command is deterministic given its inputs and the master seed; the
report timestamp is the only field allowed to differ between reruns.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from capbias import classifier as clf
from capbias import cooccur, lic as lic_mod, masking, synth, vocab as vocab_mod
from capbias.classifier import ClassifierConfig, ClassifierError
from capbias.corpus import (
    AttributeSpec,
    CorpusError,
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


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _resolve(config: dict, args: argparse.Namespace, key: str, default=None):
    """Flag value if given, else config file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return config.get(key, default)


def _build_spec(config: dict, args: argparse.Namespace) -> AttributeSpec:
    wordlist = _resolve(config, args, "wordlist")
    mask_token = _resolve(config, args, "mask_token", "<gender>")
    values = config.get("values")
    name = _resolve(config, args, "attribute", "gender")
    if wordlist:
        word_lists, overrides = masking.load_word_list_file(wordlist)
        values = tuple(values) if values else tuple(word_lists)
        return AttributeSpec(
            name=name, values=values, mask_token=mask_token,
            word_lists=word_lists, plural_overrides=overrides,
        )
    if values:
        return AttributeSpec(name=name, values=tuple(values), mask_token=mask_token)
    return masking.default_gender_spec(mask_token)


# ---------------------------------------------------------------- mask


def cmd_mask(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    spec = _build_spec(config, args)
    masker = masking.Masker(spec)
    total_masked = 0
    out_path = Path(args.out)
    with open(args.input, encoding="utf-8") as src, \
            open(out_path, "w", encoding="utf-8") as dst:
        for lineno, line in enumerate(src, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                tokens = tokenize(str(obj["caption"]))
            except (json.JSONDecodeError, KeyError, CorpusError) as exc:
                raise CorpusError(f"{args.input}:{lineno}: {exc}") from exc
            masked = masker.mask(tokens, origin=str(obj.get("caption_id", lineno)))
            obj["tokens"] = list(masked.tokens)
            obj["caption"] = " ".join(masked.tokens)
            obj["n_masked"] = masked.n_masked
            total_masked += masked.n_masked
            dst.write(json.dumps(obj, ensure_ascii=False) + "\n")
    if not args.quiet:
        print(f"masked {total_masked} tokens -> {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------- vocab


def cmd_vocab(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    spec = _build_spec(config, args)
    token_lists = []
    with open(args.input, encoding="utf-8") as src:
        for line in src:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "tokens" in obj:
                token_lists.append([str(t) for t in obj["tokens"]])
            else:
                token_lists.append(tokenize(str(obj["caption"])))
    vocabulary = vocab_mod.build_vocab(
        token_lists, min_count=args.min_count, mask_token=spec.mask_token
    )
    Path(args.out).write_text(vocabulary.to_json(), encoding="utf-8")
    if not args.quiet:
        print(f"vocabulary of {len(vocabulary)} tokens -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- synth


def cmd_synth(args: argparse.Namespace) -> int:
    spec_obj = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    common = {
        "n_images": int(spec_obj["n_images"]),
        "values": tuple(spec_obj.get("values", ("female", "male"))),
        "marker_words": {
            v: tuple(ws) for v, ws in spec_obj.get(
                "marker_words", synth.DEFAULT_MARKERS
            ).items()
        },
        "filler_vocab_size": int(spec_obj.get("filler_vocab_size", 50)),
        "caption_length_range": tuple(spec_obj.get("caption_length_range", (6, 10))),
    }
    seed = int(spec_obj.get("seed", args.seed or 0))
    human_spec = synth.SynthSpec(
        marker_probability=float(spec_obj["theta_human"]), seed=seed, **common
    )
    generated_spec = synth.SynthSpec(
        marker_probability=float(spec_obj["theta_generated"]),
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


# ---------------------------------------------------------------- score


def cmd_score(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    vocabulary = vocab_mod.Vocabulary.from_dict(
        json.loads(Path(args.vocab).read_text(encoding="utf-8"))
    )
    model = clf.load_checkpoint(args.checkpoint, vocabulary)
    masker = None
    if _resolve(config, args, "wordlist"):
        masker = masking.Masker(_build_spec(config, args))

    names = model.class_names or tuple(f"class{i}" for i in range(model.n_classes))
    caption_ids, sequences = [], []
    with open(args.input, encoding="utf-8") as src:
        for line in src:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            tokens = (
                [str(t) for t in obj["tokens"]]
                if "tokens" in obj
                else tokenize(str(obj["caption"]))
            )
            if masker is not None:
                tokens = list(masker.mask(tokens).tokens)
            caption_ids.append(str(obj.get("caption_id", "")))
            sequences.append(vocabulary.encode(tokens))
    rows = [
        {
            "caption_id": caption_id,
            "predicted": names[int(probs.argmax())],
            "scores": {n: float(p) for n, p in zip(names, probs)},
            "max_score": float(probs.max()),
        }
        for caption_id, probs in zip(caption_ids, clf.predict_proba(model, sequences))
    ]
    rows.sort(key=lambda r: (-r["max_score"], r["caption_id"]))
    with open(args.out, "w", encoding="utf-8") as dst:
        for row in rows:
            row.pop("max_score")
            dst.write(json.dumps(row, ensure_ascii=False) + "\n")
    if not args.quiet:
        print(f"scored {len(rows)} captions -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- report


def _require(config: dict, args: argparse.Namespace, key: str, metric: str):
    value = _resolve(config, args, key)
    if value is None:
        raise CorpusError(f"metric {metric!r} requires the {key!r} input")
    return value


def _protocol_config(config: dict, args: argparse.Namespace) -> ProtocolConfig:
    protocol = dict(config.get("protocol", {}))
    classifier_cfg = dict(protocol.get("classifier", {}))
    if args.n_seeds is not None:
        protocol["n_seeds"] = args.n_seeds
    if args.test_fraction is not None:
        protocol["test_fraction"] = args.test_fraction
    if args.encoder is not None:
        classifier_cfg["encoder_kind"] = args.encoder
    if args.epochs is not None:
        classifier_cfg["epochs"] = args.epochs
    if args.learning_rate is not None:
        classifier_cfg["learning_rate"] = args.learning_rate
    return ProtocolConfig(
        n_seeds=int(protocol.get("n_seeds", 10)),
        test_fraction=float(protocol.get("test_fraction", 0.1)),
        classifier=ClassifierConfig(**classifier_cfg),
    )


def _load_lexicon(path: Optional[str]) -> Optional[dict[str, frozenset[str]]]:
    if not path:
        return None
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    return {label: frozenset(forms) for label, forms in raw.items()}


def run_metrics(config: dict, args: argparse.Namespace) -> dict:
    """Compute the selected metrics and return the report document."""
    metrics = _resolve(config, args, "metrics", list(ALL_METRICS))
    if isinstance(metrics, str):
        metrics = [m.strip() for m in metrics.split(",") if m.strip()]
    unknown = set(metrics) - set(ALL_METRICS)
    if unknown:
        raise CorpusError(f"unknown metrics: {sorted(unknown)}")

    spec = _build_spec(config, args)
    master_seed = int(_resolve(config, args, "seed", config.get("master_seed", 0)))
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
        task_words = config.get("task_words")
        if task_words:
            word_set = cooccur.TaskWordSet(
                tuple(task_words), cooccur.Provenance.USER_SUPPLIED
            )
        else:
            word_set = cooccur.select_task_words(
                human,
                top_k=int(_resolve(config, args, "top_k", 1000)),
                min_per_value=int(_resolve(config, args, "min_per_value", 100)),
            )
        mode = (
            cooccur.CountMode.ATTR_WORDS_IN_CAPTION
            if spec.has_word_lists
            else cooccur.CountMode.ATTR_ANNOTATION
        )
        gt_table = cooccur.count_cooccurrence(human, word_set, mode)
        gen_table = cooccur.count_cooccurrence(generated, word_set, mode)
        results["ba"] = {
            "value": 100 * cooccur.ba_from_tables(gt_table, gen_table),
            "scale": "x100",
            "n_task_words": len(word_set.words),
        }

    lexicon = _load_lexicon(_resolve(config, args, "object_lexicon"))
    if "dba_g" in metrics:
        labels = sorted({l for s in human.object_annotations.values() for l in s})
        word_set = cooccur.TaskWordSet(tuple(labels), cooccur.Provenance.OBJECT_LABELS)
        gt = cooccur.JointDistribution.from_table(cooccur.count_cooccurrence(
            human, word_set, cooccur.CountMode.ATTR_WORDS_IN_CAPTION
        ))
        gen = cooccur.JointDistribution.from_table(cooccur.count_cooccurrence(
            generated, word_set, cooccur.CountMode.ATTR_WORDS_IN_CAPTION
        ))
        results["dba_g"] = {
            "value": 100 * cooccur.dba(
                gt, gen, cooccur.DbaDirection.GENDER_GIVEN_OBJECT
            ),
            "scale": "x100",
            "n_objects": len(labels),
        }
    if "dba_o" in metrics:
        if lexicon is None:
            raise CorpusError("metric 'dba_o' requires the 'object_lexicon' input")
        word_set = cooccur.TaskWordSet(
            tuple(sorted(lexicon)), cooccur.Provenance.USER_SUPPLIED
        )
        gt = cooccur.JointDistribution.from_table(cooccur.count_cooccurrence(
            human, word_set, cooccur.CountMode.ATTR_ANNOTATION, synonyms=lexicon
        ))
        gen = cooccur.JointDistribution.from_table(cooccur.count_cooccurrence(
            generated, word_set, cooccur.CountMode.ATTR_ANNOTATION, synonyms=lexicon
        ))
        results["dba_o"] = {
            "value": 100 * cooccur.dba(
                gt, gen, cooccur.DbaDirection.OBJECT_GIVEN_GENDER
            ),
            "scale": "x100",
            "n_objects": len(lexicon),
        }

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


def cmd_report(args: argparse.Namespace, preset_metrics: Optional[list[str]] = None) -> int:
    config = _load_config_file(args.config)
    if preset_metrics is not None and args.metrics is None:
        config = {**config, "metrics": preset_metrics}
    report = run_metrics(config, args)
    out = _resolve(config, args, "out")
    text = json.dumps(report, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
        if not args.quiet:
            print(f"report -> {out}")
    else:
        print(text)
    if getattr(args, "table", None):
        Path(args.table).write_text(_render_table(report), encoding="utf-8")
    if not args.quiet:
        sys.stdout.write(_render_table(report))
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--wordlist", help="attribute word-list TSV")
    parser.add_argument("--mask-token", dest="mask_token")
    parser.add_argument("--attribute", help="attribute name (default: gender)")


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--human-captions", dest="human_captions")
    parser.add_argument("--generated-captions", dest="generated_captions")
    parser.add_argument("--annotations")
    parser.add_argument("--objects")
    parser.add_argument("--object-lexicon", dest="object_lexicon")
    parser.add_argument("--metrics", help="comma-separated metric names")
    parser.add_argument("--n-seeds", dest="n_seeds", type=int)
    parser.add_argument("--test-fraction", dest="test_fraction", type=float)
    parser.add_argument("--top-k", dest="top_k", type=int)
    parser.add_argument("--min-per-value", dest="min_per_value", type=int)
    parser.add_argument("--encoder", choices=["bag_mean", "birecurrent"])
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--learning-rate", dest="learning_rate", type=float)
    parser.add_argument("--table", help="also write a plain-text table here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capbias",
        description="Societal-bias metrics for image-caption corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="mask attribute words in a captions file")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("vocab", help="build and export a vocabulary")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--min-count", dest="min_count", type=int, default=1)
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("synth", help="generate a synthetic corpus pair with oracle")
    _add_common(p)
    p.add_argument("--spec", required=True, help="synthesis spec JSON")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="per-caption bias scores from a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True, help="vocabulary JSON export")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_score)

    for name, preset in (
        ("report", None),
        ("ba", ["ba"]),
        ("dba", ["dba_g", "dba_o"]),
        ("ratio-error", ["ratio", "error"]),
        ("lic", ["lic"]),
        ("leakage", ["leakage"]),
    ):
        p = sub.add_parser(name, help=f"compute {name} metrics")
        _add_common(p)
        _add_report_flags(p)
        p.set_defaults(func=lambda a, preset=preset: cmd_report(a, preset))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (CorpusError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        logger.error("%s", exc)
        return EXIT_VALIDATION
    except (ClassifierError, FloatingPointError) as exc:
        logger.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
