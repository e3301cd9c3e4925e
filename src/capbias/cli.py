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
    Source,
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

# The inputs each metric reads besides the generated captions; a report lists
# its metrics in this order.
NEEDS = {
    "lic": ("human_captions", "annotations"),
    "leakage": ("human_captions", "annotations"),
    "sc": ("human_captions", "annotations"),
    "ba": ("human_captions",),
    "dba_g": ("human_captions", "objects"),
    "dba_o": ("human_captions", "annotations", "object_lexicon"),
    "ratio": (),
    "error": ("annotations",),
}
ALL_METRICS = tuple(NEEDS)
PROTOCOL_METRICS = {"lic", "leakage", "sc"}

# The settings of `mask` and `report`, one row per config key: its JSON type,
# its default and its range, which is the least value, the dataclass that
# checks the field of that name, or the names a list may hold. A key's last
# part names the `args` attribute it resolves into, which is also the dest of
# its flag where the command has one; a `dict` row is a section of the file.
SETTINGS = {
    "attribute": (str, "gender", None),
    "values": (list, (), None),
    "wordlist": (str, None, None),
    "mask_token": (str, "<gender>", None),
    "seed": (int, 0, None),
    "metrics": (list, ALL_METRICS, ALL_METRICS),
    "out": (str, None, None),
    "human_captions": (str, None, None),
    "generated_captions": (str, None, None),
    "annotations": (str, None, None),
    "objects": (str, None, None),
    "object_lexicon": (str, None, None),
    "task_words": (list, (), None),
    "top_k": (int, 1000, 1),
    "min_per_value": (int, 100, 0),
    "protocol": (dict, {}, None),
    "protocol.n_seeds": (int, 10, ProtocolConfig),
    "protocol.test_fraction": (float, 0.1, ProtocolConfig),
    "protocol.classifier": (dict, {}, None),
    # every `ClassifierConfig` field but `seed`: `run_protocol` derives each
    # classifier's seed from the master seed, so a configured one would change
    # nothing but the report's `config_hash`
    **{f"protocol.classifier.{f.name}": (type(f.default), f.default, ClassifierConfig)
       for f in dataclasses.fields(ClassifierConfig) if f.name != "seed"},
}


def _read_json(path: str) -> tuple[object, int]:
    """A JSON file's value and the line it starts on; malformed JSON is an
    input error naming the file and the line."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}:{exc.lineno}: invalid JSON ({exc})") from exc
    return value, text[:len(text) - len(text.lstrip())].count("\n") + 1


def _is(value, kind) -> bool:
    """Whether `value` has the JSON type `kind`. A boolean is never a number,
    and an integer is also a float."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if kind is float else kind
    )


def _checked(value, kind, where: str, at_least: Optional[int] = None,
             at_most: Optional[int] = None, items: type = str):
    """`value`, which must have the JSON type `kind` (see `_is`); a list must
    hold `items`, at least `at_least` and at most `at_most` of them, and a
    number must be at least `at_least`. Any other value is an input error
    naming `where`: the file and key, the flag, or `file:line` and the field."""
    wrong = f"{where} has a value of the wrong type: {value!r}"
    if kind is list:
        if not (_is(value, list) and all(_is(item, items) for item in value)
                and (at_least or 0) <= len(value) <= (at_most or len(value))):
            noun = "integers" if items is int else "strings"
            size = ("" if not at_least else f", exactly {at_least}" if at_most == at_least
                    else f", at least {at_least}")
            raise CorpusError(f"{wrong} (expected a list of {noun}{size})")
    elif not _is(value, kind):
        raise CorpusError(wrong)
    elif at_least is not None and value < at_least:
        raise CorpusError(
            f"{where} has a value out of range: {value!r} (expected at least {at_least})"
        )
    return value


def _in_range(where: str, cls, **fields):
    """`cls(**fields)`, so that the dataclass checks `fields` with the other
    fields at their defaults; a value it rejects is an input error naming
    `where`."""
    try:
        return cls(**fields)
    except (CorpusError, ClassifierError) as exc:
        raise CorpusError(f"{where}: {exc}") from None


def _keys(section: dict, prefix: str = ""):
    """The dotted key of each entry of a config file, nested sections included."""
    for key, value in section.items():
        yield prefix + key
        if isinstance(value, dict) and SETTINGS.get(prefix + key, (None,))[0] is dict:
            yield from _keys(value, f"{prefix}{key}.")


def load_settings(args: argparse.Namespace) -> argparse.Namespace:
    """Set the `args` attribute of every row of `SETTINGS` but a section to
    its flag's value if given, else to the config file's value, else to the
    default, before any input file is read. Every value in the file and every
    flag given is checked, so an unknown key or a wrong value is an input
    error naming the file and key, or the flag."""
    path, config = args.config, {}
    if path is not None:
        config = _read_json(path)[0]
        if not isinstance(config, dict):
            raise CorpusError(f"{path}: expected a JSON object")
        for key in _keys(config):
            if key not in SETTINGS:
                raise CorpusError(f"{path}: unknown key {key!r}")
    for key, (kind, default, check) in SETTINGS.items():
        *sections, name = key.split(".")
        in_file = config
        for section in sections:  # a section's own row, checked first, is a dict
            in_file = in_file.get(section, {})
        given = [(in_file[name], f"{path}: {key!r}")] if name in in_file else []
        if getattr(args, name, None) is not None:
            given.append((getattr(args, name), "--" + name.replace("_", "-")))
        value = default
        for value, where in given:  # the flag, given last, wins
            _checked(value, kind, where, check if isinstance(check, int) else None)
            if check in (ProtocolConfig, ClassifierConfig):
                _in_range(where, check, **{name: value})
            elif isinstance(check, tuple) and not value:
                raise CorpusError(f"{where} names none (expected some of {', '.join(check)})")
            elif isinstance(check, tuple) and not set(value) <= set(check):
                raise CorpusError(
                    f"{where} has unknown names {sorted(set(value) - set(check))} "
                    f"(expected some of {', '.join(check)})"
                )
        if kind is float:  # so that `1` and `1.0` give one config hash
            value = float(value)
        if kind is not dict:
            setattr(args, name, value)
    return args


def _build_spec(args: argparse.Namespace) -> AttributeSpec:
    values = tuple(args.values)
    if args.wordlist:
        word_lists, overrides = masking.load_word_list_file(args.wordlist)
        return AttributeSpec(
            name=args.attribute, values=values or tuple(word_lists),
            mask_token=args.mask_token, word_lists=word_lists, plural_overrides=overrides,
        )
    if values:
        return AttributeSpec(name=args.attribute, values=values, mask_token=args.mask_token)
    return masking.default_gender_spec(args.mask_token)


# ---------------------------------------------------------------- mask


def cmd_mask(args: argparse.Namespace) -> int:
    masker = masking.Masker(_build_spec(load_settings(args)))
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


def cmd_synth(args: argparse.Namespace) -> int:
    spec_obj, lineno = _read_json(args.spec)
    # the spec is one JSON object; errors name the line it starts on
    at = f"{args.spec}:{lineno}"
    if not isinstance(spec_obj, dict):
        raise CorpusError(f"{at}: expected a JSON object")
    # name, JSON type, least value or length, most length, item type; an absent
    # field takes `SynthSpec`'s default; `marker_words` and `seed` are read below
    table = (
        ("n_images", int),
        ("filler_vocab_size", int, 1),
        ("caption_length_range", list, 2, 2, int),
        ("values", list, 2),
        ("theta_human", float),
        ("theta_generated", float),
    )
    for name in spec_obj:
        if name not in {"marker_words", "seed", *(row[0] for row in table)}:
            raise CorpusError(f"{at}: unknown field {name!r}")
    for name in ("n_images", "theta_human", "theta_generated"):
        if name not in spec_obj:
            raise CorpusError(f"{at}: missing field {name!r}")

    common = {
        name: _checked(spec_obj[name], kind, f"{at}: field {name!r}", *size)
        for name, kind, *size in table if name in spec_obj
    }
    theta = {name: float(common.pop(name)) for name in ("theta_human", "theta_generated")}
    common = {name: tuple(v) if isinstance(v, list) else v for name, v in common.items()}
    if "marker_words" in spec_obj:
        where = f"{at}: field 'marker_words'"
        common["marker_words"] = {
            value: tuple(_checked(words, list, where, 1))
            for value, words in _checked(spec_obj["marker_words"], dict, where).items()
        }
    # the flag wins over the spec, as over the config of `mask` and `report`
    seed, where = ((args.seed, "--seed") if args.seed is not None
                   else (spec_obj.get("seed", 0), f"{at}: field 'seed'"))
    _checked(seed, int, where, 0)
    # the fields both sides share first, so that an error is named by its field
    _in_range(at, synth.SynthSpec, marker_probability=1.0, **common)
    human_spec, generated_spec = (
        _in_range(f"{at}: field {name!r}", synth.SynthSpec,
                  marker_probability=theta[name], seed=side_seed, **common)
        for name, side_seed in (("theta_human", seed),
                                ("theta_generated", lic_mod.derive_seed(seed, 1)))
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
        "marker_words": {v: list(w) for v, w in human_spec.marker_words.items()},
    }
    (out_dir / "oracle.json").write_text(json.dumps(oracle, indent=2), encoding="utf-8")
    if not args.quiet:
        print(f"wrote corpus pair and oracle to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------- report


def _load_lexicon(path: str) -> dict[str, frozenset[str]]:
    raw = _read_json(path)[0]
    if not isinstance(raw, dict):
        raise CorpusError(f"{path}: expected a JSON object of label -> list of strings")
    return {
        label: frozenset(_checked(forms, list, f"{path}: {label!r}"))
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


def run_metrics(args: argparse.Namespace) -> dict:
    """Compute the selected metrics from the settings `load_settings` put in
    `args`, and return the report document."""
    metrics = args.metrics
    for metric in metrics:
        for key in ("generated_captions", *NEEDS[metric]):
            if getattr(args, key) is None:
                raise CorpusError(f"metric {metric!r} requires the {key!r} input")

    spec = _build_spec(args)
    # DBA_G, Ratio and Error read the value a caption names, and so does BA
    # without annotations
    for metric in () if spec.has_word_lists else metrics:
        if metric in ("dba_g", "ratio", "error") or (
                metric == "ba" and args.annotations is None):
            raise CorpusError(
                f"metric {metric!r} requires word lists for attribute {spec.name!r}"
                + (" or the 'annotations' input" if metric == "ba" else ""))
    # Both sides share the annotation and object files: read each once.
    shared = {"annotations_path": args.annotations, "attribute_spec": spec,
              "objects_path": args.objects, "annotations": None, "objects": None}
    if args.annotations is not None:
        shared["annotations"] = load_annotations(args.annotations, spec)
    if args.objects is not None:
        shared["objects"] = load_object_annotations(args.objects)
    human = None
    if any("human_captions" in NEEDS[metric] for metric in metrics):
        human = load_corpus(args.human_captions, source=Source.HUMAN, **shared)
    generated = load_corpus(args.generated_captions, source=Source.MODEL, **shared)

    results: dict[str, dict] = {}

    if PROTOCOL_METRICS & set(metrics):
        fields = [key.split(".")[2] for key in SETTINGS
                  if key.startswith("protocol.classifier.")]
        protocol = ProtocolConfig(
            n_seeds=args.n_seeds, test_fraction=args.test_fraction,
            classifier=ClassifierConfig(**{name: getattr(args, name) for name in fields}),
        )
        reports = run_protocol(human, generated, protocol, args.seed)
        wanted = {*metrics, *(("lic_m", "lic_d") if "lic" in metrics else ())}
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
        if args.task_words:
            gt_table = cooccur.count_cooccurrence(
                human, cooccur.TaskWordSet(tuple(args.task_words)), values_of(human)
            )
        else:
            gt_table = cooccur.select_task_words(
                human, values_of(human), top_k=args.top_k, min_per_value=args.min_per_value,
            )
        gen_table = cooccur.count_cooccurrence(
            generated, cooccur.TaskWordSet(gt_table.words), values_of(generated)
        )
        results["ba"] = {
            "value": 100 * cooccur.ba_from_tables(gt_table, gen_table),
            "scale": "x100",
            "n_task_words": len(gt_table.words),
        }

    if "dba_g" in metrics:
        # the labels of the images that a caption of either side shows
        objects = human.object_annotations
        labels = sorted({label for corpus in (human, generated)
                         for image in corpus.image_ids for label in objects.get(image, ())})
        results["dba_g"] = _dba_entry(
            human, generated, labels, lambda c: c.mentions,
            cooccur.DbaDirection.GENDER_GIVEN_OBJECT, objects=True,
        )
    if "dba_o" in metrics:
        lexicon = _load_lexicon(args.object_lexicon)
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
        "master_seed": args.seed,
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
    report = run_metrics(load_settings(args))
    text = json.dumps(report, indent=2)
    # standard output is one format: the report itself, or with --out the
    # path and a table
    if not args.out:
        print(text)
    else:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        if not args.quiet:
            print(f"report -> {args.out}")
            sys.stdout.write(_render_table(report))
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _names(text: str) -> list[str]:
    """The names of a comma-separated list."""
    return [name.strip() for name in text.split(",") if name.strip()]


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
    report.add_argument("--metrics", type=_names, help="comma-separated metric names")
    report.add_argument("--n-seeds", dest="n_seeds", type=int)
    report.add_argument("--test-fraction", dest="test_fraction", type=float)
    report.add_argument("--top-k", dest="top_k", type=int)
    report.add_argument("--min-per-value", dest="min_per_value", type=int)
    report.add_argument("--encoder", dest="encoder_kind", choices=["bag_mean", "birecurrent"])
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
