"""Seeded input generators for the benchmark workloads, with ground-truth tallies.

Two kinds of corpus pair are generated, in the JSON Lines formats that
`capbias report` reads:

- ``synthetic``: the `capbias synth` layout. One caption per image; its marker
  word agrees with the image's attribute value with probability theta, every
  other token is a filler word, so theta is the Bayes accuracy.
- ``coco``: a COCO-shaped pair. Five human captions and one generated caption
  per image, gender words from the shipped word list at fixed per-side rates
  of own-value / other-value / mixed / no mention, a Zipf context vocabulary,
  object annotations skewed by gender, and a synonym lexicon.

Generation uses only the standard library, so the inputs depend on the seed
and the parameters alone. While writing, each generator tallies what it put in
(mentions per side and value, object and lexicon hits); `recount_files` counts
the same things back from the written files.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import os
import random
import re
import shutil
from pathlib import Path

import recount

# Bump when a generator's output for a given seed and parameters changes.
GENERATOR_VERSION = 1

VALUES = ("female", "male")
MARKERS = {"female": "umbrella", "male": "skateboard"}
MENTION_KINDS = ("own", "other", "mixed", "none")
_PRONOUNS = {"she", "her", "hers", "herself", "he", "his", "him", "himself"}


# ------------------------------------------------------------ gender words


def read_word_list(path: Path) -> tuple[dict[str, list[str]], dict[str, str]]:
    """Parse the shipped `value<TAB>word[<TAB>irregular plural]` file."""
    words: dict[str, list[str]] = {}
    irregular: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t")]
        words.setdefault(parts[0], []).append(parts[1])
        if len(parts) == 3 and parts[2]:
            irregular[parts[1]] = parts[2]
    return words, irregular


def plural(word: str, irregular: dict[str, str]) -> str:
    """English plural: the listed irregular form, else the regular suffix rules."""
    if word in irregular:
        return irregular[word]
    if word.endswith(("s", "x", "ch", "sh")):
        return word + "es"
    if len(word) > 1 and word[-1] == "y" and word[-2] not in "aeiou":
        return word[:-1] + "ies"
    return word + "s"


def attribute_words(path: Path) -> dict[str, frozenset[str]]:
    """Every attribute word per value, singulars and plurals."""
    words, irregular = read_word_list(path)
    return {
        value: frozenset(ws) | {plural(w, irregular) for w in ws}
        for value, ws in words.items()
    }


def mention_words(path: Path) -> dict[str, list[str]]:
    """Words the COCO generator writes: singulars plus plurals of the nouns."""
    words, irregular = read_word_list(path)
    return {
        value: ws + [plural(w, irregular) for w in ws if w not in _PRONOUNS]
        for value, ws in words.items()
    }


# ------------------------------------------------------------ tokens


_EDGE = re.compile(r"^[\W_]+|[\W_]+$")


def tokens_of(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation at token edges."""
    out = []
    for piece in text.lower().split():
        piece = _EDGE.sub("", piece)
        if piece:
            out.append(piece)
    return out


def render(tokens: list[str]) -> str:
    """Caption text as a person would write it: capitalised, with a full stop."""
    text = " ".join(tokens)
    return text[:1].upper() + text[1:] + "."


class _Zipf:
    """Draws indices 0..n-1 with weight 1 / (i + 1) ** s."""

    def __init__(self, n: int, s: float):
        self.cum = list(itertools.accumulate(1.0 / (i + 1) ** s for i in range(n)))

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_right(self.cum, rng.random() * self.cum[-1])


# ------------------------------------------------------------ synthetic pair


def generate_synthetic(seed: int, params: dict, out_dir: Path) -> dict:
    """Write a `capbias synth`-format pair; returns its tallies.

    Image i has value VALUES[i % 2]. Each caption holds one marker word, of the
    image's value with probability theta (per side), and fillers drawn
    uniformly from `filler_words` words.
    """
    n_images = params["n_images"]
    fillers = [f"filler{i:04d}" for i in range(params["filler_words"])]
    lo, hi = params["caption_length"]
    tallies = {"sides": {}, "images": {v: 0 for v in VALUES}}
    image_ids = [f"img{i:06d}" for i in range(n_images)]
    for i in range(n_images):
        tallies["images"][VALUES[i % 2]] += 1

    for side, prefix, source in (("human", "h", "human"), ("generated", "m", "model")):
        rng = random.Random(f"{seed}:synthetic:{side}")
        theta = params[f"theta_{side}"]
        agree = {v: 0 for v in VALUES}
        rows = []
        for i, image_id in enumerate(image_ids):
            value = VALUES[i % 2]
            if rng.random() < theta:
                marker_value = value
                agree[value] += 1
            else:
                marker_value = VALUES[1 - i % 2]
            length = rng.randint(lo, hi)
            tokens = [rng.choice(fillers) for _ in range(length - 1)]
            tokens.insert(rng.randrange(length), MARKERS[marker_value])
            rows.append({
                "caption_id": f"{prefix}-{image_id}", "image_id": image_id,
                "caption": " ".join(tokens), "source": source,
            })
        _write_jsonl(out_dir / f"{side}_captions.jsonl", rows)
        tallies["sides"][side] = {"captions": n_images, "marker_agrees": agree}
    _write_jsonl(
        out_dir / "annotations.jsonl",
        [{"image_id": image_id, "attribute": VALUES[i % 2]}
         for i, image_id in enumerate(image_ids)],
    )
    return tallies


# ------------------------------------------------------------ COCO-shaped pair


def generate_coco(seed: int, params: dict, out_dir: Path, word_list: Path) -> dict:
    """Write a COCO-shaped pair with objects and a lexicon; returns its tallies.

    Tallies: per side, captions by mention kind relative to the image's value
    and by mentioned value (`female_only`, `male_only`, `mixed`, `none`); per
    value, object-annotation hits per label; per side, captions containing
    each lexicon label (by any of its surface forms).
    """
    rng = random.Random(f"{seed}:coco")
    n_images = params["n_images"]
    gender = mention_words(word_list)
    context = [f"w{i:04d}" for i in range(params["context_words"])]
    ctx_zipf = _Zipf(len(context), params["zipf_s"])
    # A slice of the context vocabulary leans towards each value.
    n_lean = params["leaning_words"]
    leaning = {
        "female": context[10:10 + n_lean],
        "male": context[10 + n_lean:10 + 2 * n_lean],
    }
    lean_zipf = _Zipf(n_lean, params["zipf_s"])

    labels = [f"obj{i:03d}" for i in range(params["lexicon_labels"])]
    lexicon = {
        label: [f"{label}{suffix}" for suffix in "ab"[: rng.randint(0, 2)]]
        for label in labels
    }
    label_zipf = _Zipf(len(labels), params["zipf_s"])
    n_obj = params["object_labels"]
    # Object labels 0..n_obj-1: the first third lean female, the second male.
    third = n_obj // 3
    lean_range = {"female": range(0, third), "male": range(third, 2 * third)}
    obj_weight = {
        value: [
            (3.0 if j in lean_range[value] else 1.0) / (j + 1) ** 0.5
            for j in range(n_obj)
        ]
        for value in VALUES
    }

    image_ids = [f"img{i:06d}" for i in range(n_images)]
    values = [VALUES[i % 2] for i in range(n_images)]
    objects = []
    object_hits = {v: {} for v in VALUES}
    for image_id, value in zip(image_ids, values):
        k = rng.randint(*params["objects_per_image"])
        chosen = sorted({
            labels[j] for j in rng.choices(range(n_obj), obj_weight[value], k=k)
        })
        objects.append(chosen)
        for label in chosen:
            object_hits[value][label] = object_hits[value].get(label, 0) + 1

    tallies = {
        "sides": {}, "object_hits": object_hits,
        "images": {v: values.count(v) for v in VALUES},
    }
    for side, prefix, source, per_image in (
        ("human", "h", "human", params["human_captions_per_image"]),
        ("generated", "m", "model", 1),
    ):
        rates = params["mention_rates"][side]
        lean_p = params["leaning_probability"][side]
        object_p = params["object_mention_probability"][side]
        kinds = {k: 0 for k in MENTION_KINDS}
        by_value = {k: 0 for k in ("female_only", "male_only", "mixed", "none")}
        lexicon_hits: dict[str, int] = {}
        rows = []
        for image_id, value, image_objects in zip(image_ids, values, objects):
            other = VALUES[1 - VALUES.index(value)]
            for c in range(per_image):
                kind = rng.choices(MENTION_KINDS, [rates[k] for k in MENTION_KINDS])[0]
                kinds[kind] += 1
                said = {"own": [value], "other": [other],
                        "mixed": [value, other], "none": []}[kind]
                by_value[{"own": f"{value}_only", "other": f"{other}_only"}.get(kind, kind)] += 1

                length = rng.randint(*params["caption_length"])
                tokens = []
                for _ in range(length):
                    if rng.random() < lean_p:
                        tokens.append(leaning[value][lean_zipf.draw(rng)])
                    else:
                        tokens.append(context[ctx_zipf.draw(rng)])
                mentioned = {lab for lab in image_objects if rng.random() < object_p}
                if rng.random() < params["stray_label_probability"]:
                    mentioned.add(labels[label_zipf.draw(rng)])
                for label in sorted(mentioned):
                    form = rng.choice([label] + lexicon[label])
                    tokens.insert(rng.randrange(len(tokens) + 1), form)
                    lexicon_hits[label] = lexicon_hits.get(label, 0) + 1
                for v in said:
                    tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(gender[v]))
                rows.append({
                    "caption_id": f"{prefix}-{image_id}-{c}", "image_id": image_id,
                    "caption": render(["a"] + tokens), "source": source,
                })
        _write_jsonl(out_dir / f"{side}_captions.jsonl", rows)
        tallies["sides"][side] = {
            "captions": len(rows), "mention_kinds": kinds,
            "mentions": by_value, "lexicon_hits": lexicon_hits,
        }

    _write_jsonl(
        out_dir / "annotations.jsonl",
        [{"image_id": i, "attribute": v} for i, v in zip(image_ids, values)],
    )
    _write_jsonl(
        out_dir / "objects.jsonl",
        [{"image_id": i, "objects": objs} for i, objs in zip(image_ids, objects)],
    )
    (out_dir / "lexicon.json").write_text(json.dumps(lexicon), encoding="utf-8")
    return tallies


# ------------------------------------------------------------ files


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def load_pair(in_dir: Path) -> dict:
    """The written files as plain records: tokens, image, attribute per caption."""
    in_dir = Path(in_dir)
    annotations = {
        row["image_id"]: row["attribute"]
        for row in read_jsonl(in_dir / "annotations.jsonl")
    }
    pair = {"annotations": annotations}
    for side in ("human", "generated"):
        pair[side] = [
            {"image_id": row["image_id"], "tokens": tokens_of(row["caption"]),
             "attribute": annotations[row["image_id"]]}
            for row in read_jsonl(in_dir / f"{side}_captions.jsonl")
        ]
    if (in_dir / "objects.jsonl").exists():
        pair["objects"] = {
            row["image_id"]: row["objects"]
            for row in read_jsonl(in_dir / "objects.jsonl")
        }
        pair["lexicon"] = json.loads((in_dir / "lexicon.json").read_text("utf-8"))
    return pair


def recount_files(kind: str, in_dir: Path, word_list: Path) -> dict:
    """Count back from the written files what the generator tallied."""
    pair = load_pair(in_dir)
    annotations = pair["annotations"]
    tallies: dict = {"sides": {}, "images": {v: 0 for v in VALUES}}
    for value in annotations.values():
        tallies["images"][value] += 1
    if kind == "synthetic":
        marker_value = {w: v for v, w in MARKERS.items()}
        for side in ("human", "generated"):
            agree = {v: 0 for v in VALUES}
            for rec in pair[side]:
                said = [marker_value[t] for t in rec["tokens"] if t in marker_value]
                if said == [rec["attribute"]]:
                    agree[rec["attribute"]] += 1
            tallies["sides"][side] = {"captions": len(pair[side]), "marker_agrees": agree}
        return tallies

    words = attribute_words(word_list)
    forms = {
        form: label for label, syns in pair["lexicon"].items()
        for form in [label, *syns]
    }
    object_hits: dict[str, dict[str, int]] = {v: {} for v in VALUES}
    for image_id, labels in pair["objects"].items():
        hits = object_hits[annotations[image_id]]
        for label in labels:
            hits[label] = hits.get(label, 0) + 1
    tallies["object_hits"] = object_hits
    for side in ("human", "generated"):
        kinds = {k: 0 for k in MENTION_KINDS}
        by_value = {k: 0 for k in ("female_only", "male_only", "mixed", "none")}
        lexicon_hits: dict[str, int] = {}
        for rec in pair[side]:
            named = recount.named_value(rec["tokens"], words) or "none"
            if named in VALUES:
                kinds["own" if named == rec["attribute"] else "other"] += 1
                by_value[f"{named}_only"] += 1
            else:
                kinds[named] += 1
                by_value[named] += 1
            for label in {forms[t] for t in rec["tokens"] if t in forms}:
                lexicon_hits[label] = lexicon_hits.get(label, 0) + 1
        tallies["sides"][side] = {
            "captions": len(pair[side]), "mention_kinds": kinds,
            "mentions": by_value, "lexicon_hits": lexicon_hits,
        }
    return tallies


def cached_inputs(
    cache_root: Path, kind: str, params: dict, seed: int, word_list: Path
) -> tuple[Path, dict]:
    """Generate once per (generator version, kind, parameters, seed); reuse after.

    Returns the input directory and the generator's tallies. The directory is
    written under a temporary name and renamed, so an interrupted run leaves
    no half-written inputs behind.
    """
    key = json.dumps([GENERATOR_VERSION, kind, params], sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:12]
    out_dir = Path(cache_root) / f"{kind}-v{GENERATOR_VERSION}-{digest}-s{seed}"
    tallies_path = out_dir / "tallies.json"
    if not tallies_path.exists():
        tmp = out_dir.with_name(out_dir.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        if kind == "synthetic":
            tallies = generate_synthetic(seed, params, tmp)
        else:
            tallies = generate_coco(seed, params, tmp, word_list)
        (tmp / "tallies.json").write_text(json.dumps(tallies), encoding="utf-8")
        shutil.rmtree(out_dir, ignore_errors=True)
        tmp.rename(out_dir)
    return out_dir, json.loads(tallies_path.read_text(encoding="utf-8"))
