"""Independent recount of BA, DBA_G, DBA_O, Ratio and Error.

Written from the metric definitions, in plain Python over plain records
(``{"image_id", "tokens", "attribute"}``), without importing capbias:

- BA (Zhao et al. 2017): for each task word o and value g, the share
  b(o, g) = c(o, g) / sum_g' c(o, g'); BA is the mean over words of
  sum_g 1[b*(o, g) > 1/|G|] (b~(o, g) - b*(o, g)), with * the human side and
  ~ the generated side. A caption counts for (g, o) when o is one of its
  tokens and its gender words name exactly the value g.
- DBA (Wang & Russakovsky 2021): with y(a, l) = 1[P(a, l) > P(a) P(l)] on the
  human side and D the change of the conditional (P(a | l) for DBA_G,
  P(l | a) for DBA_O) from human to generated, the mean over cells of
  y D + (1 - y)(-D). DBA_G reads a caption's labels from its image's object
  annotations and its value from its gender words; DBA_O reads labels from
  lexicon surface forms in the caption and the value from the annotation.
- Ratio (Hendricks et al. 2018): captions naming only the second value over
  captions naming only the first; Error: the share of captions naming one
  value that name the wrong one.

Two choices the definitions leave open follow the report's documented
behaviour: BA averages over the task words with counts on both sides, and DBA
skips cells whose conditional is undefined on either side; task words are
chosen among the ``TOP_K`` most frequent tokens, the report's default. The
gate y is decided in exact integer arithmetic and DBA is summed in exact
fractions. At a cell where P(a, l) = P(a) P(l) exactly, the definition gives
y = 0, but a floating-point evaluation of the strict inequality may go either
way, so `dba` also returns, for each tied cell, the change in DBA if its gate
were 1; `reachable` tells whether a reported value is the DBA of some
assignment of the gate to the tied cells. Cells where both sides are zero (a
label absent from the human side) are not ties in that sense: 0 > 0 is false
in any arithmetic. Ties arise mostly when both values have exactly the same
marginal count, and then on every label the two values share equally: the
`cooccur_coco` inputs of seed 7 have 92 tied DBA_O cells.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

VALUES = ("female", "male")
# Candidate task words, as many as the report considers by default.
TOP_K = 1000
# Distinct subset sums of tied-cell flips kept per half before giving up.
MAX_SUMS = 1 << 20


def named_value(tokens, words: dict[str, frozenset[str]]):
    """The single value whose words occur in the caption, 'mixed', or None."""
    present = set(tokens)
    said = [v for v in VALUES if words[v] & present]
    if len(said) == 1:
        return said[0]
    return "mixed" if said else None


def _single(tokens, words):
    value = named_value(tokens, words)
    return None if value == "mixed" else value


def select_task_words(human, words, top_k, min_per_value) -> list[str]:
    """Top-k frequent non-attribute tokens co-occurring enough with every value."""
    freq: dict[str, int] = {}
    for rec in human:
        for token in rec["tokens"]:
            freq[token] = freq.get(token, 0) + 1
    attribute = words["female"] | words["male"]
    candidates = sorted((t for t in freq if t not in attribute), key=lambda t: (-freq[t], t))
    candidates = candidates[:top_k]
    counts = word_counts(human, words, candidates)
    return [w for w in candidates if all(counts[v].get(w, 0) >= min_per_value for v in VALUES)]


def word_counts(records, words, task_words) -> dict[str, dict[str, int]]:
    """c(g, o): captions naming exactly value g that contain task word o."""
    wanted = set(task_words)
    counts = {v: {} for v in VALUES}
    for rec in records:
        value = _single(rec["tokens"], words)
        if value is None:
            continue
        row = counts[value]
        for token in set(rec["tokens"]) & wanted:
            row[token] = row.get(token, 0) + 1
    return counts


def ba(gt_counts, gen_counts, task_words) -> float:
    kept = [
        o for o in task_words
        if sum(gt_counts[v].get(o, 0) for v in VALUES) > 0
        and sum(gen_counts[v].get(o, 0) for v in VALUES) > 0
    ]
    total = 0.0
    for o in kept:
        gt_col = sum(gt_counts[v].get(o, 0) for v in VALUES)
        gen_col = sum(gen_counts[v].get(o, 0) for v in VALUES)
        for v in VALUES:
            b_star = gt_counts[v].get(o, 0) / gt_col
            if b_star > 1.0 / len(VALUES):
                total += gen_counts[v].get(o, 0) / gen_col - b_star
    return total / len(kept)


def dba(gt_counts, gen_counts, labels, direction: str) -> tuple[Fraction, list[Fraction]]:
    """DBA for direction 'g' (Delta P(a|l)) or 'o' (Delta P(l|a)), exactly, with
    y = 0 on the tied cells as the definition says; and for each tied cell the
    change in DBA if its gate were 1 instead."""
    def margins(counts):
        by_value = {v: sum(counts[v].get(l, 0) for l in labels) for v in VALUES}
        by_label = {l: sum(counts[v].get(l, 0) for v in VALUES) for l in labels}
        return by_value, by_label, sum(by_value.values())

    gt_a, gt_l, gt_total = margins(gt_counts)
    gen_a, gen_l, _ = margins(gen_counts)
    total = Fraction(0)
    ties = []
    n_valid = 0
    for v in VALUES:
        for l in labels:
            gt, gen = gt_counts[v].get(l, 0), gen_counts[v].get(l, 0)
            if direction == "g":
                if gt_l[l] == 0 or gen_l[l] == 0:
                    continue
                delta = Fraction(gen, gen_l[l]) - Fraction(gt, gt_l[l])
            else:
                if gt_a[v] == 0 or gen_a[v] == 0:
                    continue
                delta = Fraction(gen, gen_a[v]) - Fraction(gt, gt_a[v])
            n_valid += 1
            lhs, rhs = gt * gt_total, gt_a[v] * gt_l[l]
            total += delta if lhs > rhs else -delta
            if lhs == rhs > 0 and delta != 0:
                ties.append(delta)
    return total / n_valid, [2 * delta / n_valid for delta in ties]


def reachable(value, flips: list[Fraction], target: float, tol: float) -> bool:
    """Whether `value` plus the flips of some subset of tied cells lies within
    `tol` of `target`: the subset sums of each half of the flips, over a common
    denominator, meet in the middle."""
    scale = math.lcm(1, *(f.denominator for f in flips))

    def subset_sums(part):
        sums = {0}
        for flip in part:
            step = flip.numerator * (scale // flip.denominator)
            sums |= {s + step for s in sums}
            if len(sums) > MAX_SUMS:
                raise ValueError(f"{len(flips)} tied DBA cells have too many subset sums")
        return sums

    half = len(flips) // 2
    right = sorted(subset_sums(flips[half:]))
    need = (Fraction(target) - Fraction(value)) * scale
    slack = Fraction(tol) * scale
    for left in subset_sums(flips[:half]):
        i = bisect.bisect_left(right, need - left - slack)
        if i < len(right) and right[i] <= need - left + slack:
            return True
    return False


def object_counts(records, words, objects, labels) -> dict[str, dict[str, int]]:
    """DBA_G cells: value from the caption's words, labels from its image."""
    wanted = set(labels)
    counts = {v: {} for v in VALUES}
    for rec in records:
        value = _single(rec["tokens"], words)
        if value is None:
            continue
        row = counts[value]
        for label in set(objects[rec["image_id"]]) & wanted:
            row[label] = row.get(label, 0) + 1
    return counts


def lexicon_counts(records, lexicon) -> dict[str, dict[str, int]]:
    """DBA_O cells: value from the annotation, labels from surface forms."""
    forms = {label: {label, *syns} for label, syns in lexicon.items()}
    counts = {v: {} for v in VALUES}
    for rec in records:
        row = counts[rec["attribute"]]
        present = set(rec["tokens"])
        for label, surface in forms.items():
            if surface & present:
                row[label] = row.get(label, 0) + 1
    return counts


def ratio(records, words) -> float:
    named = [named_value(rec["tokens"], words) for rec in records]
    return named.count("male") / named.count("female")


def error(records, words) -> float:
    wrong = total = 0
    for rec in records:
        value = named_value(rec["tokens"], words)
        if value in VALUES:
            total += 1
            wrong += value != rec["attribute"]
    return wrong / total


def recount(pair: dict, words, min_per_value=100) -> dict:
    """Every co-occurrence metric on the report's scale; ``<dba>_flips`` hold
    the changes that tied cells may add (see `reachable`)."""
    human, generated = pair["human"], pair["generated"]
    task_words = select_task_words(human, words, TOP_K, min_per_value)
    out = {
        "ba": 100 * ba(
            word_counts(human, words, task_words),
            word_counts(generated, words, task_words),
            task_words,
        ),
        "n_task_words": len(task_words),
        "ratio": ratio(generated, words),
        "error": 100 * error(generated, words),
    }
    if "objects" in pair:
        labels = sorted({l for objs in pair["objects"].values() for l in objs})
        lex_labels = sorted(pair["lexicon"])
        for name, (value, flips) in (
            ("dba_g", dba(
                object_counts(human, words, pair["objects"], labels),
                object_counts(generated, words, pair["objects"], labels),
                labels, "g",
            )),
            ("dba_o", dba(
                lexicon_counts(human, pair["lexicon"]),
                lexicon_counts(generated, pair["lexicon"]),
                lex_labels, "o",
            )),
        ):
            out[name] = float(100 * value)
            out[f"{name}_flips"] = [100 * f for f in flips]
    return out
