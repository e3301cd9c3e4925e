"""Synthetic caption corpora with controllable attribute-marker correlation.

Each image receives one caption. With probability theta the caption
contains a marker word of the image's attribute value, otherwise a marker
of the other value; every remaining token is a filler shared across
values, so markers are the only signal. Closed-form expectations for the
co-occurrence metrics follow directly from theta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from capbias.corpus import (
    AttributeSpec,
    CaptionRecord,
    Corpus,
    CorpusError,
    Source,
)

DEFAULT_MARKERS = {"female": ("umbrella",), "male": ("skateboard",)}


@dataclass(frozen=True)
class SynthSpec:
    """Generation parameters for one synthetic corpus side."""

    n_images: int
    marker_probability: float
    values: tuple[str, ...] = ("female", "male")
    marker_words: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_MARKERS)
    )
    filler_vocab_size: int = 50
    caption_length_range: tuple[int, int] = (6, 10)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_images < len(self.values):
            raise CorpusError("need at least one image per attribute value")
        if not 0.5 <= self.marker_probability <= 1.0:
            raise CorpusError("marker_probability must be in [0.5, 1]")
        if set(self.marker_words) != set(self.values):
            raise CorpusError("marker_words must cover exactly the attribute values")
        all_markers = [w for words in self.marker_words.values() for w in words]
        if len(set(all_markers)) != len(all_markers):
            raise CorpusError("marker words must be disjoint across values")
        lo, hi = self.caption_length_range
        if lo < 2 or hi < lo:
            raise CorpusError("caption length range must satisfy 2 <= lo <= hi")

    def fillers(self) -> tuple[str, ...]:
        return tuple(f"filler{i:03d}" for i in range(self.filler_vocab_size))


def attribute_spec_for(spec: SynthSpec, mask_token: str = "<gender>") -> AttributeSpec:
    """Attribute spec for synthetic corpora; no word lists, markers are
    context words by construction (masking is the identity)."""
    return AttributeSpec(name="synthetic", values=spec.values, mask_token=mask_token)


def generate(
    spec: SynthSpec,
    source: Source = Source.HUMAN,
    image_ids: Optional[Sequence[str]] = None,
) -> Corpus:
    """Deterministic balanced corpus with one caption per image.

    Passing the same image_ids to two generate calls yields paired corpora
    over the same images (and hence identical attribute annotations).
    """
    if image_ids is None:
        image_ids = [f"img{i:06d}" for i in range(spec.n_images)]
    elif len(image_ids) != spec.n_images:
        raise CorpusError("image_ids length must equal n_images")

    rng = np.random.default_rng(spec.seed)
    fillers = spec.fillers()
    lo, hi = spec.caption_length_range
    n_values = len(spec.values)
    prefix = "h" if source is Source.HUMAN else "m"

    records = []
    for i, image_id in enumerate(image_ids):
        value = spec.values[i % n_values]
        if rng.random() < spec.marker_probability:
            marker_value = value
        else:
            others = [v for v in spec.values if v != value]
            marker_value = others[rng.integers(len(others))]
        markers = spec.marker_words[marker_value]
        marker = markers[rng.integers(len(markers))]

        length = int(rng.integers(lo, hi + 1))
        tokens = [fillers[j] for j in rng.integers(len(fillers), size=length - 1)]
        tokens.insert(int(rng.integers(length)), marker)
        records.append(
            CaptionRecord(
                caption_id=f"{prefix}-{image_id}",
                image_id=image_id,
                tokens=tuple(tokens),
                source=source,
                attribute=value,
            )
        )
    return Corpus.from_records(records, attribute_spec_for(spec))


def generate_pair(
    human_spec: SynthSpec, generated_spec: SynthSpec
) -> tuple[Corpus, Corpus]:
    """Paired human/model corpora over the same images and annotations."""
    if human_spec.n_images != generated_spec.n_images:
        raise CorpusError("paired specs must cover the same number of images")
    if human_spec.values != generated_spec.values:
        raise CorpusError("paired specs must share attribute values")
    image_ids = [f"img{i:06d}" for i in range(human_spec.n_images)]
    return (
        generate(human_spec, Source.HUMAN, image_ids),
        generate(generated_spec, Source.MODEL, image_ids),
    )


def expected_ba(human_spec: SynthSpec, generated_spec: SynthSpec) -> float:
    """Closed-form BA over the marker words (pre-scaling).

    For a marker word of value a, the ground-truth attribute share is
    theta_human, so the cell passes the strict 1/|A| gate only when
    theta_human > 1/|A| and then contributes theta_gen - theta_human;
    the complementary cells never pass for theta >= 0.5. Averaging over
    the marker words leaves the per-cell delta itself.
    """
    if human_spec.marker_words != generated_spec.marker_words:
        raise CorpusError("expected_ba requires identical marker structure")
    n_values = len(human_spec.values)
    theta_h = human_spec.marker_probability
    theta_g = generated_spec.marker_probability
    if theta_h > 1.0 / n_values:
        return theta_g - theta_h
    return 0.0


def bayes_accuracy(spec: SynthSpec) -> float:
    """Best achievable attribute accuracy: the marker agreement rate."""
    return spec.marker_probability


def marker_task_words(spec: SynthSpec) -> tuple[str, ...]:
    return tuple(w for value in spec.values for w in spec.marker_words[value])


def write_corpus_files(corpus: Corpus, captions_path: Path, annotations_path: Path) -> None:
    """Emit the JSON Lines formats consumed by the corpus loader."""
    table = corpus.token_table
    words = list(map(table.tokens.__getitem__, table.ids.tolist()))
    starts = table.starts.tolist()
    with open(captions_path, "w", encoding="utf-8") as handle:
        for i, caption_id in enumerate(corpus.caption_ids):
            handle.write(json.dumps({
                "caption_id": caption_id,
                "image_id": corpus.image_ids[corpus.images[i]],
                "caption": " ".join(words[starts[i]:starts[i + 1]]),
                "source": corpus.sources[i].value,
            }, ensure_ascii=False) + "\n")
    # each labelled image's value, in the order of its first labelled caption
    annotations = {r.image_id: r.attribute for r in corpus.records if r.attribute is not None}
    with open(annotations_path, "w", encoding="utf-8") as handle:
        for image_id, value in annotations.items():
            handle.write(json.dumps({"image_id": image_id, "attribute": value}) + "\n")
