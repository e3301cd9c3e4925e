"""Classifier-based leakage metrics: SC, Leakage, LIC_D, LIC_M, and LIC,
with the multi-seed protocol that produces mean/std reports.

Per run, one classifier is trained on perturbed masked human captions and
one on masked model captions; each is evaluated on its held-out balanced
test split. Both classifiers share the model-side vocabulary so that human
captions cannot benefit from a richer word inventory.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from capbias import classifier as clf
from capbias.classifier import ClassifierConfig
from capbias.corpus import Corpus, CorpusError, balanced_image_split
from capbias.masking import Masker
from capbias.vocab import align_to_prediction_vocab, build_vocab

logger = logging.getLogger(__name__)

SCALE = 100.0

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """splitmix64 stream: independent 64-bit seeds from one master seed."""
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class ProtocolConfig:
    n_seeds: int = 10
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    test_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.n_seeds < 1:
            raise CorpusError("n_seeds must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise CorpusError(f"test_fraction must be in (0, 1), got {self.test_fraction}")


@dataclass(frozen=True)
class MetricReport:
    """One metric's per-seed samples with mean, sample std, and provenance."""

    name: str
    per_seed: tuple[float, ...]
    mean: float
    std: Optional[float]  # None (flagged) when only one seed ran
    provenance: dict

    @classmethod
    def from_samples(
        cls, name: str, samples: Sequence[float], provenance: dict
    ) -> "MetricReport":
        samples = tuple(float(s) for s in samples)
        return cls(
            name=name,
            per_seed=samples,
            mean=statistics.fmean(samples),
            std=statistics.stdev(samples) if len(samples) > 1 else None,
            provenance=dict(provenance),
        )


def sc_accuracy(probs: np.ndarray, labels: Sequence[int]) -> float:
    """Fraction of captions whose predicted attribute matches the label.

    `probs` holds one row of class confidences per caption; the prediction
    is its argmax, ties breaking toward the lower class index.
    """
    if len(probs) == 0:
        raise CorpusError("cannot score an empty caption set")
    return float((probs.argmax(axis=1) == np.asarray(labels)).mean())


def leakage(lambda_m: float, lambda_d: float) -> float:
    """Accuracy gap between the model-side and data-side classifiers."""
    return lambda_m - lambda_d


def lic_component(probs: np.ndarray, labels: Sequence[int]) -> float:
    """Confidence-weighted accuracy on the x100 scale.

    `probs` holds one row of class confidences per caption. Each caption
    contributes its true-class confidence when the prediction is correct and
    zero otherwise; two balanced classes with no signal give the unbiased
    reference value 25.
    """
    if len(probs) == 0:
        raise CorpusError("cannot score an empty caption set")
    labels_arr = np.asarray(labels)
    correct = probs.argmax(axis=1) == labels_arr
    confidence = probs[np.arange(len(labels_arr)), labels_arr]
    return float((confidence * correct).mean() * SCALE)


def lic(lic_m: float, lic_d: float) -> float:
    """LIC = LIC_M - LIC_D; positive means the model amplifies bias."""
    return lic_m - lic_d


class _Encoded(NamedTuple):
    """A corpus's captions, in record order, as ids into its token table."""

    ids: clf.Packed  # token table ids
    report_ids: np.ndarray  # int32, each distinct token's report-wide id after masking
    images: np.ndarray  # each caption's image, as its index in the report's image ids
    labels: np.ndarray  # index of each caption's attribute value, -1 for none
    labelled: np.ndarray  # the captions with a label, in `caption_id` order


def _encode_corpus(
    corpus: Corpus,
    masker: Masker,
    token_ids: dict[str, int],
    image_ids: dict[str, int],
) -> _Encoded:
    """Mask the corpus's distinct tokens once and intern them and its images;
    new tokens and images get the next id in `token_ids` / `image_ids`.

    Training batches take the captions in `caption_id` order, which makes the
    numbers independent of the order of the lines of the captions file, as
    the corpus hash is."""
    table = corpus.token_table
    records = corpus.records
    # No caption is empty, so caption i starts at the first i in `table.caption`.
    starts = np.searchsorted(table.caption, np.arange(len(records) + 1, dtype=np.int32))
    masked = masker.mask(table.tokens)
    labelled = sorted(np.flatnonzero(corpus.labels >= 0), key=lambda i: records[i].caption_id)
    return _Encoded(
        clf.Packed(table.ids, starts[:-1], np.diff(starts)),
        np.array([token_ids.setdefault(t, len(token_ids)) for t in masked], dtype=np.int32),
        np.array([image_ids.setdefault(r.image_id, len(image_ids)) for r in records],
                 dtype=np.int64),
        corpus.labels,
        np.array(labelled, dtype=np.intp),
    )


def run_protocol(
    human_corpus: Corpus,
    generated_corpus: Corpus,
    config: ProtocolConfig,
    master_seed: int = 0,
) -> dict[str, MetricReport]:
    """The full LIC pipeline over n_seeds independent runs.

    Per seed: balanced image split (shared by both corpora), model-side
    vocabulary from the masked generated train captions, vocabulary
    alignment of the human captions, one classifier per side, then LIC_D,
    LIC_M, LIC, SC, and Leakage on the held-out test split. Any seed
    failure aborts the whole run.
    """
    if human_corpus.attribute_spec != generated_corpus.attribute_spec:
        raise CorpusError("corpora must share the same attribute spec")
    spec = human_corpus.attribute_spec
    masker = Masker(spec)
    annotations = generated_corpus.annotation_map()
    human_annotations = human_corpus.annotation_map()
    for image_id, value in annotations.items():
        if human_annotations.get(image_id) not in (None, value):
            raise CorpusError(
                f"image {image_id!r} annotated inconsistently across corpora"
            )

    # Each corpus's distinct tokens are masked and interned once per report;
    # each seed then selects its rows with numpy and maps the report-wide
    # token ids to the seed's vocabulary through one lookup array.
    token_ids: dict[str, int] = {}
    image_ids: dict[str, int] = {}
    human = _encode_corpus(human_corpus, masker, token_ids, image_ids)
    generated = _encode_corpus(generated_corpus, masker, token_ids, image_ids)
    tokens = np.array(list(token_ids), dtype=object)

    samples: dict[str, list[float]] = {
        name: [] for name in ("lic_d", "lic_m", "lic", "sc", "leakage")
    }
    for run in range(config.n_seeds):
        split_seed = derive_seed(master_seed, 3 * run)
        init_seed = derive_seed(master_seed, 3 * run + 1)
        train_ids, test_ids = balanced_image_split(
            annotations, spec.values, config.test_fraction, split_seed
        )
        # Split images are annotated in the generated corpus, so they have ids.
        in_train = np.zeros(len(image_ids), dtype=bool)
        in_train[[image_ids[i] for i in train_ids]] = True
        in_test = np.zeros(len(image_ids), dtype=bool)
        in_test[[image_ids[i] for i in test_ids]] = True

        gen_train = in_train[generated.images]
        if not gen_train.any():
            raise CorpusError("generated corpus has no captions in the train split")
        # The masked tokens of the generated train captions, each distinct
        # token repeated as often as they hold it: the counts `build_vocab`
        # would take from the captions themselves.
        counts = np.bincount(
            generated.ids.tokens[np.repeat(gen_train, generated.ids.lengths)],
            minlength=len(generated.report_ids),
        )
        v_pre = build_vocab([tokens[generated.report_ids].repeat(counts)],
                            mask_token=spec.mask_token)
        # The mask token is always in v_pre, so aligning a token and encoding
        # it gives the index that encoding it alone gives: the lookup serves
        # the unaligned generated side too.
        lookup = np.array(
            v_pre.encode(align_to_prediction_vocab(tokens, v_pre)), dtype=np.int32
        )

        run_config = replace(config.classifier, seed=init_seed)
        sides = {}
        for which, (ids, report_ids, images, labels, labelled) in (
            ("d", human), ("m", generated)
        ):
            mapped = lookup[report_ids][ids.tokens]
            train_rows = labelled[in_train[images[labelled]]]
            test_rows = labelled[in_test[images[labelled]]]
            train_x = clf.Packed(mapped, ids.offsets[train_rows], ids.lengths[train_rows])
            test_x = clf.Packed(mapped, ids.offsets[test_rows], ids.lengths[test_rows])
            test_y = labels[test_rows]
            model = clf.init_classifier(run_config, v_pre, len(spec.values))
            clf.train(model, train_x, labels[train_rows])
            probs = clf.predict_proba(model, test_x)
            sides[which] = (lic_component(probs, test_y), sc_accuracy(probs, test_y))

        lic_d_value, lambda_d = sides["d"]
        lic_m_value, lambda_m = sides["m"]
        samples["lic_d"].append(lic_d_value)
        samples["lic_m"].append(lic_m_value)
        samples["lic"].append(lic(lic_m_value, lic_d_value))
        samples["sc"].append(lambda_m)
        samples["leakage"].append(leakage(lambda_m, lambda_d))
        logger.info(
            "seed %d/%d: lic_d=%.2f lic_m=%.2f lic=%.2f",
            run + 1, config.n_seeds, lic_d_value, lic_m_value,
            lic(lic_m_value, lic_d_value),
        )

    provenance = {
        "master_seed": master_seed,
        "n_seeds": config.n_seeds,
        "test_fraction": config.test_fraction,
        "config_hash": config.classifier.content_hash(),
        "corpus_hashes": {
            "human": human_corpus.content_hash(),
            "generated": generated_corpus.content_hash(),
        },
        "scale": "x100",
    }
    if config.n_seeds == 1:
        logger.warning("metrics %s ran with a single seed; std undefined",
                       ", ".join(samples))
    return {
        name: MetricReport.from_samples(name, values, provenance)
        for name, values in samples.items()
    }
