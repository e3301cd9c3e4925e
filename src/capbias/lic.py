"""Classifier-based leakage metrics: SC, Leakage, LIC_D, LIC_M, and LIC,
with the multi-seed protocol that produces mean/std reports.

Per run, one classifier is trained on perturbed masked human captions and
one on masked model captions; each is evaluated on its held-out balanced
test split. Both classifiers share the model-side vocabulary so that human
captions cannot benefit from a richer word inventory.
"""

from __future__ import annotations

import functools
import logging
import os
import pickle
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from capbias import classifier as clf
from capbias.classifier import ClassifierConfig
from capbias.corpus import Corpus, CorpusError, balanced_image_split
from capbias.masking import Masker
from capbias.vocab import Vocabulary, align_to_prediction_vocab, build_vocab

logger = logging.getLogger(__name__)

SCALE = 100.0

_MASK64 = (1 << 64) - 1

# The variables BLAS libraries read their thread count from when they load.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


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
    """A corpus's captions, in corpus order, as ids into its token table."""

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
    masked = masker.mask(table.tokens)
    order = corpus.by_caption_id
    images = np.array([image_ids.setdefault(i, len(image_ids)) for i in corpus.image_ids],
                      dtype=np.int64)
    return _Encoded(
        clf.Packed(table.ids, table.starts[:-1], np.diff(table.starts)),
        np.array([token_ids.setdefault(t, len(token_ids)) for t in masked], dtype=np.int32),
        images[corpus.images],
        corpus.labels,
        order[corpus.labels[order] >= 0],
    )


class _Seed(NamedTuple):
    """What one seed's two training jobs read, prepared in the parent."""

    in_train: np.ndarray  # bool per report image
    in_test: np.ndarray
    vocabulary: Vocabulary
    lookup: np.ndarray  # int32, each report-wide token id's index in `vocabulary`
    config: ClassifierConfig


def _rows(side: _Encoded, in_split: np.ndarray) -> np.ndarray:
    """The side's labelled captions on the split's images, in `caption_id` order."""
    return side.labelled[in_split[side.images[side.labelled]]]


def _fit_and_predict(seed: _Seed, side: _Encoded, n_classes: int) -> np.ndarray:
    """Train one side's classifier of one seed; its test-set confidences."""
    ids = side.ids
    mapped = seed.lookup[side.report_ids][ids.tokens]
    train_rows = _rows(side, seed.in_train)
    test_rows = _rows(side, seed.in_test)
    model = clf.init_classifier(seed.config, seed.vocabulary, n_classes)
    clf.train(model, clf.Packed(mapped, ids.offsets[train_rows], ids.lengths[train_rows]),
              side.labels[train_rows])
    return clf.predict_proba(
        model, clf.Packed(mapped, ids.offsets[test_rows], ids.lengths[test_rows])
    )


class WorkerError(RuntimeError):
    """A training worker died or failed outside its jobs: a program error."""


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a training worker."""


def _n_workers(n_jobs: int) -> int:
    """Processes that train: as many as the usable CPUs hold at the BLAS
    threads each one runs, at most one per job; one where the platform
    cannot fork.

    OpenBLAS and MKL run the count of their own variable, else of
    OMP_NUM_THREADS; another BLAS, or one numpy does not name, the largest of
    `BLAS_THREAD_VARS`; each every usable CPU where none is set. Processes
    whose BLAS threads outnumber the CPUs wait on each other at every product.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    cpus = len(os.sched_getaffinity(0))
    try:
        blas = str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):  # numpy < 1.26 has no `mode`
        blas = ""
    own = [var for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
           if var.split("_")[0].lower() in blas.lower()]
    reads = [*own, "OMP_NUM_THREADS"] if own else BLAS_THREAD_VARS
    threads = [int(v) for v in map(os.environ.get, reads)
               if v and v.isdecimal() and int(v) > 0]
    n = min(n_jobs, cpus // (threads[0] if own and threads else max(threads, default=cpus)))
    return max(n, 1)


def _run_share(jobs: list, share: list[int]) -> list:
    """(j, result, error) for each job j of `share`, in order. After a job
    fails, the share's later jobs are skipped: none of them can come before
    that failure in job order."""
    outcomes = []
    for j in share:
        try:
            outcomes.append((j, jobs[j](), None))
        except Exception as exc:
            return [*outcomes, (j, None, exc)]
    return outcomes


def _work(jobs: list, share: list[int], read_fd: int, write_fd: int) -> None:
    """A forked worker's whole life: run its share, send each outcome through
    the pipe, and exit without returning into the parent's code."""
    code = 1
    try:
        os.close(read_fd)
        outcomes = [
            (j, result, error,
             None if error is None else "".join(traceback.format_exception(error)))
            for j, result, error in _run_share(jobs, share)
        ]
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcomes, protocol=pickle.HIGHEST_PROTOCOL))
        code = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
        raise
    finally:
        os._exit(code)


def _run_jobs(jobs: list, sizes: list[int], meanwhile=lambda: None):
    """Call every job; yield the results in job order.

    The jobs run in W processes, W from `_n_workers`. At W = 1 this process
    calls `meanwhile`, then each job in turn. Otherwise W - 1 workers are
    forked once. Largest first, each job goes to the process with the least
    work so far, so this process takes the largest; each process runs its
    share in job order and stops at its first failure. This process then
    calls `meanwhile` while the workers may still run. Once it has read every
    worker's outcomes, the results are yielded in job order, and the first
    failed job in job order raises its exception, so the error raised is the
    same at any W.
    """
    n = _n_workers(len(jobs))
    if n == 1:
        meanwhile()
        yield from (job() for job in jobs)
        return
    shares: list[list[int]] = [[] for _ in range(n)]
    loads = [0] * n
    for j in sorted(range(len(jobs)), key=lambda j: -sizes[j]):
        k = loads.index(min(loads))
        shares[k].append(j)
        loads[k] += sizes[j]
    workers = []  # (k, pid, pipe) of each worker not yet reaped
    try:
        for k in range(1, n):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(jobs, sorted(shares[k]), read_fd, write_fd)
            os.close(write_fd)
            workers.append((k, pid, os.fdopen(read_fd, "rb")))
        outcomes = _run_share(jobs, sorted(shares[0]))
        meanwhile()
        while workers:
            k, pid, pipe = workers[0]
            with pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            if code:
                how = (f"was killed by signal {-code}" if code < 0
                       else f"exited with code {code}")
                raise WorkerError(f"training worker {k} (pid {pid}) {how}")
            for j, result, error, text in pickle.loads(payload):
                if error is not None:
                    error.__cause__ = _WorkerTraceback(text)
                outcomes.append((j, result, error))
    finally:
        if workers:
            import signal

            for _, pid, pipe in workers:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    # A job missing here follows an earlier failure of its share, which raises.
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, result, error in outcomes:
        if error is not None:
            raise error
        yield result


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
    LIC_M, LIC, SC, and Leakage on the held-out test split. The parent
    prepares every seed; the 2 x n_seeds trainings then run as jobs, in
    forked workers where several CPUs are usable (`_run_jobs`), and are
    scored here in (seed, side) order. Any seed failure aborts the whole run.
    """
    if human_corpus.attribute_spec != generated_corpus.attribute_spec:
        raise CorpusError("corpora must share the same attribute spec")
    spec = human_corpus.attribute_spec
    masker = Masker(spec)

    # Each corpus's distinct tokens are masked and interned once per report;
    # each seed then selects its rows with numpy and maps the report-wide
    # token ids to the seed's vocabulary through one lookup array.
    token_ids: dict[str, int] = {}
    image_ids: dict[str, int] = {}
    human = _encode_corpus(human_corpus, masker, token_ids, image_ids)
    generated = _encode_corpus(generated_corpus, masker, token_ids, image_ids)
    tokens = np.array(list(token_ids), dtype=object)
    image_names = list(image_ids)

    # Each report image's value, from the generated captions' labels; every
    # labelled caption of either corpus must agree with it where it has one.
    labels = np.full(len(image_ids), -1, dtype=np.int64)
    labels[generated.images[generated.labelled]] = generated.labels[generated.labelled]
    sides = (human, generated)
    images = np.concatenate([side.images[side.labelled] for side in sides])
    caption_labels = np.concatenate([side.labels[side.labelled] for side in sides])
    clash = np.flatnonzero((labels[images] >= 0) & (labels[images] != caption_labels))
    if clash.size:
        image = images[clash[0]]
        raise CorpusError(
            f"image {image_names[image]!r} is annotated both "
            f"{spec.values[labels[image]]!r} and {spec.values[caption_labels[clash[0]]]!r}"
        )

    seeds = []
    for run in range(config.n_seeds):
        split_seed = derive_seed(master_seed, 3 * run)
        init_seed = derive_seed(master_seed, 3 * run + 1)
        in_train, in_test = balanced_image_split(
            image_names, labels, spec.values, config.test_fraction, split_seed
        )
        gen_train = in_train[generated.images]
        # Each masked token's count over the generated train captions.
        counts = np.bincount(
            generated.report_ids,
            weights=np.bincount(
                generated.ids.tokens[np.repeat(gen_train, generated.ids.lengths)],
                minlength=len(generated.report_ids),
            ),
            minlength=len(tokens),
        ).astype(np.int64)
        held = np.flatnonzero(counts)
        v_pre = build_vocab(dict(zip(tokens[held].tolist(), counts[held].tolist())),
                            mask_token=spec.mask_token)
        # The mask token is always in v_pre, so aligning a token and encoding
        # it gives the index that encoding it alone gives: the lookup serves
        # the unaligned generated side too.
        lookup = np.array(
            v_pre.encode(align_to_prediction_vocab(tokens, v_pre)), dtype=np.int32
        )
        seeds.append(_Seed(in_train, in_test, v_pre, lookup,
                           replace(config.classifier, seed=init_seed)))

    # Job 2 * run trains seed run's data side ("d", human captions), job
    # 2 * run + 1 its model side ("m", generated captions).
    pairs = [(seed, side) for seed in seeds for side in sides]
    jobs = [functools.partial(_fit_and_predict, seed, side, len(spec.values))
            for seed, side in pairs]
    sizes = [int(side.ids.lengths[_rows(side, seed.in_train)].sum()) for seed, side in pairs]
    # Both corpora are hashed for the provenance while the workers train.
    hashes: dict[str, str] = {}

    def hash_corpora() -> None:
        hashes.update(human=human_corpus.content_hash(),
                      generated=generated_corpus.content_hash())

    scores = []
    for (seed, side), probs in zip(pairs, _run_jobs(jobs, sizes, hash_corpora)):
        test_y = side.labels[_rows(side, seed.in_test)]
        scores.append((lic_component(probs, test_y), sc_accuracy(probs, test_y)))

    samples: dict[str, list[float]] = {
        name: [] for name in ("lic_d", "lic_m", "lic", "sc", "leakage")
    }
    for run in range(config.n_seeds):
        (lic_d_value, lambda_d), (lic_m_value, lambda_m) = scores[2 * run:2 * run + 2]
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
        "corpus_hashes": hashes,
        "scale": "x100",
    }
    if config.n_seeds == 1:
        logger.warning("metrics %s ran with a single seed; std undefined",
                       ", ".join(samples))
    return {
        name: MetricReport.from_samples(name, values, provenance)
        for name, values in samples.items()
    }
