"""Bias and bias-amplification metrics for image-caption corpora."""

import os


def _cap_threads() -> None:
    """Apply CAPBIAS_THREADS to the BLAS and OpenMP thread pools.

    BLAS reads its thread count once, when numpy is first imported, so this
    runs before any capbias module imports numpy. Variables that are set
    explicitly take precedence.
    """
    n = os.environ.get("CAPBIAS_THREADS")
    if not n:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)


_cap_threads()

from capbias.corpus import (  # noqa: E402 (after _cap_threads)
    AttributeSpec,
    CaptionRecord,
    Corpus,
    CorpusError,
    load_corpus,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeSpec",
    "CaptionRecord",
    "Corpus",
    "CorpusError",
    "load_corpus",
    "tokenize",
]
