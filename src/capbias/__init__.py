"""Bias and bias-amplification metrics for image-caption corpora."""

from capbias.corpus import (
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
