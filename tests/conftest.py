import json

import pytest

from capbias.corpus import AttributeSpec, CaptionRecord, Corpus, Source
from capbias.masking import default_gender_spec


@pytest.fixture(scope="session")
def gender_spec():
    return default_gender_spec()


@pytest.fixture
def plain_spec():
    """Two-value spec with small word lists for hand-built corpora."""
    return AttributeSpec(
        name="gender",
        values=("female", "male"),
        mask_token="<gender>",
        word_lists={"female": ("woman",), "male": ("man",)},
        plural_overrides={"woman": "women", "man": "men"},
    )


def make_corpus(spec, captions, source=Source.HUMAN):
    """captions: list of (caption_id, image_id, tokens, attribute)."""
    records = tuple(
        CaptionRecord(
            caption_id=cid,
            image_id=img,
            tokens=tuple(tokens),
            source=source,
            attribute=attr,
        )
        for cid, img, tokens, attr in captions
    )
    return Corpus.from_records(records, spec)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path
