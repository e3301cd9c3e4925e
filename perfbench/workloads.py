"""The benchmark's workloads: generator parameters, report flags, and the
wrapped functions each workload must reach.

Why each workload exists is recorded in BENCHMARK.json and README.md; the
sizes here are chosen so that one report takes about a second or two on a
2-core host, which gives each run several reports to take a median over.
"""

from __future__ import annotations

# Reached by every report: argument parsing, loading, hashing for provenance.
_COMMON_REACH = (
    "cli.main", "cli.run_metrics", "corpus.load_corpus",
    "corpus.Corpus.content_hash", "masking.default_gender_spec",
)
_LIC_REACH = _COMMON_REACH + (
    "lic.run_protocol", "lic.sc_accuracy", "lic.lic_component",
    "corpus.balanced_image_split", "masking.Masker.mask",
    "vocab.build_vocab", "vocab.align_to_prediction_vocab", "vocab.Vocabulary.encode",
    "classifier.init_classifier", "classifier.train", "classifier.predict_proba",
)

_COCO = {
    "context_words": 4000,
    "zipf_s": 1.05,
    "leaning_words": 40,
    "leaning_probability": {"human": 0.15, "generated": 0.25},
    "caption_length": [7, 11],
    "human_captions_per_image": 5,
    "mention_rates": {
        "human": {"own": 0.50, "other": 0.04, "mixed": 0.08, "none": 0.38},
        "generated": {"own": 0.58, "other": 0.07, "mixed": 0.05, "none": 0.30},
    },
    "object_labels": 80,
    "objects_per_image": [1, 4],
    "object_mention_probability": {"human": 0.3, "generated": 0.35},
    "lexicon_labels": 500,
    "stray_label_probability": 0.3,
}

WORKLOADS = {
    "lic_bag_wide": {
        "kind": "synthetic",
        "params": {
            "n_images": 3000, "theta_human": 0.7, "theta_generated": 0.9,
            "filler_words": 5000, "caption_length": [6, 10],
        },
        "metrics": "lic,sc,leakage",
        "n_seeds": 1,
        # One epoch and a small rate: more training lets the 5000 fillers
        # overfit, and held-out accuracy falls below the Bayes accuracy. At
        # rate 0.01 it sat 0.7 binomial deviations below on average, and
        # 3.8 at worst over 100 seeds; at 0.003, 0.2 and 3.7 over 150.
        "classifier": {"encoder_kind": "bag_mean", "epochs": 1,
                       "learning_rate": 0.003, "batch_size": 32},
        "reach": _LIC_REACH,
    },
    "lic_birecurrent": {
        "kind": "synthetic",
        "params": {
            "n_images": 3000, "theta_human": 0.7, "theta_generated": 0.9,
            "filler_words": 50, "caption_length": [4, 6],
        },
        "metrics": "lic,sc,leakage",
        "n_seeds": 1,
        # The recurrent model can sit at chance for a while before it finds
        # the marker: with 1500 images of 6-10 tokens at learning rate 0.005,
        # 2 of 100 seeds ended near 0.5 on the human side (0.7 Bayes), and a
        # larger rate diverged more often. Short captions, more images and a
        # smaller rate reached the Bayes accuracy on all of 240 seeds.
        "classifier": {"encoder_kind": "birecurrent", "epochs": 2,
                       "learning_rate": 0.003, "batch_size": 16,
                       "embed_dim": 32, "hidden_dim": 32},
        "reach": _LIC_REACH,
    },
    "cooccur_coco": {
        "kind": "coco",
        "params": {**_COCO, "n_images": 1200},
        "metrics": "ba,dba_g,dba_o,ratio,error",
        "reach": _COMMON_REACH + (
            "corpus.load_object_annotations", "masking.Masker.mention",
            "cooccur.select_task_words", "cooccur.count_cooccurrence",
            "cooccur.ba_from_tables", "cooccur.dba", "cooccur.ratio",
            "cooccur.error_rate",
        ),
    },
    "lic_coco_multi": {
        "kind": "coco",
        "params": {**_COCO, "n_images": 800},
        "metrics": "lic,sc,leakage",
        "n_seeds": 3,
        "classifier": {"encoder_kind": "bag_mean", "epochs": 1,
                       "learning_rate": 0.005, "batch_size": 256,
                       "embed_dim": 16, "hidden_dim": 16},
        "reach": _LIC_REACH,
    },
}
