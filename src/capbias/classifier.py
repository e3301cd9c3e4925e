"""From-scratch attribute classifier: embeddings, a sequence encoder, and a
classification head, trained with Adam on mean cross-entropy.

Two encoders are provided: a bag-of-embeddings mean ("bag_mean", the
default) and a two-layer bidirectional tanh recurrence ("birecurrent").
Everything runs in double precision with hand-written gradients so the
trainer can be validated against central finite differences.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from capbias.vocab import PAD_INDEX, Vocabulary

logger = logging.getLogger(__name__)

LEAKY_SLOPE = 0.01
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per pass of the Adam update: the chunks of its six arrays fit in
# a core's L2 cache.
ADAM_CHUNK = 8192

BAG_MEAN = "bag_mean"
BIRECURRENT = "birecurrent"


class ClassifierError(RuntimeError):
    pass


@dataclass(frozen=True)
class ClassifierConfig:
    embed_dim: int = 64
    hidden_dim: int = 128
    encoder_kind: str = BAG_MEAN
    epochs: int = 20
    learning_rate: float = 5e-5
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.embed_dim <= 0 or self.hidden_dim <= 0:
            raise ClassifierError("dimensions must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ClassifierError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ClassifierError("learning_rate must be positive")
        if self.encoder_kind not in (BAG_MEAN, BIRECURRENT):
            raise ClassifierError(f"unknown encoder kind {self.encoder_kind!r}")

    def content_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class AttributeClassifier:
    config: ClassifierConfig
    vocabulary: Vocabulary
    n_classes: int
    params: dict[str, np.ndarray]
    training_log: list[float] = field(default_factory=list)
    class_names: Optional[tuple[str, ...]] = None


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float64)


def init_classifier(
    config: ClassifierConfig, vocabulary: Vocabulary, n_classes: int
) -> AttributeClassifier:
    """Fresh parameters from a zero-mean uniform scaled by layer fan-in."""
    if n_classes < 2:
        raise ClassifierError(f"need at least 2 classes, got {n_classes}")
    rng = np.random.default_rng(config.seed)
    v, e, h = len(vocabulary), config.embed_dim, config.hidden_dim
    params: dict[str, np.ndarray] = {"embed": _uniform(rng, (v, e), e)}
    if config.encoder_kind == BAG_MEAN:
        head_in = e
    else:
        for layer, in_dim in ((1, e), (2, 2 * h)):
            for direction in ("fwd", "bwd"):
                key = f"{layer}_{direction}"
                params[f"Wx_{key}"] = _uniform(rng, (in_dim, h), in_dim)
                params[f"Wh_{key}"] = _uniform(rng, (h, h), h)
                params[f"bh_{key}"] = np.zeros(h)
        head_in = 2 * h
    params["W1"] = _uniform(rng, (head_in, h), head_in)
    params["b1"] = np.zeros(h)
    params["W2"] = _uniform(rng, (h, n_classes), h)
    params["b2"] = np.zeros(n_classes)
    return AttributeClassifier(
        config=config, vocabulary=vocabulary, n_classes=n_classes, params=params
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def _leaky_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, LEAKY_SLOPE)


def _pad_batch(sequences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    if any(len(s) == 0 for s in sequences):
        raise ClassifierError("cannot encode an empty token sequence")
    max_len = max(len(s) for s in sequences)
    idx = np.full((len(sequences), max_len), PAD_INDEX, dtype=np.int64)
    mask = np.zeros((len(sequences), max_len))
    for i, seq in enumerate(sequences):
        idx[i, : len(seq)] = seq
        mask[i, : len(seq)] = 1.0
    return idx, mask


def _scan(x, mask, Wx, Wh, bh, reverse):
    """One directional tanh recurrence with carry over padded positions.

    Returns per-step outputs (B, L, H), the final state (B, H), and the
    caches (h_prev, h_new per step, in scan order) needed for backprop.
    """
    batch, length, _ = x.shape
    h = np.zeros((batch, Wh.shape[0]))
    order = range(length - 1, -1, -1) if reverse else range(length)
    outputs = np.zeros((batch, length, Wh.shape[0]))
    caches = []
    for t in order:
        h_prev = h
        h_new = np.tanh(x[:, t] @ Wx + h_prev @ Wh + bh)
        m = mask[:, t][:, None]
        h = m * h_new + (1.0 - m) * h_prev
        outputs[:, t] = h
        caches.append((t, h_prev, h_new))
    return outputs, h, caches


def _scan_backward(x, mask, Wx, Wh, caches, d_out, d_final, grads, key):
    """Backprop through one directional scan; returns gradient w.r.t. x."""
    dx = np.zeros_like(x)
    dh = d_final.copy()
    for t, h_prev, h_new in reversed(caches):
        dh = dh + d_out[:, t]
        m = mask[:, t][:, None]
        da = (m * dh) * (1.0 - h_new ** 2)
        grads[f"Wx_{key}"] += x[:, t].T @ da
        grads[f"Wh_{key}"] += h_prev.T @ da
        grads[f"bh_{key}"] += da.sum(axis=0)
        dx[:, t] += da @ Wx.T
        dh = (1.0 - m) * dh + da @ Wh.T
    return dx


def _encode_batch(params, config, idx, mask, caches):
    """Run the encoder; fills caches with intermediates for backprop."""
    emb = params["embed"][idx] * mask[..., None]
    caches["emb"] = emb
    if config.encoder_kind == BAG_MEAN:
        lengths = mask.sum(axis=1)[:, None]
        caches["lengths"] = lengths
        return emb.sum(axis=1) / lengths
    layer_in = emb
    finals = {}
    for layer in (1, 2):
        outs = {}
        for direction, reverse in (("fwd", False), ("bwd", True)):
            key = f"{layer}_{direction}"
            out, final, scan_cache = _scan(
                layer_in, mask,
                params[f"Wx_{key}"], params[f"Wh_{key}"], params[f"bh_{key}"],
                reverse,
            )
            outs[direction] = out
            finals[key] = final
            caches[f"scan_{key}"] = scan_cache
            caches[f"in_{layer}"] = layer_in
        layer_in = np.concatenate([outs["fwd"], outs["bwd"]], axis=2)
        caches[f"out_{layer}"] = layer_in
    return np.concatenate([finals["2_fwd"], finals["2_bwd"]], axis=1)


def _encoder_backward(params, config, idx, mask, caches, d_enc, grads):
    h = config.hidden_dim
    if config.encoder_kind == BAG_MEAN:
        d_emb = (d_enc / caches["lengths"])[:, None, :] * mask[..., None]
    else:
        zero = np.zeros((idx.shape[0], idx.shape[1], h))
        d_final = {"2_fwd": d_enc[:, :h], "2_bwd": d_enc[:, h:]}
        d_in2 = np.zeros_like(caches["in_2"])
        for direction in ("fwd", "bwd"):
            key = f"2_{direction}"
            d_in2 += _scan_backward(
                caches["in_2"], mask, params[f"Wx_{key}"], params[f"Wh_{key}"],
                caches[f"scan_{key}"], zero, d_final[key], grads, key,
            )
        d_emb = np.zeros_like(caches["emb"])
        d_out1 = {"fwd": d_in2[:, :, :h], "bwd": d_in2[:, :, h:]}
        zero_final = np.zeros((idx.shape[0], h))
        for direction in ("fwd", "bwd"):
            key = f"1_{direction}"
            d_emb += _scan_backward(
                caches["in_1"], mask, params[f"Wx_{key}"], params[f"Wh_{key}"],
                caches[f"scan_{key}"], d_out1[direction], zero_final, grads, key,
            )
        d_emb *= mask[..., None]
    np.add.at(grads["embed"], idx, d_emb)


def _forward_batch(
    classifier: AttributeClassifier, idx: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, dict]:
    params, config = classifier.params, classifier.config
    caches: dict = {}
    enc = _encode_batch(params, config, idx, mask, caches)
    h_pre = enc @ params["W1"] + params["b1"]
    logits = _leaky(h_pre) @ params["W2"] + params["b2"]
    caches["enc"], caches["h_pre"] = enc, h_pre
    return logits, caches


def _loss_and_grads(
    classifier: AttributeClassifier,
    idx: np.ndarray,
    mask: np.ndarray,
    labels: np.ndarray,
    grads: dict[str, np.ndarray],
) -> float:
    """Mean cross-entropy of a batch; its gradients are written into `grads`.

    The head's gradients overwrite their arrays. The embedding and recurrent
    gradients are added in, so those arrays must hold zeros on entry.
    """
    params, config = classifier.params, classifier.config
    logits, caches = _forward_batch(classifier, idx, mask)
    probs = _softmax(logits)
    batch = idx.shape[0]
    loss = float(-np.log(probs[np.arange(batch), labels] + 1e-300).mean())

    d_logits = probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch
    h_act = _leaky(caches["h_pre"])
    np.matmul(h_act.T, d_logits, out=grads["W2"])
    d_logits.sum(axis=0, out=grads["b2"])
    d_h = (d_logits @ params["W2"].T) * _leaky_grad(caches["h_pre"])
    np.matmul(caches["enc"].T, d_h, out=grads["W1"])
    d_h.sum(axis=0, out=grads["b1"])
    d_enc = d_h @ params["W1"].T
    _encoder_backward(params, config, idx, mask, caches, d_enc, grads)
    return loss


def predict_proba(
    classifier: AttributeClassifier,
    sequences: Sequence[Sequence[int]],
    chunk_size: int = 256,
) -> np.ndarray:
    """Batched confidences, shape (n_sequences, n_classes)."""
    out = np.zeros((len(sequences), classifier.n_classes))
    for start in range(0, len(sequences), chunk_size):
        chunk = sequences[start:start + chunk_size]
        idx, mask = _pad_batch(chunk)
        logits, _ = _forward_batch(classifier, idx, mask)
        out[start:start + len(chunk)] = _softmax(logits)
    return out


def predict(
    classifier: AttributeClassifier, sequences: Sequence[Sequence[int]]
) -> np.ndarray:
    """Argmax class per sequence; ties break toward the lower class index."""
    return predict_proba(classifier, sequences).argmax(axis=1)


def _adam_step(param, grad, moment1, moment2, scratch1, scratch2, lr, step):
    """One Adam update (Kingma & Ba 2015) of `param`, in place.

    The operations and their order are those of
        m = b1*m + (1-b1)*g
        v = b2*v + ((1-b2)*g)*g
        p -= (lr*(m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps)
    so the result is bit-identical to evaluating that formula with fresh
    arrays. The buffers are updated a chunk of `scratch1.size` elements at a
    time, so the chunks of all six arrays stay in cache; `scratch1` and
    `scratch2` hold the intermediates.
    """
    chunk = scratch1.size
    for start in range(0, param.size, chunk):
        part = slice(start, start + chunk)
        p, g, m, v = param[part], grad[part], moment1[part], moment2[part]
        s1, s2 = scratch1[:p.size], scratch2[:p.size]
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(g, 1 - ADAM_BETA1, out=s1)
        np.add(m, s1, out=m)
        np.multiply(v, ADAM_BETA2, out=v)
        np.multiply(g, 1 - ADAM_BETA2, out=s1)
        np.multiply(s1, g, out=s1)
        np.add(v, s1, out=v)
        np.divide(m, 1 - ADAM_BETA1 ** step, out=s1)
        np.multiply(s1, lr, out=s1)
        np.divide(v, 1 - ADAM_BETA2 ** step, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, ADAM_EPS, out=s2)
        np.divide(s1, s2, out=s1)
        np.subtract(p, s1, out=p)


def train(
    classifier: AttributeClassifier,
    sequences: Sequence[Sequence[int]],
    labels: Sequence[int],
    config: Optional[ClassifierConfig] = None,
) -> AttributeClassifier:
    """Adam on mean cross-entropy for a fixed number of epochs.

    Shuffling is seeded from the classifier config, so training is fully
    deterministic given (data order, seed, config). Appends the mean loss
    of each epoch to the training log.
    """
    config = config or classifier.config
    if len(sequences) == 0:
        raise ClassifierError("empty training set")
    if len(sequences) != len(labels):
        raise ClassifierError("sequences and labels differ in length")
    labels_arr = np.asarray(labels, dtype=np.int64)
    if labels_arr.min() < 0 or labels_arr.max() >= classifier.n_classes:
        raise ClassifierError("label outside [0, n_classes)")

    # One float64 buffer holds every parameter; classifier.params become
    # views into it, and the Adam moments and the gradient share its layout,
    # so the optimizer is one code path over one buffer.
    flat = np.concatenate([v.ravel() for v in classifier.params.values()])
    moment1, moment2, grad = (np.zeros_like(flat) for _ in range(3))
    scratch1, scratch2 = np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK)
    params: dict[str, np.ndarray] = {}
    grads: dict[str, np.ndarray] = {}
    offset = 0
    for key, value in classifier.params.items():
        params[key] = flat[offset:offset + value.size].reshape(value.shape)
        grads[key] = grad[offset:offset + value.size].reshape(value.shape)
        offset += value.size
    classifier.params = params
    accumulated = [grads[key] for key in grads if key.startswith(("Wx_", "Wh_", "bh_"))]

    rng = np.random.default_rng([config.seed, 1])  # shuffle stream, distinct from init
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(sequences))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch_ids = order[start:start + config.batch_size]
            idx, mask = _pad_batch([sequences[i] for i in batch_ids])
            loss = _loss_and_grads(classifier, idx, mask, labels_arr[batch_ids], grads)
            if not np.isfinite(loss):
                raise ClassifierError(
                    f"non-finite loss at epoch {epoch}, step {step}: {loss}"
                )
            step += 1
            _adam_step(flat, grad, moment1, moment2, scratch1, scratch2,
                       config.learning_rate, step)
            if not np.isfinite(flat).all():
                key = next(k for k, v in params.items() if not np.isfinite(v).all())
                raise ClassifierError(
                    f"non-finite parameter {key!r} at epoch {epoch}, step {step}"
                )
            # Clear what _loss_and_grads added into: the embedding rows this
            # batch read, and the recurrent gradients.
            grads["embed"][idx] = 0.0
            for array in accumulated:
                array.fill(0.0)
            epoch_loss += loss
            n_batches += 1
        classifier.training_log.append(epoch_loss / n_batches)
    if classifier.training_log[-1] > classifier.training_log[0]:
        logger.info(
            "final training loss %.4f exceeds initial %.4f",
            classifier.training_log[-1], classifier.training_log[0],
        )
    return classifier


def gradient_check(
    classifier: AttributeClassifier,
    token_indices: Sequence[int],
    label: int,
    epsilon: float = 1e-5,
    n_samples: int = 120,
    rng_seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples coordinates across all parameter arrays; coordinates where both
    gradients are below a 1e-10 magnitude floor are skipped.
    """
    idx, mask = _pad_batch([list(token_indices)])
    labels = np.array([label])
    grads = {k: np.zeros_like(v) for k, v in classifier.params.items()}
    _loss_and_grads(classifier, idx, mask, labels, grads)

    def loss_at() -> float:
        zeros = {k: np.zeros_like(v) for k, v in classifier.params.items()}
        return _loss_and_grads(classifier, idx, mask, labels, zeros)

    rng = np.random.default_rng(rng_seed)
    keys = sorted(classifier.params)
    max_err = 0.0
    for _ in range(n_samples):
        key = keys[rng.integers(len(keys))]
        array = classifier.params[key]
        flat = rng.integers(array.size)
        coord = np.unravel_index(flat, array.shape)
        original = array[coord]
        array[coord] = original + epsilon
        loss_plus = loss_at()
        array[coord] = original - epsilon
        loss_minus = loss_at()
        array[coord] = original
        numeric = (loss_plus - loss_minus) / (2 * epsilon)
        analytic = grads[key][coord]
        scale = max(abs(analytic), abs(numeric))
        if scale < 1e-10:
            continue
        max_err = max(max_err, abs(analytic - numeric) / scale)
    return max_err


CHECKPOINT_VERSION = 1


def save_checkpoint(
    classifier: AttributeClassifier,
    path: Path | str,
    class_names: Optional[Sequence[str]] = None,
) -> None:
    """JSON checkpoint with config, vocabulary hash, and flat parameters."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(classifier.config),
        "vocab_hash": classifier.vocabulary.content_hash(),
        "n_classes": classifier.n_classes,
        "class_names": list(class_names or classifier.class_names or []) or None,
        "params": {
            k: {"shape": list(v.shape), "data": v.ravel().tolist()}
            for k, v in classifier.params.items()
        },
        "training_log": classifier.training_log,
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_checkpoint(path: Path | str, vocabulary: Vocabulary) -> AttributeClassifier:
    """Load a checkpoint; the vocabulary hash must match the one trained with."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ClassifierError(
            f"unsupported checkpoint version {payload.get('format_version')}"
        )
    if payload["vocab_hash"] != vocabulary.content_hash():
        raise ClassifierError("checkpoint vocabulary hash does not match")
    config = ClassifierConfig(**payload["config"])
    params = {
        k: np.asarray(spec["data"], dtype=np.float64).reshape(spec["shape"])
        for k, spec in payload["params"].items()
    }
    names = payload.get("class_names")
    return AttributeClassifier(
        config=config,
        vocabulary=vocabulary,
        n_classes=payload["n_classes"],
        params=params,
        training_log=list(payload["training_log"]),
        class_names=tuple(names) if names else None,
    )
