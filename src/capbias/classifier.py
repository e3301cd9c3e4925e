"""From-scratch attribute classifier: embeddings, a sequence encoder, and a
classification head, trained with Adam on mean cross-entropy.

Two encoders are provided: a bag-of-embeddings mean ("bag_mean", the
default) and a two-layer bidirectional tanh recurrence ("birecurrent").
Everything runs in double precision with hand-written gradients so the
trainer can be validated against central finite differences.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from capbias.adam import adam_step, first_read_order, scratch_size
from capbias.vocab import PAD_INDEX, Vocabulary

logger = logging.getLogger(__name__)

LEAKY_SLOPE = 0.01
# Captions per forward pass of `predict_proba`.
PREDICT_CHUNK = 256

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
    n_classes: int
    # One float64 buffer with rows as wide as the embedding: the other
    # parameters from the first row on, padded with zeros to a whole row,
    # then the embedding's rows. `params` are views into it.
    buffer: np.ndarray
    params: dict[str, np.ndarray]
    training_log: list[float] = field(default_factory=list)


def _views(buffer: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Views of the C-contiguous `buffer` in `shapes`, one after another."""
    flat, views, offset = buffer.reshape(-1), {}, 0
    for key, shape in shapes.items():
        size = math.prod(shape)
        views[key] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


def init_classifier(
    config: ClassifierConfig, vocabulary: Vocabulary, n_classes: int
) -> AttributeClassifier:
    """Fresh parameters from a zero-mean uniform scaled by layer fan-in.

    A birecurrent layer's two directions are stacked, forward first, in
    `Wx_l` (2, D, H), `Wh_l` (2, H, H) and `bh_l` (2, H).
    """
    if n_classes < 2:
        raise ClassifierError(f"need at least 2 classes, got {n_classes}")
    v, e, h = len(vocabulary), config.embed_dim, config.hidden_dim
    layers = [] if config.encoder_kind == BAG_MEAN else [(1, e), (2, 2 * h)]
    shapes: dict[str, tuple[int, ...]] = {}
    for layer, in_dim in layers:
        shapes.update({f"Wx_{layer}": (2, in_dim, h), f"Wh_{layer}": (2, h, h),
                       f"bh_{layer}": (2, h)})
    head_in = 2 * h if layers else e
    shapes.update(W1=(head_in, h), b1=(h,), W2=(h, n_classes), b2=(n_classes,))
    head = -(-sum(map(math.prod, shapes.values())) // e)
    buffer = np.zeros((head + v, e))
    params = {"embed": buffer[head:], **_views(buffer, shapes)}
    # Drawn in the order of one direction's Wx and Wh after the other's.
    fills = [(params["embed"], e)]
    for layer, in_dim in layers:
        for Wx, Wh in zip(params[f"Wx_{layer}"], params[f"Wh_{layer}"]):
            fills += [(Wx, in_dim), (Wh, h)]
    rng = np.random.default_rng(config.seed)
    for out, fan_in in fills + [(params["W1"], head_in), (params["W2"], h)]:
        bound = 1.0 / np.sqrt(fan_in)
        out[...] = rng.uniform(-bound, bound, size=out.shape)
    return AttributeClassifier(config, n_classes, buffer, params)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def _leaky_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, LEAKY_SLOPE)


@dataclass(frozen=True, eq=False)
class Packed:
    """Token-id sequences in one int32 array: sequence i is
    `tokens[offsets[i]:offsets[i] + lengths[i]]`. Sequences need not be
    stored in order or cover all of `tokens`."""

    tokens: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    @classmethod
    def from_lists(cls, sequences: Sequence[Sequence[int]]) -> "Packed":
        lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
        if (lengths == 0).any():
            raise ClassifierError("cannot encode an empty token sequence")
        tokens = np.fromiter(
            itertools.chain.from_iterable(sequences), dtype=np.int32,
            count=int(lengths.sum()),
        )
        return cls(tokens, np.cumsum(lengths) - lengths, lengths)


def _gather_batch(packed: Packed, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded token ids (B, L) and a 0/1 float mask for the packed sequences `rows`."""
    batch_lengths = packed.lengths[rows]
    positions = np.arange(batch_lengths.max())
    present = positions < batch_lengths[:, None]
    idx = np.full(present.shape, PAD_INDEX, dtype=np.int64)
    idx[present] = packed.tokens[(packed.offsets[rows][:, None] + positions)[present]]
    return idx, present.astype(np.float64)


def _epoch_reads(packed: Packed, order: np.ndarray,
                 batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The token ids of the packed sequences `order`, one after another, and
    the number of the batch of `batch_size` sequences that reads each."""
    lengths = packed.lengths[order]
    ends = np.cumsum(lengths)
    # These arrays are as long as the epoch, so each token's index into
    # `packed.tokens` is built in place and freed before the batch numbers,
    # which are int32, are made.
    at = np.arange(ends[-1])
    at += np.repeat(packed.offsets[order] - (ends - lengths), lengths)
    tokens = packed.tokens[at]
    del at
    return tokens, np.repeat(np.arange(len(order), dtype=np.int32) // batch_size, lengths)


class _Workspace(NamedTuple):
    """Flat arrays that a step's (B, L, E) temporaries are written into, at
    their starts; where one is None, the step allocates the temporary."""

    values: Optional[np.ndarray] = None  # float64: embedding gather, d_emb
    flat: Optional[np.ndarray] = None  # int64: `_add_rows`' element indices


def _view(work: Optional[np.ndarray], shape: tuple[int, ...],
          dtype=np.float64) -> np.ndarray:
    """A C-contiguous array of `shape` at the start of `work`, or a new one."""
    if work is None:
        return np.empty(shape, dtype)
    return work[:math.prod(shape)].reshape(shape)


# The birecurrent encoder steps both directions of a layer together: the state
# is (2, B, H), and scan step s reads position s forward and L-1-s backward.
# Arrays indexed by scan step have shape (L, 2, B, ...). Only the products that
# need the previous step run inside the step loops; the others run before or
# after them as stacked matmuls whose items have the shapes of the per-step
# products, and sums over steps add in the order the steps' gradients arrive,
# so the numbers are those of one (B, D) @ (D, H) product per step.


def _scan_views(seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (B, L, D) array as two (L, B, D) views, by forward and by backward
    scan step."""
    return seq.transpose(1, 0, 2), seq[:, ::-1].transpose(1, 0, 2)


def _to_scan_order(seq: np.ndarray) -> np.ndarray:
    """(B, L, 2H) forward and backward halves -> (L, 2, B, H) by scan step."""
    batch, length, width = seq.shape
    hidden = width // 2
    out = np.empty((length, 2, batch, hidden))
    fwd, bwd = _scan_views(seq)
    out[:, 0] = fwd[..., :hidden]
    out[:, 1] = bwd[..., hidden:]
    return out


def _to_positions(steps: np.ndarray) -> np.ndarray:
    """(L, 2, B, H) by scan step -> (B, L, 2H), the inverse of `_to_scan_order`."""
    length, _, batch, hidden = steps.shape
    out = np.empty((batch, length, 2 * hidden))
    fwd, bwd = _scan_views(out)
    fwd[..., :hidden] = steps[:, 0]
    bwd[..., hidden:] = steps[:, 1]
    return out


def _step_masks(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the mask (B, L) is 1 and where it is 0, by scan step: two
    boolean (L, 2, B, 1) arrays."""
    real = np.empty((mask.shape[1], 2, mask.shape[0], 1), dtype=bool)
    real[:, 0, :, 0] = mask.T
    real[:, 1, :, 0] = mask.T[::-1]
    return real, ~real


# The recurrence selects where the textbook form blends with the mask m,
# h = m*tanh(a) + (1-m)*h_prev: they differ only in the sign of a zero, and
# no state is -0.0, as the biases start at +0.0 and Adam's p - s cannot reach
# -0.0 from there. A -0.0 in a gradient leaves Adam's moments unchanged.


def _birecurrent_layer(x, padded, Wx, Wh, bh):
    """Both tanh recurrences of one layer over x (B, L, D), with carry over
    the `padded` positions.

    Returns the states (L + 1, 2, B, H) by scan step, zero before the first.
    """
    batch, length, _ = x.shape
    states = np.zeros((length + 1, 2, batch, Wh.shape[-1]))
    pre = np.empty(states[1:].shape)
    for d, view in enumerate(_scan_views(x)):
        np.matmul(view, Wx[d], out=pre[:, d])
    recur = np.empty(states.shape[1:])
    # a plain add is faster per step than a broadcast one
    bias = np.broadcast_to(bh[:, None], recur.shape).copy()
    for h_prev, h, a, padded_s in zip(states[:-1], states[1:], pre, padded):
        np.matmul(h_prev, Wh, out=recur)
        a += recur
        a += bias
        np.tanh(a, out=h)
        np.copyto(h, h_prev, where=padded_s)
    return states


def _birecurrent_layer_backward(cache, step_masks, d_steps, d_final, grads, layer):
    """Backprop through one layer; writes its Wx/Wh/bh gradients and returns
    the gradient w.r.t. its input.

    `cache` is (x, Wx, Wh, states) from the forward pass, `d_steps`
    (L, 2, B, H) the gradient w.r.t. the layer's outputs by scan step, or None
    where it is zero, and `d_final` (2, B, H) the gradient w.r.t. the last
    states.
    """
    x, Wx, Wh, states = cache
    length = x.shape[1]
    real, padded = step_masks
    # At a real step the state is the tanh output; the gate is 0 elsewhere.
    gate = 1.0 - states[1:] ** 2
    np.copyto(gate, 0.0, where=padded)
    Wh_T = Wh.transpose(0, 2, 1)
    da = np.empty_like(gate)
    dh, recur = d_final.copy(), np.empty_like(d_final)
    d_out = itertools.repeat(None) if d_steps is None else d_steps[::-1]
    for da_s, gate_s, real_s, d_s in zip(da[::-1], gate[::-1], real[::-1], d_out):
        if d_s is not None:
            dh += d_s
        np.multiply(dh, gate_s, out=da_s)
        np.matmul(da_s, Wh_T, out=recur)
        np.copyto(dh, recur, where=real_s)
    # Sum each product over steps from the last scan step to the first, the
    # order in which the loop above produced them.
    d_Wx = np.empty((length,) + Wx.shape)
    for d, view in enumerate(_scan_views(x)):
        np.matmul(view.transpose(0, 2, 1), da[:, d], out=d_Wx[:, d])
    np.sum(d_Wx[::-1], axis=0, out=grads[f"Wx_{layer}"])
    np.sum(np.matmul(states[:-1].transpose(0, 1, 3, 2), da)[::-1], axis=0,
           out=grads[f"Wh_{layer}"])
    np.sum(da.sum(axis=2)[::-1], axis=0, out=grads[f"bh_{layer}"])
    # Each direction's products are written by position into an array of
    # x's layout, so the two add over contiguous memory.
    dx, dx_bwd = np.empty_like(x), np.empty_like(x)
    np.matmul(da[:, 0], Wx[0].T, out=_scan_views(dx)[0])
    np.matmul(da[:, 1], Wx[1].T, out=_scan_views(dx_bwd)[1])
    dx += dx_bwd
    return dx


def _encode_batch(params, config, idx, mask, caches, work):
    """Run the encoder; fills caches with intermediates for backprop."""
    emb = _view(work.values, idx.shape + (config.embed_dim,))
    # `train`'s ids are in range, as it maps them through `rank`; "raise"
    # would copy `emb` to check them again
    np.take(params["embed"], idx, axis=0, out=emb,
            mode="raise" if work.values is None else "clip")
    emb *= mask[..., None]
    if config.encoder_kind == BAG_MEAN:
        lengths = mask.sum(axis=1)[:, None]
        caches["lengths"] = lengths
        return emb.sum(axis=1) / lengths
    _, padded = caches["step_masks"] = _step_masks(mask)
    layer_in = emb
    for layer in (1, 2):
        Wx, Wh = params[f"Wx_{layer}"], params[f"Wh_{layer}"]
        states = _birecurrent_layer(layer_in, padded, Wx, Wh, params[f"bh_{layer}"])
        caches[f"layer_{layer}"] = (layer_in, Wx, Wh, states)
        if layer == 1:
            layer_in = _to_positions(states[1:])
    return np.concatenate([states[-1, 0], states[-1, 1]], axis=1)


def _encoder_backward(params, config, idx, mask, caches, d_enc, grads, embed_rows,
                      work):
    """Write the encoder's gradients: the recurrent ones overwrite their
    arrays, the embedding's are added into `grads["embed"]`, each token's
    into its row in `embed_rows`."""
    if config.encoder_kind == BAG_MEAN:
        # the forward pass's embedding gather is no longer read
        d_emb = _view(work.values, idx.shape + (d_enc.shape[1],))
        np.multiply((d_enc / caches["lengths"])[:, None, :], mask[..., None], out=d_emb)
    else:
        step_masks = caches["step_masks"]
        batch, hidden = idx.shape[0], config.hidden_dim
        d_final = d_enc.reshape(batch, 2, hidden).transpose(1, 0, 2)
        d_in2 = _birecurrent_layer_backward(caches["layer_2"], step_masks, None,
                                            d_final, grads, 2)
        d_emb = _birecurrent_layer_backward(
            caches["layer_1"], step_masks, _to_scan_order(d_in2),
            np.zeros_like(d_final), grads, 1,
        )
        d_emb *= mask[..., None]
    _add_rows(grads["embed"], embed_rows, d_emb, work.flat)


def _add_rows(table: np.ndarray, idx: np.ndarray, values: np.ndarray,
              flat: Optional[np.ndarray] = None) -> None:
    """`np.add.at(table, idx, values)` for a C-contiguous (V, E) `table`,
    through element indices into its flat view, written at the start of
    `flat` if given: each element receives its additions in the same order,
    so the sums have the same bits, and the 1-D call is about three times
    faster."""
    width = table.shape[1]
    at = _view(flat, idx.shape + (width,), np.int64)
    np.multiply(idx[..., None], width, out=at)
    at += np.arange(width)
    np.add.at(table.reshape(-1), at.reshape(-1), values.reshape(-1))


def _forward_batch(
    classifier: AttributeClassifier, idx: np.ndarray, mask: np.ndarray,
    work: _Workspace = _Workspace(),
) -> tuple[np.ndarray, dict]:
    params, config = classifier.params, classifier.config
    caches: dict = {}
    enc = _encode_batch(params, config, idx, mask, caches, work)
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
    embed_rows: np.ndarray | None = None,
    work: _Workspace = _Workspace(),
) -> float:
    """Mean cross-entropy of a batch; its gradients are written into `grads`.

    The embedding's gradient is added in, so its array must hold zeros on
    entry; every other gradient overwrites its array. The gradient of the
    token `idx[i, j]` is added to row `embed_rows[i, j]` of `grads["embed"]`,
    by default row `idx[i, j]`. The largest temporaries are written into
    `work`'s arrays where it has them.
    """
    params, config = classifier.params, classifier.config
    logits, caches = _forward_batch(classifier, idx, mask, work)
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
    _encoder_backward(params, config, idx, mask, caches, d_enc, grads,
                      idx if embed_rows is None else embed_rows, work)
    return loss


def predict_proba(classifier: AttributeClassifier, sequences: Packed) -> np.ndarray:
    """Batched confidences, shape (n_sequences, n_classes)."""
    out = np.zeros((len(sequences), classifier.n_classes))
    for start in range(0, len(sequences), PREDICT_CHUNK):
        rows = np.arange(start, min(start + PREDICT_CHUNK, len(sequences)))
        logits, _ = _forward_batch(classifier, *_gather_batch(sequences, rows))
        out[rows] = _softmax(logits)
    return out


def train(
    classifier: AttributeClassifier,
    sequences: Packed,
    labels: Sequence[int],
) -> AttributeClassifier:
    """Adam on mean cross-entropy for a fixed number of epochs.

    Shuffling is seeded from the classifier config, so training is fully
    deterministic given (data order, seed, config). Appends the mean loss
    of each epoch to the training log.
    """
    config = classifier.config
    if len(sequences) == 0:
        raise ClassifierError("empty training set")
    if len(sequences) != len(labels):
        raise ClassifierError("sequences and labels differ in length")
    labels_arr = np.asarray(labels, dtype=np.int64)
    if labels_arr.min() < 0 or labels_arr.max() >= classifier.n_classes:
        raise ClassifierError("label outside [0, n_classes)")

    rng = np.random.default_rng([config.seed, 1])  # shuffle stream, distinct from init
    order = rng.permutation(len(sequences))
    # Every epoch reads every sequence, so the first reads every embedding
    # row that is ever read. While training, the embedding's rows are in the
    # order of their first read, so that the rows read so far are a prefix,
    # and each batch's token ids are mapped to that order. A row no batch has
    # read has m = v = 0 and g = 0, which the Adam step leaves as they are,
    # so the step is limited to the buffer's head and that prefix.
    buffer, embed = classifier.buffer, classifier.params["embed"]
    n_rows, width = embed.shape
    head = len(buffer) - n_rows  # the rows of the other parameters
    rows = first_read_order(*_epoch_reads(sequences, order, config.batch_size),
                            n_rows, PAD_INDEX + 1)
    rank = np.empty(n_rows, dtype=np.int64)
    rank[rows] = np.arange(n_rows)

    # The Adam moments have the buffer's layout.
    moment1, moment2 = np.zeros(buffer.shape), np.zeros(buffer.shape)
    # The embedding into first-read order, through the first moment's rows.
    np.take(embed, rows, axis=0, out=moment1[head:], mode="clip")
    embed[...] = moment1[head:]
    moment1[head:] = 0.0

    # Every step writes into views of these arrays, made once and sized to
    # the largest batch: its B captions of at most L tokens read at most
    # B * L embedding rows. The float64 one serves the passes' (B, L, E)
    # temporaries and then the Adam step's scratch. A batch's gradient has
    # the head rows, whose gradients overwrite their views and whose padding
    # stays zero, then the embedding rows the batch read, zeroed before each
    # step; `grad_rows` names those rows in the buffer.
    reads = min(config.batch_size, len(sequences)) * int(sequences.lengths.max())
    floats = np.empty(max(reads * width, scratch_size(len(buffer), width)))
    work = _Workspace(floats, np.empty(reads * width, dtype=np.int64))
    grad = np.zeros((head + min(reads, n_rows), width))
    grads = _views(grad, {key: value.shape for key, value in classifier.params.items()
                          if key != "embed"})
    grad_rows = np.arange(len(grad))

    read = np.zeros(n_rows, dtype=bool)
    slot = np.empty(n_rows, dtype=np.int64)
    n_read = 0  # the rows any batch has read are [0, n_read)
    step = 0
    try:
        for epoch in range(config.epochs):
            if epoch:
                order = rng.permutation(len(sequences))
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, len(order), config.batch_size):
                batch_ids = order[start:start + config.batch_size]
                idx, mask = _gather_batch(sequences, batch_ids)
                idx = rank[idx]
                read[idx] = True
                hit = np.flatnonzero(read)
                read[hit] = False
                slot[hit] = np.arange(len(hit))
                used = head + len(hit)
                grads["embed"] = grad[head:used]
                grads["embed"].fill(0.0)
                loss = _loss_and_grads(classifier, idx, mask, labels_arr[batch_ids],
                                       grads, slot[idx], work)
                if not np.isfinite(loss):
                    raise ClassifierError(
                        f"non-finite loss at epoch {epoch}, step {step}: {loss}"
                    )
                step += 1
                n_read = max(n_read, int(hit[-1]) + 1)
                prefix = slice(head + n_read)
                np.add(hit, head, out=grad_rows[head:used])
                adam_step(buffer[prefix], grad[:used], moment1[prefix], moment2[prefix],
                          config.learning_rate, step, grad_rows[:used], floats)
                # min and max propagate NaN and reach any infinity, and unlike
                # isfinite(buffer) they allocate no temporary as large as it.
                # The rows past the prefix do not change, so after the first
                # step only the prefix is checked.
                checked = buffer if step == 1 else buffer[prefix]
                if not (np.isfinite(checked.min()) and np.isfinite(checked.max())):
                    key = next(k for k, v in classifier.params.items()
                               if not np.isfinite(v).all())
                    raise ClassifierError(
                        f"non-finite parameter {key!r} at epoch {epoch}, step {step}"
                    )
                epoch_loss += loss
                n_batches += 1
            classifier.training_log.append(epoch_loss / n_batches)
    finally:
        # The embedding back in vocabulary order, through the first moment's
        # rows, which are no longer needed.
        np.take(embed, rank, axis=0, out=moment1[head:], mode="clip")
        embed[...] = moment1[head:]
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
    idx, mask = _gather_batch(Packed.from_lists([token_indices]), np.array([0]))
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
