import inspect
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capbias.adam import ADAM_BETA1, ADAM_BETA2, ADAM_CHUNK, ADAM_EPS
from capbias.classifier import (
    LEAKY_SLOPE,
    ClassifierConfig,
    ClassifierError,
    Packed,
    _add_rows,
    _gather_batch,
    _loss_and_grads,
    _softmax,
    gradient_check,
    init_classifier,
    predict_proba,
    train,
)
from capbias.vocab import PAD_INDEX, build_vocab


@pytest.fixture(scope="module")
def vocabulary():
    return build_vocab(Counter(f"w{i}" for i in range(20)), mask_token="<gender>")


def small_config(**overrides):
    base = dict(embed_dim=8, hidden_dim=8, epochs=5, learning_rate=0.01,
                batch_size=4, seed=0)
    base.update(overrides)
    return ClassifierConfig(**base)


def synthetic_data(vocabulary, n=40, seed=0, signal=True):
    """Sequences whose first token determines the label when signal=True."""
    rng = np.random.default_rng(seed)
    marker = {0: vocabulary.encode(["w0"])[0], 1: vocabulary.encode(["w1"])[0]}
    sequences, labels = [], []
    for i in range(n):
        label = i % 2
        body = vocabulary.encode([f"w{j}" for j in rng.integers(2, 20, size=5)])
        if signal:
            body.insert(0, marker[label])
        sequences.append(body)
        labels.append(label)
    return sequences, labels


class TestInit:
    def test_deterministic(self, vocabulary):
        a = init_classifier(small_config(), vocabulary, 2)
        b = init_classifier(small_config(), vocabulary, 2)
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_seed_changes_params(self, vocabulary):
        a = init_classifier(small_config(seed=0), vocabulary, 2)
        b = init_classifier(small_config(seed=1), vocabulary, 2)
        assert not np.array_equal(a.params["embed"], b.params["embed"])

    def test_fresh_model_near_uniform(self, vocabulary):
        model = init_classifier(small_config(), vocabulary, 4)
        probs = predict_proba(model, Packed.from_lists([[3, 4, 5]]))[0]
        assert probs.shape == (4,)
        assert np.all(np.abs(probs - 0.25) < 0.2)

    def test_rejects_single_class(self, vocabulary):
        with pytest.raises(ClassifierError):
            init_classifier(small_config(), vocabulary, 1)


class TestForward:
    def test_softmax_normalized(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(scale=20, size=(1000, 5))
        probs = _softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs >= 0).all()

    def test_softmax_shift_invariant_argmax(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(200, 3))
        shifted = logits + rng.normal(size=(200, 1)) * 50
        assert np.array_equal(
            _softmax(logits).argmax(axis=1), _softmax(shifted).argmax(axis=1)
        )

    def test_bag_mean_duplication_invariant(self, vocabulary):
        model = init_classifier(small_config(), vocabulary, 2)
        once = predict_proba(model, Packed.from_lists([[5]]))[0]
        twice = predict_proba(model, Packed.from_lists([[5, 5]]))[0]
        assert np.allclose(once, twice, atol=1e-12)

    def test_batched_matches_single(self, vocabulary):
        model = init_classifier(small_config(encoder_kind="birecurrent"), vocabulary, 2)
        sequences = [[3, 4], [5, 6, 7, 8], [9]]
        batched = predict_proba(model, Packed.from_lists(sequences))
        for i, seq in enumerate(sequences):
            single = predict_proba(model, Packed.from_lists([seq]))[0]
            assert np.allclose(batched[i], single, atol=1e-12)

    def test_empty_sequence_rejected(self, vocabulary):
        model = init_classifier(small_config(), vocabulary, 2)
        with pytest.raises(ClassifierError):
            predict_proba(model, Packed.from_lists([[]]))


class TestTrain:
    @pytest.mark.parametrize("encoder", ["bag_mean", "birecurrent"])
    def test_separable_data_learned(self, vocabulary, encoder):
        config = small_config(encoder_kind=encoder, epochs=40)
        sequences, labels = synthetic_data(vocabulary, n=60)
        packed = Packed.from_lists(sequences)
        model = train(init_classifier(config, vocabulary, 2), packed, labels)
        accuracy = (
            predict_proba(model, packed).argmax(axis=1) == np.asarray(labels)
        ).mean()
        assert accuracy >= 0.99

    def test_no_signal_stays_near_chance(self, vocabulary):
        accuracies = []
        for seed in range(10):
            config = small_config(seed=seed, epochs=3, learning_rate=0.001)
            sequences, labels = synthetic_data(vocabulary, n=40, seed=seed, signal=False)
            model = train(init_classifier(config, vocabulary, 2),
                          Packed.from_lists(sequences), labels)
            hold_x, hold_y = synthetic_data(vocabulary, n=40, seed=seed + 100, signal=False)
            predicted = predict_proba(model, Packed.from_lists(hold_x)).argmax(axis=1)
            accuracies.append((predicted == np.asarray(hold_y)).mean())
        assert abs(float(np.mean(accuracies)) - 0.5) < 0.05

    def test_deterministic(self, vocabulary):
        sequences, labels = synthetic_data(vocabulary)
        runs = []
        for _ in range(2):
            model = train(init_classifier(small_config(), vocabulary, 2),
                          Packed.from_lists(sequences), labels)
            runs.append(model)
        for key in runs[0].params:
            assert np.array_equal(runs[0].params[key], runs[1].params[key])
        assert runs[0].training_log == runs[1].training_log

    def test_loss_decreases_on_separable_data(self, vocabulary):
        sequences, labels = synthetic_data(vocabulary)
        model = train(init_classifier(small_config(epochs=10), vocabulary, 2),
                      Packed.from_lists(sequences), labels)
        assert model.training_log[-1] < model.training_log[0]

    def test_length_mismatch(self, vocabulary):
        model = init_classifier(small_config(), vocabulary, 2)
        with pytest.raises(ClassifierError):
            train(model, Packed.from_lists([[1, 2]]), [0, 1])

    def test_label_out_of_range(self, vocabulary):
        model = init_classifier(small_config(), vocabulary, 2)
        with pytest.raises(ClassifierError):
            train(model, Packed.from_lists([[1, 2]]), [2])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_parameters_abort(self, vocabulary):
        model = init_classifier(small_config(learning_rate=1e200, epochs=2),
                                vocabulary, 2)
        sequences, labels = synthetic_data(vocabulary)
        with pytest.raises(ClassifierError, match="epoch"):
            train(model, Packed.from_lists(sequences), labels)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_parameter_error_names_key(self, vocabulary):
        model = init_classifier(small_config(), vocabulary, 2)
        # The mask token's row is read by no sequence, so the loss stays
        # finite and only the parameter check can see it.
        model.params["embed"][vocabulary.encode(["<gender>"])[0]] = np.inf
        sequences, labels = synthetic_data(vocabulary)
        with pytest.raises(
            ClassifierError, match=r"non-finite parameter 'embed' at epoch 0, step 1"
        ):
            train(model, Packed.from_lists(sequences), labels)


def _batch_grads(model, idx, mask, labels):
    """One batch's loss and gradients, written into fresh zeros.

    Runs against either form of `_loss_and_grads`: one that fills the
    gradient arrays it is given, or one that allocates its own.
    """
    if "grads" in inspect.signature(_loss_and_grads).parameters:
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        return _loss_and_grads(model, idx, mask, labels, grads), grads
    return _loss_and_grads(model, idx, mask, labels)


def _pad_batch(sequences):
    """Padding written as a per-caption loop: the reference for the batches
    `train` and `predict_proba` gather."""
    if any(len(s) == 0 for s in sequences):
        raise ClassifierError("cannot encode an empty token sequence")
    max_len = max(len(s) for s in sequences)
    idx = np.full((len(sequences), max_len), PAD_INDEX, dtype=np.int64)
    mask = np.zeros((len(sequences), max_len))
    for i, seq in enumerate(sequences):
        idx[i, : len(seq)] = seq
        mask[i, : len(seq)] = 1.0
    return idx, mask


def reference_train(model, sequences, labels, batch_grads=_batch_grads):
    """Adam written per parameter array, with a fresh array for every
    intermediate: the formula `train` must reproduce bit for bit.
    `batch_grads(model, idx, mask, labels)` gives each batch's loss and
    gradients."""
    config, params = model.config, model.params
    labels_arr = np.asarray(labels, dtype=np.int64)
    moment1 = {k: np.zeros_like(v) for k, v in params.items()}
    moment2 = {k: np.zeros_like(v) for k, v in params.items()}
    rng = np.random.default_rng([config.seed, 1])
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(sequences))
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch_ids = order[start:start + config.batch_size]
            idx, mask = _pad_batch([sequences[i] for i in batch_ids])
            loss, grads = batch_grads(model, idx, mask, labels_arr[batch_ids])
            step += 1
            for key in params:
                g = grads[key]
                moment1[key] = ADAM_BETA1 * moment1[key] + (1 - ADAM_BETA1) * g
                moment2[key] = ADAM_BETA2 * moment2[key] + (1 - ADAM_BETA2) * g * g
                m_hat = moment1[key] / (1 - ADAM_BETA1 ** step)
                v_hat = moment2[key] / (1 - ADAM_BETA2 ** step)
                params[key] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            epoch_loss += loss
            n_batches += 1
        model.training_log.append(epoch_loss / n_batches)
    return model


class TestAdamReference:
    @pytest.mark.parametrize("encoder", ["bag_mean", "birecurrent"])
    def test_train_matches_per_key_adam(self, encoder):
        words = [f"v{i}" for i in range(300)]
        vocabulary = build_vocab(Counter(words), mask_token="<gender>")
        rng = np.random.default_rng(11)
        # 3 classes; 45 sequences in batches of 8 leave a last batch of 5;
        # embed_dim 32 gives about 10,000 parameters, within one chunk of the
        # Adam update (the case below spans several).
        sequences = [
            rng.integers(3, len(vocabulary), size=int(rng.integers(1, 9))).tolist()
            for _ in range(45)
        ]
        labels = [int(seq[0]) % 3 for seq in sequences]
        config = small_config(encoder_kind=encoder, embed_dim=32, epochs=3,
                              batch_size=8, seed=4)
        fast = train(init_classifier(config, vocabulary, 3), Packed.from_lists(sequences),
                     labels)
        slow = reference_train(init_classifier(config, vocabulary, 3), sequences, labels)
        assert list(fast.params) == list(slow.params)
        for key in slow.params:
            assert np.array_equal(fast.params[key], slow.params[key]), key
        assert fast.training_log == slow.training_log
        assert len(fast.training_log) == 3

    @pytest.mark.parametrize("encoder,hidden_dim", [("bag_mean", 1100), ("birecurrent", 160)])
    def test_dense_parameters_past_several_chunks(self, encoder, hidden_dim):
        words = [f"v{i}" for i in range(40)]
        vocabulary = build_vocab(Counter(words), mask_token="<gender>")
        rng = np.random.default_rng(12)
        sequences = [
            rng.integers(3, len(vocabulary), size=int(rng.integers(1, 7))).tolist()
            for _ in range(21)
        ]
        labels = [int(seq[0]) % 3 for seq in sequences]
        config = small_config(encoder_kind=encoder, embed_dim=64, hidden_dim=hidden_dim,
                              epochs=2, batch_size=8, seed=5)
        fast = train(init_classifier(config, vocabulary, 3), Packed.from_lists(sequences),
                     labels)
        slow = reference_train(init_classifier(config, vocabulary, 3), sequences, labels)
        # the parameters outside the embedding take the dense Adam path
        dense = sum(value.size for key, value in slow.params.items() if key != "embed")
        assert dense > 2 * ADAM_CHUNK
        assert list(fast.params) == list(slow.params)
        for key in slow.params:
            assert np.array_equal(fast.params[key], slow.params[key]), key
        assert fast.training_log == slow.training_log
        assert len(fast.training_log) == 2


# At this embed_dim a chunk of the Adam update is 16 embedding rows, so the
# rows the batches read span several chunks and their boundaries.
WIDE_DIM = ADAM_CHUNK // 16


@pytest.fixture(scope="module")
def wide_vocabulary():
    return build_vocab(Counter(f"v{i}" for i in range(100)), mask_token="<gender>")


class TestFirstReadOrder:
    """`train` holds the embedding in first-read order and skips the rows no
    batch has read; none of it shows in the parameters it returns."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_train_matches_reference(self, wide_vocabulary, data):
        n_rows = len(wide_vocabulary)
        encoder = data.draw(st.sampled_from(["bag_mean", "birecurrent"]))
        epochs = data.draw(st.integers(1, 3))
        batch_size = data.draw(st.integers(2, 6))
        seed = data.draw(st.integers(0, 2 ** 16))
        # Tokens from all rows but the last, which only the last, short
        # batch of the first epoch reads; most rows are read by no sequence.
        sequences = data.draw(st.lists(
            st.lists(st.integers(0, n_rows - 20), min_size=1, max_size=10),
            min_size=1, max_size=14,
        ))
        labels = data.draw(st.lists(st.integers(0, 2), min_size=len(sequences),
                                    max_size=len(sequences)))
        first_epoch = np.random.default_rng([seed, 1]).permutation(len(sequences))
        last_batch = first_epoch[(len(sequences) - 1) // batch_size * batch_size:]
        for i, row in enumerate(last_batch):
            sequences[row] = [*sequences[row], n_rows - 1 - i]
        config = small_config(encoder_kind=encoder, embed_dim=WIDE_DIM, epochs=epochs,
                              batch_size=batch_size, seed=seed)
        fast = train(init_classifier(config, wide_vocabulary, 3),
                     Packed.from_lists(sequences), labels)
        slow = reference_train(init_classifier(config, wide_vocabulary, 3), sequences,
                               labels)
        assert list(fast.params) == list(slow.params)
        for key in slow.params:
            assert np.array_equal(fast.params[key], slow.params[key]), key
        assert fast.training_log == slow.training_log

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_parameter_in_unread_row_names_key(self):
        vocabulary = build_vocab(Counter([f"w{i}" for i in range(20)] + ["unread"]),
                                 mask_token="<gender>")
        unread = vocabulary.encode(["unread"])[0]
        model = init_classifier(small_config(), vocabulary, 2)
        model.params["embed"][unread] = np.inf
        sequences, labels = synthetic_data(vocabulary)
        assert unread not in {token for seq in sequences for token in seq}
        with pytest.raises(
            ClassifierError, match=r"non-finite parameter 'embed' at epoch 0, step 1"
        ):
            train(model, Packed.from_lists(sequences), labels)
        # the parameters are in vocabulary order also after a failed step
        assert np.isinf(model.params["embed"][unread]).all()
        assert np.isfinite(np.delete(model.params["embed"], unread, axis=0)).all()

    def test_sequences_unchanged(self, vocabulary):
        sequences, labels = synthetic_data(vocabulary)
        shared = Packed.from_lists(sequences)
        # like the protocol's train and test splits: one token array, two views
        train_x = Packed(shared.tokens, shared.offsets[::2], shared.lengths[::2])
        before = [a.copy() for a in (shared.tokens, train_x.offsets, train_x.lengths)]
        train(init_classifier(small_config(), vocabulary, 2), train_x, labels[::2])
        for after, copy in zip((shared.tokens, train_x.offsets, train_x.lengths), before):
            assert after.dtype == copy.dtype
            assert np.array_equal(after, copy)


# A reference for the birecurrent encoder: one directional scan per layer and
# direction, with every product taken inside the time loop.


def _ref_scan(x, mask, Wx, Wh, bh, reverse):
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


def _ref_scan_backward(x, mask, Wx, Wh, caches, d_out, d_final, grads, key):
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


def _ref_forward(params, idx, mask):
    """Logits and the caches of a batch."""
    emb = params["embed"][idx] * mask[..., None]
    caches = {"emb": emb}
    layer_in = emb
    finals = {}
    for layer in (1, 2):
        outs = {}
        for direction, reverse in (("fwd", False), ("bwd", True)):
            key = f"{layer}_{direction}"
            out, finals[key], caches[f"scan_{key}"] = _ref_scan(
                layer_in, mask,
                params[f"Wx_{key}"], params[f"Wh_{key}"], params[f"bh_{key}"],
                reverse,
            )
            outs[direction] = out
        caches[f"in_{layer}"] = layer_in
        layer_in = np.concatenate([outs["fwd"], outs["bwd"]], axis=2)
    enc = np.concatenate([finals["2_fwd"], finals["2_bwd"]], axis=1)
    h_pre = enc @ params["W1"] + params["b1"]
    h_act = np.where(h_pre > 0, h_pre, LEAKY_SLOPE * h_pre)
    caches.update(enc=enc, h_pre=h_pre, h_act=h_act)
    return h_act @ params["W2"] + params["b2"], caches


def reference_grads(model, idx, mask, labels):
    """A batch's mean cross-entropy and its gradients, in fresh arrays."""
    params, h = model.params, model.config.hidden_dim
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    logits, caches = _ref_forward(params, idx, mask)
    probs = _softmax(logits)
    batch = idx.shape[0]
    loss = float(-np.log(probs[np.arange(batch), labels] + 1e-300).mean())
    d_logits = probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch
    grads["W2"] = caches["h_act"].T @ d_logits
    grads["b2"] = d_logits.sum(axis=0)
    d_h = (d_logits @ params["W2"].T) * np.where(caches["h_pre"] > 0, 1.0, LEAKY_SLOPE)
    grads["W1"] = caches["enc"].T @ d_h
    grads["b1"] = d_h.sum(axis=0)
    d_enc = d_h @ params["W1"].T

    zero = np.zeros((batch, idx.shape[1], h))
    d_final = {"2_fwd": d_enc[:, :h], "2_bwd": d_enc[:, h:]}
    d_in2 = np.zeros_like(caches["in_2"])
    for direction in ("fwd", "bwd"):
        key = f"2_{direction}"
        d_in2 += _ref_scan_backward(
            caches["in_2"], mask, params[f"Wx_{key}"], params[f"Wh_{key}"],
            caches[f"scan_{key}"], zero, d_final[key], grads, key,
        )
    d_emb = np.zeros_like(caches["emb"])
    d_out1 = {"fwd": d_in2[:, :, :h], "bwd": d_in2[:, :, h:]}
    zero_final = np.zeros((batch, h))
    for direction in ("fwd", "bwd"):
        key = f"1_{direction}"
        d_emb += _ref_scan_backward(
            caches["in_1"], mask, params[f"Wx_{key}"], params[f"Wh_{key}"],
            caches[f"scan_{key}"], d_out1[direction], zero_final, grads, key,
        )
    d_emb *= mask[..., None]
    np.add.at(grads["embed"], idx, d_emb)
    return loss, grads


def reference_proba(model, sequences, chunk_size=256):
    out = np.zeros((len(sequences), model.n_classes))
    for start in range(0, len(sequences), chunk_size):
        chunk = sequences[start:start + chunk_size]
        logits, _ = _ref_forward(model.params, *_pad_batch(chunk))
        out[start:start + len(chunk)] = _softmax(logits)
    return out


class TestPadding:
    @given(
        sequences=st.lists(
            st.lists(st.integers(0, 50), min_size=1, max_size=12),
            min_size=1, max_size=20,
        ),
        data=st.data(),
    )
    def test_gather_matches_per_caption_padding(self, sequences, data):
        rows = data.draw(st.lists(
            st.integers(0, len(sequences) - 1), min_size=1, max_size=len(sequences)
        ))
        idx, mask = _gather_batch(Packed.from_lists(sequences), np.asarray(rows))
        ref_idx, ref_mask = _pad_batch([sequences[r] for r in rows])
        assert idx.dtype == ref_idx.dtype and mask.dtype == ref_mask.dtype
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(mask, ref_mask)

    def test_empty_sequence_rejected_before_any_step(self, vocabulary):
        model = init_classifier(small_config(), vocabulary, 2)
        before = {k: v.copy() for k, v in model.params.items()}
        sequences, labels = synthetic_data(vocabulary)
        sequences[-1] = []
        with pytest.raises(ClassifierError, match="^cannot encode an empty token sequence$"):
            train(model, Packed.from_lists(sequences), labels)
        assert model.training_log == []
        for key, value in before.items():
            assert np.array_equal(model.params[key], value), key


class TestBirecurrentReference:
    """The birecurrent trainer reproduces the per-direction, per-step
    reference bit for bit. embed_dim differs from hidden_dim so that a
    transposed operand cannot pass."""

    @staticmethod
    def _setup(seed, n_captions, lengths, n_classes=3, **overrides):
        words = [f"v{i}" for i in range(40)]
        vocabulary = build_vocab(Counter(words), mask_token="<gender>")
        rng = np.random.default_rng(seed)
        sequences = [
            rng.integers(0, len(vocabulary), size=int(rng.integers(*lengths))).tolist()
            for _ in range(n_captions)
        ]
        labels = rng.integers(0, n_classes, size=n_captions)
        config = small_config(encoder_kind="birecurrent", embed_dim=24,
                              hidden_dim=16, seed=seed, **overrides)
        model = init_classifier(config, vocabulary, n_classes)
        # Biases start at zero; nonzero ones let a slip in adding them show.
        for key, value in model.params.items():
            if key.startswith("b"):
                value[...] = rng.normal(scale=0.1, size=value.shape)
        return model, sequences, labels

    @pytest.mark.parametrize("n_captions,lengths", [
        (1, (1, 2)),      # one caption of one token
        (1, (9, 10)),     # one caption of nine tokens
        (16, (1, 10)),    # ragged lengths 1-9
        (16, (6, 7)),     # equal lengths
        (256, (1, 10)),   # one predict_proba chunk, ragged
    ])
    def test_loss_grads_and_proba_match(self, n_captions, lengths):
        model, sequences, labels = self._setup(n_captions, n_captions, lengths)
        idx, mask = _pad_batch(sequences)
        loss, grads = _batch_grads(model, idx, mask, labels)
        ref_loss, ref_grads = reference_grads(model, idx, mask, labels)
        assert loss == ref_loss
        assert list(grads) == list(ref_grads)
        for key in ref_grads:
            assert np.array_equal(grads[key], ref_grads[key]), key
        assert np.array_equal(predict_proba(model, Packed.from_lists(sequences)),
                              reference_proba(model, sequences))

    def test_train_matches_reference_loop(self):
        model, sequences, labels = self._setup(
            21, 45, (1, 10), epochs=2, batch_size=8, learning_rate=0.01
        )
        fast = train(model, Packed.from_lists(sequences), labels)
        slow_model, _, _ = self._setup(21, 45, (1, 10), epochs=2, batch_size=8,
                                       learning_rate=0.01)
        slow = reference_train(slow_model, sequences, labels,
                               batch_grads=reference_grads)
        for key in slow.params:
            assert np.array_equal(fast.params[key], slow.params[key]), key
        assert fast.training_log == slow.training_log
        assert len(fast.training_log) == 2


class TestEmbeddingGradient:
    @pytest.mark.parametrize("batch,length,width,rows", [
        (256, 11, 16, 3),    # few rows: every row repeats many times
        (32, 10, 64, 4891),
        (5, 7, 3, 2),
    ])
    def test_flat_add_matches_row_add(self, batch, length, width, rows):
        rng = np.random.default_rng(batch + width)
        for _ in range(20):
            idx = rng.integers(0, rows, size=(batch, length))
            values = rng.normal(size=(batch, length, width))
            # Signed zeros in both operands: -0.0 + -0.0 stays -0.0 and
            # -0.0 + 0.0 is 0.0, so a different order of adds would show.
            values[rng.random(values.shape) < 0.3] = -0.0
            values[rng.random(values.shape) < 0.1] = 0.0
            start = rng.normal(size=(rows, width))
            start[rng.random(start.shape) < 0.5] = -0.0
            expected = start.copy()
            np.add.at(expected, idx, values)
            got = start.copy()
            _add_rows(got, idx, values)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestGradients:
    @pytest.mark.parametrize("encoder,tolerance", [
        ("bag_mean", 1e-4),
        ("birecurrent", 1e-3),
    ])
    def test_against_finite_differences(self, vocabulary, encoder, tolerance):
        rng = np.random.default_rng(7)
        worst = 0.0
        for case in range(5):
            model = init_classifier(small_config(encoder_kind=encoder, seed=case),
                                    vocabulary, 2)
            length = int(rng.integers(3, 9))
            tokens = rng.integers(3, len(vocabulary), size=length).tolist()
            err = gradient_check(model, tokens, label=case % 2,
                                 n_samples=120, rng_seed=case)
            worst = max(worst, err)
        assert worst < tolerance
