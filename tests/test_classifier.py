import inspect

import numpy as np
import pytest

from capbias.classifier import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ClassifierConfig,
    ClassifierError,
    _loss_and_grads,
    _pad_batch,
    _softmax,
    gradient_check,
    init_classifier,
    load_checkpoint,
    predict,
    predict_proba,
    save_checkpoint,
    train,
)
from capbias.vocab import build_vocab


@pytest.fixture(scope="module")
def vocabulary():
    tokens = [[f"w{i}" for i in range(20)]]
    return build_vocab(tokens, mask_token="<gender>")


def small_config(**overrides):
    base = dict(embed_dim=8, hidden_dim=8, epochs=5, learning_rate=0.01,
                batch_size=4, seed=0)
    base.update(overrides)
    return ClassifierConfig(**base)


def synthetic_data(vocabulary, n=40, seed=0, signal=True):
    """Sequences whose first token determines the label when signal=True."""
    rng = np.random.default_rng(seed)
    marker = {0: vocabulary.index_of("w0"), 1: vocabulary.index_of("w1")}
    sequences, labels = [], []
    for i in range(n):
        label = i % 2
        body = [vocabulary.index_of(f"w{j}") for j in rng.integers(2, 20, size=5)]
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
        probs = predict_proba(model, [[3, 4, 5]])[0]
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
        once = predict_proba(model, [[5]])[0]
        twice = predict_proba(model, [[5, 5]])[0]
        assert np.allclose(once, twice, atol=1e-12)

    def test_batched_matches_single(self, vocabulary):
        model = init_classifier(small_config(encoder_kind="birecurrent"), vocabulary, 2)
        sequences = [[3, 4], [5, 6, 7, 8], [9]]
        batched = predict_proba(model, sequences)
        for i, seq in enumerate(sequences):
            assert np.allclose(batched[i], predict_proba(model, [seq])[0], atol=1e-12)

    def test_empty_sequence_rejected(self, vocabulary):
        model = init_classifier(small_config(), vocabulary, 2)
        with pytest.raises(ClassifierError):
            predict_proba(model, [[]])


class TestTrain:
    @pytest.mark.parametrize("encoder", ["bag_mean", "birecurrent"])
    def test_separable_data_learned(self, vocabulary, encoder):
        config = small_config(encoder_kind=encoder, epochs=40)
        sequences, labels = synthetic_data(vocabulary, n=60)
        model = train(init_classifier(config, vocabulary, 2), sequences, labels)
        accuracy = (predict(model, sequences) == np.asarray(labels)).mean()
        assert accuracy >= 0.99

    def test_no_signal_stays_near_chance(self, vocabulary):
        accuracies = []
        for seed in range(10):
            config = small_config(seed=seed, epochs=3, learning_rate=0.001)
            sequences, labels = synthetic_data(vocabulary, n=40, seed=seed, signal=False)
            model = train(init_classifier(config, vocabulary, 2), sequences, labels)
            hold_x, hold_y = synthetic_data(vocabulary, n=40, seed=seed + 100, signal=False)
            accuracies.append((predict(model, hold_x) == np.asarray(hold_y)).mean())
        assert abs(float(np.mean(accuracies)) - 0.5) < 0.05

    def test_deterministic(self, vocabulary):
        sequences, labels = synthetic_data(vocabulary)
        runs = []
        for _ in range(2):
            model = train(init_classifier(small_config(), vocabulary, 2),
                          sequences, labels)
            runs.append(model)
        for key in runs[0].params:
            assert np.array_equal(runs[0].params[key], runs[1].params[key])
        assert runs[0].training_log == runs[1].training_log

    def test_loss_decreases_on_separable_data(self, vocabulary):
        sequences, labels = synthetic_data(vocabulary)
        model = train(init_classifier(small_config(epochs=10), vocabulary, 2),
                      sequences, labels)
        assert model.training_log[-1] < model.training_log[0]

    def test_length_mismatch(self, vocabulary):
        model = init_classifier(small_config(), vocabulary, 2)
        with pytest.raises(ClassifierError):
            train(model, [[1, 2]], [0, 1])

    def test_label_out_of_range(self, vocabulary):
        model = init_classifier(small_config(), vocabulary, 2)
        with pytest.raises(ClassifierError):
            train(model, [[1, 2]], [2])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_parameters_abort(self, vocabulary):
        model = init_classifier(small_config(learning_rate=1e200, epochs=2),
                                vocabulary, 2)
        sequences, labels = synthetic_data(vocabulary)
        with pytest.raises(ClassifierError, match="epoch"):
            train(model, sequences, labels)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_parameter_error_names_key(self, vocabulary):
        model = init_classifier(small_config(), vocabulary, 2)
        # The mask token's row is read by no sequence, so the loss stays
        # finite and only the parameter check can see it.
        model.params["embed"][vocabulary.index_of("<gender>")] = np.inf
        sequences, labels = synthetic_data(vocabulary)
        with pytest.raises(
            ClassifierError, match=r"non-finite parameter 'embed' at epoch 0, step 1"
        ):
            train(model, sequences, labels)


def _batch_grads(model, idx, mask, labels):
    """One batch's loss and gradients, written into fresh zeros.

    Runs against either form of `_loss_and_grads`: one that fills the
    gradient arrays it is given, or one that allocates its own.
    """
    if "grads" in inspect.signature(_loss_and_grads).parameters:
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        return _loss_and_grads(model, idx, mask, labels, grads), grads
    return _loss_and_grads(model, idx, mask, labels)


def reference_train(model, sequences, labels):
    """Adam written per parameter array, with a fresh array for every
    intermediate: the formula `train` must reproduce bit for bit."""
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
            loss, grads = _batch_grads(model, idx, mask, labels_arr[batch_ids])
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
        vocabulary = build_vocab([words], mask_token="<gender>")
        rng = np.random.default_rng(11)
        # 3 classes; 45 sequences in batches of 8 leave a last batch of 5;
        # embed_dim 32 gives about 10,000 parameters, more than one chunk of
        # the Adam update.
        sequences = [
            rng.integers(3, len(vocabulary), size=int(rng.integers(1, 9))).tolist()
            for _ in range(45)
        ]
        labels = [int(seq[0]) % 3 for seq in sequences]
        config = small_config(encoder_kind=encoder, embed_dim=32, epochs=3,
                              batch_size=8, seed=4)
        fast = train(init_classifier(config, vocabulary, 3), sequences, labels)
        slow = reference_train(init_classifier(config, vocabulary, 3), sequences, labels)
        assert list(fast.params) == list(slow.params)
        for key in slow.params:
            assert np.array_equal(fast.params[key], slow.params[key]), key
        assert fast.training_log == slow.training_log
        assert len(fast.training_log) == 3


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


class TestCheckpoint:
    def test_roundtrip(self, vocabulary, tmp_path):
        sequences, labels = synthetic_data(vocabulary)
        model = train(init_classifier(small_config(), vocabulary, 2),
                      sequences, labels)
        path = tmp_path / "model.json"
        save_checkpoint(model, path, class_names=("female", "male"))
        restored = load_checkpoint(path, vocabulary)
        assert restored.config == model.config
        assert restored.class_names == ("female", "male")
        assert np.allclose(
            predict_proba(restored, sequences), predict_proba(model, sequences),
            atol=1e-15,
        )

    def test_vocab_hash_mismatch(self, vocabulary, tmp_path):
        model = init_classifier(small_config(), vocabulary, 2)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        other = build_vocab([["different", "tokens"]], mask_token="<gender>")
        with pytest.raises(ClassifierError, match="hash"):
            load_checkpoint(path, other)
