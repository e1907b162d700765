"""Tests for the token vocabulary and the BPTT RNN classifier."""

import pickle

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml import RNNClassifier, Vocabulary, accuracy, encode_batch, patch_token_sequence
from repro.ml.logistic import sigmoid
from repro.ml.tokenizer import PAD, UNK
from repro.patch import parse_patch


class TestVocabulary:
    def test_pad_unk_reserved(self):
        vocab = Vocabulary(min_count=1).fit([["a", "b"], ["a"]])
        assert vocab.encode(["a"], 3)[0] >= 2  # 0=PAD, 1=UNK

    def test_min_count_filters(self):
        vocab = Vocabulary(min_count=2).fit([["rare", "common"], ["common"]])
        ids = vocab.encode(["rare", "common"], 2)
        assert ids[0] == 1  # UNK
        assert ids[1] >= 2

    def test_max_size_cap(self):
        seqs = [[f"tok{i}"] * 2 for i in range(100)]
        vocab = Vocabulary(max_size=10, min_count=1).fit(seqs)
        assert len(vocab) == 10

    def test_encode_pads_and_truncates(self):
        vocab = Vocabulary(min_count=1).fit([["a", "b", "c"]])
        padded = vocab.encode(["a"], 4)
        assert padded.tolist()[1:] == [0, 0, 0]
        truncated = vocab.encode(["a", "b", "c"], 2)
        assert len(truncated) == 2

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            Vocabulary().encode(["a"], 2)

    def test_encode_batch_mask(self):
        vocab = Vocabulary(min_count=1).fit([["a", "b"]])
        ids, mask = encode_batch(vocab, [["a"], ["a", "b"]], 3)
        assert ids.shape == mask.shape == (2, 3)
        assert mask[0].tolist() == [1.0, 0.0, 0.0]

    def test_max_size_below_two_raises(self):
        # ranked[: max_size - 2] with a negative bound would keep tokens.
        for size in (1, 0, -3):
            with pytest.raises(ModelError):
                Vocabulary(max_size=size)

    def test_max_size_two_is_pad_and_unk_only(self):
        vocab = Vocabulary(max_size=2, min_count=1).fit([["a", "b", "c"]])
        assert len(vocab) == 2
        assert vocab.encode(["a", "b"], 2).tolist() == [1, 1]

    def test_literal_reserved_tokens_are_unknown(self):
        seqs = [["a", PAD, UNK, "b"]] * 2
        vocab = Vocabulary(min_count=1).fit(seqs)
        assert len(vocab) == 4  # PAD, UNK, a, b: no id is shared
        ids, mask = encode_batch(vocab, seqs + [[PAD]], 5)
        assert ids[0].tolist() == [vocab.encode(["a"], 1)[0], 1, 1, vocab.encode(["b"], 1)[0], 0]
        assert mask.tolist() == [[1, 1, 1, 1, 0]] * 2 + [[1, 0, 0, 0, 0]]

    def test_empty_sequence_gets_one_mask_slot(self):
        vocab = Vocabulary(min_count=1).fit([["a"]])
        _, mask = encode_batch(vocab, [[]], 3)
        assert mask[0, 0] == 1.0  # pooling never divides by zero


class TestPatchTokenSequence:
    def test_markers_present(self, listing_1):
        seq = patch_token_sequence(parse_patch(listing_1))
        assert "<hunk>" in seq
        assert "<add>" in seq
        assert "<del>" in seq

    def test_literals_abstracted(self, listing_1):
        seq = patch_token_sequence(parse_patch(listing_1))
        assert "<num>" in seq
        assert "0x40" not in seq

    def test_context_excluded_by_default(self, listing_1):
        seq = patch_token_sequence(parse_patch(listing_1))
        assert "<ctx>" not in seq


def _toy_dataset(n=300, seed=0):
    """Security-ish = contains an if-guard pattern; other = assignment."""
    rng = np.random.default_rng(seed)
    seqs, labels = [], []
    for i in range(n):
        noise = [f"tok{int(rng.integers(0, 8))}" for _ in range(int(rng.integers(2, 6)))]
        if i % 2 == 0:
            seqs.append(["<add>", "if", "(", "len", ">", "<num>", ")", "return", ";"] + noise)
            labels.append(1)
        else:
            seqs.append(["<add>", "x", "=", "y", "+", "<num>", ";"] + noise)
            labels.append(0)
    return seqs, np.array(labels)


class TestRNN:
    def test_learns_toy_problem(self):
        seqs, y = _toy_dataset()
        rnn = RNNClassifier(epochs=5, max_len=32, seed=0)
        rnn.fit(seqs[:200], y[:200])
        acc = accuracy(y[200:], rnn.predict(seqs[200:]))
        assert acc >= 0.9

    def test_loss_decreases(self):
        seqs, y = _toy_dataset()
        rnn = RNNClassifier(epochs=4, max_len=32, seed=0)
        rnn.fit(seqs, y)
        assert rnn.loss_history[-1] < rnn.loss_history[0]

    def test_proba_shape(self):
        seqs, y = _toy_dataset(n=60)
        rnn = RNNClassifier(epochs=2, max_len=16, seed=0)
        rnn.fit(seqs, y)
        proba = rnn.predict_proba(seqs[:10])
        assert proba.shape == (10, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            RNNClassifier().predict([["a"]])

    def test_empty_input_after_fit(self):
        seqs, y = _toy_dataset(n=40)
        rnn = RNNClassifier(epochs=1, max_len=16, seed=0).fit(seqs, y)
        assert rnn.predict_proba([]).shape == (0, 2)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ModelError):
            RNNClassifier().fit([["a"]], np.array([1, 0]))

    def test_deterministic_with_seed(self):
        seqs, y = _toy_dataset(n=80)
        p1 = RNNClassifier(epochs=2, max_len=16, seed=3).fit(seqs, y).predict_proba(seqs[:5])
        p2 = RNNClassifier(epochs=2, max_len=16, seed=3).fit(seqs, y).predict_proba(seqs[:5])
        assert np.array_equal(p1, p2)

    def test_bad_hyperparameters(self):
        with pytest.raises(ModelError):
            RNNClassifier(epochs=0)

    def test_vocab_size_below_two_raises(self):
        with pytest.raises(ModelError):
            RNNClassifier(vocab_size=1)

    def test_fit_stores_no_workspace(self):
        # Pickled by fit_many and the FittedModelCache: fit must not leave
        # its scratch buffers on the estimator.
        seqs, y = _toy_dataset(n=40)
        rnn = RNNClassifier(epochs=1, max_len=16, seed=0)
        before = set(vars(rnn))
        rnn.fit(seqs, y)
        assert set(vars(rnn)) == before
        assert before == {
            "embedding_dim", "hidden_dim", "max_len", "vocab_size", "epochs", "batch_size",
            "learning_rate", "clip", "_rng", "vocab", "_params", "_adam_m", "_adam_v",
            "_adam_t", "loss_history",
        }
        clone = pickle.loads(pickle.dumps(rnn))
        assert np.array_equal(clone.predict_proba(seqs), rnn.predict_proba(seqs))

    def test_fit_predict_patches(self, listing_1, listing_2):
        patches = [parse_patch(listing_1), parse_patch(listing_2)] * 20
        y = np.array([1, 0] * 20)
        rnn = RNNClassifier(epochs=4, max_len=64, seed=0)
        rnn.fit_patches(patches, y)
        assert accuracy(y, rnn.predict_patches(patches)) == 1.0


class _ReferenceRNN(RNNClassifier):
    """The plain per-timestep BPTT kernel, frozen as the exactness oracle.

    Every timestep blends the state with the mask and every step of
    ``max_len`` runs; the production kernel must match it bit for bit.
    """

    def fit(self, sequences, y):
        y = np.asarray(y).astype(np.float64)
        self.vocab = Vocabulary(max_size=self.vocab_size).fit(sequences)
        self._init_params(len(self.vocab))
        ids, mask = encode_batch(self.vocab, sequences, self.max_len)
        n = ids.shape[0]
        self.loss_history = []
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                loss = self._train_step(ids[batch], mask[batch], y[batch])
                epoch_loss += loss * len(batch)
            self.loss_history.append(epoch_loss / n)
        return self

    def _forward(self, ids, mask):
        p = self._params
        b_sz, t_len = ids.shape
        h = np.zeros((b_sz, self.hidden_dim))
        hs = np.zeros((t_len + 1, b_sz, self.hidden_dim))
        h_tildes = np.zeros((t_len, b_sz, self.hidden_dim))
        xs = p["E"][ids]
        for t in range(t_len):
            a = xs[:, t] @ p["Wxh"] + h @ p["Whh"] + p["bh"]
            h_tilde = np.tanh(a)
            m = mask[:, t : t + 1]
            h = m * h_tilde + (1.0 - m) * h
            h_tildes[t] = h_tilde
            hs[t + 1] = h
        denom = mask.sum(axis=1, keepdims=True)
        pooled = (hs[1:].transpose(1, 0, 2) * mask[:, :, None]).sum(axis=1) / denom
        p1 = sigmoid(pooled @ p["w"] + p["b"][0])
        return p1, pooled, (xs, hs, h_tildes, denom)

    def _train_step(self, ids, mask, y):
        p = self._params
        b_sz, t_len = ids.shape
        p1, pooled, (xs, hs, h_tildes, denom) = self._forward(ids, mask)
        eps = 1e-9
        loss = float(-np.mean(y * np.log(p1 + eps) + (1 - y) * np.log(1 - p1 + eps)))
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        dlogit = (p1 - y) / b_sz
        grads["w"] = pooled.T @ dlogit
        grads["b"][0] = dlogit.sum()
        dpooled = np.outer(dlogit, p["w"])
        dh_next = np.zeros((b_sz, self.hidden_dim))
        dE_rows = []
        for t in range(t_len - 1, -1, -1):
            m = mask[:, t : t + 1]
            dh = dh_next + dpooled * (m / denom)
            da = (dh * m) * (1.0 - h_tildes[t] ** 2)
            grads["Wxh"] += xs[:, t].T @ da
            grads["Whh"] += hs[t].T @ da
            grads["bh"] += da.sum(axis=0)
            dE_rows.append((ids[:, t], da @ p["Wxh"].T))
            dh_next = da @ p["Whh"].T + dh * (1.0 - m)
        for row_ids, dx in dE_rows:
            np.add.at(grads["E"], row_ids, dx)
        grads["E"][0] = 0.0
        self._adam_update(grads)
        return loss

    def _adam_update(self, grads):
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        scale = self.clip / total if total > self.clip else 1.0
        self._adam_t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        t = self._adam_t
        for key, g in grads.items():
            g = g * scale
            self._adam_m[key] = b1 * self._adam_m[key] + (1 - b1) * g
            self._adam_v[key] = b2 * self._adam_v[key] + (1 - b2) * g * g
            m_hat = self._adam_m[key] / (1 - b1**t)
            v_hat = self._adam_v[key] / (1 - b2**t)
            self._params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        self._params["E"][0] = 0.0

    def predict_proba(self, sequences):
        ids, mask = encode_batch(self.vocab, sequences, self.max_len)
        p1 = np.concatenate(
            [self._forward(ids[s : s + 256], mask[s : s + 256])[0] for s in range(0, len(ids), 256)]
        )
        return np.column_stack([1.0 - p1, p1])


def _random_sequences(n, max_tokens, seed, empty_every=0):
    rng = np.random.default_rng(seed)
    seqs = []
    for i in range(n):
        length = 0 if empty_every and i % empty_every == 0 else int(rng.integers(1, max_tokens + 1))
        seqs.append([f"t{int(rng.integers(0, 12))}" for _ in range(length)])
    return seqs, (rng.random(n) < 0.5).astype(np.int64)


class TestKernelParity:
    """The training kernel reproduces the reference BPTT bit for bit."""

    @pytest.mark.parametrize(
        "n, max_tokens, kwargs",
        [
            # n not a multiple of the batch; the last batch has one row
            (25, 9, dict(max_len=12, batch_size=8)),
            # batch_size > n
            (7, 9, dict(max_len=12, batch_size=32)),
            # every sequence shorter than max_len
            (20, 5, dict(max_len=16, batch_size=6)),
            # most sequences truncated at max_len
            (20, 30, dict(max_len=10, batch_size=6)),
            (16, 4, dict(max_len=1, batch_size=5)),
            (18, 8, dict(max_len=10, batch_size=4, embedding_dim=5, hidden_dim=11)),
            (18, 8, dict(max_len=10, batch_size=4, embedding_dim=12, hidden_dim=3)),
            # the default widths, where OpenBLAS kernels depend on operand layout
            (40, 40, dict(max_len=32, batch_size=16, embedding_dim=16, hidden_dim=32)),
        ],
    )
    def test_matches_reference(self, n, max_tokens, kwargs):
        seqs, y = _random_sequences(n, max_tokens, seed=n + max_tokens, empty_every=5)
        args = dict(embedding_dim=6, hidden_dim=8, epochs=3, seed=11, vocab_size=10)
        args.update(kwargs)
        fast = RNNClassifier(**args).fit(seqs, y)
        ref = _ReferenceRNN(**args).fit(seqs, y)
        for store in ("_params", "_adam_m", "_adam_v"):
            for key, want in getattr(ref, store).items():
                assert np.array_equal(getattr(fast, store)[key], want), (store, key)
        assert fast._adam_t == ref._adam_t
        assert fast.loss_history == ref.loss_history
        held_out, _ = _random_sequences(300, 2 * max_tokens, seed=5, empty_every=7)
        assert np.array_equal(fast.predict_proba(held_out), ref.predict_proba(held_out))

    @pytest.mark.parametrize("widths", [dict(embedding_dim=1, hidden_dim=1), dict(hidden_dim=1)])
    def test_width_one_matches_to_rounding(self, widths):
        # With a width of 1 NumPy may pick matrix-vector calls and pairwise
        # sums that round differently from the reference's.
        seqs, y = _random_sequences(30, 20, seed=3, empty_every=5)
        args = dict(embedding_dim=6, epochs=2, seed=1, max_len=16, batch_size=8)
        args.update(widths)
        fast = RNNClassifier(**args).fit(seqs, y)
        ref = _ReferenceRNN(**args).fit(seqs, y)
        for key, want in ref._params.items():
            assert np.allclose(fast._params[key], want, rtol=1e-12, atol=0.0), key
        assert np.allclose(fast.predict_proba(seqs), ref.predict_proba(seqs), rtol=1e-12, atol=0.0)
