"""Recurrent neural network patch classifier (NumPy, BPTT, Adam).

Reimplements the paper's RNN token model (§IV-C): an embedding layer, a
tanh recurrent layer whose state carries context between tokens, masked
mean-pooling over time, and a logistic head.  Training is full
backpropagation-through-time with Adam and gradient clipping — no deep
learning framework involved.

The training kernel is exact: for the same data and seed it reproduces the
parameters, Adam moments, ``loss_history`` and probabilities of a plain
per-timestep BPTT (frozen as the oracle in ``tests/ml/test_rnn.py``) bit
for bit, so fitted models cached under ``_rnn_key``
(:mod:`repro.analysis.experiments`) stay valid.  That holds for embedding
and hidden widths of at least 2.  With a width of 1, NumPy turns some
products into matrix-vector calls whose operand strides differ, and sums
some axes pairwise, so the two agree only to rounding.  It is fast because:

* each batch stops at its longest row: :func:`encode_batch` masks are
  prefixes, so later steps would only add exact zeros;
* work that does not depend on the recurrence (the input projection, the
  pooling gradient, the tanh gate) runs once per batch, outside the time
  loops, and the loops themselves are a few in-place ufuncs on reused
  buffers;
* the parameter gradients are summed after the loop from the stored
  per-step gradients.

Exactness rules for changing it: elementwise work may move out of the
loops, and a per-step gemm may become a slice of a stacked
``np.matmul``.  The order in which a sum accumulates, and the layout of a
gemm's operands (``Whh.T`` is a transposed view, not a contiguous copy),
may not change: either picks other floating-point roundings.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ModelError, NotFittedError
from .base import seeded_rng
from .logistic import sigmoid
from .tokenizer import Vocabulary, encode_batch, patch_token_sequence

__all__ = ["RNNClassifier"]


class RNNClassifier:
    """Binary sequence classifier over token-id sequences.

    The interface intentionally differs from the feature-vector
    :class:`~repro.ml.base.Classifier`: inputs are lists of token strings
    (see :func:`~repro.ml.tokenizer.patch_token_sequence`).

    Args:
        embedding_dim: token embedding width.
        hidden_dim: recurrent state width.
        max_len: sequences are truncated/padded to this many tokens.
        vocab_size: vocabulary cap (incl. PAD/UNK).
        epochs: training passes.
        batch_size: minibatch size.
        learning_rate: Adam step size.
        clip: global-norm gradient clip.
        seed: parameter-init and shuffling RNG.
    """

    def __init__(
        self,
        embedding_dim: int = 16,
        hidden_dim: int = 32,
        max_len: int = 128,
        vocab_size: int = 2000,
        epochs: int = 6,
        batch_size: int = 64,
        learning_rate: float = 3e-3,
        clip: float = 5.0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if min(embedding_dim, hidden_dim, max_len, vocab_size, epochs, batch_size) < 1:
            raise ModelError("invalid hyperparameters")
        if vocab_size < 2:
            raise ModelError("vocab_size must leave room for PAD and UNK (>= 2)")
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        self.max_len = max_len
        self.vocab_size = vocab_size
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.clip = clip
        self._rng = seeded_rng(seed)
        self.vocab: Vocabulary | None = None
        self._params: dict[str, np.ndarray] | None = None
        self._adam_m: dict[str, np.ndarray] | None = None
        self._adam_v: dict[str, np.ndarray] | None = None
        self._adam_t: int = 0
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------

    def _init_params(self, vocab_len: int) -> None:
        rng = self._rng
        e, h = self.embedding_dim, self.hidden_dim

        def glorot(shape: tuple[int, ...]) -> np.ndarray:
            bound = np.sqrt(6.0 / sum(shape))
            return rng.uniform(-bound, bound, size=shape)

        self._params = {
            "E": glorot((vocab_len, e)) * 0.5,
            "Wxh": glorot((e, h)),
            "Whh": np.linalg.qr(rng.standard_normal((h, h)))[0] * 0.9,  # near-orthogonal
            "bh": np.zeros(h),
            "w": glorot((h,)),
            "b": np.zeros(1),
        }
        self._params["E"][0] = 0.0  # PAD embeds to zero
        self._adam_m = {k: np.zeros_like(v) for k, v in self._params.items()}
        self._adam_v = {k: np.zeros_like(v) for k, v in self._params.items()}
        self._adam_t = 0

    # ------------------------------------------------------------------

    def fit(self, sequences: list[list[str]], y: np.ndarray) -> "RNNClassifier":
        """Train on token sequences with binary labels."""
        y = np.asarray(y).astype(np.float64)
        if len(sequences) != y.shape[0] or len(sequences) == 0:
            raise ModelError("sequences and y must be non-empty and aligned")
        self.vocab = Vocabulary(max_size=self.vocab_size).fit(sequences)
        self._init_params(len(self.vocab))
        ids, mask = encode_batch(self.vocab, sequences, self.max_len)
        n = ids.shape[0]
        ws = _Workspace()
        self.loss_history = []
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                loss = self._train_step(ids[batch], mask[batch], y[batch], ws)
                epoch_loss += loss * len(batch)
            self.loss_history.append(epoch_loss / n)
        return self

    def fit_patches(self, patches, y: np.ndarray) -> "RNNClassifier":
        """Convenience: tokenize :class:`Patch` objects then fit."""
        return self.fit([patch_token_sequence(p) for p in patches], y)

    # ------------------------------------------------------------------

    def _forward(
        self, ids: np.ndarray, mask: np.ndarray, ws: "_Workspace"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run the RNN over the batch's real timesteps.

        Returns ``(p1, pooled, xs, hs)``: the time-major embeddings ``xs``
        (steps, B, e) and states ``hs`` (steps + 1, B, h), ``hs[0]`` the zero
        initial state, are views into *ws* that the backward pass reads.
        """
        p = self._params
        b_sz = ids.shape[0]
        e, hd = self.embedding_dim, self.hidden_dim
        denom = mask.sum(axis=1, keepdims=True)
        # Masks are prefixes, so every column past the longest row is padding
        # whose steps change nothing.
        steps = int(denom.max())
        # Vocabulary ids are in range, so "clip" never clips; it only spares
        # the buffered copy that the default mode makes with ``out``.
        xs = ws.view("xs", steps, b_sz, e)
        np.take(p["E"], ids.T[:steps], axis=0, mode="clip", out=xs)
        xw = np.matmul(xs, p["Wxh"], out=ws.view("xw", steps, b_sz, hd))
        hs = ws.view("hs", steps + 1, b_sz, hd)
        hs[0] = 0.0
        a = ws.view("step", b_sz, hd)
        bh = ws.view("bh", b_sz, hd)
        bh[...] = p["bh"]  # a same-shape add is cheaper than a broadcast one
        whh = p["Whh"]
        # No mask blend: a row past its end computes throwaway states, which
        # every later use multiplies by a zero (its mask or its gradient).
        for t in range(steps):
            np.matmul(hs[t], whh, out=a)
            np.add(xw[t], a, out=a)
            np.add(a, bh, out=a)
            np.tanh(a, out=hs[t + 1])
        masked = np.multiply(hs[1:], mask.T[:steps, :, None], out=xw)  # xw is dead
        pooled = masked.sum(axis=0) / denom
        logit = pooled @ p["w"] + p["b"][0]
        return sigmoid(logit), pooled, xs, hs

    def _train_step(
        self, ids: np.ndarray, mask: np.ndarray, y: np.ndarray, ws: "_Workspace"
    ) -> float:
        p = self._params
        b_sz = ids.shape[0]
        e, hd = self.embedding_dim, self.hidden_dim
        p1, pooled, xs, hs = self._forward(ids, mask, ws)
        steps = xs.shape[0]
        eps = 1e-9
        loss = float(-np.mean(y * np.log(p1 + eps) + (1 - y) * np.log(1 - p1 + eps)))

        grads = {k: np.zeros_like(v) for k, v in p.items()}
        dlogit = (p1 - y) / b_sz  # (B,)
        grads["w"] = pooled.T @ dlogit
        grads["b"][0] = dlogit.sum()
        dpooled = np.outer(dlogit, p["w"])  # (B, h)

        # The non-recurrent factors of every step, hoisted out of the loop:
        # the pooling gradient and the tanh gate 1 - h~^2.
        scale = (mask / mask.sum(axis=1, keepdims=True)).T[:steps, :, None]
        dpool = np.multiply(dpooled, scale, out=ws.view("dpool", steps, b_sz, hd))
        gate = np.square(hs[1:], out=ws.view("gate", steps, b_sz, hd))
        np.subtract(1.0, gate, out=gate)

        # da[k] belongs to step t = steps - 1 - k, the order BPTT visits them.
        # A row past its end has a zero pooling weight there and masks are
        # prefixes, so its dh is an exact zero: the gate needs no mask, and
        # the carry is da @ Whh.T alone.
        da = ws.view("da", steps, b_sz, hd)
        dh = ws.view("step", b_sz, hd)
        carry = ws.view("carry", b_sz, hd)
        carry[...] = 0.0
        whh_t = p["Whh"].T
        for k in range(steps):
            t = steps - 1 - k
            np.add(carry, dpool[t], out=dh)
            np.multiply(dh, gate[t], out=da[k])
            np.matmul(da[k], whh_t, out=carry)

        # Parameter gradients: one gemm per step, as stacked matmuls, summed
        # in the same t-descending order as per-step accumulation would.
        grads["Wxh"] = np.matmul(
            xs[::-1].transpose(0, 2, 1), da, out=ws.view("gWxh", steps, e, hd)
        ).sum(axis=0)
        grads["Whh"] = np.matmul(
            hs[steps - 1 :: -1].transpose(0, 2, 1), da, out=ws.view("gWhh", steps, hd, hd)
        ).sum(axis=0)
        grads["bh"] = da.sum(axis=1).sum(axis=0)
        dx = np.matmul(da, p["Wxh"].T, out=ws.view("dx", steps, b_sz, e))
        np.add.at(grads["E"], ids.T[steps - 1 :: -1].ravel(), dx.reshape(-1, e))
        grads["E"][0] = 0.0  # PAD stays zero

        self._adam_update(grads)
        return loss

    def _adam_update(self, grads: dict[str, np.ndarray]) -> None:
        # Global-norm clip.
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

    # ------------------------------------------------------------------

    def predict_proba(self, sequences: list[list[str]]) -> np.ndarray:
        """Class probabilities, shape (N, 2)."""
        if self.vocab is None or self._params is None:
            raise NotFittedError("RNNClassifier is not fitted")
        if not sequences:
            return np.zeros((0, 2))
        probs: list[np.ndarray] = []
        ws = _Workspace()
        for start in range(0, len(sequences), 256):
            chunk = sequences[start : start + 256]
            ids, mask = encode_batch(self.vocab, chunk, self.max_len)
            p1, _, _, _ = self._forward(ids, mask, ws)
            probs.append(p1)
        p1 = np.concatenate(probs)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, sequences: list[list[str]]) -> np.ndarray:
        """Hard labels at the 0.5 threshold."""
        return (self.predict_proba(sequences)[:, 1] >= 0.5).astype(np.int64)

    def predict_patches(self, patches) -> np.ndarray:
        """Convenience: tokenize patches then predict."""
        return self.predict([patch_token_sequence(p) for p in patches])


class _Workspace:
    """Scratch buffers shared by the steps of one ``fit`` or ``predict_proba`` call.

    Each named buffer is flat, allocated on first use and grown only when a
    batch needs more than any before it, so the time loops allocate
    nothing and a fit allocates a handful of buffers, not one per step.  The
    workspace lives in the call's frame, never on the estimator, so it is
    neither pickled nor cached.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def view(self, name: str, *shape: int) -> np.ndarray:
        """A C-contiguous array of *shape* over the front of buffer *name*."""
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)
