"""Patch token sequences and vocabulary for the RNN classifier.

The paper's RNN "considers the source code of a given patch as a list of
tokens including keywords, identifiers, operators, etc." (§IV-C).  We lex
each changed line with the C lexer and mark line roles with sentinel tokens
(``<add>``/``<del>``/``<hunk>``) so the network can learn which side of the
diff a construct sits on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelError
from ..lang.lexer import tokenize
from ..lang.tokens import TokenKind
from ..patch.model import LineKind, Patch

__all__ = ["patch_token_sequence", "Vocabulary", "encode_batch"]

PAD = "<pad>"
UNK = "<unk>"

_LITERAL_PLACEHOLDER = {
    TokenKind.NUMBER: "<num>",
    TokenKind.STRING: "<str>",
    TokenKind.CHAR: "<chr>",
}

_MARKER = {LineKind.ADDED: "<add>", LineKind.REMOVED: "<del>"}


def patch_token_sequence(patch: Patch) -> list[str]:
    """Flatten a patch into its token sequence.

    Context lines are skipped: the paper's model reads the change itself.
    """
    out: list[str] = []
    for hunk in patch.hunks:
        out.append("<hunk>")
        for line in hunk.lines:
            if line.kind is LineKind.CONTEXT:
                continue
            out.append(_MARKER[line.kind])
            for tok in tokenize(line.text):
                if tok.kind in (TokenKind.COMMENT, TokenKind.NEWLINE):
                    continue
                if tok.kind in _LITERAL_PLACEHOLDER:
                    out.append(_LITERAL_PLACEHOLDER[tok.kind])
                elif tok.kind is TokenKind.PREPROCESSOR:
                    out.append("<pp>")
                else:
                    out.append(tok.text)
    return out


@dataclass
class Vocabulary:
    """Frequency-capped token vocabulary with PAD/UNK reserved ids."""

    max_size: int = 2000
    min_count: int = 2
    _index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_size < 2:
            raise ModelError("max_size must leave room for PAD and UNK (>= 2)")

    def fit(self, sequences: list[list[str]]) -> "Vocabulary":
        """Build the vocabulary from training sequences."""
        counts: dict[str, int] = {}
        for seq in sequences:
            for tok in seq:
                counts[tok] = counts.get(tok, 0) + 1
        ranked = sorted(
            (t for t, c in counts.items() if c >= self.min_count and t not in (PAD, UNK)),
            key=lambda t: (-counts[t], t),
        )
        self._index = {PAD: 0, UNK: 1}
        for tok in ranked[: self.max_size - 2]:
            self._index[tok] = len(self._index)
        return self

    def __len__(self) -> int:
        return len(self._index)

    def encode(self, sequence: list[str], max_len: int) -> np.ndarray:
        """Map tokens to ids, truncated/padded to *max_len*.

        Only padding maps to id 0: a literal PAD token in the input is
        unknown, so :func:`encode_batch` masks are always prefixes.
        """
        if not self._index:
            raise ModelError("Vocabulary is not fitted")
        ids = [self._index.get(t, 1) or 1 for t in sequence[:max_len]]
        ids.extend([0] * (max_len - len(ids)))
        return np.asarray(ids, dtype=np.int64)


def encode_batch(
    vocab: Vocabulary, sequences: list[list[str]], max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Encode sequences into (ids, mask) arrays of shape ``(B, max_len)``.

    Each mask row is a prefix of ones (the row's tokens) followed by zeros.
    """
    ids = np.vstack([vocab.encode(seq, max_len) for seq in sequences])
    mask = (ids != 0).astype(np.float64)
    # Guarantee at least one unmasked position so pooling never divides by 0.
    empty = mask.sum(axis=1) == 0
    mask[empty, 0] = 1.0
    return ids, mask
