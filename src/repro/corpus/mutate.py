"""Shared helpers for source-text mutation.

The security and non-security patch generators both work by editing a
file's text in place; these helpers locate functions, harvest identifiers,
and keep indentation consistent so the resulting diffs look like real
commits.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from ..diffing.myers import common_affixes
from ..lang.lexer import tokenize
from ..lang.parser import FunctionSpan, Outline, outline_functions
from ..lang.tokens import TokenKind

__all__ = [
    "OutlineIndex",
    "function_spans",
    "body_range",
    "identifiers_in",
    "indent_of",
    "outline_index",
    "pick",
    "statement_line_indices",
]


def _full_outline(text: str) -> Outline | None:
    """*text*'s outline, or None when parsing it raises."""
    try:
        return outline_functions(text)
    except Exception:  # the generators must never crash the world builder
        return None


def _reoutline(old_text: str, old: Outline, new_text: str) -> Outline | None:
    """*new_text*'s outline, reusing *old*'s spans around the edited lines.

    Returns None when the rules of :func:`function_spans` leave nothing to
    reuse; the caller then outlines *new_text* in full.
    """
    old_lines = old_text.split("\n")
    new_lines = new_text.split("\n")
    n_old, n_new = len(old_lines), len(new_lines)
    prefix, suffix = common_affixes(old_lines, new_lines)
    spans = old.spans
    # Prefix: settled spans that end inside the common prefix, the last of
    # them on a line that is exactly "}".  The parse up to that "}" read no
    # token past it, and a lone "}" leaves the lexer in plain code.
    kept = 0
    while kept < old.settled and spans[kept].end_line <= prefix:
        kept += 1
    while kept and new_lines[spans[kept - 1].end_line - 1] != "}":
        kept -= 1
    # Suffix: spans that start inside the common suffix, at the first
    # non-blank column of a line that no backslash continues.  The old
    # parse reached that token in plain code, between top-level items, and
    # from there on the old and new tokens are the same.
    first_common = n_old - suffix  # 0-based index of the first common line
    reused = len(spans)
    while reused > kept and spans[reused - 1].start_line > first_common:
        reused -= 1
    while reused < len(spans) and not _starts_clean(old_lines, spans[reused]):
        reused += 1
    if not kept and reused == len(spans):
        return None
    shift = n_new - n_old
    lo = spans[kept - 1].end_line if kept else 0
    hi = spans[reused].start_line - 1 + shift if reused < len(spans) else n_new
    # The exact text of those lines, newline included when more follow.
    middle = "\n".join(new_lines[lo:hi]) + ("\n" if lo < hi < n_new else "")
    try:
        mid = outline_functions(middle, lo)
    except Exception:
        return None
    tail = spans[reused:]
    if tail and not mid.clean_end:
        # The new parse might not arrive at the first reused span.
        return None
    settled = kept + mid.settled
    if tail and old.settled > reused:
        settled += old.settled - reused
    return Outline(
        spans[:kept] + mid.spans + tuple(span.shifted(shift) for span in tail),
        settled,
        mid.clean_end and (not tail or old.clean_end),
    )


def _starts_clean(lines: list[str], span: FunctionSpan) -> bool:
    """Whether *span*'s first token opens its line, which is not continued
    from the line before."""
    line = lines[span.start_line - 1]
    if span.col != len(line) - len(line.lstrip(" \t\r\f\v")) + 1:  # the lexer's blanks
        return False
    return span.start_line == 1 or not lines[span.start_line - 2].rstrip(" \t\r").endswith("\\")


class OutlineIndex:
    """Function outlines of the texts one shard build has seen.

    A text the builder made by editing an outlined text (see
    :meth:`note_edit`) is outlined from that text's spans: only the lines
    between the reused spans are lexed and parsed (:func:`_reoutline`).
    Any other text, and any edit the reuse rules reject, is outlined in
    full.  :attr:`counts` records which way each text went.
    """

    def __init__(self) -> None:
        self._outlines: dict[str, Outline | None] = {}
        self._bases: dict[str, str] = {}
        #: full: outlined from scratch, with no outlined base;
        #: incremental: from its base's spans; fallback: had a base, but the
        #: reuse rules left nothing to reuse, so outlined from scratch;
        #: unparsable: a from-scratch parse raised, so no functions.
        self.counts = dict.fromkeys(("full", "incremental", "fallback", "unparsable"), 0)

    def note_edit(self, old: str, new: str) -> None:
        """Record that *new* is *old* with some lines edited."""
        self._bases[new] = old

    def outline(self, text: str) -> Outline | None:
        """*text*'s outline, or None when parsing it raises."""
        if text in self._outlines:
            return self._outlines[text]
        base = self._bases.get(text)
        old = self._outlines.get(base) if base is not None else None
        outline = _reoutline(base, old, text) if old is not None else None
        if outline is not None:
            self.counts["incremental"] += 1
        else:
            self.counts["fallback" if old is not None else "full"] += 1
            outline = _full_outline(text)
            if outline is None:
                self.counts["unparsable"] += 1
        self._outlines[text] = outline
        return outline


_ACTIVE: ContextVar[OutlineIndex | None] = ContextVar("outline_index", default=None)


@contextmanager
def outline_index() -> Iterator[OutlineIndex]:
    """Serve :func:`function_spans` from a fresh :class:`OutlineIndex`
    inside the block."""
    index = OutlineIndex()
    token = _ACTIVE.set(index)
    try:
        yield index
    finally:
        _ACTIVE.reset(token)


def function_spans(text: str) -> list[FunctionSpan]:
    """Function definitions in *text* (empty if parsing raises).

    Inside :func:`outline_index` (one shard of a world build) the spans come
    from that index, and a text the builder derived from an outlined text
    reuses that text's spans.  The reuse is exact: the result equals a
    full outline field for field.  The rules, with lines split at ``"\\n"``
    only and the common line prefix and suffix of the old and new text:

    * Prefix: the leading spans up to the last one that ends inside the
      common prefix on a line that is exactly ``}``.  Every span up to it
      was parsed before any scan ran out of tokens
      (:attr:`Outline.settled`, which implies ``closed``).
    * Suffix: the spans that start inside the common suffix, shifted by the
      change in line count.  The first of them starts at the first
      non-blank column of its line, and the line before it does not end
      in a backslash.
    * Middle: the lines between are outlined on their own, shifted by the
      prefix length.  When a suffix is reused the middle must end clean
      (:attr:`Outline.clean_end`): no scan ran out of tokens, no block
      comment is left open, the last line does not end in a backslash, and
      nothing raised.

    Otherwise, and outside a build, the text is outlined in full.  Nothing
    is memoized across builds.
    """
    index = _ACTIVE.get()
    outline = index.outline(text) if index is not None else _full_outline(text)
    return list(outline.spans) if outline is not None else []


def body_range(fn: FunctionSpan) -> tuple[int, int]:
    """0-based (first, last) body line indices inside the braces."""
    return fn.body_start_line, fn.body_end_line - 2  # skip '{' line, stop before '}'


def identifiers_in(lines: list[str]) -> list[str]:
    """Distinct identifiers appearing in the given lines, in order.

    Each line is lexed on its own terms, as if it stood alone.  The lines
    are lexed joined, once; that gives the same tokens whenever every
    newline between them lexes as a NEWLINE token, because the lexer then
    starts each line in the state a lone line starts in.  A newline taken
    inside another token (an unclosed ``/*``, a line ending in ``\\``, or
    a continued directive) makes the joined lex differ, and then each line
    is lexed alone.  String and char literals stop at a newline, so an
    unterminated one never crosses it.
    """
    tokens = tokenize("\n".join(lines), keep_newlines=True)
    if sum(t.kind is TokenKind.NEWLINE for t in tokens) != len(lines) - 1:
        tokens = [t for line in lines for t in tokenize(line)]
    return list(dict.fromkeys(t.text for t in tokens if t.kind is TokenKind.IDENTIFIER))


def indent_of(line: str) -> str:
    """The leading whitespace of a line (default 4 spaces when blank)."""
    stripped = line.lstrip()
    if not stripped:
        return "    "
    return line[: len(line) - len(stripped)]


def pick(rng: np.random.Generator, items):
    """Uniform choice from a non-empty sequence."""
    return items[int(rng.integers(0, len(items)))]


def statement_line_indices(lines: list[str], lo: int, hi: int) -> list[int]:
    """Indices in [lo, hi] holding single-line simple statements.

    A "simple statement" ends with ``;`` and is not a declaration-looking
    or control line — the safe anchors for inserting checks around.
    """
    out: list[int] = []
    for i in range(lo, min(hi + 1, len(lines))):
        stripped = lines[i].strip()
        if not stripped.endswith(";"):
            continue
        if stripped.startswith(("if", "for", "while", "switch", "return", "goto", "break", "continue", "}", "{")):
            continue
        out.append(i)
    return out
