"""Shared helpers for source-text mutation.

The security and non-security patch generators both work by editing a
file's text in place; these helpers locate functions, harvest identifiers,
and keep indentation consistent so the resulting diffs look like real
commits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..lang.lexer import code_tokens
from ..lang.parser import parse_translation_unit
from ..lang.tokens import TokenKind
from ..lang.ast_nodes import FunctionDef

__all__ = [
    "function_spans",
    "body_range",
    "identifiers_in",
    "indent_of",
    "pick",
    "statement_line_indices",
]


@lru_cache(maxsize=1024)
def _parse_functions_cached(text: str) -> tuple[FunctionDef, ...]:
    try:
        unit = parse_translation_unit(text)
    except Exception:  # the generators must never crash the world builder
        return ()
    return tuple(unit.functions)


def function_spans(text: str) -> list[FunctionDef]:
    """Function definitions in *text* (empty if parsing finds none).

    Parsing is memoized on the file text.  Within one build that seldom
    pays: a cold TINY build (seed 2021) makes 470 calls and hits 8, since
    almost every commit changes the file it reads next.  The memo pays when
    the same corpus is rebuilt in a process that already holds its parses
    (the test suite rebuilds TINY worlds), and only while that corpus fits
    in its 1024 entries: a SMALL build parses 4692 distinct files, so a
    rebuild hits no more often than a cold build.
    """
    return list(_parse_functions_cached(text))


def body_range(fn: FunctionDef) -> tuple[int, int]:
    """0-based (first, last) body line indices inside the braces."""
    return fn.body.start_line, fn.body.end_line - 2  # skip '{' line, stop before '}'


def identifiers_in(lines: list[str]) -> list[str]:
    """Distinct identifiers appearing in the given lines, in order."""
    seen: list[str] = []
    for line in lines:
        for tok in code_tokens(line):
            if tok.kind is TokenKind.IDENTIFIER and tok.text not in seen:
                seen.append(tok.text)
    return seen


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
