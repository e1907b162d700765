"""Syntactic counters over code fragments.

These power the language-level features of Table I (features 11-46).  They
operate on *fragments* — a patch's added or removed lines are not a complete
program unit, so everything here is token-stream counting rather than full
parsing.  The counting conventions follow the paper's description:

* ``if`` statements  — occurrences of the ``if`` keyword (``else if``
  contributes one).
* loops             — ``for``/``while``/``do`` keywords, except the ``while``
  of a ``do ... while`` tail is not double counted (approximated by
  skipping a ``while`` immediately preceded by ``}``).
* function calls    — identifier directly followed by ``(`` that is not a
  control keyword and not a definition header (fragments rarely contain
  definition headers; the approximation matches the paper's parser).
* operators         — per-class counts over OPERATOR tokens; ``&``/``*`` are
  context-disambiguated only coarsely (a ``&``/``*`` after an identifier,
  literal, or ``)``/``]`` is binary, otherwise unary and — for ``&``/``*`` —
  counted as bitwise/arithmetic anyway, which mirrors the original
  line-level parser).
* variables         — distinct non-call identifiers that are not keywords
  or known memory functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import code_tokens
from .tokens import (
    ARITHMETIC_OPERATORS,
    BITWISE_OPERATORS,
    JUMP_KEYWORDS,
    LOGICAL_OPERATORS,
    LOOP_KEYWORDS,
    MEMORY_FUNCTIONS,
    RELATIONAL_OPERATORS,
    Token,
    TokenKind,
)

__all__ = ["FragmentCounts", "count_fragment", "count_lines", "count_tokens"]


@dataclass(slots=True)
class FragmentCounts:
    """Aggregated syntactic counts for a code fragment."""

    if_statements: int = 0
    loops: int = 0
    function_calls: int = 0
    arithmetic_operators: int = 0
    relational_operators: int = 0
    logical_operators: int = 0
    bitwise_operators: int = 0
    memory_operators: int = 0
    jumps: int = 0
    variables: set[str] = field(default_factory=set)
    functions: set[str] = field(default_factory=set)
    tokens: int = 0

    @property
    def variable_count(self) -> int:
        """Number of distinct variable identifiers."""
        return len(self.variables)

    @property
    def function_count(self) -> int:
        """Number of distinct called/defined function names."""
        return len(self.functions)

    def merge(self, other: "FragmentCounts") -> "FragmentCounts":
        """Return the element-wise sum/union of two counts."""
        return FragmentCounts(
            if_statements=self.if_statements + other.if_statements,
            loops=self.loops + other.loops,
            function_calls=self.function_calls + other.function_calls,
            arithmetic_operators=self.arithmetic_operators + other.arithmetic_operators,
            relational_operators=self.relational_operators + other.relational_operators,
            logical_operators=self.logical_operators + other.logical_operators,
            bitwise_operators=self.bitwise_operators + other.bitwise_operators,
            memory_operators=self.memory_operators + other.memory_operators,
            jumps=self.jumps + other.jumps,
            variables=self.variables | other.variables,
            functions=self.functions | other.functions,
            tokens=self.tokens + other.tokens,
        )


_BINARY_LEFT_KINDS = (TokenKind.IDENTIFIER, TokenKind.NUMBER, TokenKind.STRING, TokenKind.CHAR)
_CONTROL_NAMES = frozenset({"if", "for", "while", "switch", "sizeof", "return", "do", "else", "case"})


def count_fragment(source: str) -> FragmentCounts:
    """Count syntactic constructs in a code fragment."""
    return count_tokens(code_tokens(source))


def count_lines(lines: list[str]) -> FragmentCounts:
    """Count syntactic constructs across several fragment lines.

    Lines are lexed jointly so multi-line constructs (a condition split
    across lines) still count once.
    """
    return count_fragment("\n".join(lines))


def count_tokens(tokens: list[Token]) -> FragmentCounts:
    """Count syntactic constructs in an already lexed list of code tokens."""
    counts = FragmentCounts()
    counts.tokens = len(tokens)
    for idx, tok in enumerate(tokens):
        prev = tokens[idx - 1] if idx > 0 else None
        nxt = tokens[idx + 1] if idx + 1 < len(tokens) else None

        if tok.kind is TokenKind.KEYWORD:
            if tok.text == "if":
                counts.if_statements += 1
            elif tok.text in LOOP_KEYWORDS:
                # Do not double-count the 'while' of 'do { ... } while'.
                if tok.text == "while" and prev is not None and prev.text == "}":
                    pass
                else:
                    counts.loops += 1
            elif tok.text in JUMP_KEYWORDS:
                counts.jumps += 1
            if tok.text in ("new", "delete"):
                counts.memory_operators += 1
            continue

        if tok.kind is TokenKind.IDENTIFIER:
            is_call = nxt is not None and nxt.text == "(" and nxt.kind is TokenKind.PUNCT
            if tok.text in MEMORY_FUNCTIONS:
                counts.memory_operators += 1
                if is_call:
                    counts.function_calls += 1
                    counts.functions.add(tok.text)
                continue
            if is_call and tok.text not in _CONTROL_NAMES:
                counts.function_calls += 1
                counts.functions.add(tok.text)
            else:
                counts.variables.add(tok.text)
            continue

        if tok.kind is TokenKind.OPERATOR:
            text = tok.text
            if text in LOGICAL_OPERATORS:
                counts.logical_operators += 1
            elif text in RELATIONAL_OPERATORS:
                counts.relational_operators += 1
            elif text in ("&", "*"):
                # Disambiguate address-of/deref from binary and/multiply.
                left_is_value = prev is not None and (
                    prev.kind in _BINARY_LEFT_KINDS or prev.text in (")", "]")
                )
                if left_is_value:
                    if text == "&":
                        counts.bitwise_operators += 1
                    else:
                        counts.arithmetic_operators += 1
                # Unary & / * are pointer operators; Table I does not count
                # them in any class, matching the paper's line parser.
            elif text in BITWISE_OPERATORS:
                counts.bitwise_operators += 1
            elif text in ARITHMETIC_OPERATORS:
                counts.arithmetic_operators += 1
    return counts
