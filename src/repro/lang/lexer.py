"""A C/C++ lexer.

Tokenizes full files *and* bare patch fragments (a hunk body is not a
complete translation unit, but it still lexes line by line).  The lexer is
error-tolerant: an unterminated string or block comment at end of input is
closed implicitly rather than raising, because patch fragments routinely cut
constructs in half.  Truly unlexable bytes raise :class:`LexError` only in
``strict`` mode; otherwise they become one-character PUNCT tokens.

The scanner is one ``finditer`` pass of a single compiled master regex
whose every match is a token with the whitespace before it; it restarts only
past a preprocessor directive.  This is the hot path of the whole package
(feature extraction, parsing, and corpus generation all lex), so the loop
does no per-character Python work and derives columns from the offset of
the current line's start.  Its output is pinned token for token to the
per-token ``match(pos)`` scanner it replaced by
``tests/lang/test_frontend_parity.py``.
"""

from __future__ import annotations

import re

from ..errors import LexError
from .tokens import ALL_KEYWORDS, OPERATORS, Token, TokenKind

__all__ = ["tokenize", "code_tokens", "split_tokens_by_line"]

_OP_ALTERNATION = "|".join(re.escape(op) for op in OPERATORS)

# Each match is one token plus the whitespace before it.  The alternatives
# are ordered by frequency; where two can match at the same place the
# scanner's precedence is kept: comments before '/', numbers before '.', and
# an L/u/U/u8 prefix goes to its string or char literal, falling back to an
# identifier (PREFIX) only when the literal does not lex.  Some alternative
# matches every character, so the whitespace run never gives back a
# character except at the end of the input, where END takes the trailing
# whitespace in one match.
_MASTER = re.compile(
    r"""
    [ \t\r\f\v]*
    (?:
      (?P<IDENT>(?!u8"|[LuU]["'])[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<PUNCT>[()\[\]{};])
    | (?P<NEWLINE>\n)
    | (?P<COMMENT>//[^\n]*|/\*(?s:.*?)(?:\*/|$))
    | (?P<NUMBER>0[xX][0-9a-fA-F]+[uUlL]*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?[uUlLfF]*)
    | (?P<OP>%s)
    | (?P<STRING>(?:u8|[LuU])?"(?:\\.|[^"\\\n])*(?:"|(?=\n)|$))
    | (?P<CHAR>(?:[LuU])?'(?:\\.|[^'\\\n])*(?:'|(?=\n)|$))
    | (?P<PREFIX>u8|[LuU])
    | (?P<LINECONT>\\\n)
    | (?P<HASH>\#)
    | (?P<OTHER>.)
    | (?P<END>\Z)
    )
    """
    % _OP_ALTERNATION,
    re.VERBOSE,
)
# Group numbers, compared against ``Match.lastindex``.
_IDENT, _PUNCT, _NEWLINE, _COMMENT, _NUMBER, _OP = range(1, 7)
_STRING, _CHAR, _PREFIX, _LINECONT, _HASH, _OTHER, _END = range(7, 14)
assert _MASTER.groupindex["END"] == _END == _MASTER.groups

_KEYWORD = TokenKind.KEYWORD
_IDENTIFIER = TokenKind.IDENTIFIER

_new_object = object.__new__
_set_kind, _set_text, _set_line, _set_col = (
    Token.__dict__[name].__set__ for name in ("kind", "text", "line", "col")
)


def _token(kind: TokenKind, text: str, line: int, col: int) -> Token:
    """``Token(kind, text, line, col)`` at about two thirds of the cost.

    A frozen dataclass's ``__init__`` assigns each field through
    ``object.__setattr__``, over a third of the scanner's time per token;
    this stores the same four slots through their descriptors instead.
    """
    tok = _new_object(Token)
    _set_kind(tok, kind)
    _set_text(tok, text)
    _set_line(tok, line)
    _set_col(tok, col)
    return tok


def tokenize(
    source: str,
    keep_comments: bool = False,
    keep_newlines: bool = False,
    strict: bool = False,
) -> list[Token]:
    """Tokenize C/C++ *source*.

    Args:
        source: source text (a full file or a fragment).
        keep_comments: include COMMENT tokens in the output.
        keep_newlines: include NEWLINE tokens (one per physical newline
            outside comments/strings).
        strict: raise :class:`LexError` on unexpected characters instead of
            passing them through as punctuation.

    Returns:
        Tokens in source order (no EOF sentinel).
    """
    tokens: list[Token] = []
    append = tokens.append
    finditer = _MASTER.finditer
    keywords = ALL_KEYWORDS
    line = 1
    line_start = 0  # offset of the current line's first character
    at_line_start = True  # no token but comments since the last newline
    pos = 0
    n = len(source)

    # One finditer pass; it restarts only past a preprocessor directive,
    # whose extent the regex cannot see.
    while pos < n:
        for m in finditer(source, pos):
            group = m.lastindex
            start = m.start(group)
            if group == _IDENT or group == _PREFIX:
                text = m.group(group)
                tok_kind = _KEYWORD if text in keywords else _IDENTIFIER
                append(_token(tok_kind, text, line, start - line_start + 1))
                at_line_start = False
            elif group == _PUNCT:
                append(_token(TokenKind.PUNCT, m.group(group), line, start - line_start + 1))
                at_line_start = False
            elif group == _OP:
                append(_token(TokenKind.OPERATOR, m.group(group), line, start - line_start + 1))
                at_line_start = False
            elif group == _NEWLINE:
                if keep_newlines:
                    append(_token(TokenKind.NEWLINE, "\n", line, start - line_start + 1))
                line += 1
                line_start = start + 1
                at_line_start = True
            elif group == _NUMBER:
                append(_token(TokenKind.NUMBER, m.group(group), line, start - line_start + 1))
                at_line_start = False
            elif group == _COMMENT:
                text = m.group(group)
                if keep_comments:
                    append(_token(TokenKind.COMMENT, text, line, start - line_start + 1))
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = start + text.rfind("\n") + 1
            elif group == _STRING or group == _CHAR:
                text = m.group(group)
                quote = '"' if group == _STRING else "'"
                if not text.endswith(quote) or len(text.lstrip("Lu8U")) < 2:
                    text += quote  # close unterminated literal
                tok_kind = TokenKind.STRING if group == _STRING else TokenKind.CHAR
                append(_token(tok_kind, text, line, start - line_start + 1))
                at_line_start = False
            elif group == _LINECONT:
                line += 1
                line_start = start + 2
            elif group == _HASH and at_line_start:
                end = _end_of_directive(source, start)
                text = source[start:end]
                append(_token(TokenKind.PREPROCESSOR, text, line, start - line_start + 1))
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    # Kept quirk: after a '\\'-continued directive the
                    # column restarts at 1 where the directive ends, so the
                    # NEWLINE token that follows it reports col 1.
                    line_start = end
                at_line_start = False
                pos = end
                break
            elif group == _END:
                pass
            else:  # HASH not at line start, or OTHER
                text = m.group(group)
                if strict and group == _OTHER:
                    col = start - line_start + 1
                    raise LexError(f"unexpected character {text!r} at line {line}, col {col}")
                append(_token(TokenKind.PUNCT, text, line, start - line_start + 1))
                at_line_start = False
        else:
            break

    return tokens


def _end_of_directive(source: str, i: int) -> int:
    """Index just past a preprocessor directive, honoring '\\' continuations."""
    n = len(source)
    while True:
        j = source.find("\n", i)
        if j < 0:
            return n
        k = j - 1
        while k >= 0 and source[k] in " \t\r":
            k -= 1
        if k >= 0 and source[k] == "\\":
            i = j + 1
            continue
        return j


def code_tokens(source: str) -> list[Token]:
    """Tokenize and keep only code tokens (no comments or newlines)."""
    return [t for t in tokenize(source) if t.kind not in (TokenKind.COMMENT, TokenKind.NEWLINE)]


def split_tokens_by_line(tokens: list[Token]) -> dict[int, list[Token]]:
    """Group tokens by their source line number."""
    by_line: dict[int, list[Token]] = {}
    for tok in tokens:
        by_line.setdefault(tok.line, []).append(tok)
    return by_line
