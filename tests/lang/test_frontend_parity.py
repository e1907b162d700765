"""Exactness oracle for the C front end (``repro.lang.lexer`` and ``.parser``).

The production lexer is one ``finditer`` pass and the parser inlines its
cursor helpers on the hot paths.  The scanner and parser they replaced are
frozen below as :func:`reference_tokenize` and :class:`ReferenceParser`;
every token (kind, text, line, col), every AST (compared with ``==``) and
every raised exception (type and message) of the production front end must
equal theirs.  The corpus is what the pipeline really feeds the front end
(the files the world builder parses, the pre- and post-images synthesis
parses, every hunk line of a world's patches) plus hand-written edge cases.
"""

from __future__ import annotations

import re

import pytest

import repro.corpus.mutate as mutate
import repro.synthesis.locator as locator
from repro.analysis.experiments import TINY, build_patchdb
from repro.corpus import build_world
from repro.errors import LexError, ParseError
from repro.lang.ast_nodes import (
    BlockStmt,
    BreakStmt,
    CaseLabel,
    ContinueStmt,
    DeclStmt,
    DoWhileStmt,
    Expr,
    ExprStmt,
    ForStmt,
    FunctionDef,
    GotoStmt,
    IfStmt,
    LabelStmt,
    NullStmt,
    ReturnStmt,
    Stmt,
    SwitchStmt,
    TranslationUnit,
    WhileStmt,
)
from repro.lang.lexer import code_tokens, tokenize
from repro.lang.parser import parse_function_body, parse_translation_unit
from repro.lang.tokens import ALL_KEYWORDS, OPERATORS, TYPE_KEYWORDS, Token, TokenKind

# ---------------------------------------------------------------------------
# The frozen reference front end (the per-token ``match(pos)`` scanner and
# the cursor-method parser, as they were before the rewrite).
# ---------------------------------------------------------------------------

_REF_OP_ALTERNATION = "|".join(re.escape(op) for op in OPERATORS)

_REF_MASTER = re.compile(
    r"""
    (?P<WS>[ \t\r\f\v]+)
  | (?P<LINECONT>\\\n)
  | (?P<NEWLINE>\n)
  | (?P<COMMENT>//[^\n]*|/\*(?s:.*?)(?:\*/|$))
  | (?P<STRING>(?:u8|[LuU])?"(?:\\.|[^"\\\n])*(?:"|(?=\n)|$))
  | (?P<CHAR>(?:[LuU])?'(?:\\.|[^'\\\n])*(?:'|(?=\n)|$))
  | (?P<NUMBER>0[xX][0-9a-fA-F]+[uUlL]*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?[uUlLfF]*)
  | (?P<IDENT>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<PUNCT>[()\[\]{};])
  | (?P<OP>%s)
  | (?P<HASH>\#)
  | (?P<OTHER>.)
    """
    % _REF_OP_ALTERNATION,
    re.VERBOSE,
)

_REF_QUOTE_FIX = {"STRING": '"', "CHAR": "'"}


def reference_tokenize(
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
    match = _REF_MASTER.match
    i = 0
    line = 1
    col = 1
    n = len(source)
    at_line_start = True  # only whitespace seen since the last newline

    while i < n:
        m = match(source, i)
        kind = m.lastgroup
        text = m.group()
        tline, tcol = line, col

        if kind == "WS":
            i = m.end()
            col += len(text)
            continue
        if kind == "NEWLINE":
            if keep_newlines:
                append(Token(TokenKind.NEWLINE, "\n", tline, tcol))
            i = m.end()
            line += 1
            col = 1
            at_line_start = True
            continue
        if kind == "LINECONT":
            i = m.end()
            line += 1
            col = 1
            continue
        if kind == "COMMENT":
            if keep_comments:
                append(Token(TokenKind.COMMENT, text, tline, tcol))
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
            i = m.end()
            continue
        if kind == "HASH" and at_line_start:
            j = _ref_end_of_directive(source, i)
            text = source[i:j]
            append(Token(TokenKind.PREPROCESSOR, text, tline, tcol))
            newlines = text.count("\n")
            line += newlines
            col = 1 if newlines else col + len(text)
            i = j
            at_line_start = False
            continue

        at_line_start = False
        if kind == "STRING" or kind == "CHAR":
            quote = _REF_QUOTE_FIX[kind]
            if not text.endswith(quote) or len(text.lstrip("Lu8U")) < 2:
                text_fixed = text + quote  # close unterminated literal
            else:
                text_fixed = text
            tok_kind = TokenKind.STRING if kind == "STRING" else TokenKind.CHAR
            append(Token(tok_kind, text_fixed, tline, tcol))
        elif kind == "NUMBER":
            append(Token(TokenKind.NUMBER, text, tline, tcol))
        elif kind == "IDENT":
            tok_kind = TokenKind.KEYWORD if text in ALL_KEYWORDS else TokenKind.IDENTIFIER
            append(Token(tok_kind, text, tline, tcol))
        elif kind == "PUNCT":
            append(Token(TokenKind.PUNCT, text, tline, tcol))
        elif kind == "OP":
            append(Token(TokenKind.OPERATOR, text, tline, tcol))
        else:  # HASH not at line start, or OTHER
            if strict and kind == "OTHER":
                raise LexError(f"unexpected character {text!r} at line {line}, col {col}")
            append(Token(TokenKind.PUNCT, text, tline, tcol))
        i = m.end()
        col += len(text)

    return tokens


def _ref_end_of_directive(source: str, i: int) -> int:
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


class ReferenceParser:
    """Token cursor with the recursive-descent routines."""

    def __init__(self, tokens: list[Token], source: str) -> None:
        self.tokens = tokens
        self.pos = 0
        # Deliberately not frozen: the old splitlines() table also broke at
        # \f, \v, \x85, ..., which token lines do not count, and the
        # production parser's fix is mirrored here.
        self.source_lines = [
            ln[:-1] if ln.endswith("\r") else ln for ln in source.removesuffix("\n").split("\n")
        ]

    # ---- cursor helpers -------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        idx = self.pos + offset
        if idx >= len(self.tokens):
            return None
        return self.tokens[idx]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def at_keyword(self, name: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind is TokenKind.KEYWORD and tok.text == name

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            where = f"line {tok.line}" if tok else "EOF"
            raise ParseError(f"expected {text!r} at {where}, found {tok.text if tok else 'EOF'!r}")
        return self.next()

    def eof(self) -> bool:
        return self.pos >= len(self.tokens)

    def skip_balanced(self, open_text: str) -> tuple[Token, Token]:
        """Consume from an *open_text* token through its matching close.

        Returns (open_token, close_token).  Unbalanced input consumes to EOF
        and returns the final token as the close.
        """
        open_tok = self.expect(open_text)
        close_text = {"(": ")", "[": "]", "{": "}"}[open_text]
        depth = 1
        last = open_tok
        while not self.eof():
            tok = self.next()
            last = tok
            if tok.text == open_text:
                depth += 1
            elif tok.text == close_text:
                depth -= 1
                if depth == 0:
                    return open_tok, tok
        return open_tok, last

    def text_between(self, first: Token, last: Token) -> str:
        """Exact source text from *first* through *last* (token-inclusive)."""
        if first.line == last.line:
            line = self.source_lines[first.line - 1]
            return line[first.col - 1 : last.col - 1 + len(last.text)]
        parts = [self.source_lines[first.line - 1][first.col - 1 :]]
        parts.extend(self.source_lines[ln - 1] for ln in range(first.line + 1, last.line))
        parts.append(self.source_lines[last.line - 1][: last.col - 1 + len(last.text)])
        return "\n".join(parts)

    # ---- top level ------------------------------------------------------

    def parse_unit(self, path: str) -> TranslationUnit:
        functions: list[FunctionDef] = []
        last_line = self.source_lines and len(self.source_lines) or 1
        while not self.eof():
            fn = self._try_function_def()
            if fn is not None:
                functions.append(fn)
                continue
            self._skip_top_level_item()
        return TranslationUnit(1, last_line, functions=functions, path=path)

    def _try_function_def(self) -> FunctionDef | None:
        """Parse a function definition starting at the cursor, or return None.

        A definition looks like ``<decl tokens> name ( params ) { body }``
        with no ``;`` between the ``)`` and the ``{``.
        """
        start = self.pos
        # Scan forward for 'ident (' ... ') {' without hitting ';' or '}' at
        # depth 0 first.
        i = self.pos
        name_idx = -1
        n = len(self.tokens)
        while i < n:
            tok = self.tokens[i]
            if tok.text in (";", "}", "="):
                break
            if (
                tok.kind is TokenKind.IDENTIFIER
                and i + 1 < n
                and self.tokens[i + 1].text == "("
            ):
                # Find matching ')' and check for '{'.
                depth = 0
                j = i + 1
                while j < n:
                    t = self.tokens[j].text
                    if t == "(":
                        depth += 1
                    elif t == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                if j < n and depth == 0:
                    k = j + 1
                    # Allow qualifiers between ')' and '{' (const, noexcept).
                    while k < n and self.tokens[k].kind is TokenKind.KEYWORD:
                        k += 1
                    if k < n and self.tokens[k].text == "{":
                        name_idx = i
                        params_open, params_close = i + 1, j
                        body_idx = k
                        break
                i = j if j > i else i + 1
                continue
            i += 1
        if name_idx < 0:
            self.pos = start
            return None

        name_tok = self.tokens[name_idx]
        ret_text = (
            self.text_between(self.tokens[start], self.tokens[name_idx - 1])
            if name_idx > start
            else ""
        )
        params_text = self.text_between(self.tokens[params_open], self.tokens[params_close])
        self.pos = body_idx
        body = self.parse_block()
        first = self.tokens[start]
        return FunctionDef(
            start_line=first.line,
            end_line=body.end_line,
            name=name_tok.text,
            params_text=params_text,
            return_type_text=ret_text.strip(),
            body=body,
        )

    def _skip_top_level_item(self) -> None:
        """Skip one non-function top-level construct (decl, struct, etc.)."""
        while not self.eof():
            tok = self.next()
            if tok.text == ";":
                return
            if tok.text == "{":
                depth = 1
                while not self.eof() and depth:
                    t = self.next().text
                    if t == "{":
                        depth += 1
                    elif t == "}":
                        depth -= 1
                # struct { ... } x; — keep consuming to the ';' if adjacent.
                if self.at(";"):
                    self.next()
                return

    # ---- statements -----------------------------------------------------

    def parse_block(self) -> BlockStmt:
        open_tok = self.expect("{")
        stmts: list[Stmt] = []
        while not self.eof() and not self.at("}"):
            stmts.append(self.parse_statement())
        close_tok = self.next() if not self.eof() else self.tokens[-1]
        return BlockStmt(open_tok.line, close_tok.line, stmts=stmts)

    def parse_statement(self) -> Stmt:
        tok = self.peek()
        # Spelled out: the production ``assert`` raises a bare
        # AssertionError, and pytest would rewrite an ``assert`` here to
        # carry a message.
        if tok is None:
            raise AssertionError
        if tok.text == "{":
            return self.parse_block()
        if tok.kind is TokenKind.KEYWORD:
            handler = {
                "if": self._parse_if,
                "while": self._parse_while,
                "do": self._parse_do,
                "for": self._parse_for,
                "switch": self._parse_switch,
                "return": self._parse_return,
                "goto": self._parse_goto,
                "break": self._parse_break,
                "continue": self._parse_continue,
                "case": self._parse_case,
                "default": self._parse_case,
                "else": None,  # dangling else: treat as opaque
            }.get(tok.text, self._parse_simple)
            if handler is None:
                return self._parse_simple()
            return handler()
        if tok.text == ";":
            self.next()
            return NullStmt(tok.line, tok.line)
        # Label: 'ident :' not followed by ':' (avoid '::').
        nxt = self.peek(1)
        if (
            tok.kind is TokenKind.IDENTIFIER
            and nxt is not None
            and nxt.text == ":"
            and (self.peek(2) is None or self.peek(2).text != ":")
        ):
            self.next()
            self.next()
            if self.eof() or self.at("}"):
                return LabelStmt(tok.line, tok.line, name=tok.text, stmt=None)
            inner = self.parse_statement()
            return LabelStmt(tok.line, inner.end_line, name=tok.text, stmt=inner)
        return self._parse_simple()

    def _parse_paren_expr(self) -> tuple[Expr, Token, Token]:
        """Parse ``( ... )`` returning (expr, open_token, close_token)."""
        open_idx = self.pos
        open_tok, close_tok = self.skip_balanced("(")
        close_idx = self.pos - 1
        if close_idx <= open_idx + 1:  # '()' or unbalanced-at-EOF
            expr = Expr(
                open_tok.line,
                close_tok.line,
                text="",
                start_col=open_tok.col + 1,
                end_col=close_tok.col if close_tok is not open_tok else open_tok.col + 1,
            )
            return expr, open_tok, close_tok
        first_inner = self.tokens[open_idx + 1]
        last_inner = self.tokens[close_idx - 1]
        expr = Expr(
            first_inner.line,
            last_inner.line,
            text=self.text_between(first_inner, last_inner),
            start_col=first_inner.col,
            end_col=last_inner.col + len(last_inner.text),
        )
        return expr, open_tok, close_tok

    def _parse_if(self) -> IfStmt:
        kw = self.next()
        cond, open_tok, close_tok = self._parse_paren_expr()
        then_braced = self.at("{")
        then = self.parse_statement()
        orelse: Stmt | None = None
        end_line = then.end_line
        if self.at_keyword("else"):
            self.next()
            orelse = self.parse_statement()
            end_line = orelse.end_line
        return IfStmt(
            kw.line,
            end_line,
            cond=cond,
            then=then,
            orelse=orelse,
            cond_open_line=open_tok.line,
            cond_open_col=open_tok.col,
            cond_close_line=close_tok.line,
            cond_close_col=close_tok.col,
            then_braced=then_braced,
        )

    def _parse_while(self) -> WhileStmt:
        kw = self.next()
        cond, _, _ = self._parse_paren_expr()
        body = self.parse_statement()
        return WhileStmt(kw.line, body.end_line, cond=cond, body=body)

    def _parse_do(self) -> DoWhileStmt:
        kw = self.next()
        body = self.parse_statement()
        end_line = body.end_line
        cond = Expr(end_line, end_line, text="")
        if self.at_keyword("while"):
            self.next()
            cond, _, close_tok = self._parse_paren_expr()
            end_line = close_tok.line
            if self.at(";"):
                self.next()
        return DoWhileStmt(kw.line, end_line, body=body, cond=cond)

    def _parse_for(self) -> ForStmt:
        kw = self.next()
        clauses, _, _ = self._parse_paren_expr()
        body = self.parse_statement()
        return ForStmt(kw.line, body.end_line, clauses=clauses.text, body=body)

    def _parse_switch(self) -> SwitchStmt:
        kw = self.next()
        cond, _, _ = self._parse_paren_expr()
        body = self.parse_statement()
        return SwitchStmt(kw.line, body.end_line, cond=cond, body=body)

    def _parse_case(self) -> CaseLabel:
        kw = self.next()
        first = kw
        last = kw
        while not self.eof() and not self.at(":"):
            last = self.next()
        if not self.eof():
            self.next()  # ':'
        return CaseLabel(first.line, last.line, label_text=self.text_between(first, last))

    def _parse_return(self) -> ReturnStmt:
        kw = self.next()
        first = None
        last = kw
        while not self.eof() and not self.at(";"):
            tok = self.next()
            if first is None:
                first = tok
            last = tok
            if tok.text == "(":
                # Balance inner parens (e.g. return f(a, b);).
                depth = 1
                while not self.eof() and depth:
                    t = self.next()
                    last = t
                    if t.text == "(":
                        depth += 1
                    elif t.text == ")":
                        depth -= 1
        if not self.eof():
            self.next()  # ';'
        value = self.text_between(first, last) if first is not None else ""
        return ReturnStmt(kw.line, last.line, value_text=value)

    def _parse_goto(self) -> GotoStmt:
        kw = self.next()
        label = ""
        last = kw
        if not self.eof() and self.peek().kind is TokenKind.IDENTIFIER:
            tok = self.next()
            label = tok.text
            last = tok
        if self.at(";"):
            self.next()
        return GotoStmt(kw.line, last.line, label=label)

    def _parse_break(self) -> BreakStmt:
        kw = self.next()
        if self.at(";"):
            self.next()
        return BreakStmt(kw.line, kw.line)

    def _parse_continue(self) -> ContinueStmt:
        kw = self.next()
        if self.at(";"):
            self.next()
        return ContinueStmt(kw.line, kw.line)

    def _parse_simple(self) -> Stmt:
        """Expression or declaration statement: consume to ';' at depth 0."""
        first = self.next()
        last = first
        depth = 0
        is_decl = first.kind is TokenKind.KEYWORD and first.text in TYPE_KEYWORDS
        if first.kind is TokenKind.IDENTIFIER:
            nxt = self.peek()
            # 'Type name ...' or 'Type *name ...' heuristics.
            if nxt is not None and (
                nxt.kind is TokenKind.IDENTIFIER
                or (nxt.text == "*" and self.peek(1) is not None and self.peek(1).kind is TokenKind.IDENTIFIER)
            ):
                is_decl = True
        while not self.eof():
            if depth == 0 and self.at(";"):
                self.next()
                break
            if depth == 0 and self.at("}"):
                break  # unterminated statement at block end
            tok = self.next()
            last = tok
            if tok.text in ("(", "[", "{"):
                depth += 1
            elif tok.text in (")", "]", "}"):
                depth = max(0, depth - 1)
        text = self.text_between(first, last)
        if is_decl:
            return DeclStmt(first.line, last.line, text=text)
        return ExprStmt(first.line, last.line, text=text)


_DROPPED = (TokenKind.COMMENT, TokenKind.NEWLINE, TokenKind.PREPROCESSOR)


def _reference_parse(tokens: list[Token], source: str, path: str) -> TranslationUnit:
    return ReferenceParser([t for t in tokens if t.kind not in _DROPPED], source).parse_unit(path)


def reference_parse_body(source: str) -> BlockStmt:
    tokens = [t for t in reference_tokenize(source) if t.kind not in _DROPPED]
    parser = ReferenceParser(tokens, source)
    if not parser.at("{"):
        raise ParseError("function body must start with '{'")
    return parser.parse_block()


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

_FLAGS = [(False, False), (True, False), (False, True), (True, True)]


def _outcome(fn, *args, **kwargs):
    """What *fn* returns, or the type and message of what it raises."""
    try:
        return ("returned", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return ("raised", type(exc), str(exc))


def _filtered(outcome, keep_comments: bool, keep_newlines: bool):
    """The reference tokens for one flag pair, from a keep-everything run.

    The reference scanner's flags only gate whether COMMENT and NEWLINE
    tokens are appended, so this equals running it with those flags
    (``test_flag_filtering_matches_running_the_reference`` checks that on
    the hand-written cases) at a quarter of the cost.
    """
    if outcome[0] == "raised":
        return outcome
    return (
        "returned",
        [
            t
            for t in outcome[1]
            if (keep_comments or t.kind is not TokenKind.COMMENT)
            and (keep_newlines or t.kind is not TokenKind.NEWLINE)
        ],
    )


def assert_same_front_end(
    text: str, strict: bool = False, path: str = "", flags=_FLAGS
) -> None:
    """Tokens under each flag pair in *flags*, and the parse, equal the
    reference's."""
    full = _outcome(reference_tokenize, text, True, True, strict)
    for keep_comments, keep_newlines in flags:
        got = _outcome(tokenize, text, keep_comments, keep_newlines, strict)
        expected = _filtered(full, keep_comments, keep_newlines)
        assert got == expected, (text, keep_comments, keep_newlines)
    if strict:
        return
    parsed = _outcome(parse_translation_unit, text, path)
    assert parsed == _outcome(_reference_parse, full[1], text, path), text


# ---------------------------------------------------------------------------
# Hand-written cases
# ---------------------------------------------------------------------------

#: One of the world files whose logging line ``gen_var_value`` rewrote into
#: an unterminated string and an unclosed paren (``printf("...: memcpy= 0;``):
#: the parser folds the rest of the file into ``io_write_idx_17``.  Kept so
#: that behaviour stays bit for bit until the generator is fixed.
MALFORMED_WORLD_FILE = """#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static int io_cfg_max = 1552;

long io_write_idx_17(int  addr, short  name)
{
    if (j != 0) {
        int i, j;
    }
    int ctx = 7;
    size_t item = 45;

    while (!name) {
        free_depth_next(i);
    }
    memcpy(addr, item, i);
    printf("io_write_idx_17: memcpy= 0;
    push_opt(j);
    return name;
}

int io_close_hdr_18(uint8_t *table, const char *rec)
{
    int i, j;
    size_t frame = 50;

    if (table >= j * frame) {
        table = j;
    }
    memset(i, 0, sizeof(i));
    return j;
}

void io_check_crc_20(int  slot, void *dev)
{
    if (i < 81 && i >= j)
        return;
    j = dev - i;
}
"""

EDGE_CASES = [
    "",
    "\n",
    "   ",
    "x   ",
    "x\t\n  \n",
    "x" + " " * 100_000,  # trailing whitespace lexes in one match, not per character
    # unterminated string, char and block comment
    'char *s = "abc\nint x;',
    '"abc',
    '"abc\\"',
    "char c = 'a\nint y;",
    "'",
    "u'",
    "a /* runs off",
    "a /* runs off\n",
    "/* one\ntwo */ b /* three\n\nfour */ c\nd",
    "x = 1; // note\ny = 2; /**/ z",
    "a /* x */ b /* y\n */ c",
    # directives: plain, indented, after a comment, continued, mid-line
    "#include <stdio.h>\nint x;",
    "  #ifdef FOO\nint x;\n  #endif\n",
    "/* c */ #define A 1\nint x;",
    "#define MAX(a, b) \\\n    ((a) > (b) ? (a) : (b))\nint y;\n",
    "#define A \\  \n  1 \\\t\n  2\n  x;",
    "#define A \\\n",
    "#define A \\\n\n#x",
    "#",
    "a # b\n#c",
    "x \\\n#define Q\n",
    "\\\n#define Q\ny",
    # line continuation outside a directive, and a stray backslash
    "int a = 1 + \\\n    2;\nb",
    "a \\ b",
    "a \\\r\nb",
    # literal prefixes and identifiers that only look like them
    's = u8"s";',
    "c = u8'c';",
    "c = L'c';",
    "c = u'c' + U'd';",
    's = L"w" u"x" U"y";',
    'Lfoo"s"',
    "menu u8 L u U",
    'menu8"x"',
    'L"abc\\\nint x;',
    'u8"abc\\\ny',
    "L'a\\\nz",
    'U8"x"',
    'uR"x"',
    # numbers and operators
    "0x1F 0XDEAD 1.5f 2e10 1.5e-3 10UL 3. .5 1.2.3 a.b x...y",
    "a <<= b >>= c -> d ->* e :: f .* g != h && i || j",
    "p->x; A::b; f(int, ...);",
    # odd characters
    "int a = `bad`; @x; \x0c\x0b$y\u00e9 \u2028 z",
    "\r\n\r\n  x\r\n",
    # parser shapes
    "int f(void) { return g(a, (b)); }",
    "int f() const noexcept { lbl: ; goto lbl; }",
    "void f(){ switch (x) { case 1: break; default: continue; } }",
    "void f(){ do { x++; } while (x < 3); do ; }",
    "void f(){ for (;;) ; while (1) {} if (a) b; else if (c) d; else { e; } }",
    "void f(){ a::b c; T *p = q; x; }",
    "void f(){ if () x; if (a",
    "void f(){ return",
    "void f(){ goto",
    "void f(){ lbl:",
    "void f(){ lbl: }",
    "void f(){ else x; }",
    "struct S { int a; } s; int g(int x) { return x; }",
    "int (*fp)(int); int x = f(1); int h(a) int a; { return a; }",
    "void f(){ x = {1, {2}}; y = (a[1]); }",
    "void f(){ a ) ; b; } int g() { x ] = 1; y; }",
    "}}} int f() { { }",
    # statement text across line breaks other than "\n"
    "int f(void)\r\n{\r\n\f\r\n    if (a > 1)\r\n        b = 2;\r\n    return c;\r\n}\r\n",
    "void f(){ if (a\r> 1) x;\v\x85 return b; }\r",
    MALFORMED_WORLD_FILE,
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_case_matches_reference(text):
    assert_same_front_end(text)
    assert _outcome(code_tokens, text) == _filtered(
        _outcome(reference_tokenize, text, True, True), False, False
    )


@pytest.mark.parametrize("text", EDGE_CASES)
def test_flag_filtering_matches_running_the_reference(text):
    full = _outcome(reference_tokenize, text, True, True)
    for keep_comments, keep_newlines in _FLAGS:
        ran = _outcome(reference_tokenize, text, keep_comments, keep_newlines)
        assert ran == _filtered(full, keep_comments, keep_newlines)


@pytest.mark.parametrize(
    "text, message",
    [
        ("int a = @x;", "unexpected character '@' at line 1, col 9"),
        ("int a;\n  `b`;", "unexpected character '`' at line 2, col 3"),
        ("/* x\n */ @", "unexpected character '@' at line 2, col 5"),
        ('"ab\\\n"', "unexpected character '\"' at line 1, col 1"),
    ],
)
def test_strict_errors_match_reference(text, message):
    with pytest.raises(LexError, match=re.escape(message)):
        tokenize(text, strict=True)
    assert_same_front_end(text, strict=True)


def test_strict_accepts_what_it_passes_through():
    assert_same_front_end("a # b\n#define X \\\n 1\n", strict=True)


def test_continued_directive_newline_reports_col_one():
    # The scanner has always restarted the column at 1 past a continued
    # directive; the NEWLINE token that follows shows it.
    toks = tokenize("#define A \\\n  1\nx", keep_newlines=True)
    assert [(t.kind, t.line, t.col) for t in toks] == [
        (TokenKind.PREPROCESSOR, 1, 1),
        (TokenKind.NEWLINE, 2, 1),
        (TokenKind.IDENTIFIER, 3, 1),
    ]


def test_unbalanced_if_still_raises_assertion_error():
    # parse_statement asserts a token is left; ``classify`` behaviour is
    # pinned on this input failing that way.
    text = "int f(){ if (a { x; }"
    with pytest.raises(AssertionError):
        parse_translation_unit(text)
    assert_same_front_end(text)


@pytest.mark.parametrize(
    "text",
    ["{ if (a) { b; } else c; }", "{ return f(x); ", "x { }", "", "{ lbl: }"],
)
def test_function_body_matches_reference(text):
    assert _outcome(parse_function_body, text) == _outcome(reference_parse_body, text)


# ---------------------------------------------------------------------------
# The pipeline's own inputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def world_texts():
    """Each text the world builder lexes and parses while TINY worlds 0-3
    build: the files it outlines in full and the edited regions between
    reused spans (``function_spans``)."""
    texts: list[str] = []
    outline = mutate.outline_functions

    def recording(source, line_offset=0):
        texts.append(source)
        return outline(source, line_offset)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mutate, "outline_functions", recording)
        for seed in range(4):
            build_world(TINY.world_config(seed))
    return list(dict.fromkeys(texts))


@pytest.fixture(scope="module")
def synthesis_texts(experiment_world):
    """The pre- and post-images ``locate_ifs`` parses in a seed-2021 build."""
    texts: list[str] = []
    parse = locator.parse_translation_unit

    def recording(source, path=""):
        texts.append(source)
        return parse(source, path)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(locator, "parse_translation_unit", recording)
        build_patchdb(experiment_world, seed=2021)
    return list(dict.fromkeys(texts))


def test_world_build_texts_match_reference(world_texts):
    # The two flags gate COMMENT and NEWLINE output independently, so the
    # all-off and all-on pairs take each gate both ways; the mixed pairs
    # run on every other corpus.  That halves the cost of the largest one.
    assert len(world_texts) > 1000
    for text in world_texts:
        assert_same_front_end(text, flags=[(False, False), (True, True)])


def test_synthesis_texts_match_reference(synthesis_texts):
    assert len(synthesis_texts) > 20
    for text in synthesis_texts:
        assert_same_front_end(text)


def test_hunk_lines_match_reference(experiment_world):
    world = experiment_world.world
    lines = {
        line.text
        for sha in world.all_shas()
        for fdiff in world.patch_for(sha).files
        for hunk in fdiff.hunks
        for line in hunk.lines
    }
    assert len(lines) > 1000
    for text in sorted(lines):
        assert_same_front_end(text)
