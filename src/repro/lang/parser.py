"""Lightweight recursive-descent C parser.

Produces the AST of :mod:`repro.lang.ast_nodes` for full source files.  The
parser recognizes function definitions at the top level and statement
structure (blocks, ``if``/``else``, loops, ``switch``, jumps, declarations,
expression statements) inside bodies — exactly the structure the paper
extracts from LLVM ASTs to locate ``if`` statements (§III-C-2).

Robustness over completeness: constructs the grammar does not model
(templates, K&R definitions, GNU attributes) are skipped as opaque regions
rather than raising, so real-world files still parse.  :class:`ParseError`
is reserved for internal invariant violations in ``strict`` mode.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from ..errors import ParseError
from ..patch.model import split_lines
from .ast_nodes import (
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
from .lexer import tokenize
from .tokens import TYPE_KEYWORDS, Token, TokenKind

__all__ = [
    "FunctionSpan",
    "Outline",
    "parse_translation_unit",
    "parse_function_body",
    "find_if_statements",
    "outline_functions",
]

_OPEN = frozenset("([{")
_CLOSE = frozenset(")]}")
_CLOSE_FOR_OPEN = {"(": ")", "[": "]", "{": "}"}
_IDENTIFIER = TokenKind.IDENTIFIER
_KEYWORD = TokenKind.KEYWORD
_COMMENT = TokenKind.COMMENT
_PREPROCESSOR = TokenKind.PREPROCESSOR


def _code_tokens(source: str) -> list[Token]:
    # Default tokenize() output holds no COMMENT or NEWLINE tokens.
    return [t for t in tokenize(source) if t.kind is not TokenKind.PREPROCESSOR]


def parse_translation_unit(source: str, path: str = "") -> TranslationUnit:
    """Parse a full C/C++ file into a :class:`TranslationUnit`."""
    parser = _Parser(_code_tokens(source), source)
    return parser.parse_unit(path)


@dataclass(frozen=True, slots=True)
class FunctionSpan:
    """Where one function definition sits, without its statements.

    Attributes:
        name: the function's name.
        return_type_text: the declaration text before the name, stripped.
        start_line, end_line: 1-based lines of the first token and of the
            body's last token.
        body_start_line, body_end_line: lines of the body's ``{`` and of
            its last token.
        col: 1-based column of the first token.
        closed: the body ended at its own ``}`` rather than running out of
            tokens.
    """

    name: str
    return_type_text: str
    start_line: int
    end_line: int
    body_start_line: int
    body_end_line: int
    col: int
    closed: bool

    def shifted(self, lines: int) -> "FunctionSpan":
        """The same span *lines* lines further down."""
        return FunctionSpan(
            self.name,
            self.return_type_text,
            self.start_line + lines,
            self.end_line + lines,
            self.body_start_line + lines,
            self.body_end_line + lines,
            self.col,
            self.closed,
        )


@dataclass(frozen=True, slots=True)
class Outline:
    """The function spans of one text, and how far they can be trusted.

    Attributes:
        spans: the definitions :func:`parse_translation_unit` finds, in order.
        settled: how many leading spans were parsed before any scan ran out
            of tokens.  Up to the end of each of them, every parse decision
            was made by tokens before that end, so a text that only differs
            after it parses the same up to there.
        clean_end: the text can be followed by more lines without changing
            how it parses: no scan ran out of tokens, no block comment is
            left open and the last line does not end in a backslash.

    An outline the world builder assembles from an older one
    (:func:`repro.corpus.mutate.function_spans`) has the same spans as a
    full one, but may understate *settled* and *clean_end*.
    """

    spans: tuple[FunctionSpan, ...]
    settled: int
    clean_end: bool


def outline_functions(source: str, line_offset: int = 0) -> Outline:
    """The :class:`Outline` of *source*, its lines shifted by *line_offset*.

    Runs the same lexer and parser as :func:`parse_translation_unit` and
    raises what it raises.
    """
    if "/*" in source:
        tokens = tokenize(source, keep_comments=True)
        last = tokens[-1] if tokens else None
        open_comment = (
            last is not None
            and last.kind is _COMMENT
            and last.text.startswith("/*")
            and (len(last.text) < 4 or not last.text.endswith("*/"))
        )
        tokens = [t for t in tokens if t.kind is not _COMMENT and t.kind is not _PREPROCESSOR]
    else:
        tokens = _code_tokens(source)
        open_comment = False
    parser = _Parser(tokens, source)
    spans: list[FunctionSpan] = []
    settled = 0
    for first, fn, closed in parser.function_defs():
        spans.append(
            FunctionSpan(
                fn.name,
                fn.return_type_text,
                fn.start_line + line_offset,
                fn.end_line + line_offset,
                fn.body.start_line + line_offset,
                fn.body.end_line + line_offset,
                first.col,
                closed,
            )
        )
        if not parser.eof_exits:
            settled = len(spans)
    lines = parser.source_lines
    continued = bool(lines) and lines[-1].rstrip(" \t\r").endswith("\\")
    return Outline(tuple(spans), settled, not (parser.eof_exits or open_comment or continued))


def parse_function_body(source: str) -> BlockStmt:
    """Parse a brace-delimited block (``{...}``) in isolation."""
    parser = _Parser(_code_tokens(source), source)
    if not parser.at("{"):
        raise ParseError("function body must start with '{'")
    return parser.parse_block()


def find_if_statements(unit: TranslationUnit) -> list[IfStmt]:
    """All ``if`` statements in the unit, in source order."""
    from .ast_nodes import walk

    found = [n for fn in unit.functions for n in walk(fn) if isinstance(n, IfStmt)]
    found.sort(key=lambda n: (n.start_line, n.cond_open_col))
    return found


class _Parser:
    """Token cursor with the recursive-descent routines.

    The hot routines (``parse_block``, ``parse_statement``,
    ``_parse_simple``, ``skip_balanced``, ``_try_function_def``) work on
    local copies of the cursor and on :attr:`texts`, the token texts, rather
    than through the cursor helpers; the rest use the helpers.
    """

    def __init__(self, tokens: list[Token], source: str) -> None:
        self.tokens = tokens
        self.texts = [t.text for t in tokens]
        self.n = len(tokens)
        self.pos = 0
        # Lines as the lexer counts them: split at "\n" only.
        self.source_lines = split_lines(source)
        # Scans that stopped at the end of the tokens instead of at their
        # own delimiter: the top-level scan for a definition, the skip over
        # a top-level item, and any block.  Each such decision could go the
        # other way if more tokens followed.
        self.eof_exits = 0

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
        close_text = _CLOSE_FOR_OPEN[open_text]
        texts = self.texts
        n = self.n
        pos = self.pos
        depth = 1
        while pos < n:
            text = texts[pos]
            pos += 1
            if text == open_text:
                depth += 1
            elif text == close_text:
                depth -= 1
                if depth == 0:
                    self.pos = pos
                    return open_tok, self.tokens[pos - 1]
        self.pos = pos
        return open_tok, self.tokens[pos - 1]

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
        last_line = self.source_lines and len(self.source_lines) or 1
        functions = [fn for _, fn, _ in self.function_defs()]
        return TranslationUnit(1, last_line, functions=functions, path=path)

    def function_defs(self) -> Iterator[tuple[Token, FunctionDef, bool]]:
        """Each top-level definition with its first token, and whether its
        body ended at its own ``}``; other top-level items are skipped."""
        while not self.eof():
            first = self.pos
            eof_exits = self.eof_exits
            fn = self._try_function_def()
            if fn is None:
                self._skip_top_level_item()
            else:
                yield self.tokens[first], fn, self.eof_exits == eof_exits

    def _try_function_def(self) -> FunctionDef | None:
        """Parse a function definition starting at the cursor, or return None.

        A definition looks like ``<decl tokens> name ( params ) { body }``
        with no ``;`` between the ``)`` and the ``{``.
        """
        tokens = self.tokens
        texts = self.texts
        n = self.n
        start = self.pos
        # Scan forward for 'ident (' ... ') {' without hitting ';' or '}' at
        # depth 0 first.
        i = start
        while i < n:
            text = texts[i]
            if text == ";" or text == "}" or text == "=":
                return None
            if i + 1 < n and texts[i + 1] == "(" and tokens[i].kind is _IDENTIFIER:
                # Find matching ')' and check for '{'.
                depth = 0
                j = i + 1
                while j < n:
                    t = texts[j]
                    if t == "(":
                        depth += 1
                    elif t == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                if j < n:
                    k = j + 1
                    # Allow qualifiers between ')' and '{' (const, noexcept).
                    while k < n and tokens[k].kind is _KEYWORD:
                        k += 1
                    if k < n and texts[k] == "{":
                        return self._function_def(start, i, j, k)
                i = j
                continue
            i += 1
        self.eof_exits += 1
        return None

    def _function_def(
        self, start: int, name_idx: int, params_close: int, body_idx: int
    ) -> FunctionDef:
        """The definition whose name, ``)`` and ``{`` sit at these indices."""
        tokens = self.tokens
        ret_text = (
            self.text_between(tokens[start], tokens[name_idx - 1])
            if name_idx > start
            else ""
        )
        params_text = self.text_between(tokens[name_idx + 1], tokens[params_close])
        self.pos = body_idx
        body = self.parse_block()
        return FunctionDef(
            start_line=tokens[start].line,
            end_line=body.end_line,
            name=self.texts[name_idx],
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
                if depth:
                    self.eof_exits += 1
                # struct { ... } x; — keep consuming to the ';' if adjacent.
                elif self.at(";"):
                    self.next()
                return
        self.eof_exits += 1

    # ---- statements -----------------------------------------------------

    def parse_block(self) -> BlockStmt:
        # Every caller stands on the '{'.
        tokens = self.tokens
        texts = self.texts
        n = self.n
        open_tok = tokens[self.pos]
        self.pos += 1
        stmts: list[Stmt] = []
        parse_statement = self.parse_statement
        while self.pos < n and texts[self.pos] != "}":
            stmts.append(parse_statement())
        if self.pos < n:
            close_tok = tokens[self.pos]
            self.pos += 1
        else:
            close_tok = tokens[-1]
            self.eof_exits += 1
        return BlockStmt(open_tok.line, close_tok.line, stmts=stmts)

    def parse_statement(self) -> Stmt:
        pos = self.pos
        n = self.n
        # A statement cut off at EOF fails here with a bare AssertionError;
        # lint findings (and so the pinned classify output) carry it.
        assert pos < n
        tok = self.tokens[pos]
        text = tok.text
        if text == "{":
            return self.parse_block()
        kind = tok.kind
        if kind is _KEYWORD:
            return self._KEYWORD_STATEMENTS.get(text, _Parser._parse_simple)(self)
        if text == ";":
            self.pos = pos + 1
            return NullStmt(tok.line, tok.line)
        # Label: 'ident :' not followed by ':' (avoid '::').
        texts = self.texts
        if (
            kind is _IDENTIFIER
            and pos + 1 < n
            and texts[pos + 1] == ":"
            and (pos + 2 >= n or texts[pos + 2] != ":")
        ):
            pos += 2
            self.pos = pos
            if pos >= n or texts[pos] == "}":
                return LabelStmt(tok.line, tok.line, name=text, stmt=None)
            inner = self.parse_statement()
            return LabelStmt(tok.line, inner.end_line, name=text, stmt=inner)
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
        tokens = self.tokens
        texts = self.texts
        n = self.n
        pos = self.pos
        first = tokens[pos]
        pos += 1
        kind = first.kind
        if kind is _KEYWORD:
            is_decl = first.text in TYPE_KEYWORDS
        else:
            # 'Type name ...' or 'Type *name ...' heuristics.
            is_decl = kind is _IDENTIFIER and pos < n and (
                tokens[pos].kind is _IDENTIFIER
                or (texts[pos] == "*" and pos + 1 < n and tokens[pos + 1].kind is _IDENTIFIER)
            )
        depth = 0
        while pos < n:
            text = texts[pos]
            if depth == 0 and (text == ";" or text == "}"):
                break  # a '}' ends an unterminated statement at block end
            pos += 1
            if text in _OPEN:
                depth += 1
            elif text in _CLOSE and depth:
                depth -= 1
        last = tokens[pos - 1]
        self.pos = pos + 1 if pos < n and texts[pos] == ";" else pos
        text = self.text_between(first, last)
        if is_decl:
            return DeclStmt(first.line, last.line, text=text)
        return ExprStmt(first.line, last.line, text=text)

    #: Statement parsers by leading keyword; any other keyword (a dangling
    #: ``else`` included) starts a simple statement.
    _KEYWORD_STATEMENTS = {
        "if": _parse_if,
        "while": _parse_while,
        "do": _parse_do,
        "for": _parse_for,
        "switch": _parse_switch,
        "return": _parse_return,
        "goto": _parse_goto,
        "break": _parse_break,
        "continue": _parse_continue,
        "case": _parse_case,
        "default": _parse_case,
    }
