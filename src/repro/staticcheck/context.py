"""The per-file analysis context shared by every checker.

One :class:`CheckContext` is built per file: the source is lexed once and
parsed once, and derived views (conditions, per-function token slices,
opaque-region metrics) are computed lazily and memoized.  Checkers consume
the context read-only, so a single pass over a file runs the whole suite
without re-lexing.

The parser is robust rather than complete: top-level constructs it does not
model are skipped as *opaque regions*.  The context exposes those regions
both as metrics (``code_lines``/``opaque_lines``) and through
``tokens`` — token-level checkers therefore still cover code the AST does
not, which is the "token-level fallback" half of the framework.
"""

from __future__ import annotations

from ..lang.ast_nodes import (
    DoWhileStmt,
    FunctionDef,
    IfStmt,
    Node,
    SwitchStmt,
    WhileStmt,
    walk,
)
from ..lang.lexer import code_tokens
from ..lang.parser import parse_translation_unit
from ..lang.tokens import Token
from .dataflow import FunctionFlow

__all__ = ["CondSite", "CheckContext"]


class CondSite:
    """One condition expression and where it came from.

    Attributes:
        kind: ``"if"``, ``"while"``, ``"do-while"``, ``"switch"``, or
            ``"for"`` (the middle clause of a ``for`` header).
        text: the condition's source text.
        line: 1-based line of the owning statement.
        function: enclosing function name.
    """

    __slots__ = ("kind", "text", "line", "function")

    def __init__(self, kind: str, text: str, line: int, function: str) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.function = function


class CheckContext:
    """Lazily computed per-file analysis state.

    Args:
        path: file path (used in findings and for suffix-based decisions).
        source: full file text.
        is_fragment: the source is a patch fragment, not a complete file;
            coverage metrics are advisory only and parse failures are not
            gate-class.
    """

    def __init__(self, path: str, source: str, is_fragment: bool = False) -> None:
        self.path = path
        self.source = source
        self.is_fragment = is_fragment
        self._tokens: list[Token] | None = None
        self._unit = None
        self._parse_attempted = False
        self.parse_error: str | None = None
        self._cond_sites: list[CondSite] | None = None
        self._coverage: tuple[int, int] | None = None
        self._fn_tokens: dict[int, list[Token]] | None = None
        self._flows: dict[int, FunctionFlow | None] | None = None

    # ---- lexing / parsing ---------------------------------------------

    @property
    def tokens(self) -> list[Token]:
        """Code tokens of the whole file (comments/preprocessor stripped)."""
        if self._tokens is None:
            self._tokens = code_tokens(self.source)
        return self._tokens

    @property
    def unit(self):
        """The parsed :class:`TranslationUnit`, or None on parse failure."""
        if not self._parse_attempted:
            self._parse_attempted = True
            try:
                self._unit = parse_translation_unit(self.source, self.path)
            except Exception as exc:  # robust mode: record, don't raise
                self.parse_error = f"{type(exc).__name__}: {exc}"
                self._unit = None
        return self._unit

    @property
    def functions(self) -> list[FunctionDef]:
        """Parsed function definitions (empty on parse failure)."""
        unit = self.unit
        return list(unit.functions) if unit is not None else []

    def function_at(self, line: int) -> str:
        """Name of the function whose span contains *line* ('' if none)."""
        for fn in self.functions:
            if fn.span_contains(line):
                return fn.name
        return ""

    def function_tokens(self, fn: FunctionDef) -> list[Token]:
        """The file's code tokens restricted to one function's line span."""
        if self._fn_tokens is None:
            self._fn_tokens = {}
        cached = self._fn_tokens.get(id(fn))
        if cached is None:
            cached = [t for t in self.tokens if fn.start_line <= t.line <= fn.end_line]
            self._fn_tokens[id(fn)] = cached
        return cached

    def flow(self, fn: FunctionDef) -> FunctionFlow | None:
        """Memoized dataflow facts for one parsed function.

        Returns None when CFG construction or an analysis fails on the
        function — checkers fall back to their heuristic answer rather
        than crashing, mirroring the robust-parse philosophy.
        """
        if self._flows is None:
            self._flows = {}
        key = id(fn)
        if key not in self._flows:
            try:
                self._flows[key] = FunctionFlow(fn)
            except Exception:  # robust mode: facts unavailable, not fatal
                self._flows[key] = None
        return self._flows[key]

    # ---- conditions ---------------------------------------------------

    def condition_sites(self) -> list[CondSite]:
        """Every condition expression in the file, in source order.

        Covers ``if``/``while``/``do-while``/``switch`` conditions plus the
        middle clause of well-formed ``for`` headers.
        """
        if self._cond_sites is not None:
            return self._cond_sites
        sites: list[CondSite] = []
        for fn in self.functions:
            for node in walk(fn):
                site = self._site_of(node, fn.name)
                if site is not None:
                    sites.append(site)
        sites.sort(key=lambda s: s.line)
        self._cond_sites = sites
        return sites

    @staticmethod
    def _site_of(node: Node, fn_name: str) -> CondSite | None:
        if isinstance(node, IfStmt):
            return CondSite("if", node.cond.text, node.start_line, fn_name)
        if isinstance(node, WhileStmt):
            return CondSite("while", node.cond.text, node.start_line, fn_name)
        if isinstance(node, DoWhileStmt):
            return CondSite("do-while", node.cond.text, node.start_line, fn_name)
        if isinstance(node, SwitchStmt):
            return CondSite("switch", node.cond.text, node.start_line, fn_name)
        from ..lang.ast_nodes import ForStmt

        if isinstance(node, ForStmt):
            clauses = node.clauses.split(";")
            if len(clauses) == 3:  # only well-formed headers have a test clause
                return CondSite("for", clauses[1].strip(), node.start_line, fn_name)
        return None

    # ---- parse coverage -----------------------------------------------

    def coverage(self) -> tuple[int, int]:
        """(code_lines, opaque_lines) for the file.

        A *code line* carries at least one code token; it is *opaque* when
        it lies outside every parsed function span — i.e. the recursive
        descent skipped it as a top-level construct it does not model.
        """
        if self._coverage is not None:
            return self._coverage
        code_line_numbers = {t.line for t in self.tokens}
        spans = [(fn.start_line, fn.end_line) for fn in self.functions]
        opaque = sum(
            1
            for line in code_line_numbers
            if not any(lo <= line <= hi for lo, hi in spans)
        )
        self._coverage = (len(code_line_numbers), opaque)
        return self._coverage
