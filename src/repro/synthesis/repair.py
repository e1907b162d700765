"""Inverting the Fig. 5 variants: the patcher half of the autofix loop.

:mod:`repro.synthesis.variants` scaffolds an ``if`` statement — constant
guards, hoisted conditions, flag variables set by a preceding ``if`` — and
:mod:`repro.staticcheck.equivalence` already knows how to read that
scaffolding *backwards* when comparing control-flow skeletons.  This module
turns that read-only inversion into a source rewrite: ``find_repair_sites``
locates every ``if`` whose condition matches one of the eight template
shapes, and ``repair_site`` rewrites the text — restoring the original
condition and deleting the scaffold declarations and flag-toggle ``if``s
that fed it.

The rewrite is deliberately conservative: a ``_SYS_`` identifier that does
not resolve through a known template shape is left untouched, so a
half-recognized site can never produce a mangled repair — it simply is not
a site.  ``repair_all`` applies sites one at a time, re-parsing between
rewrites, because each repair deletes lines and shifts every coordinate
below it.

Imports from :mod:`repro.staticcheck` are function-level: the staticcheck
package pulls in the validation gate, which imports the synthesis engine,
and a module-level import here would close that cycle during package init.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SynthesisError
from ..patch.model import split_lines

__all__ = ["RepairSite", "find_repair_sites", "repair_site", "repair_all"]

#: Upper bound on repair_all rounds; generated corpora stay far below it.
MAX_REPAIR_ROUNDS = 256


@dataclass(frozen=True, slots=True)
class RepairSite:
    """One scaffolded ``if`` and everything needed to unscaffold it.

    Attributes:
        function: enclosing function name.
        if_line: 1-based line of the ``if`` keyword.
        cond_open: (line, col) of the condition's opening parenthesis.
        cond_close: (line, col) of its closing parenthesis.
        restored_cond: the original condition (token-normalized) that the
            template shape resolves back to.
        names: the ``_SYS_`` identifiers the shape consumed.
        decl_lines: 1-based lines of the scaffold declarations to delete.
        toggle_spans: (start, end) line spans of flag-toggle ``if``s to
            delete (empty for variants 1-4).
    """

    function: str
    if_line: int
    cond_open: tuple[int, int]
    cond_close: tuple[int, int]
    restored_cond: str
    names: tuple[str, ...]
    decl_lines: tuple[int, ...] = ()
    toggle_spans: tuple[tuple[int, int], ...] = field(default=())


def find_repair_sites(source: str, path: str = "<memory>") -> list[RepairSite]:
    """Every repairable scaffolded ``if`` in *source*, in line order.

    Walks each function body the same way the descaffolded-signature pass
    does — building the scaffold environment from declarations and
    flag-toggle ``if``s — and records a site wherever resolving an ``if``
    condition through that environment changes it.

    Raises:
        ParseError: via the parser, when *source* cannot be parsed.
    """
    from ..lang.ast_nodes import (
        BlockStmt,
        DeclStmt,
        DoWhileStmt,
        ForStmt,
        IfStmt,
        LabelStmt,
        SwitchStmt,
        WhileStmt,
    )
    from ..lang.lexer import code_tokens
    from ..lang.parser import parse_translation_unit
    from ..staticcheck.equivalence import (
        _flag_toggle,
        _norm_cond,
        _resolve_cond,
        _scan_scaffold_decl,
    )

    unit = parse_translation_unit(source, path)
    sites: list[RepairSite] = []

    def visit(stmt, env: dict, meta: dict, fn_name: str) -> None:
        if isinstance(stmt, BlockStmt):
            visit_block(stmt.stmts, env, meta, fn_name)
            return
        if isinstance(stmt, IfStmt):
            resolved = _resolve_cond(stmt.cond.text, env)
            if resolved != _norm_cond(stmt.cond.text):
                # Delete scaffolding only for identifiers the resolution
                # consumed: with stacked variants the restored condition can
                # itself be a scaffold reference (e.g. v2 wrapped around
                # v5 resolves to the inner flag), and that flag's decl and
                # toggle must survive for the next repair round.
                kept = {t.text for t in code_tokens(resolved)}
                names = tuple(
                    t.text
                    for t in code_tokens(stmt.cond.text)
                    if t.text in env and t.text in meta and t.text not in kept
                )
                decl_lines = []
                toggle_spans = []
                for name in names:
                    decl_line, toggle_span = meta[name]
                    decl_lines.append(decl_line)
                    if toggle_span is not None:
                        toggle_spans.append(toggle_span)
                sites.append(
                    RepairSite(
                        function=fn_name,
                        if_line=stmt.start_line,
                        cond_open=(stmt.cond_open_line, stmt.cond_open_col),
                        cond_close=(stmt.cond_close_line, stmt.cond_close_col),
                        restored_cond=resolved,
                        names=names,
                        decl_lines=tuple(sorted(set(decl_lines))),
                        toggle_spans=tuple(sorted(set(toggle_spans))),
                    )
                )
            visit(stmt.then, env, meta, fn_name)
            if stmt.orelse is not None:
                visit(stmt.orelse, env, meta, fn_name)
            return
        if isinstance(stmt, (WhileStmt, DoWhileStmt, ForStmt, SwitchStmt)):
            visit(stmt.body, env, meta, fn_name)
            return
        if isinstance(stmt, LabelStmt) and stmt.stmt is not None:
            visit(stmt.stmt, env, meta, fn_name)

    def visit_block(stmts, env: dict, meta: dict, fn_name: str) -> None:
        for stmt in stmts:
            if isinstance(stmt, DeclStmt):
                found = _scan_scaffold_decl(stmt.text)
                if found is not None:
                    name, scaffold = found
                    env[name] = scaffold
                    meta[name] = (stmt.start_line, None)
                    continue
            if isinstance(stmt, IfStmt):
                toggle = _flag_toggle(stmt)
                if toggle is not None:
                    name, value, cond = toggle
                    init = env.get(name)
                    if init is not None and init.kind in ("flag_init0", "flag_init1"):
                        kind = "flag_set" if value == "1" else "flag_clear"
                        env[name] = type(init)(kind, cond)
                        decl_line = meta[name][0] if name in meta else stmt.start_line
                        meta[name] = (decl_line, (stmt.start_line, stmt.end_line))
                        continue
            visit(stmt, env, meta, fn_name)

    for fn in unit.functions:
        visit_block(fn.body.stmts, {}, {}, fn.name)
    sites.sort(key=lambda s: s.if_line)
    return sites


def repair_site(source: str, site: RepairSite) -> str:
    """Rewrite *source* so *site*'s ``if`` tests its original condition.

    The condition span is collapsed onto the opening line and replaced by
    ``site.restored_cond``; the scaffold declaration lines and flag-toggle
    spans are deleted.

    Raises:
        SynthesisError: when the site's coordinates do not align with the
            text (stale site after an earlier edit).
    """
    lines = split_lines(source)
    open_line, open_col = site.cond_open
    close_line, close_col = site.cond_close
    if not (1 <= open_line <= len(lines) and 1 <= close_line <= len(lines)):
        raise SynthesisError("repair site outside the file")
    if (
        lines[open_line - 1][open_col - 1 : open_col] != "("
        or lines[close_line - 1][close_col - 1 : close_col] != ")"
    ):
        raise SynthesisError("repair site does not align with parentheses")

    head = lines[open_line - 1][:open_col]  # up to and including '('
    tail = lines[close_line - 1][close_col - 1 :]  # from ')' on
    new_if = f"{head}{site.restored_cond}{tail}"

    drop: set[int] = set(site.decl_lines)
    for start, end in site.toggle_spans:
        drop.update(range(start, end + 1))
    drop.update(range(open_line + 1, close_line + 1))  # collapsed cond span

    out: list[str] = []
    for lineno, text in enumerate(lines, start=1):
        if lineno == open_line:
            out.append(new_if)
        elif lineno not in drop:
            out.append(text)
    return "\n".join(out) + ("\n" if source.endswith("\n") else "")


def repair_all(source: str, path: str = "<memory>") -> tuple[str, int]:
    """Repair every recognizable scaffolded ``if`` in *source*.

    Applies the first site in line order, re-parses, and repeats — each
    repair deletes lines, so later sites' coordinates are only valid after
    a fresh :func:`find_repair_sites` pass.  Repairing a stacked site can
    expose a new one (the outer template resolves to the inner flag), so
    the loop runs until the site list is empty rather than until it
    shrinks, bounded by :data:`MAX_REPAIR_ROUNDS`.

    Returns:
        (repaired text, number of sites repaired).

    Raises:
        SynthesisError: when a repair leaves the text unchanged (it would
            loop forever) or the round cap is exceeded.
    """
    repaired = 0
    for _ in range(MAX_REPAIR_ROUNDS):
        sites = find_repair_sites(source, path)
        if not sites:
            return source, repaired
        rewritten = repair_site(source, sites[0])
        if rewritten == source:
            raise SynthesisError(
                f"repair did not converge at {path}:{sites[0].if_line}"
            )
        source = rewritten
        repaired += 1
    raise SynthesisError(f"more than {MAX_REPAIR_ROUNDS} repair rounds at {path}")
