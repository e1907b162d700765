"""Locating patch-related ``if`` statements (§III-C-2).

The paper extracts ``IfStmt <line:N, line:N>`` spans from LLVM ASTs of the
BEFORE/AFTER file versions and keeps the ones "involved with code changes".
Our parser provides the same spans; a statement is *involved* when its
header-to-end span intersects the patch's touched lines in that version, and
— as a fallback that raises synthetic yield the way the paper's tool does —
when it shares a function with a touched line.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LexError, ParseError
from ..lang.ast_nodes import IfStmt, walk
from ..lang.parser import parse_translation_unit
from ..patch.model import FileDiff

__all__ = ["LocatedIf", "locate_ifs", "touched_lines"]


@dataclass(frozen=True, slots=True)
class LocatedIf:
    """An ``if`` statement eligible for variant transformation.

    Attributes:
        stmt: the parsed statement (carries condition coordinates).
        direct: True when the statement's span intersects changed lines,
            False when matched through the enclosing-function fallback.
    """

    stmt: IfStmt
    direct: bool


def touched_lines(diff: FileDiff, side: str) -> set[int]:
    """1-based line numbers the patch touches on one side.

    Args:
        diff: the file diff.
        side: ``"before"`` (removed lines in the old file) or ``"after"``
            (added lines in the new file).
    """
    out: set[int] = set()
    for hunk in diff.hunks:
        out.update(hunk.old_lines_touched() if side == "before" else hunk.new_lines_touched())
    return out


def locate_ifs(source: str, lines: set[int], allow_function_fallback: bool = True) -> list[LocatedIf]:
    """Find ``if`` statements related to the given touched lines.

    Returns direct intersections first, then (optionally) same-function
    fallbacks, each in source order.  Source the C parser rejects has no
    sites; any other exception is a bug and propagates.
    """
    if not lines:
        return []
    try:
        unit = parse_translation_unit(source)
    except (LexError, ParseError):
        return []
    direct: list[LocatedIf] = []
    fallback: list[LocatedIf] = []
    for fn in unit.functions:
        fn_touched = any(fn.span_contains(line) for line in lines)
        for node in walk(fn):
            if not isinstance(node, IfStmt):
                continue
            if any(node.start_line <= line <= node.end_line for line in lines):
                direct.append(LocatedIf(node, direct=True))
            elif allow_function_fallback and fn_touched:
                fallback.append(LocatedIf(node, direct=False))
    ordered = sorted(direct, key=lambda l: l.stmt.start_line)
    ordered.extend(sorted(fallback, key=lambda l: l.stmt.start_line))
    return ordered
