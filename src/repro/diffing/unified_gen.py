"""Assemble Myers edit scripts into unified-diff hunks.

Given two file versions, :func:`diff_texts` produces a
:class:`~repro.patch.model.FileDiff` with hunks grouped the way ``git diff``
groups them: change runs merged when their context windows overlap,
``context`` lines around each run, and a function-heading section extracted
from the nearest preceding function-like line (like git's builtin ``cpp``
``xfuncname``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..patch.model import FileDiff, Hunk, Line, LineKind, split_lines
from .myers import Edit, EditOp, windowed_script

__all__ = ["diff_texts", "diff_lines", "DEFAULT_CONTEXT"]

#: Number of context lines around each hunk, matching git's default.
DEFAULT_CONTEXT = 3

# Heuristic for C function headings, close to git's builtin cpp xfuncname:
# a line starting at column 0 with an identifier and containing '(' , or a
# struct/union/enum/class definition.
_FUNC_HEADING_RE = re.compile(r"^([A-Za-z_][\w\s\*]*\(.*|\s*(?:struct|union|enum|class)\s+\w+.*)$")


@dataclass(frozen=True, slots=True)
class _Group:
    """One hunk-to-be: its edits plus old/new cursor at group start."""

    edits: tuple[Edit, ...]
    old_pos: int  # old lines consumed before the group (0-based count)
    new_pos: int  # new lines consumed before the group


def diff_texts(
    old_text: str,
    new_text: str,
    old_path: str,
    new_path: str | None = None,
    context: int = DEFAULT_CONTEXT,
) -> FileDiff:
    """Diff two file versions into a :class:`FileDiff`.

    Args:
        old_text: pre-image contents ('' for a created file).
        new_text: post-image contents ('' for a deleted file).
        old_path: pre-image path.
        new_path: post-image path; defaults to *old_path*.
        context: context lines to include around each change run.
    """
    old_lines = split_lines(old_text)
    new_lines = split_lines(new_text)
    hunks = diff_lines(old_lines, new_lines, context=context)
    return FileDiff(
        old_path=old_path if old_text else "",
        new_path=(new_path if new_path is not None else old_path) if new_text else "",
        hunks=hunks,
    )


def diff_lines(
    old_lines: list[str], new_lines: list[str], context: int = DEFAULT_CONTEXT
) -> tuple[Hunk, ...]:
    """Diff two line lists into unified hunks (empty tuple if identical).

    Only the changed middle is searched, and only ``context`` records of
    the common prefix and suffix around it are built: no hunk reaches
    further into either.
    """
    script, skipped = windowed_script(old_lines, new_lines, context)
    if all(e.op is EditOp.EQUAL for e in script):
        return ()
    groups = _group_edits(script, context, skipped)
    return tuple(_build_hunk(g, old_lines, new_lines) for g in groups)


def _group_edits(script: list[Edit], context: int, skipped: int) -> list[_Group]:
    """Split the script into change groups with surrounding context.

    Two change runs separated by at most ``2 * context`` equal records are
    merged into the same hunk, as ``git diff`` does.  *skipped* is the
    number of leading EQUAL records left out of *script*; the old/new
    cursors start past them.
    """
    groups: list[_Group] = []
    current: list[Edit] = []
    start_old = start_new = 0
    equal_run: list[Edit] = []
    old_cursor = new_cursor = skipped

    def flush(trailing: list[Edit]) -> None:
        nonlocal current
        current.extend(trailing)
        groups.append(_Group(tuple(current), start_old, start_new))
        current = []

    for edit in script:
        if edit.op is EditOp.EQUAL:
            equal_run.append(edit)
            old_cursor += 1
            new_cursor += 1
            continue
        if current:
            if len(equal_run) <= 2 * context:
                current.extend(equal_run)
            else:
                flush(equal_run[:context])
        if not current:
            lead = equal_run[-context:] if context else []
            start_old = lead[0].old_index if lead else (edit.old_index if edit.op is EditOp.DELETE else old_cursor)
            start_new = lead[0].new_index if lead else (edit.new_index if edit.op is EditOp.INSERT else new_cursor)
            current = list(lead)
        equal_run = []
        current.append(edit)
        if edit.op is EditOp.DELETE:
            old_cursor += 1
        else:
            new_cursor += 1
    if current:
        flush(equal_run[:context])
    return groups


def _build_hunk(group: _Group, old_lines: list[str], new_lines: list[str]) -> Hunk:
    """Convert one change group into a validated Hunk."""
    body: list[Line] = []
    old_count = new_count = 0
    for edit in group.edits:
        if edit.op is EditOp.EQUAL:
            body.append(Line(LineKind.CONTEXT, old_lines[edit.old_index]))
            old_count += 1
            new_count += 1
        elif edit.op is EditOp.DELETE:
            body.append(Line(LineKind.REMOVED, old_lines[edit.old_index]))
            old_count += 1
        else:
            body.append(Line(LineKind.ADDED, new_lines[edit.new_index]))
            new_count += 1
    # Git convention: a zero-count side starts at the line *before* the hunk.
    old_start = group.old_pos + 1 if old_count else group.old_pos
    new_start = group.new_pos + 1 if new_count else group.new_pos
    section = _find_section(old_lines, group.old_pos)
    hunk = Hunk(old_start, old_count, new_start, new_count, tuple(body), section)
    hunk.validate()
    return hunk


def _find_section(old_lines: list[str], before_index: int) -> str:
    """Nearest function-like heading strictly above *before_index* (0-based)."""
    for i in range(min(before_index, len(old_lines)) - 1, -1, -1):
        line = old_lines[i]
        if line and not line[0].isspace() and _FUNC_HEADING_RE.match(line):
            return line.strip()[:60]
    return ""
