"""Applying and reverse-applying patches to file contents.

The oversampler (§III-C-1) needs the BEFORE and AFTER versions of every
patch-related file; given one version and the patch we can reconstruct the
other.  Application is strict: context and removed lines must match the
pre-image exactly, otherwise :class:`~repro.errors.PatchApplyError` is raised
(there is no fuzz, by design — our substrate controls both sides).
"""

from __future__ import annotations

from ..errors import PatchApplyError
from .model import FileDiff, Hunk, Line, LineKind, split_lines

__all__ = ["apply_file_diff", "reverse_file_diff", "invert_file_diff", "invert_hunk"]


def apply_file_diff(old_text: str, diff: FileDiff) -> str:
    """Apply *diff* to *old_text*, returning the new file contents.

    Args:
        old_text: the pre-image file contents.
        diff: hunks to apply.

    Raises:
        PatchApplyError: if any hunk's context/removed lines do not match.
    """
    old_lines = split_lines(old_text)
    out: list[str] = []
    cursor = 0  # 0-based index into old_lines
    for hunk in diff.hunks:
        start = hunk.old_start - 1
        if hunk.old_count == 0:
            # Pure insertion: old_start is the line *after* which to insert.
            start = hunk.old_start
        if start < cursor or start > len(old_lines):
            raise PatchApplyError(
                f"hunk at old line {hunk.old_start} overlaps previous hunk or file end"
            )
        out.extend(old_lines[cursor:start])
        cursor = start
        for ln in hunk.lines:
            if ln.kind is LineKind.ADDED:
                out.append(ln.text)
                continue
            if cursor >= len(old_lines):
                raise PatchApplyError(f"hunk at old line {hunk.old_start} runs past EOF")
            if old_lines[cursor] != ln.text:
                raise PatchApplyError(
                    f"mismatch at old line {cursor + 1}: expected {ln.text!r}, "
                    f"found {old_lines[cursor]!r}"
                )
            if ln.kind is LineKind.CONTEXT:
                out.append(ln.text)
            cursor += 1
    out.extend(old_lines[cursor:])
    text = "\n".join(out)
    if out:
        text += "\n"
    return text


def reverse_file_diff(new_text: str, diff: FileDiff) -> str:
    """Reverse-apply *diff* to *new_text*, recovering the old file contents."""
    return apply_file_diff(new_text, invert_file_diff(diff))


def invert_hunk(hunk: Hunk) -> Hunk:
    """Swap the roles of added and removed lines in a hunk."""
    flipped = tuple(
        Line(
            LineKind.ADDED
            if ln.kind is LineKind.REMOVED
            else LineKind.REMOVED
            if ln.kind is LineKind.ADDED
            else LineKind.CONTEXT,
            ln.text,
        )
        for ln in hunk.lines
    )
    return Hunk(
        old_start=hunk.new_start,
        old_count=hunk.new_count,
        new_start=hunk.old_start,
        new_count=hunk.old_count,
        lines=flipped,
        section=hunk.section,
    )


def invert_file_diff(diff: FileDiff) -> FileDiff:
    """Produce the inverse file diff (new -> old)."""
    return FileDiff(
        old_path=diff.new_path,
        new_path=diff.old_path,
        hunks=tuple(invert_hunk(h) for h in diff.hunks),
        old_blob=diff.new_blob,
        new_blob=diff.old_blob,
        mode=diff.mode,
    )
