"""Unified-diff parsing and rendering.

Parses the diff body format produced by ``git diff`` / ``git show``::

    diff --git a/src/bits.c b/src/bits.c
    index 014b04fe4..a3692bdc6 100644
    --- a/src/bits.c
    +++ b/src/bits.c
    @@ -953,7 +953,7 @@ bit_write_UMC (Bit_Chain *dat, ...
         context
    -    removed
    +    added

and renders the same format back out.  Round-tripping is loss-free for the
fields the data model captures.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from ..errors import PatchFormatError
from .model import FileDiff, Hunk, Line, LineKind, split_lines

__all__ = [
    "parse_file_diffs",
    "parse_hunk_header",
    "render_file_diff",
    "render_file_diffs",
]

_DIFF_GIT_RE = re.compile(r'^diff --git (?:"?a/(?P<old>.*?)"?) (?:"?b/(?P<new>.*?)"?)$')
_INDEX_RE = re.compile(r"^index (?P<old>[0-9a-f]+)\.\.(?P<new>[0-9a-f]+)(?: (?P<mode>\d+))?$")
_HUNK_RE = re.compile(
    r"^@@ -(?P<ostart>\d+)(?:,(?P<ocount>\d+))? \+(?P<nstart>\d+)(?:,(?P<ncount>\d+))? @@(?: (?P<section>.*))?$"
)
_DEV_NULL = "/dev/null"


def parse_hunk_header(line: str, line_no: int | None = None) -> tuple[int, int, int, int, str]:
    """Parse an ``@@ -a,b +c,d @@ section`` header.

    Args:
        line: the header line.
        line_no: its line number, reported by the error if it is malformed.

    Returns:
        ``(old_start, old_count, new_start, new_count, section)``.

    Raises:
        PatchFormatError: if *line* is not a hunk header.
    """
    m = _HUNK_RE.match(line)
    if not m:
        raise PatchFormatError(f"malformed hunk header: {line!r}", line_no)
    return (
        int(m.group("ostart")),
        int(m.group("ocount") or "1"),
        int(m.group("nstart")),
        int(m.group("ncount") or "1"),
        m.group("section") or "",
    )


def _strip_prefix(path: str) -> str:
    """Drop the ``a/`` / ``b/`` prefix from a diff path; map /dev/null to ''."""
    if path == _DEV_NULL:
        return ""
    if path.startswith(("a/", "b/")):
        return path[2:]
    return path


class _LineReader:
    """Peekable line cursor with 1-based position for error messages."""

    def __init__(self, lines: list[str], first_line: int) -> None:
        self._lines = lines
        self._first_line = first_line
        self.pos = 0

    def peek(self) -> str | None:
        if self.pos >= len(self._lines):
            return None
        return self._lines[self.pos]

    def next(self) -> str:
        line = self._lines[self.pos]
        self.pos += 1
        return line

    @property
    def line_no(self) -> int:
        return self.pos + self._first_line


def parse_file_diffs(text: str, first_line: int = 1) -> tuple[FileDiff, ...]:
    """Parse a diff body (one or more ``diff --git`` sections) into file diffs.

    Tolerates extended headers (``new file mode``, ``deleted file mode``,
    ``old mode``/``new mode``, ``similarity index``, rename lines) and binary
    placeholders (``Binary files ... differ``), which produce a hunk-less
    :class:`FileDiff`.

    Args:
        text: the diff body.
        first_line: the line number of *text*'s first line in the document
            it came from, so error line numbers point into that document.

    Raises:
        PatchFormatError: on structurally invalid input.
    """
    reader = _LineReader(split_lines(text), first_line)
    diffs: list[FileDiff] = []
    while True:
        line = reader.peek()
        if line is None:
            break
        if line.startswith("diff --git "):
            diffs.append(_parse_one_file(reader))
        else:
            # Skip prologue noise (commit messages embedded in raw text, etc.).
            reader.next()
    return tuple(diffs)


def _parse_one_file(reader: _LineReader) -> FileDiff:
    """Parse one ``diff --git`` section positioned at its first line."""
    header = reader.next()
    m = _DIFF_GIT_RE.match(header)
    if not m:
        raise PatchFormatError(f"malformed diff header: {header!r}", reader.line_no - 1)
    old_path = m.group("old")
    new_path = m.group("new")
    old_blob = new_blob = ""
    mode = "100644"
    new_file = deleted_file = False

    # Extended header lines until ---/+++ or the next diff/EOF.
    while True:
        line = reader.peek()
        if line is None or line.startswith(("diff --git ", "--- ", "@@ ")):
            break
        reader.next()
        if line.startswith("index "):
            im = _INDEX_RE.match(line)
            if im:
                old_blob, new_blob = im.group("old"), im.group("new")
                if im.group("mode"):
                    mode = im.group("mode")
        elif line.startswith("new file mode "):
            new_file = True
            mode = line.rsplit(" ", 1)[1]
        elif line.startswith("deleted file mode "):
            deleted_file = True
            mode = line.rsplit(" ", 1)[1]
        elif line.startswith("Binary files "):
            return FileDiff(
                old_path="" if new_file else old_path,
                new_path="" if deleted_file else new_path,
                hunks=(),
                old_blob=old_blob,
                new_blob=new_blob,
                mode=mode,
            )

    # ---/+++ lines (absent for pure mode changes / renames without hunks).
    if reader.peek() is not None and reader.peek().startswith("--- "):
        old_path = _strip_prefix(reader.next()[4:].strip())
        plus = reader.peek()
        if plus is None or not plus.startswith("+++ "):
            raise PatchFormatError("expected '+++' after '---'", reader.line_no)
        new_path = _strip_prefix(reader.next()[4:].strip())
    else:
        old_path = "" if new_file else old_path
        new_path = "" if deleted_file else new_path

    hunks: list[Hunk] = []
    while True:
        line = reader.peek()
        if line is None or not line.startswith("@@ "):
            break
        hunks.append(_parse_hunk(reader))
    return FileDiff(
        old_path=old_path,
        new_path=new_path,
        hunks=tuple(hunks),
        old_blob=old_blob,
        new_blob=new_blob,
        mode=mode,
    )


def _parse_hunk(reader: _LineReader) -> Hunk:
    """Parse one hunk positioned at its ``@@`` header."""
    header_line_no = reader.line_no
    ostart, ocount, nstart, ncount, section = parse_hunk_header(reader.next(), header_line_no)
    lines: list[Line] = []
    old_seen = new_seen = 0
    while old_seen < ocount or new_seen < ncount:
        raw = reader.peek()
        if raw is None:
            raise PatchFormatError("unexpected EOF inside hunk", reader.line_no)
        if raw.startswith("\\"):  # "\ No newline at end of file"
            reader.next()
            continue
        marker, text = (raw[0], raw[1:]) if raw else (" ", "")
        if marker == "+":
            kind, old_step, new_step = LineKind.ADDED, 0, 1
        elif marker == "-":
            kind, old_step, new_step = LineKind.REMOVED, 1, 0
        elif marker == " " or raw == "":
            kind, old_step, new_step = LineKind.CONTEXT, 1, 1
        else:
            raise PatchFormatError(f"unexpected line inside hunk: {raw!r}", reader.line_no)
        old_seen += old_step
        new_seen += new_step
        if old_seen > ocount or new_seen > ncount:
            raise PatchFormatError(
                f"hunk body overruns its header counts ({ocount},{ncount}): {raw!r}",
                reader.line_no,
            )
        lines.append(Line(kind, text))
        reader.next()
    # Trailing "\ No newline" marker after the final body line.
    tail = reader.peek()
    if tail is not None and tail.startswith("\\"):
        reader.next()
    # The loop stops on exactly the declared counts, so the hunk validates.
    return Hunk(ostart, ocount, nstart, ncount, tuple(lines), section)


def render_file_diff(diff: FileDiff) -> str:
    """Render one file diff back to unified-diff text."""
    out: list[str] = []
    a = f"a/{diff.old_path}" if diff.old_path else f"a/{diff.new_path}"
    b = f"b/{diff.new_path}" if diff.new_path else f"b/{diff.old_path}"
    out.append(f"diff --git {a} {b}")
    if diff.is_new_file:
        out.append(f"new file mode {diff.mode}")
    elif diff.is_deleted_file:
        out.append(f"deleted file mode {diff.mode}")
    if diff.old_blob or diff.new_blob:
        suffix = f" {diff.mode}" if not diff.is_new_file and not diff.is_deleted_file else ""
        out.append(f"index {diff.old_blob or '0' * 9}..{diff.new_blob or '0' * 9}{suffix}")
    out.append(f"--- {a if diff.old_path else _DEV_NULL}")
    out.append(f"+++ {b if diff.new_path else _DEV_NULL}")
    for hunk in diff.hunks:
        out.append(hunk.header())
        out.extend(ln.render() for ln in hunk.lines)
    return "\n".join(out)


def render_file_diffs(diffs: Iterable[FileDiff]) -> str:
    """Render several file diffs, newline separated."""
    return "\n".join(render_file_diff(d) for d in diffs)
