"""Parsing and rendering of git ``.patch`` commit format.

The NVD crawler (§III-A) downloads commits by appending ``.patch`` to GitHub
commit URLs, which yields the mbox-style format of ``git format-patch``::

    From b84c2cab55948a5ee70860779b2640913e3ee1ed Mon Sep 17 00:00:00 2001
    From: Jane Dev <jane@example.org>
    Date: Tue, 5 Nov 2019 10:00:00 -0500
    Subject: [PATCH] bits: prevent stack underflow in bit_write_UMC

    body text...
    ---
     src/bits.c | 2 +-
     1 file changed, 1 insertion(+), 1 deletion(-)

    diff --git a/src/bits.c b/src/bits.c
    ...

We also accept the ``git show`` / ``git log -p`` style (``commit <sha>``
header) used in the paper's listings.
"""

from __future__ import annotations

import re

from ..errors import PatchFormatError
from .model import FileDiff, Patch, split_lines
from .unified import parse_file_diffs, render_file_diffs

__all__ = ["parse_patch", "render_patch", "render_mbox_patch", "diffstat"]

_FROM_RE = re.compile(r"^From (?P<sha>[0-9a-f]{40}) ")
_COMMIT_RE = re.compile(r"^commit (?P<sha>[0-9a-f]{40})\b")
_SUBJECT_PREFIX_RE = re.compile(r"^\[PATCH[^\]]*\]\s*")


def parse_patch(text: str, repo: str = "") -> Patch:
    """Parse a ``.patch`` / ``git show`` text into a :class:`Patch`.

    Args:
        text: raw patch text in either mbox (``git format-patch``) or
            log (``git show``) style.
        repo: optional ``owner/repo`` slug to record on the patch.

    Raises:
        PatchFormatError: if no commit header can be found.
    """
    lines = split_lines(text)
    if not lines:
        raise PatchFormatError("empty patch text")

    head = lines[0]
    mbox = _FROM_RE.match(head)
    logstyle = _COMMIT_RE.match(head)
    if mbox:
        sha = mbox.group("sha")
        author, date, message, body_start = _parse_mbox_headers(lines)
    elif logstyle:
        sha = logstyle.group("sha")
        author, date, message, body_start = _parse_log_headers(lines)
    else:
        raise PatchFormatError(f"unrecognized patch header: {head!r}")

    diff_text = "\n".join(lines[body_start:])
    files = parse_file_diffs(diff_text, first_line=body_start + 1)
    return Patch(sha=sha, message=message, files=files, author=author, date=date, repo=repo)


def _parse_mbox_headers(lines: list[str]) -> tuple[str, str, str, int]:
    """Parse ``git format-patch`` headers; return (author, date, message, diff_start)."""
    author = date = ""
    subject_parts: list[str] = []
    i = 1
    while i < len(lines) and lines[i]:
        line = lines[i]
        if line.startswith("From: "):
            author = line[len("From: ") :].strip()
        elif line.startswith("Date: "):
            date = line[len("Date: ") :].strip()
        elif line.startswith("Subject: "):
            subject_parts.append(line[len("Subject: ") :])
            # RFC 2822 folded continuation lines start with whitespace.
            while i + 1 < len(lines) and lines[i + 1].startswith((" ", "\t")):
                i += 1
                subject_parts.append(lines[i].strip())
        i += 1
    subject = _SUBJECT_PREFIX_RE.sub("", " ".join(subject_parts).strip())

    # Body runs until the "---" separator before the diffstat, or "diff --git".
    body: list[str] = []
    i += 1  # skip blank line after headers
    while i < len(lines):
        line = lines[i]
        if line == "---" or line.startswith("diff --git "):
            break
        body.append(line)
        i += 1
    message = subject
    body_text = "\n".join(body).strip()
    if body_text:
        message = f"{subject}\n\n{body_text}"
    # Advance to the first diff section (diffstat lines are skipped by the
    # unified parser anyway, but we keep body_start meaningful).
    while i < len(lines) and not lines[i].startswith("diff --git "):
        i += 1
    return author, date, message, i


def _parse_log_headers(lines: list[str]) -> tuple[str, str, str, int]:
    """Parse ``git show``-style headers; return (author, date, message, diff_start)."""
    author = date = ""
    i = 1
    while i < len(lines) and lines[i]:
        line = lines[i]
        if line.startswith("Author:"):
            author = line[len("Author:") :].strip()
        elif line.startswith("Date:"):
            date = line[len("Date:") :].strip()
        i += 1
    i += 1  # blank line
    body: list[str] = []
    while i < len(lines) and not lines[i].startswith("diff --git "):
        # git show indents the message by four spaces.
        body.append(lines[i][4:] if lines[i].startswith("    ") else lines[i])
        i += 1
    message = "\n".join(body).strip()
    return author, date, message, i


def diffstat(files: tuple[FileDiff, ...]) -> str:
    """Render a minimal ``git format-patch`` diffstat block."""
    out: list[str] = []
    total_add = total_del = 0
    width = max((len(f.path) for f in files), default=0)
    for f in files:
        add, rem = f.added_line_count(), f.removed_line_count()
        total_add += add
        total_del += rem
        bar = "+" * min(add, 30) + "-" * min(rem, 30)
        out.append(f" {f.path.ljust(width)} | {add + rem:>4} {bar}")
    changed = len(files)
    out.append(
        f" {changed} file{'s' if changed != 1 else ''} changed,"
        f" {total_add} insertion{'s' if total_add != 1 else ''}(+),"
        f" {total_del} deletion{'s' if total_del != 1 else ''}(-)"
    )
    return "\n".join(out)


def render_patch(patch: Patch) -> str:
    """Render a patch in ``git show`` style (as in the paper's listings)."""
    out = [f"commit {patch.sha}"]
    if patch.author:
        out.append(f"Author: {patch.author}")
    if patch.date:
        out.append(f"Date:   {patch.date}")
    out.append("")
    out.extend(f"    {line}" if line else "" for line in patch.message.splitlines())
    out.append("")
    out.append(render_file_diffs(patch.files))
    return "\n".join(out)


def render_mbox_patch(patch: Patch) -> str:
    """Render a patch in ``git format-patch`` (``.patch`` download) style."""
    subject, _, body = patch.message.partition("\n\n")
    out = [f"From {patch.sha} Mon Sep 17 00:00:00 2001"]
    if patch.author:
        out.append(f"From: {patch.author}")
    if patch.date:
        out.append(f"Date: {patch.date}")
    out.append(f"Subject: [PATCH] {subject}")
    out.append("")
    if body:
        out.append(body)
    out.append("---")
    out.append(diffstat(patch.files))
    out.append("")
    out.append(render_file_diffs(patch.files))
    out.append("--")
    out.append("2.25.1")
    return "\n".join(out)
