"""Data model for patches, hunks, and commits.

The model mirrors the structure of a git-format patch as described in the
paper (§II-A): a *patch* (commit) touches one or more files; each file diff
contains one or more *hunks*; a hunk is a run of removed (``-``) and added
(``+``) lines surrounded by context lines.

All classes are immutable value objects.  Mutating pipelines (e.g. the
oversampler) build new instances rather than editing in place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

__all__ = [
    "LineKind",
    "Line",
    "Hunk",
    "FileDiff",
    "Patch",
    "C_CPP_EXTENSIONS",
    "is_c_cpp_path",
    "split_lines",
]

#: File extensions the paper treats as C/C++ source (§III-A).
C_CPP_EXTENSIONS: frozenset[str] = frozenset({".c", ".cpp", ".h", ".hpp", ".cc", ".cxx", ".hh", ".hxx"})


def is_c_cpp_path(path: str) -> bool:
    """Return True if *path* names a C/C++ source or header file."""
    dot = path.rfind(".")
    if dot < 0:
        return False
    return path[dot:].lower() in C_CPP_EXTENSIONS


def split_lines(text: str) -> list[str]:
    r"""Split file or patch *text* into lines at ``"\n"`` only.

    ``str.splitlines()`` also breaks at ``\f``, ``\v``, ``\x1c``-``\x1e``,
    ``\x85``, ``\u2028`` and ``\u2029``, which are ordinary characters
    inside a source or patch line.  As with ``splitlines()``, a final
    newline opens no empty line and a CRLF line loses its ``"\r"``.
    """
    if not text:
        return []
    lines = text.removesuffix("\n").split("\n")
    if "\r" in text:
        lines = [ln[:-1] if ln.endswith("\r") else ln for ln in lines]
    return lines


class LineKind(enum.Enum):
    """Role of a single line within a hunk."""

    CONTEXT = " "
    REMOVED = "-"
    ADDED = "+"


@dataclass(frozen=True, slots=True)
class Line:
    """One line of a hunk body.

    Attributes:
        kind: whether the line is context, removed, or added.
        text: the line content *without* the leading marker or newline.
    """

    kind: LineKind
    text: str

    def render(self) -> str:
        """Render the line in unified-diff form (marker + text)."""
        return f"{self.kind.value}{self.text}"


@dataclass(frozen=True, slots=True)
class Hunk:
    """A contiguous change region within one file.

    Attributes:
        old_start: 1-based first line of the hunk in the old file.
        old_count: number of old-file lines covered (context + removed).
        new_start: 1-based first line of the hunk in the new file.
        new_count: number of new-file lines covered (context + added).
        section: the optional function heading after ``@@ ... @@``.
        lines: the hunk body in order.
    """

    old_start: int
    old_count: int
    new_start: int
    new_count: int
    lines: tuple[Line, ...]
    section: str = ""

    @property
    def removed(self) -> tuple[str, ...]:
        """Texts of removed lines, in order."""
        return tuple(ln.text for ln in self.lines if ln.kind is LineKind.REMOVED)

    @property
    def added(self) -> tuple[str, ...]:
        """Texts of added lines, in order."""
        return tuple(ln.text for ln in self.lines if ln.kind is LineKind.ADDED)

    @property
    def context(self) -> tuple[str, ...]:
        """Texts of context lines, in order."""
        return tuple(ln.text for ln in self.lines if ln.kind is LineKind.CONTEXT)

    @property
    def is_pure_addition(self) -> bool:
        """True if the hunk removes nothing."""
        return not any(ln.kind is LineKind.REMOVED for ln in self.lines)

    @property
    def is_pure_removal(self) -> bool:
        """True if the hunk adds nothing."""
        return not any(ln.kind is LineKind.ADDED for ln in self.lines)

    def header(self) -> str:
        """Render the ``@@ -a,b +c,d @@ section`` header line."""
        head = f"@@ -{self.old_start},{self.old_count} +{self.new_start},{self.new_count} @@"
        if self.section:
            head = f"{head} {self.section}"
        return head

    def old_lines_touched(self) -> tuple[int, ...]:
        """1-based old-file line numbers of removed lines."""
        nums = []
        cursor = self.old_start
        for ln in self.lines:
            if ln.kind is LineKind.ADDED:
                continue
            if ln.kind is LineKind.REMOVED:
                nums.append(cursor)
            cursor += 1
        return tuple(nums)

    def new_lines_touched(self) -> tuple[int, ...]:
        """1-based new-file line numbers of added lines."""
        nums = []
        cursor = self.new_start
        for ln in self.lines:
            if ln.kind is LineKind.REMOVED:
                continue
            if ln.kind is LineKind.ADDED:
                nums.append(cursor)
            cursor += 1
        return tuple(nums)

    def validate(self) -> None:
        """Check that the declared counts match the body.

        Raises:
            ValueError: if counts are inconsistent with ``lines``.
        """
        old = sum(1 for ln in self.lines if ln.kind is not LineKind.ADDED)
        new = sum(1 for ln in self.lines if ln.kind is not LineKind.REMOVED)
        if old != self.old_count or new != self.new_count:
            raise ValueError(
                f"hunk counts ({self.old_count},{self.new_count}) do not match "
                f"body ({old},{new})"
            )


@dataclass(frozen=True, slots=True)
class FileDiff:
    """All hunks against a single file.

    Attributes:
        old_path: path in the pre-image (``a/...`` stripped); empty for new files.
        new_path: path in the post-image (``b/...`` stripped); empty for deletions.
        hunks: the hunks, ordered by position.
        old_blob: abbreviated pre-image blob id (from the ``index`` line), if known.
        new_blob: abbreviated post-image blob id, if known.
        mode: file mode string (e.g. ``"100644"``), if known.
    """

    old_path: str
    new_path: str
    hunks: tuple[Hunk, ...]
    old_blob: str = ""
    new_blob: str = ""
    mode: str = "100644"

    @property
    def path(self) -> str:
        """The file's canonical path (post-image, falling back to pre-image)."""
        return self.new_path or self.old_path

    @property
    def is_new_file(self) -> bool:
        """True for a file created by the patch."""
        return not self.old_path

    @property
    def is_deleted_file(self) -> bool:
        """True for a file removed by the patch."""
        return not self.new_path

    @property
    def is_c_cpp(self) -> bool:
        """True if the file is C/C++ source per the paper's filter."""
        return is_c_cpp_path(self.path)

    def added_line_count(self) -> int:
        """Total added lines across hunks."""
        return sum(len(h.added) for h in self.hunks)

    def removed_line_count(self) -> int:
        """Total removed lines across hunks."""
        return sum(len(h.removed) for h in self.hunks)


@dataclass(frozen=True, slots=True)
class Patch:
    """A patch (git commit) — the unit stored in PatchDB.

    Attributes:
        sha: the 40-hex commit id.
        message: full commit message (subject + body).
        author: ``Name <email>`` string.
        date: author-date string (git default format).
        files: per-file diffs.
        repo: ``owner/repo`` slug of the source repository, when known.
    """

    sha: str
    message: str
    files: tuple[FileDiff, ...]
    author: str = ""
    date: str = ""
    repo: str = ""

    @property
    def subject(self) -> str:
        """First line of the commit message."""
        return self.message.split("\n", 1)[0]

    @property
    def hunks(self) -> tuple[Hunk, ...]:
        """All hunks across all files, in file order."""
        return tuple(h for f in self.files for h in f.hunks)

    def added_lines(self) -> list[str]:
        """All added line texts across the patch."""
        return [t for h in self.hunks for t in h.added]

    def removed_lines(self) -> list[str]:
        """All removed line texts across the patch."""
        return [t for h in self.hunks for t in h.removed]

    def touched_paths(self) -> tuple[str, ...]:
        """Canonical paths of all touched files."""
        return tuple(f.path for f in self.files)

    def only_c_cpp(self) -> "Patch":
        """Return a copy with non-C/C++ file diffs removed (§III-A).

        The paper drops changelog/kconfig/shell portions of patches because
        they "do not play an important role in fixing vulnerabilities".
        """
        kept = tuple(f for f in self.files if f.is_c_cpp)
        return replace(self, files=kept)

    @property
    def is_empty(self) -> bool:
        """True if the patch touches no files (e.g. after filtering)."""
        return not self.files
