"""The in-memory repository: commits, log, checkout, diff, patch export.

This substrate replaces GitHub in the reproduction.  The oversampler's
"roll back the repository to just before/after the commit" step (§III-C-1)
is :meth:`Repository.before_after`; the crawler's ``.patch`` download is
:meth:`Repository.patch_text`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..diffing.unified_gen import diff_texts
from ..errors import ObjectNotFoundError, VcsError
from ..patch.gitformat import render_mbox_patch
from ..patch.model import FileDiff, Patch
from .objects import Blob, CommitObject, Snapshot

__all__ = ["Repository"]


@dataclass(frozen=True, slots=True)
class _LogEntry:
    """One ``git log`` record."""

    sha: str
    subject: str
    author: str
    date: str


class Repository:
    """A single-branch, content-addressed repository.

    Args:
        slug: the ``owner/repo`` identifier used in URLs and patches.
    """

    def __init__(self, slug: str) -> None:
        if "/" not in slug:
            raise VcsError(f"slug must be 'owner/repo', got {slug!r}")
        self.slug = slug
        self._blobs: dict[str, Blob] = {}
        self._snapshots: dict[str, Snapshot] = {}
        self._commits: dict[str, CommitObject] = {}
        self._order: list[str] = []  # commit shas, oldest first
        self.head: str | None = None

    # ---- writing ----------------------------------------------------

    def commit(
        self,
        files: dict[str, str],
        message: str,
        author: str = "Synth Dev <dev@example.org>",
        date: str = "Thu Jan 1 00:00:00 2015 +0000",
    ) -> str:
        """Record a full working tree as a new commit; returns its sha.

        Args:
            files: complete path → content mapping for the new tree.
            message: commit message (subject + optional body).
            author: author string.
            date: author date string.
        """
        # A file whose content equals the parent's keeps the parent's blob
        # id; only new content is hashed.
        parent = self._tree_oids(self.head) if self.head is not None else {}
        blobs = self._blobs
        mapping: dict[str, str] = {}
        for path, content in files.items():
            oid = parent.get(path)
            if oid is None or blobs[oid].content != content:
                blob = Blob(content)
                oid = blob.oid
                blobs[oid] = blob
            mapping[path] = oid
        snapshot = Snapshot.from_mapping(mapping)
        self._snapshots[snapshot.oid] = snapshot
        commit = CommitObject(
            snapshot_oid=snapshot.oid,
            parent_oid=self.head,
            author=author,
            date=date,
            message=message,
        )
        sha = commit.oid
        if sha in self._commits:
            # Identical content+metadata+parent: disambiguate via message.
            raise VcsError(f"duplicate commit {sha[:12]} in {self.slug}")
        self._commits[sha] = commit
        self._order.append(sha)
        self.head = sha
        return sha

    # ---- reading ----------------------------------------------------

    def __contains__(self, sha: str) -> bool:
        return sha in self._commits

    def __len__(self) -> int:
        return len(self._order)

    def commit_object(self, sha: str) -> CommitObject:
        """Look up a commit by sha."""
        try:
            return self._commits[sha]
        except KeyError:
            raise ObjectNotFoundError(f"no commit {sha!r} in {self.slug}") from None

    def log(self) -> list[_LogEntry]:
        """``git log`` — newest first."""
        entries = []
        for sha in reversed(self._order):
            c = self._commits[sha]
            entries.append(_LogEntry(sha=sha, subject=c.subject, author=c.author, date=c.date))
        return entries

    def shas(self) -> tuple[str, ...]:
        """All commit shas, oldest first."""
        return tuple(self._order)

    def checkout(self, sha: str) -> dict[str, str]:
        """Materialize the working tree at *sha* as path → content."""
        commit = self.commit_object(sha)
        snapshot = self._snapshots[commit.snapshot_oid]
        return {path: self._blobs[oid].content for path, oid in snapshot.entries}

    def _tree_oids(self, sha: str) -> dict[str, str]:
        """Path → blob id of the working tree at *sha*."""
        return self._snapshots[self.commit_object(sha).snapshot_oid].as_dict()

    def file_at(self, sha: str, path: str) -> str | None:
        """Content of *path* at *sha*, or None if absent."""
        commit = self.commit_object(sha)
        snapshot = self._snapshots[commit.snapshot_oid]
        oid = snapshot.as_dict().get(path)
        return self._blobs[oid].content if oid is not None else None

    def before_after(self, sha: str) -> tuple[dict[str, str], dict[str, str]]:
        """Working trees just before and just after *sha* (§III-C-1)."""
        commit = self.commit_object(sha)
        after = self.checkout(sha)
        before = self.checkout(commit.parent_oid) if commit.parent_oid else {}
        return before, after

    # ---- diffing ----------------------------------------------------

    def diff(self, sha: str) -> tuple[FileDiff, ...]:
        """File diffs of *sha* against its parent."""
        commit = self.commit_object(sha)
        after = self._tree_oids(sha)
        before = self._tree_oids(commit.parent_oid) if commit.parent_oid else {}
        blobs = self._blobs
        diffs: list[FileDiff] = []
        for path in sorted(set(before) | set(after)):
            old_oid = before.get(path, "")
            new_oid = after.get(path, "")
            if old_oid == new_oid:
                continue
            old = blobs[old_oid].content if old_oid else ""
            new = blobs[new_oid].content if new_oid else ""
            if old == new:  # an empty file added or removed
                continue
            fdiff = diff_texts(old, new, path)
            if fdiff.hunks or fdiff.is_new_file or fdiff.is_deleted_file:
                diffs.append(
                    FileDiff(
                        fdiff.old_path,
                        fdiff.new_path,
                        fdiff.hunks,
                        old_blob=old_oid[:9],
                        new_blob=new_oid[:9],
                    )
                )
        return tuple(diffs)

    def patch_for(self, sha: str) -> Patch:
        """Export commit *sha* as a :class:`Patch`."""
        commit = self.commit_object(sha)
        return Patch(
            sha=sha,
            message=commit.message,
            files=self.diff(sha),
            author=commit.author,
            date=commit.date,
            repo=self.slug,
        )

    def patch_text(self, sha: str) -> str:
        """The commit rendered as a GitHub ``.patch`` download."""
        return render_mbox_patch(self.patch_for(sha))

    def commit_url(self, sha: str) -> str:
        """The GitHub-style commit URL for *sha*."""
        return f"https://github.com/{self.slug}/commit/{sha}"

    # ---- stats -------------------------------------------------------

    def stats_at_head(self) -> tuple[int, int]:
        """(file count, crude function count) at HEAD, for RepoContext."""
        if self.head is None:
            return 0, 0
        tree = self.checkout(self.head)
        functions = 0
        for content in tree.values():
            # Cheap definition heuristic: ')' then '{' opening at col 0-ish.
            functions += content.count(")\n{") + content.count(") {")
        return len(tree), functions
