"""Tests for the version-control substrate."""

import pytest

from repro.errors import ObjectNotFoundError, VcsError
from repro.patch import parse_patch
from repro.vcs import Blob, Repository, Snapshot, sha1_hex


@pytest.fixture()
def repo():
    r = Repository("owner/project")
    r.commit({"src/a.c": "int x;\n", "README.md": "hi\n"}, "initial import")
    r.commit({"src/a.c": "int x;\nint y;\n", "README.md": "hi\n"}, "add y")
    return r


class TestObjects:
    def test_blob_oid_is_content_addressed(self):
        assert Blob("abc").oid == Blob("abc").oid
        assert Blob("abc").oid != Blob("abd").oid
        assert len(Blob("abc").oid) == 40

    def test_snapshot_order_independent(self):
        a = Snapshot.from_mapping({"x": "1", "y": "2"})
        b = Snapshot.from_mapping({"y": "2", "x": "1"})
        assert a.oid == b.oid

    def test_sha1_hex_kind_matters(self):
        assert sha1_hex("blob", b"x") != sha1_hex("tree", b"x")


class TestCommits:
    def test_shas_unique_and_ordered(self, repo):
        shas = repo.shas()
        assert len(shas) == 2
        assert len(set(shas)) == 2
        assert repo.head == shas[-1]

    def test_log_newest_first(self, repo):
        log = repo.log()
        assert log[0].subject == "add y"
        assert log[1].subject == "initial import"

    def test_slug_validation(self):
        with pytest.raises(VcsError):
            Repository("noslash")

    def test_contains(self, repo):
        assert repo.head in repo
        assert "f" * 40 not in repo

    def test_unknown_sha_raises(self, repo):
        with pytest.raises(ObjectNotFoundError):
            repo.commit_object("f" * 40)


class TestCheckout:
    def test_checkout_head(self, repo):
        tree = repo.checkout(repo.head)
        assert tree["src/a.c"] == "int x;\nint y;\n"

    def test_checkout_earlier(self, repo):
        first = repo.shas()[0]
        assert repo.checkout(first)["src/a.c"] == "int x;\n"

    def test_file_at(self, repo):
        assert repo.file_at(repo.head, "src/a.c") == "int x;\nint y;\n"
        assert repo.file_at(repo.head, "missing.c") is None

    def test_before_after(self, repo):
        before, after = repo.before_after(repo.head)
        assert before["src/a.c"] == "int x;\n"
        assert after["src/a.c"] == "int x;\nint y;\n"

    def test_before_of_initial_is_empty(self, repo):
        first = repo.shas()[0]
        before, after = repo.before_after(first)
        assert before == {}
        assert "src/a.c" in after


class TestDiffAndPatch:
    def test_diff_lists_changed_files_only(self, repo):
        diffs = repo.diff(repo.head)
        assert [d.path for d in diffs] == ["src/a.c"]

    def test_diff_content(self, repo):
        hunk = repo.diff(repo.head)[0].hunks[0]
        assert hunk.added == ("int y;",)

    def test_patch_for(self, repo):
        p = repo.patch_for(repo.head)
        assert p.sha == repo.head
        assert p.repo == "owner/project"
        assert p.subject == "add y"

    def test_patch_text_parses_back(self, repo):
        text = repo.patch_text(repo.head)
        parsed = parse_patch(text, repo="owner/project")
        assert parsed.sha == repo.head
        assert parsed.files == repo.patch_for(repo.head).files

    def test_initial_commit_diff_is_new_files(self, repo):
        first = repo.shas()[0]
        diffs = repo.diff(first)
        assert all(d.is_new_file for d in diffs)

    def test_commit_url(self, repo):
        url = repo.commit_url(repo.head)
        assert url == f"https://github.com/owner/project/commit/{repo.head}"

    def test_file_deletion_diff(self):
        r = Repository("o/p")
        r.commit({"a.c": "x\n", "b.c": "y\n"}, "two files")
        r.commit({"a.c": "x\n"}, "remove b")
        diffs = r.diff(r.head)
        assert len(diffs) == 1
        assert diffs[0].is_deleted_file


class TestBlobIds:
    def test_commit_hashes_only_new_content(self, repo, monkeypatch):
        import repro.vcs.objects as objects

        kinds = []
        real = objects.sha1_hex

        def counting(kind, payload):
            kinds.append(kind)
            return real(kind, payload)

        monkeypatch.setattr(objects, "sha1_hex", counting)
        repo.commit({"src/a.c": "int z;\n", "README.md": "hi\n", "b.c": "int y;\n"}, "edit")
        # The changed a.c and the new b.c; README.md keeps its blob id.
        assert kinds.count("blob") == 2

    def test_diff_blob_ids_are_the_snapshot_ids(self, repo):
        (fdiff,) = repo.diff(repo.head)
        assert fdiff.old_blob == Blob("int x;\n").oid[:9]
        assert fdiff.new_blob == Blob("int x;\nint y;\n").oid[:9]
        (created,) = [d for d in repo.diff(repo.shas()[0]) if d.path == "src/a.c"]
        assert (created.old_blob, created.new_blob) == ("", Blob("int x;\n").oid[:9])

    def test_empty_file_added_is_not_a_diff(self, repo):
        repo.commit({**repo.checkout(repo.head), "empty.c": ""}, "touch")
        assert repo.diff(repo.head) == ()


class TestStats:
    def test_stats_at_head(self, repo):
        files, functions = repo.stats_at_head()
        assert files == 2
        assert functions >= 0

    def test_empty_repo_stats(self):
        assert Repository("a/b").stats_at_head() == (0, 0)
