"""Tests for unified-diff parsing and rendering."""

import pytest

from repro.errors import PatchFormatError
from repro.patch import (
    LineKind,
    parse_file_diffs,
    parse_hunk_header,
    render_file_diff,
    render_file_diffs,
)

BASIC_DIFF = """diff --git a/src/a.c b/src/a.c
index 1234567..89abcde 100644
--- a/src/a.c
+++ b/src/a.c
@@ -1,2 +1,3 @@ int main()
 int a;
-a = 1;
+a = 2;
+b = 3;
"""


class TestHunkHeader:
    def test_full_header(self):
        assert parse_hunk_header("@@ -10,3 +12,4 @@ int f()") == (10, 3, 12, 4, "int f()")

    def test_no_section(self):
        assert parse_hunk_header("@@ -1,2 +3,4 @@") == (1, 2, 3, 4, "")

    def test_implicit_counts(self):
        assert parse_hunk_header("@@ -5 +7 @@") == (5, 1, 7, 1, "")

    def test_malformed_raises(self):
        with pytest.raises(PatchFormatError):
            parse_hunk_header("@@ bogus @@")

    def test_malformed_header_in_a_diff_reports_its_line(self):
        text = BASIC_DIFF.replace("@@ -1,2 +1,3 @@", "@@ -1,x +1,1 @@")
        with pytest.raises(PatchFormatError, match=r"^line 5: malformed hunk header: '@@ -1,x \+1,1 @@") as err:
            parse_file_diffs(text)
        assert err.value.line_no == 5

    def test_malformed_header_line_counts_from_first_line(self):
        text = BASIC_DIFF.replace("@@ -1,2 +1,3 @@", "@@ -1,x +1,1 @@")
        with pytest.raises(PatchFormatError) as err:
            parse_file_diffs(text, first_line=8)
        assert err.value.line_no == 12


class TestParse:
    def test_basic_fields(self):
        diffs = parse_file_diffs(BASIC_DIFF)
        assert len(diffs) == 1
        d = diffs[0]
        assert d.old_path == "src/a.c"
        assert d.new_path == "src/a.c"
        assert d.old_blob == "1234567"
        assert d.new_blob == "89abcde"
        assert d.mode == "100644"

    def test_hunk_contents(self):
        hunk = parse_file_diffs(BASIC_DIFF)[0].hunks[0]
        assert hunk.section == "int main()"
        assert hunk.removed == ("a = 1;",)
        assert hunk.added == ("a = 2;", "b = 3;")
        kinds = [l.kind for l in hunk.lines]
        assert kinds == [LineKind.CONTEXT, LineKind.REMOVED, LineKind.ADDED, LineKind.ADDED]

    def test_multiple_files(self):
        text = BASIC_DIFF + BASIC_DIFF.replace("src/a.c", "src/b.c")
        diffs = parse_file_diffs(text)
        assert [d.path for d in diffs] == ["src/a.c", "src/b.c"]

    def test_new_file(self):
        text = (
            "diff --git a/new.c b/new.c\n"
            "new file mode 100644\n"
            "index 0000000..59cb371\n"
            "--- /dev/null\n"
            "+++ b/new.c\n"
            "@@ -0,0 +1,2 @@\n"
            "+int x;\n"
            "+int y;\n"
        )
        d = parse_file_diffs(text)[0]
        assert d.is_new_file
        assert d.path == "new.c"
        assert d.hunks[0].added == ("int x;", "int y;")

    def test_deleted_file(self):
        text = (
            "diff --git a/gone.c b/gone.c\n"
            "deleted file mode 100644\n"
            "index 59cb371..0000000\n"
            "--- a/gone.c\n"
            "+++ /dev/null\n"
            "@@ -1,1 +0,0 @@\n"
            "-int x;\n"
        )
        d = parse_file_diffs(text)[0]
        assert d.is_deleted_file
        assert d.hunks[0].removed == ("int x;",)

    def test_binary_file(self):
        text = (
            "diff --git a/logo.png b/logo.png\n"
            "index 1111111..2222222 100644\n"
            "Binary files a/logo.png and b/logo.png differ\n"
        )
        d = parse_file_diffs(text)[0]
        assert d.hunks == ()
        assert d.path == "logo.png"

    def test_no_newline_marker_skipped(self):
        text = (
            "diff --git a/a.c b/a.c\n"
            "--- a/a.c\n"
            "+++ b/a.c\n"
            "@@ -1,1 +1,1 @@\n"
            "-old\n"
            "\\ No newline at end of file\n"
            "+new\n"
            "\\ No newline at end of file\n"
        )
        hunk = parse_file_diffs(text)[0].hunks[0]
        assert hunk.removed == ("old",)
        assert hunk.added == ("new",)

    def test_prologue_noise_skipped(self):
        text = "some commit message line\nanother\n" + BASIC_DIFF
        assert len(parse_file_diffs(text)) == 1

    def test_truncated_hunk_raises(self):
        text = (
            "diff --git a/a.c b/a.c\n--- a/a.c\n+++ b/a.c\n@@ -1,5 +1,5 @@\n context\n"
        )
        with pytest.raises(PatchFormatError):
            parse_file_diffs(text)

    @pytest.mark.parametrize(
        "header, body",
        [
            ("@@ -1,1 +1,1 @@", ["-a", "-b", "+c"]),
            ("@@ -1,1 +1,1 @@", ["+a", "+b", "-c"]),
            ("@@ -1,1 +1,2 @@", [" a", " b", "+c"]),
            ("@@ -1,0 +1,1 @@", [" a"]),
        ],
    )
    def test_overrunning_hunk_raises(self, header, body):
        text = "diff --git a/a.c b/a.c\n--- a/a.c\n+++ b/a.c\n" + "\n".join([header, *body]) + "\n"
        with pytest.raises(PatchFormatError, match="overruns its header counts"):
            parse_file_diffs(text)

    def test_garbage_in_hunk_raises(self):
        text = (
            "diff --git a/a.c b/a.c\n--- a/a.c\n+++ b/a.c\n@@ -1,2 +1,2 @@\n context\n"
            "@garbage\n"
        )
        with pytest.raises(PatchFormatError):
            parse_file_diffs(text)

    def test_empty_input(self):
        assert parse_file_diffs("") == ()


class TestRoundTrip:
    def test_basic_round_trip(self):
        diffs = parse_file_diffs(BASIC_DIFF)
        rendered = render_file_diffs(diffs)
        assert parse_file_diffs(rendered) == diffs

    def test_render_contains_headers(self):
        d = parse_file_diffs(BASIC_DIFF)[0]
        text = render_file_diff(d)
        assert text.startswith("diff --git a/src/a.c b/src/a.c")
        assert "--- a/src/a.c" in text
        assert "+++ b/src/a.c" in text
        assert "@@ -1,2 +1,3 @@ int main()" in text

    def test_new_file_round_trip(self):
        text = (
            "diff --git a/new.c b/new.c\n"
            "new file mode 100644\n"
            "--- /dev/null\n"
            "+++ b/new.c\n"
            "@@ -0,0 +1,1 @@\n"
            "+int x;\n"
        )
        diffs = parse_file_diffs(text)
        assert parse_file_diffs(render_file_diffs(diffs)) == diffs
