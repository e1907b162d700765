"""Tests for git .patch / git show format parsing and rendering."""

import pytest

from repro.errors import PatchFormatError
from repro.patch import parse_file_diffs, parse_patch, render_mbox_patch, render_patch


class TestLogStyle:
    def test_listing_1_parses(self, listing_1):
        p = parse_patch(listing_1)
        assert p.sha == "b84c2cab55948a5ee70860779b2640913e3ee1ed"
        assert p.author == "Dev One <d1@example.org>"
        assert "stack underflow" in p.message
        assert p.touched_paths() == ("src/bits.c",)
        hunk = p.hunks[0]
        assert hunk.removed == ("  if (byte[i] & 0x40)",)
        assert hunk.added == ("  if (byte[i] & 0x40 && i > 0)",)
        assert hunk.section == "bit_write_UMC (Bit_Chain *dat, BITCODE_UMC val)"

    def test_listing_2_parses(self, listing_2):
        p = parse_patch(listing_2)
        assert p.sha == "c3b3c274cf7911121f84746cd80a152455f7ec97"
        assert len(p.hunks[0].added) == 3

    def test_repo_recorded(self, listing_1):
        assert parse_patch(listing_1, repo="LibreDWG/libredwg").repo == "LibreDWG/libredwg"


class TestMboxStyle:
    MBOX = """From 1111111111111111111111111111111111111111 Mon Sep 17 00:00:00 2001
From: Jane Dev <jane@example.org>
Date: Tue, 5 Nov 2019 10:00:00 -0500
Subject: [PATCH] fix the thing
 across two lines

Body paragraph.
---
 a.c | 2 +-
 1 file changed, 1 insertion(+), 1 deletion(-)

diff --git a/a.c b/a.c
--- a/a.c
+++ b/a.c
@@ -1,1 +1,1 @@
-old line
+new line
--
2.25.1
"""

    def test_parses_headers(self):
        p = parse_patch(self.MBOX)
        assert p.sha == "1" * 40
        assert p.author == "Jane Dev <jane@example.org>"
        assert p.subject == "fix the thing across two lines"
        assert "Body paragraph." in p.message

    def test_diff_parsed(self):
        p = parse_patch(self.MBOX)
        assert p.hunks[0].removed == ("old line",)
        assert p.hunks[0].added == ("new line",)


class TestErrors:
    def test_empty_raises(self):
        with pytest.raises(PatchFormatError):
            parse_patch("")

    def test_garbage_header_raises(self):
        with pytest.raises(PatchFormatError):
            parse_patch("not a patch at all\nmore lines\n")

    def test_overrunning_hunk_raises_at_first_extra_line(self, overrun_patch):
        # '-b' is the second removed line under an old count of 1; it is
        # line 12 of the submitted patch (line 6 of its diff body).
        message = r"^line 12: hunk body overruns its header counts \(1,1\): '-b'$"
        with pytest.raises(PatchFormatError, match=message):
            parse_patch(overrun_patch)

    def test_mbox_error_lines_count_from_the_first_patch_line(self):
        text = TestMboxStyle.MBOX.replace("-old line\n", "-old line\n-extra\n")
        assert text.splitlines()[16] == "-extra"
        with pytest.raises(PatchFormatError, match=r"^line 17: hunk body overruns"):
            parse_patch(text)

    def test_bare_diff_body_keeps_its_own_numbering(self, overrun_patch):
        body = overrun_patch[overrun_patch.index("diff --git") :]
        with pytest.raises(PatchFormatError, match=r"^line 6: hunk body overruns"):
            parse_file_diffs(body)


class TestRoundTrips:
    def test_log_round_trip(self, listing_1):
        p = parse_patch(listing_1)
        assert parse_patch(render_patch(p)) == p

    def test_mbox_round_trip(self, listing_1):
        p = parse_patch(listing_1)
        p2 = parse_patch(render_mbox_patch(p))
        assert p2.sha == p.sha
        assert p2.files == p.files
        assert p2.subject == p.subject

    def test_mbox_has_diffstat(self, listing_1):
        text = render_mbox_patch(parse_patch(listing_1))
        assert "1 file changed, 1 insertion(+), 1 deletion(-)" in text

    def test_nonsecurity_round_trip(self, listing_2):
        p = parse_patch(listing_2)
        assert parse_patch(render_patch(p)) == p
