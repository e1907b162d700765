"""Patch and file text split into lines at "\\n" only.

``str.splitlines()`` also breaks at ``\\f``, ``\\v``, ``\\x1c``-``\\x1e``,
``\\x85``, ``\\u2028`` and ``\\u2029``.  Those are ordinary characters of a
source or patch line, so the diff, the patch parsers and patch application
all split with :func:`repro.patch.split_lines`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffing import diff_texts
from repro.patch import apply_file_diff, parse_file_diffs, parse_patch, render_file_diff, split_lines

ODD_BREAKS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestSplitLines:
    @pytest.mark.parametrize(
        "text",
        ["", "\n", "a", "a\n", "a\nb", "a\nb\n", "a\n\n", "\n\na\n", "a\r\nb\r\n", "a\r\nb", "a\r\n\r\n"],
    )
    def test_same_as_splitlines_without_odd_breaks(self, text):
        assert split_lines(text) == text.splitlines()

    @pytest.mark.parametrize("char", ODD_BREAKS)
    def test_odd_break_characters_stay_in_the_line(self, char):
        assert split_lines(f"int a;{char}int b;\nint c;\n") == [f"int a;{char}int b;", "int c;"]

    def test_crlf_with_form_feed(self):
        assert split_lines("a\r\n\f\r\nb\r\n") == ["a", "\f", "b"]


class TestProbes:
    def test_form_feed_line_is_diffed_as_one_line(self):
        fdiff = diff_texts("int a;\n\f\nint b;\n", "int a;\n\f\nint c;\n", "f.c")
        (hunk,) = fdiff.hunks
        assert hunk.header() == "@@ -1,3 +1,3 @@"
        assert hunk.context == ("int a;", "\f")
        assert apply_file_diff("int a;\n\f\nint b;\n", fdiff) == "int a;\n\f\nint c;\n"

    def test_line_separator_in_a_context_line_parses(self):
        text = (
            "commit " + "a" * 40 + "\n"
            "Author: Dev <d@example.org>\n"
            "Date:   Tue Nov 5 10:00:00 2019 -0500\n"
            "\n"
            "    fix\n"
            "\n"
            "diff --git a/f.c b/f.c\n"
            "--- a/f.c\n"
            "+++ b/f.c\n"
            "@@ -1,2 +1,2 @@\n"
            " /* a\u2028b */\n"
            "-x = 1;\n"
            "+x = 2;\n"
        )
        patch = parse_patch(text)
        (hunk,) = patch.hunks
        assert hunk.context == ("/* a\u2028b */",)
        assert hunk.removed == ("x = 1;",) and hunk.added == ("x = 2;",)


_lines = st.lists(
    st.sampled_from(["int a;", "b = 1;", "", "}"] + [f"x{c}y" for c in ODD_BREAKS] + ODD_BREAKS),
    max_size=12,
)


def _text(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


class TestRoundTrip:
    @given(old=_lines, new=_lines)
    @settings(max_examples=150, deadline=None)
    def test_diff_render_parse_apply(self, old, new):
        old_text, new_text = _text(old), _text(new)
        fdiff = diff_texts(old_text, new_text, "f.c")
        (parsed,) = parse_file_diffs(render_file_diff(fdiff))
        assert parsed.hunks == fdiff.hunks
        assert apply_file_diff(old_text, parsed) == new_text


#: The ``str.splitlines()`` calls allowed in ``src/repro``, none over C
#: source or patch text: the JSONL reader of exported traces and the
#: commit-message indentation of ``format_patch``.
SPLITLINES_ALLOWED = {"trace.py": 1, "patch/gitformat.py": 1}


def test_no_new_splitlines_in_src():
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    calls = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        n = sum(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "splitlines"
            for node in ast.walk(tree)
        )
        if n:
            calls[path.relative_to(root).as_posix()] = n
    assert calls == SPLITLINES_ALLOWED, "split C source and patch text with repro.patch.split_lines"
