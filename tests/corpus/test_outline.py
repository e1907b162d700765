"""The world builder's outline index against full outlines.

``function_spans`` inside a build reuses the spans of the text an edit
started from and parses only the lines between them (``OutlineIndex``).
Every outline it returns must equal a full ``outline_functions`` of the
same text, field for field and in count; a fallback to a full outline is
fine, a wrong span is not.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.corpus.mutate as mutate
from repro.analysis.experiments import TINY
from repro.corpus import CodeGenerator, build_world
from repro.corpus.mutate import OutlineIndex, function_spans, outline_index
from repro.lang.parser import outline_functions, parse_translation_unit
from repro.obs import ObsRegistry


def _assert_matches_full(text: str, outline) -> None:
    """*outline* has the spans of a full outline of *text*, or is None
    exactly when the full parse raises."""
    try:
        full = outline_functions(text)
    except Exception:  # noqa: BLE001 - the index maps any raise to None
        assert outline is None, text
        return
    assert outline is not None and outline.spans == full.spans, text
    # A reused outline may understate how far it can be trusted, never
    # overstate it.
    assert outline.settled <= full.settled
    assert full.clean_end or not outline.clean_end


def _index_outline(old: str, new: str) -> tuple[OutlineIndex, object]:
    index = OutlineIndex()
    index.outline(old)
    index.note_edit(old, new)
    return index, index.outline(new)


#: A logging line ``gen_var_value`` cut at its '=': ``printf("f: v= 0;``.
_MALFORMED_LOG_LINE = re.compile(r'\("[^"\n]*= 0;$', re.M)


@pytest.fixture(scope="module")
def world_outlines():
    """Each text the index outlines while TINY worlds 0-7 build, with its
    outline.

    Seed 0 holds the ``gen_var_value`` texts whose unterminated string and
    unclosed paren make the parser fold the rest of the file into one
    function.
    """
    seen: dict[str, object] = {}
    outline = OutlineIndex.outline

    def recording(self, text):
        seen[text] = result = outline(self, text)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OutlineIndex, "outline", recording)
        for seed in range(8):
            build_world(TINY.world_config(seed))
    return seen


def test_world_build_outlines_equal_full_outlines(world_outlines):
    assert len(world_outlines) > 3000
    assert any(_MALFORMED_LOG_LINE.search(text) for text in world_outlines)
    for text, outline in world_outlines.items():
        _assert_matches_full(text, outline)


def test_outline_spans_are_the_parsed_definitions(world_outlines):
    for text in list(world_outlines)[::10]:
        try:
            unit = parse_translation_unit(text)
        except Exception:  # noqa: BLE001 - outline_functions raises alike
            with pytest.raises(Exception):
                outline_functions(text)
            continue
        assert [
            (s.name, s.return_type_text, s.start_line, s.end_line, s.body_start_line, s.body_end_line)
            for s in outline_functions(text).spans
        ] == [
            (f.name, f.return_type_text, f.start_line, f.end_line, f.body.start_line, f.body.end_line)
            for f in unit.functions
        ]


def test_outline_of_a_cut_off_body():
    outline = outline_functions("  int f(void)\n{\n    return 1;\n")
    assert [(s.name, s.col, s.closed) for s in outline.spans] == [("f", 3, False)]
    assert outline.settled == 0
    assert not outline.clean_end
    shifted = outline_functions("  int f(void)\n{\n    return 1;\n}\n", 10)
    assert [(s.start_line, s.end_line, s.closed) for s in shifted.spans] == [(11, 14, True)]
    assert shifted.settled == 1 and shifted.clean_end


def test_world_build_mostly_reuses_spans():
    obs = ObsRegistry()
    build_world(TINY.world_config(1), obs=obs)
    incremental = obs.count("world_outline_incremental")
    outlined = incremental + obs.count("world_outline_full") + obs.count("world_outline_fallback")
    assert incremental > 0.8 * outlined


# ---------------------------------------------------------------------------
# One rule at a time
# ---------------------------------------------------------------------------

_A = "int a(void)\n{\n    return 1;\n}\n"
_B = "int b(int x)\n{\n    if (x)\n        return 2;\n    return 3;\n}\n"
_C = "long c(char *p)\n{\n    p[0] = 0;\n    return 0;\n}\n"
_BASE = "#include <stdio.h>\n\nstatic int g;\n\n" + _A + "\n" + _B + "\n" + _C


def _edit_b(line: str) -> str:
    return _BASE.replace("    return 3;\n", line + "\n    return 3;\n")


@pytest.mark.parametrize(
    ("new", "way"),
    [
        # A plain edit inside b: a is reused before it, c after it.
        (_edit_b("    x = x + 1;"), "incremental"),
        # Line-local oddities still end clean.
        (_edit_b('    s = "open;'), "incremental"),
        (_edit_b("    x = 1; /* closed */"), "incremental"),
        # A block comment left open swallows c in the full parse.
        (_edit_b("    /* open"), "fallback"),
        # A continued directive swallows the line after it.
        (_BASE.replace("\nlong c", "\n#define X \\\nlong c"), "fallback"),
        (_BASE.replace("\nlong c", "\nint y; \\\nlong c"), "fallback"),
        # A stray '}' ends b early; the rest of b is skipped up to c's body.
        (_edit_b("    }"), "fallback"),
        # 'int x' with no ';' joins c's declaration in the full parse.
        (_BASE.replace("\nlong c", "\nint x\nlong c"), "fallback"),
        # An unbalanced '(' in b runs to the end of the file.
        (_edit_b("    f(x,"), "fallback"),
        (_edit_b('    printf("open;'), "fallback"),
        # An extra '{' keeps b open through c.
        (_edit_b("    {"), "fallback"),
    ],
)
def test_reuse_rule(new, way):
    index, outline = _index_outline(_BASE, new)
    _assert_matches_full(new, outline)
    assert index.counts[way] == 1


def test_prefix_not_reused_after_a_scan_ran_out():
    # 'g(' never closes in the old text, so the top-level scan ran to the
    # end and a, b and c were found after it.  Closing it turns g into a
    # definition that swallows them.
    old = "g(1;\n" + _A + "\n" + _B
    new = old + ")\n{\n}\n"
    assert [s.name for s in outline_functions(old).spans] == ["a", "b"]
    assert outline_functions(old).settled == 0
    index, outline = _index_outline(old, new)
    _assert_matches_full(new, outline)
    assert [s.name for s in outline.spans] == ["g"]


def test_prefix_cut_only_after_a_lone_closing_brace():
    # d starts on the line where a ends, so a cut after a's last line would
    # drop d's header.
    old = "int a(void)\n{\n    return 1;\n} int d(void)\n{\n    return 4;\n}\n\n" + _B
    new = old.replace("    return 4;\n", "    x = 4;\n    return 4;\n")
    index, outline = _index_outline(old, new)
    _assert_matches_full(new, outline)
    assert [s.name for s in outline.spans] == ["a", "d", "b"]


def test_suffix_not_reused_after_a_continued_line():
    # In the old text '#' follows a line continuation and is a plain token
    # that starts f's span; with the backslash gone it opens a directive.
    old = "int y; \\\n# int f(void)\n{\n    return 1;\n}\n"
    new = old.replace(" \\\n", "\n", 1)
    assert [s.name for s in outline_functions(old).spans] == ["f"]
    index, outline = _index_outline(old, new)
    _assert_matches_full(new, outline)
    assert outline.spans == ()


def test_suffix_span_must_open_its_line():
    old = "int y; int f(void)\n{\n    return 1;\n}\n"
    new = "int z; int f(void)\n{\n    return 1;\n}\n"
    index, outline = _index_outline(old, new)
    _assert_matches_full(new, outline)
    assert index.counts["fallback"] == 1


def test_unparsable_text_has_no_functions():
    # parse_statement asserts a token is left after an unbalanced '('.
    bad = "int f(){ if (a { x; }"
    with outline_index() as index:
        assert function_spans(bad) == []
        assert function_spans(bad) == []
    assert index.counts == {"full": 1, "incremental": 0, "fallback": 0, "unparsable": 1}


def test_no_memo_outside_a_build(monkeypatch):
    calls = []
    outline = mutate.outline_functions

    def counting(source, line_offset=0):
        calls.append(source)
        return outline(source, line_offset)

    monkeypatch.setattr(mutate, "outline_functions", counting)
    function_spans(_BASE)
    function_spans(_BASE)
    assert len(calls) == 2
    with outline_index():
        function_spans(_BASE)
        function_spans(_BASE)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# Random line edits
# ---------------------------------------------------------------------------

#: Lines that cut lexer and parser constructs in half.
_HOSTILE = (
    "/*",
    "*/",
    "    /* note",
    "    x = 1; */",
    '    printf("open;',
    "    a = b + \\",
    "#define X \\",
    "    f(a, (b",
    "(",
    "{",
    "}",
    "    }",
    "int x",
    "    int x",
    "int h(void)",
    "static int k;",
    "",
    "    return 0;",
)

_edit = st.tuples(
    st.sampled_from(("insert", "replace", "delete", "copy")),
    st.floats(0, 1, exclude_max=True),
    st.floats(0, 1, exclude_max=True),
    st.sampled_from(_HOSTILE),
)


def _apply(text: str, edit) -> str:
    op, at, src, line = edit
    lines = text.split("\n")
    i = int(at * len(lines))
    if op == "insert":
        lines.insert(i, line)
    elif op == "replace":
        lines[i] = line
    elif op == "delete":
        del lines[i]
    else:  # another line of the file, as a move or duplicate would leave it
        lines.insert(i, lines[int(src * len(lines))])
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_functions=st.integers(1, 5),
    edits=st.lists(_edit, min_size=1, max_size=6),
)
def test_random_line_edits_match_full_outline(seed, n_functions, edits):
    text = CodeGenerator(seed).gen_file(n_functions=n_functions).render()
    index = OutlineIndex()
    _assert_matches_full(text, index.outline(text))
    for edit in edits:
        new = _apply(text, edit)
        index.note_edit(text, new)
        _assert_matches_full(new, index.outline(new))
        text = new
