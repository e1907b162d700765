"""The one-lex-per-fragment extractor against the extractor it replaced.

``FeatureExtractor.extract`` lexes each distinct fragment text once per
call and shares the tokens between the Table I counts and the per-hunk
abstraction.  The class below is the extractor before that change, which
lexed the joined side texts for the counts and every hunk text again for
the abstraction, frozen as the oracle: vectors must be byte-identical.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import FeatureExtractor, RepoContext
from repro.features.extractor import _normalized_lines
from repro.features.levenshtein import levenshtein
from repro.features.vector import FEATURE_COUNT
from repro.lang.abstraction import abstract_token_texts
from repro.lang.metrics import count_lines
from repro.patch.model import FileDiff, Hunk, Line, LineKind, Patch


class OracleExtractor(FeatureExtractor):
    """``extract`` and ``_hunk_distances`` as they were, lexing per use."""

    def extract(self, patch: Patch) -> np.ndarray:
        vec = np.zeros(FEATURE_COUNT, dtype=np.float64)
        hunks = patch.hunks
        added_lines = patch.added_lines()
        removed_lines = patch.removed_lines()

        set_ = self._set(vec)
        set_("changed_lines", len(added_lines) + len(removed_lines))
        set_("hunks", len(hunks))
        self._quad(vec, "lines", len(added_lines), len(removed_lines))
        self._quad(
            vec,
            "characters",
            sum(len(t) for t in added_lines),
            sum(len(t) for t in removed_lines),
        )

        add_counts = count_lines(added_lines)
        rem_counts = count_lines(removed_lines)
        for prefix, attr in (
            ("if_statements", "if_statements"),
            ("loops", "loops"),
            ("function_calls", "function_calls"),
            ("arithmetic_operators", "arithmetic_operators"),
            ("relational_operators", "relational_operators"),
            ("logical_operators", "logical_operators"),
            ("bitwise_operators", "bitwise_operators"),
            ("memory_operators", "memory_operators"),
        ):
            self._quad(vec, prefix, getattr(add_counts, attr), getattr(rem_counts, attr))
        self._quad(vec, "variables", add_counts.variable_count, rem_counts.variable_count)

        functions = self._modified_functions(patch, add_counts, rem_counts)
        set_("total_modified_functions", len(functions))
        set_(
            "net_modified_functions",
            self._count_defs(added_lines) - self._count_defs(removed_lines),
        )

        self._oracle_hunk_distances(vec, hunks)

        affected_files = len(patch.files)
        affected_functions = len(functions)
        set_("affected_files", affected_files)
        set_("affected_functions", affected_functions)
        if self._context is not None and self._context.total_files > 0:
            set_("affected_files_pct", affected_files / self._context.total_files)
        else:
            set_("affected_files_pct", 1.0 if affected_files else 0.0)
        if self._context is not None and self._context.total_functions > 0:
            set_("affected_functions_pct", affected_functions / self._context.total_functions)
        else:
            set_("affected_functions_pct", affected_functions / affected_files if affected_files else 0.0)
        return vec

    def _oracle_hunk_distances(self, vec: np.ndarray, hunks: tuple[Hunk, ...]) -> None:
        raw: list[float] = []
        abstracted: list[float] = []
        same_raw = same_abs = 0
        for hunk in hunks:
            rem_text = "\n".join(hunk.removed)
            add_text = "\n".join(hunk.added)
            raw.append(float(levenshtein(rem_text, add_text)))
            rem_abs = abstract_token_texts(rem_text)
            add_abs = abstract_token_texts(add_text)
            abstracted.append(float(levenshtein(rem_abs, add_abs)))
            if _normalized_lines(hunk.removed) == _normalized_lines(hunk.added):
                same_raw += 1
            if rem_abs == add_abs:
                same_abs += 1
        set_ = self._set(vec)
        for prefix, values in (("raw", raw), ("abs", abstracted)):
            if values:
                set_(f"lev_mean_{prefix}", float(np.mean(values)))
                set_(f"lev_min_{prefix}", float(np.min(values)))
                set_(f"lev_max_{prefix}", float(np.max(values)))
        set_("same_hunks_raw", same_raw)
        set_("same_hunks_abs", same_abs)


def assert_same_vector(patch: Patch, context: RepoContext | None = None) -> None:
    got = FeatureExtractor(context).extract(patch)
    want = OracleExtractor(context).extract(patch)
    assert got.tobytes() == want.tobytes()


# ---- generated patches ---------------------------------------------------

# Fragments chosen to make lexing context matter: a comment opened in one
# hunk and closed in the next, string and char literals, preprocessor
# lines, calls, and lines that repeat across hunks and sides.
_FRAGMENTS = [
    "if (len > cap) {",
    "    return -1;",
    "}",
    "x = foo(bar, 2) + y * 3;",
    "p = &buf[i] & mask;",
    "/* opened here",
    "   closed here */ n++;",
    "// line comment (x)",
    'printf("%d\\n", n);',
    "c = 'q';",
    "#define LIMIT 16",
    "while (i-- > 0 && ok) free(p);",
    "int check(int len)",
    "",
    "    ",
    "do { k <<= 1; } while (k < 8);",
]

_line_texts = st.lists(st.sampled_from(_FRAGMENTS), max_size=5)


@st.composite
def hunks(draw, old_start: int) -> Hunk:
    removed, added = draw(_line_texts), draw(_line_texts)
    if not removed and not added:
        added = [draw(st.sampled_from(_FRAGMENTS))]
    context = draw(st.lists(st.sampled_from(_FRAGMENTS), max_size=2))
    lines = (
        [Line(LineKind.CONTEXT, t) for t in context]
        + [Line(LineKind.REMOVED, t) for t in removed]
        + [Line(LineKind.ADDED, t) for t in added]
    )
    section = draw(st.sampled_from(["", "int check(int len)", "static void *grow(struct buf *b)"]))
    return Hunk(
        old_start, len(context) + len(removed), old_start, len(context) + len(added), tuple(lines), section
    )


@st.composite
def patches(draw) -> Patch:
    files = []
    for f in range(draw(st.integers(min_value=1, max_value=3))):
        starts = sorted(draw(st.lists(st.integers(1, 900), min_size=1, max_size=3, unique=True)))
        fhunks = tuple(draw(hunks(s)) for s in starts)
        files.append(FileDiff(old_path=f"src/f{f}.c", new_path=f"src/f{f}.c", hunks=fhunks))
    return Patch(sha="0" * 40, message="m", files=tuple(files))


contexts = st.one_of(st.none(), st.builds(RepoContext, st.integers(0, 50), st.integers(0, 400)))


class TestAgainstOracle:
    @given(patch=patches(), context=contexts)
    @settings(max_examples=120, deadline=None)
    def test_generated_patches(self, patch, context):
        assert_same_vector(patch, context)

    def test_comment_opened_in_one_hunk_closed_in_next(self):
        first = _hunk(3, ["a = 1;"], ["/* a = 1;"])
        second = _hunk(9, ["b = f(2);"], ["*/ b = f(2);"])
        assert_same_vector(_patch(first, second))

    def test_memo_does_not_outlive_a_call(self):
        extractor = FeatureExtractor()
        a = _patch(_hunk(1, ["x = 1;"], ["if (x) y();"]))
        b = _patch(_hunk(1, [], ["x = 1;"]))
        first = [extractor.extract(p).tobytes() for p in (a, b)]
        second = [extractor.extract(p).tobytes() for p in (b, a)][::-1]
        assert first == second
        assert first == [OracleExtractor().extract(p).tobytes() for p in (a, b)]


def _hunk(start: int, removed: list[str], added: list[str]) -> Hunk:
    lines = [Line(LineKind.REMOVED, t) for t in removed] + [Line(LineKind.ADDED, t) for t in added]
    return Hunk(start, len(removed), start, len(added), tuple(lines), "")


def _patch(*hunks: Hunk) -> Patch:
    return Patch(sha="0" * 40, message="m", files=(FileDiff("a.c", "a.c", hunks),))


class TestWorldPatches:
    def test_every_tiny_world_patch(self, tiny_world):
        patches = [tiny_world.patch_for(sha) for sha in sorted(tiny_world.labels)]
        assert len(patches) > 300
        context = RepoContext(total_files=24, total_functions=180)
        for patch in patches:
            assert_same_vector(patch)
            assert_same_vector(patch, context)
