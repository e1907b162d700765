"""The trimmed diff against the full-script diff it replaced.

``diff_lines`` searches only the middle left after the common prefix and
suffix, and builds only the ``context`` records of each next to it.  The
functions below are the full-script versions it replaced, frozen as the
oracle: every hunk, count and section must come out identical.
"""

from __future__ import annotations

from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.synthesis.engine as engine
from repro.diffing import EditOp, diff_lines, diff_sequences, diff_texts, lcs_length
from repro.diffing.myers import Edit
from repro.diffing.unified_gen import _build_hunk, _Group
from repro.patch.model import Hunk
from repro.synthesis import PatchSynthesizer

# ---- the frozen full-script diff ------------------------------------------


def oracle_diff_sequences(old: Sequence, new: Sequence) -> list[Edit]:
    n, m = len(old), len(new)
    prefix = 0
    while prefix < n and prefix < m and old[prefix] == new[prefix]:
        prefix += 1
    suffix = 0
    while suffix < n - prefix and suffix < m - prefix and old[n - 1 - suffix] == new[m - 1 - suffix]:
        suffix += 1
    core = _oracle_myers(old[prefix : n - suffix], new[prefix : m - suffix])
    script: list[Edit] = [Edit(EditOp.EQUAL, i, i) for i in range(prefix)]
    for e in core:
        script.append(
            Edit(
                e.op,
                e.old_index + prefix if e.old_index >= 0 else -1,
                e.new_index + prefix if e.new_index >= 0 else -1,
            )
        )
    for k in range(suffix):
        script.append(Edit(EditOp.EQUAL, n - suffix + k, m - suffix + k))
    return script


def _oracle_myers(old: Sequence, new: Sequence) -> list[Edit]:
    n, m = len(old), len(new)
    if n == 0:
        return [Edit(EditOp.INSERT, -1, j) for j in range(m)]
    if m == 0:
        return [Edit(EditOp.DELETE, i, -1) for i in range(n)]
    v: dict[int, int] = {1: 0}
    trace: list[dict[int, int]] = []
    for d in range(n + m + 1):
        trace.append(dict(v))
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v.get(k - 1, -1) < v.get(k + 1, -1)):
                x = v.get(k + 1, 0)
            else:
                x = v.get(k - 1, 0) + 1
            y = x - k
            while x < n and y < m and old[x] == new[y]:
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                return _oracle_backtrack(trace, old, new, d)
    raise AssertionError("unreachable")


def _oracle_backtrack(trace, old, new, d_final):
    script_rev: list[Edit] = []
    x, y = len(old), len(new)
    for d in range(d_final, 0, -1):
        v = trace[d]
        k = x - y
        if k == -d or (k != d and v.get(k - 1, -1) < v.get(k + 1, -1)):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = v.get(prev_k, 0)
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:
            x -= 1
            y -= 1
            script_rev.append(Edit(EditOp.EQUAL, x, y))
        if d > 0:
            if x == prev_x:
                y -= 1
                script_rev.append(Edit(EditOp.INSERT, -1, y))
            else:
                x -= 1
                script_rev.append(Edit(EditOp.DELETE, x, -1))
    while x > 0 and y > 0:
        x -= 1
        y -= 1
        script_rev.append(Edit(EditOp.EQUAL, x, y))
    script_rev.reverse()
    return script_rev


def oracle_group_edits(script: list[Edit], context: int) -> list[_Group]:
    groups: list[_Group] = []
    current: list[Edit] = []
    start_old = start_new = 0
    equal_run: list[Edit] = []
    old_cursor = new_cursor = 0

    def flush(trailing: list[Edit]) -> None:
        nonlocal current
        current.extend(trailing)
        groups.append(_Group(tuple(current), start_old, start_new))
        current = []

    for edit in script:
        if edit.op is EditOp.EQUAL:
            equal_run.append(edit)
            old_cursor += 1
            new_cursor += 1
            continue
        if current:
            if len(equal_run) <= 2 * context:
                current.extend(equal_run)
            else:
                flush(equal_run[:context])
        if not current:
            lead = equal_run[-context:] if context else []
            start_old = lead[0].old_index if lead else (edit.old_index if edit.op is EditOp.DELETE else old_cursor)
            start_new = lead[0].new_index if lead else (edit.new_index if edit.op is EditOp.INSERT else new_cursor)
            current = list(lead)
        equal_run = []
        current.append(edit)
        if edit.op is EditOp.DELETE:
            old_cursor += 1
        else:
            new_cursor += 1
    if current:
        flush(equal_run[:context])
    return groups


def oracle_diff_lines(old_lines: list[str], new_lines: list[str], context: int = 3) -> tuple[Hunk, ...]:
    script = oracle_diff_sequences(old_lines, new_lines)
    if all(e.op is EditOp.EQUAL for e in script):
        return ()
    groups = oracle_group_edits(script, context)
    return tuple(_build_hunk(g, old_lines, new_lines) for g in groups)


# ---- strategies ----------------------------------------------------------

contexts = st.integers(min_value=0, max_value=5)
small = st.lists(st.sampled_from("abcd"), max_size=25)


@st.composite
def shared_ends(draw):
    """Two sides with a long common prefix and suffix around short middles."""
    ends = st.lists(st.sampled_from("abcde"), max_size=30)
    middle = st.lists(st.sampled_from("abx"), max_size=6)
    prefix, suffix = draw(ends), draw(ends)
    return prefix + draw(middle) + suffix, prefix + draw(middle) + suffix


@st.composite
def rewritten(draw):
    """Sides with no line in common (one of them may be empty)."""
    return draw(st.lists(st.sampled_from("abc"), max_size=20)), draw(st.lists(st.sampled_from("xyz"), max_size=20))


def assert_matches_oracle(old: list[str], new: list[str], context: int) -> None:
    assert diff_lines(old, new, context) == oracle_diff_lines(old, new, context)
    assert diff_sequences(old, new) == oracle_diff_sequences(old, new)
    assert lcs_length(old, new) == sum(1 for e in oracle_diff_sequences(old, new) if e.op is EditOp.EQUAL)


class TestAgainstOracle:
    @given(old=small, new=small, context=contexts)
    @settings(max_examples=200, deadline=None)
    def test_random_lists(self, old, new, context):
        assert_matches_oracle(old, new, context)

    @given(sides=shared_ends(), context=contexts)
    @settings(max_examples=250, deadline=None)
    def test_long_common_ends(self, sides, context):
        assert_matches_oracle(*sides, context)

    @given(sides=rewritten(), context=contexts)
    @settings(max_examples=60, deadline=None)
    def test_fully_rewritten_and_empty_sides(self, sides, context):
        old, new = sides
        assert_matches_oracle(old, new, context)
        assert_matches_oracle(new, old, context)

    @given(seq=small, context=contexts)
    @settings(max_examples=50, deadline=None)
    def test_identical_is_empty(self, seq, context):
        assert diff_lines(seq, list(seq), context) == () == oracle_diff_lines(seq, list(seq), context)

    @pytest.mark.parametrize("context", range(6))
    def test_insertion_after_long_prefix(self, context):
        # A pure insertion whose hunk has fewer lead lines than the prefix:
        # its old start comes from the cursor, not from a record.
        old = list("abcdefgh")
        new = old[:6] + ["X"] + old[6:]
        assert_matches_oracle(old, new, context)
        assert_matches_oracle(new, old, context)


def _changed_pairs(world):
    for repo in world.repos.values():
        for sha in repo.shas():
            before, after = repo.before_after(sha)
            for path in sorted(set(before) | set(after)):
                old, new = before.get(path, ""), after.get(path, "")
                if old != new:
                    yield old, new, path


def _assert_text_diff_matches(old: str, new: str, path: str) -> None:
    hunks = diff_texts(old, new, path).hunks
    assert hunks == oracle_diff_lines(old.splitlines(), new.splitlines()), path


class TestWorldPairs:
    def test_every_changed_file_pair(self, tiny_world):
        pairs = list(_changed_pairs(tiny_world))
        assert len(pairs) > 300
        for old, new, path in pairs:
            _assert_text_diff_matches(old, new, path)

    def test_synthesis_locate_and_rediff_pairs(self, tiny_world, monkeypatch):
        # Every diff_texts call of a synthesis run configured as
        # build_patchdb's: the _locate diffs and the re-diffs of variants.
        seen: list[tuple[str, str, str]] = []

        def recording(before, after, path, *args, **kwargs):
            seen.append((before, after, path))
            return diff_texts(before, after, path, *args, **kwargs)

        monkeypatch.setattr(engine, "diff_texts", recording)
        synthesizer = PatchSynthesizer(tiny_world, max_per_patch=2, seed=0)
        made = 0
        for sha in sorted(tiny_world.labels)[::3]:
            made += len(synthesizer.synthesize(sha))
        assert made > 20 and len(seen) > made
        for old, new, path in seen:
            _assert_text_diff_matches(old, new, path)
