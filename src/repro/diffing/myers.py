"""Myers O(ND) shortest-edit-script diff.

Implements the greedy forward algorithm from Myers' *An O(ND) Difference
Algorithm and Its Variations* (1986), operating on arbitrary hashable
sequences (we use it on lists of lines).  The output is an edit script of
``(op, old_index, new_index)`` records which the hunk assembler in
:mod:`repro.diffing.unified_gen` turns into unified-diff hunks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

__all__ = ["EditOp", "Edit", "common_affixes", "diff_sequences", "lcs_length", "windowed_script"]


class EditOp(enum.Enum):
    """Edit operation kinds in an edit script."""

    EQUAL = "equal"
    DELETE = "delete"
    INSERT = "insert"


@dataclass(frozen=True, slots=True)
class Edit:
    """One record of an edit script.

    For EQUAL and DELETE, ``old_index`` is meaningful; for EQUAL and INSERT,
    ``new_index`` is meaningful.  Unused indices are -1.
    """

    op: EditOp
    old_index: int
    new_index: int


def common_affixes(old: Sequence, new: Sequence) -> tuple[int, int]:
    """Lengths of the common prefix and common suffix of *old* and *new*.

    The suffix never overlaps the prefix, so ``old[prefix : len(old) -
    suffix]`` and ``new[prefix : len(new) - suffix]`` are the middles that
    still need a search, and their edit script starts and ends with a
    change.
    """
    limit = min(len(old), len(new))
    prefix = 0
    for a, b in zip(old, new):
        if a != b:
            break
        prefix += 1
    suffix = 0
    for i in range(-1, prefix - limit - 1, -1):
        if old[i] != new[i]:
            break
        suffix += 1
    return prefix, suffix


def windowed_script(old: Sequence, new: Sequence, window: int | None) -> tuple[list[Edit], int]:
    """Edit script of *old* to *new* that skips most of the common ends.

    Only the middle left by :func:`common_affixes` is searched.  At most
    *window* EQUAL records of the common prefix, and of the common suffix,
    are kept next to it (all of them when *window* is None).

    Returns:
        The script and the number of leading prefix records left out.
    """
    # Myers is quadratic in the worst case and file versions usually share
    # almost everything, so only the middle is searched.
    n, m = len(old), len(new)
    prefix, suffix = common_affixes(old, new)
    lead = prefix if window is None else min(prefix, window)
    trail = suffix if window is None else min(suffix, window)
    script = [Edit(EditOp.EQUAL, i, i) for i in range(prefix - lead, prefix)]
    script.extend(_myers(old[prefix : n - suffix], new[prefix : m - suffix], prefix))
    script.extend(Edit(EditOp.EQUAL, n - suffix + k, m - suffix + k) for k in range(trail))
    return script, prefix - lead


def diff_sequences(old: Sequence, new: Sequence) -> list[Edit]:
    """Compute a minimal edit script turning *old* into *new*.

    Returns:
        Edits in order: EQUAL records carry both indices; DELETE records
        reference *old*; INSERT records reference *new*.
    """
    return windowed_script(old, new, None)[0]


def _myers(old: Sequence, new: Sequence, offset: int) -> list[Edit]:
    """Greedy O(ND) forward search with trace-back.

    *offset* is added to every index of the script, so a search over two
    slices that start at the same position reports indices into the whole
    sequences.
    """
    n, m = len(old), len(new)
    if n == 0:
        return [Edit(EditOp.INSERT, -1, j + offset) for j in range(m)]
    if m == 0:
        return [Edit(EditOp.DELETE, i + offset, -1) for i in range(n)]

    max_d = n + m
    # v[k] = furthest x on diagonal k; store per-d snapshots for trace-back.
    v: dict[int, int] = {1: 0}
    trace: list[dict[int, int]] = []
    for d in range(max_d + 1):
        trace.append(dict(v))
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v.get(k - 1, -1) < v.get(k + 1, -1)):
                x = v.get(k + 1, 0)  # down: insertion
            else:
                x = v.get(k - 1, 0) + 1  # right: deletion
            y = x - k
            while x < n and y < m and old[x] == new[y]:
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                return _backtrack(trace, old, new, d, offset)
    raise AssertionError("unreachable: Myers search must terminate by d = n+m")


def _backtrack(
    trace: list[dict[int, int]], old: Sequence, new: Sequence, d_final: int, offset: int
) -> list[Edit]:
    """Recover the edit script from the per-d snapshots, indices + *offset*."""
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
        # Snake back through the diagonal of equal elements.
        while x > prev_x and y > prev_y:
            x -= 1
            y -= 1
            script_rev.append(Edit(EditOp.EQUAL, x + offset, y + offset))
        if d > 0:
            if x == prev_x:  # came from an insertion
                y -= 1
                script_rev.append(Edit(EditOp.INSERT, -1, y + offset))
            else:  # came from a deletion
                x -= 1
                script_rev.append(Edit(EditOp.DELETE, x + offset, -1))
    while x > 0 and y > 0:
        x -= 1
        y -= 1
        script_rev.append(Edit(EditOp.EQUAL, x + offset, y + offset))
    script_rev.reverse()
    return script_rev


def lcs_length(old: Sequence, new: Sequence) -> int:
    """Length of the longest common subsequence (EQUAL count of the script)."""
    prefix, suffix = common_affixes(old, new)
    middle = _myers(old[prefix : len(old) - suffix], new[prefix : len(new) - suffix], prefix)
    return prefix + suffix + sum(1 for e in middle if e.op is EditOp.EQUAL)
