"""Levenshtein edit distance over characters or token sequences.

Used by features 49-54 of Table I: per-hunk edit distance between the
removed and added sides, before and after token abstraction.  Inputs may be
strings (character distance) or sequences of hashable items such as token
strings (token distance); items must be hashable because each distinct item
gets its own match mask.

The distance is computed with the bit-vector algorithm of G. Myers (*A fast
bit-vector algorithm for approximate string matching based on dynamic
programming*, JACM 1999) in H. Hyyrö's formulation for global edit distance
(*A bit-vector algorithm for computing Levenshtein and Damerau edit
distances*, 2003).  One DP column is held as two Python-int bit vectors of
vertical +1/-1 deltas, so each item of the shorter input costs a handful of
big-int operations instead of one Python-level cell per item of the longer
input.  The result is exactly the classic DP's.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["levenshtein", "normalized_levenshtein"]

#: Inputs longer than this are truncated — enormous hunks (vendored files,
#: generated code) would otherwise dominate extraction time while adding no
#: discriminative signal beyond "very large".
_MAX_LEN = 2000


def levenshtein(a: Sequence, b: Sequence, max_len: int = _MAX_LEN) -> int:
    """Edit distance between sequences *a* and *b*.

    Equal inputs return 0 immediately, and a shared prefix/suffix is
    stripped before the bit-vector pass — both standard identities that
    leave every distance unchanged while skipping most of the work on the
    near-identical hunk sides that dominate real diffs.

    Args:
        a, b: strings or sequences of hashable items.
        max_len: truncation bound applied to both inputs.

    Returns:
        The minimum number of insertions, deletions, and substitutions.
    """
    a = a[:max_len]
    b = b[:max_len]
    if a == b:
        return 0
    # Strip the common prefix and suffix: neither contributes edits.
    lo, hi_a, hi_b = 0, len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a = a[lo:hi_a]
    b = b[lo:hi_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a  # bits run over the longer side, the loop over the shorter
    # peq[item]: bit i set where a[i] == item.
    peq: dict = {}
    bit = 1
    for item in a:
        peq[item] = peq.get(item, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    # pv/mv: rows whose vertical delta is +1/-1 (column 0 is 0, 1, ..., m).
    pv, mv, dist = mask, 0, len(a)
    for item in b:
        eq = peq.get(item, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # Row 0's horizontal delta is +1 (D[0][j] = j): shift in a 1.
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def normalized_levenshtein(a: Sequence, b: Sequence) -> float:
    """Edit distance scaled to [0, 1] by the longer input's length."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / min(longest, _MAX_LEN)
