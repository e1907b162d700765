"""``identifiers_in`` lexes its lines joined, once, against the per-line lex.

The per-line version below is the oracle: each line lexed alone, as
``identifiers_in`` did before it lexed the joined lines.  Every call the
world builder makes while TINY worlds 0-7 build must match it, and so must
each construct that could carry lexer state across a newline.
"""

from __future__ import annotations

import pytest

import repro.corpus.nonsec as nonsec
import repro.corpus.vulnpatterns as vulnpatterns
from repro.analysis.experiments import TINY
from repro.corpus import build_world
from repro.corpus.mutate import identifiers_in
from repro.lang.lexer import code_tokens
from repro.lang.tokens import TokenKind


def per_line_identifiers(lines: list[str]) -> list[str]:
    seen: list[str] = []
    for line in lines:
        for tok in code_tokens(line):
            if tok.kind is TokenKind.IDENTIFIER and tok.text not in seen:
                seen.append(tok.text)
    return seen


def test_world_build_calls_match_per_line_lexing():
    calls: list[list[str]] = []

    def recording(lines):
        calls.append(list(lines))
        return identifiers_in(lines)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonsec, "identifiers_in", recording)
        mp.setattr(vulnpatterns, "identifiers_in", recording)
        for seed in range(8):
            build_world(TINY.world_config(seed))
    assert len(calls) > 1000
    assert any(len(lines) > 1 for lines in calls)
    for lines in calls:
        assert identifiers_in(lines) == per_line_identifiers(lines), lines


@pytest.mark.parametrize(
    "lines",
    [
        [],
        ["a = b;"],
        ["x = 1; /* open", "still_comment = y;", "*/ z = w;"],
        ["/* one */ a = b; /* two", "c = d;"],
        ['msg = "unterminated', 'after = "closed";'],
        ["c = 'x", "d = e;"],
        ['s = "ends in backslash \\', 'more = t;"'],
        ["#define M(a) \\", "  (a + b)", "use = M(q);"],
        ["#include <hdr.h>", "n = m;"],
        ["total = a + \\", "  b;"],
        ["// line comment x", "y = z;"],
        ['p = L"wide', "q = u8'c';", "r = U'"],
        ["  ", "\t", "k = k;"],
    ],
)
def test_constructs_that_cross_a_newline(lines):
    assert identifiers_in(lines) == per_line_identifiers(lines)
