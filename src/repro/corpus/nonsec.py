"""Non-security patch generators.

The wild is mostly not security fixes — the paper measures 6-10% security
commits on GitHub — so the world builder needs a rich supply of feature
additions, refactors, performance tweaks, doc/changelog edits, and ordinary
(non-security) bug fixes.  Some of these deliberately overlap the security
feature space (a bugfix can also add an ``if``) to keep the identification
task realistically hard.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..patch.model import split_lines
from .codegen import CodeGenerator
from .mutate import (
    body_range,
    function_spans,
    identifiers_in,
    indent_of,
    pick,
    statement_line_indices,
)

__all__ = ["NONSEC_KINDS", "NONSEC_GENERATORS", "apply_nonsec_pattern"]

NONSEC_KINDS: dict[str, str] = {
    "feature": "add a new function / capability",
    "refactor": "rename identifiers, restructure without behavior change",
    "perf": "performance improvement",
    "bugfix": "ordinary (non-security) bug fix",
    "cleanup": "style / dead-code cleanup",
    "logging": "add or adjust logging",
    "defensive": "defensive programming (checks that fix no vulnerability)",
}

#: Sampling weights for the kinds; 'defensive' and guard-adding 'bugfix'
#: deliberately overlap the security feature space so identification stays
#: realistically hard (the paper's experts needed to read each candidate).
NONSEC_KIND_WEIGHTS: dict[str, float] = {
    "feature": 0.16,
    "refactor": 0.14,
    "perf": 0.10,
    "bugfix": 0.22,
    "cleanup": 0.09,
    "logging": 0.09,
    "defensive": 0.20,
}


def gen_feature(text: str, rng: np.random.Generator) -> str | None:
    """Add a whole new function (and optionally a call to it).

    Declines on files that have already grown past ~12 functions so a long
    world build does not concentrate unbounded growth (and hence unbounded
    parse cost) in a few hot files.
    """
    if len(function_spans(text)) > 12:
        return None
    gen = CodeGenerator(rng)
    new_fn = gen.gen_function()
    addition = "\n" + new_fn.render() + "\n"
    return text.rstrip("\n") + "\n" + addition


def gen_refactor(text: str, rng: np.random.Generator) -> str | None:
    """Rename a local identifier consistently inside one function."""
    fns = function_spans(text)
    if not fns:
        return None
    fn = pick(rng, fns)
    lines = split_lines(text)
    lo, hi = body_range(fn)
    idents = [i for i in identifiers_in(lines[lo : hi + 1]) if len(i) > 2]
    if not idents:
        return None
    old = pick(rng, idents)
    new = old + "_" + pick(rng, ["new", "tmp", "cur", "next", "local"])
    import re

    pattern = re.compile(rf"\b{re.escape(old)}\b")
    changed = False
    for i in range(lo, hi + 1):
        replaced = pattern.sub(new, lines[i])
        if replaced != lines[i]:
            lines[i] = replaced
            changed = True
    return "\n".join(lines) + "\n" if changed else None


def gen_perf(text: str, rng: np.random.Generator) -> str | None:
    """Replace a loop with a bulk call, or hoist a computation."""
    fns = function_spans(text)
    if not fns:
        return None
    fn = pick(rng, fns)
    lines = split_lines(text)
    lo, hi = body_range(fn)
    loops = [i for i in range(lo, hi + 1) if lines[i].strip().startswith(("for ", "for(", "while "))]
    if loops and rng.random() < 0.6:
        at = loops[0]
        indent = indent_of(lines[at])
        # Replace the loop header + body (up to matching close) with memcpy.
        depth = 0
        end = at
        for j in range(at, min(hi + 2, len(lines))):
            depth += lines[j].count("{") - lines[j].count("}")
            end = j
            if depth <= 0 and j > at:
                break
        idents = identifiers_in(lines[at : end + 1]) or ["dst", "src", "n"]
        a = idents[0]
        b = idents[1] if len(idents) > 1 else a
        c = idents[2] if len(idents) > 2 else "n"
        replacement = [f"{indent}memcpy({a}, {b}, {c} * sizeof(*{a}));"]
        return "\n".join(lines[:at] + replacement + lines[end + 1 :]) + "\n"
    anchors = statement_line_indices(lines, lo, hi)
    if len(anchors) < 2:
        return None
    # Hoist: move a computation up (looks like type 10 but non-security).
    src = anchors[-1]
    dst = anchors[0]
    if src - dst < 2:
        return None
    moved = lines.pop(src)
    lines.insert(dst, moved)
    return "\n".join(lines) + "\n"


def gen_bugfix(text: str, rng: np.random.Generator) -> str | None:
    """Ordinary bug fix: adjust a constant, operator, or add a guard."""
    fns = function_spans(text)
    if not fns:
        return None
    fn = pick(rng, fns)
    lines = split_lines(text)
    lo, hi = body_range(fn)
    roll = rng.random()
    if roll < 0.4:
        # Constant adjustment.
        import re

        numbered = [
            i for i in range(lo, hi + 1) if re.search(r"\b\d+\b", lines[i]) and lines[i].strip().endswith(";")
        ]
        if not numbered:
            return None
        i = pick(rng, numbered)
        m = re.search(r"\b(\d+)\b", lines[i])
        new_value = str(int(m.group(1)) + int(rng.integers(1, 4)))
        lines[i] = lines[i][: m.start(1)] + new_value + lines[i][m.end(1) :]
        return "\n".join(lines) + "\n"
    if roll < 0.7:
        # Guard an operation — overlaps the security feature space on purpose.
        anchors = statement_line_indices(lines, lo, hi)
        if not anchors:
            return None
        at = pick(rng, anchors)
        idents = identifiers_in([lines[at]]) or ["state"]
        indent = indent_of(lines[at])
        var = pick(rng, idents)
        stmt = lines.pop(at)
        lines.insert(at, f"{indent}if ({var} != 0) {{")
        lines.insert(at + 1, "    " + stmt)
        lines.insert(at + 2, f"{indent}}}")
        return "\n".join(lines) + "\n"
    # Operator direction fix.
    swaps = [(" + ", " - "), (" - ", " + "), (" == ", " != ")]
    candidates = [(i, old, new) for i in range(lo, hi + 1) for old, new in swaps if old in lines[i]]
    if not candidates:
        return None
    i, old, new = pick(rng, candidates)
    lines[i] = lines[i].replace(old, new, 1)
    return "\n".join(lines) + "\n"


def gen_cleanup(text: str, rng: np.random.Generator) -> str | None:
    """Remove a statement or blank-line noise (dead code cleanup)."""
    fns = function_spans(text)
    if not fns:
        return None
    fn = pick(rng, fns)
    lines = split_lines(text)
    lo, hi = body_range(fn)
    anchors = statement_line_indices(lines, lo, hi)
    if len(anchors) < 3:
        return None
    at = pick(rng, anchors[1:-1])
    del lines[at]
    return "\n".join(lines) + "\n"


def gen_logging(text: str, rng: np.random.Generator) -> str | None:
    """Insert a log/debug print statement."""
    fns = function_spans(text)
    if not fns:
        return None
    fn = pick(rng, fns)
    lines = split_lines(text)
    lo, hi = body_range(fn)
    anchors = statement_line_indices(lines, lo, hi)
    if not anchors:
        return None
    at = pick(rng, anchors)
    indent = indent_of(lines[at])
    idents = identifiers_in([lines[at]]) or ["state"]
    var = pick(rng, idents)
    call = pick(rng, ["pr_debug", "fprintf(stderr,", "log_info", "printf"])
    if call == "fprintf(stderr,":
        stmt = f'{indent}fprintf(stderr, "{fn.name}: {var}=%d\\n", {var});'
    else:
        stmt = f'{indent}{call}("{fn.name}: {var}=%d\\n", {var});'
    lines.insert(at + 1, stmt)
    return "\n".join(lines) + "\n"


def gen_defensive(text: str, rng: np.random.Generator) -> str | None:
    """Add a validation check that fixes no actual vulnerability.

    Feature-space twin of security types 1-3: an ``if (...) return``
    guard on a parameter or state variable.  Real projects land these as
    hardening/robustness commits constantly, and the paper's experts had
    to read each candidate precisely because such commits are not security
    patches despite looking like them.
    """
    fns = function_spans(text)
    if not fns:
        return None
    fn = pick(rng, fns)
    lines = split_lines(text)
    lo, hi = body_range(fn)
    anchors = statement_line_indices(lines, lo, hi)
    if not anchors:
        return None
    at = pick(rng, anchors)
    idents = identifiers_in(lines[lo : hi + 1]) or ["arg"]
    var = pick(rng, idents)
    indent = indent_of(lines[at])
    cond = pick(
        rng,
        [
            f"!{var}",
            f"{var} == NULL",
            f"{var} < 0",
            f"{var} > {int(rng.integers(64, 2048))}",
            f"{var} & 0x{int(rng.integers(1, 64)):02x}",
        ],
    )
    rt = fn.return_type_text.strip()
    ret = "" if rt == "void" or rt.endswith(" void") else pick(rng, ["-1", "0"])
    lines.insert(at, f"{indent}if ({cond})")
    lines.insert(at + 1, f"{indent}    return {ret};".replace(" ;", ";"))
    return "\n".join(lines) + "\n"


NONSEC_GENERATORS: dict[str, Callable[[str, np.random.Generator], str | None]] = {
    "feature": gen_feature,
    "refactor": gen_refactor,
    "perf": gen_perf,
    "bugfix": gen_bugfix,
    "cleanup": gen_cleanup,
    "logging": gen_logging,
    "defensive": gen_defensive,
}


def apply_nonsec_pattern(text: str, kind: str, rng: np.random.Generator) -> str | None:
    """Apply one non-security change of *kind*; None if inapplicable."""
    return NONSEC_GENERATORS[kind](text, rng)
