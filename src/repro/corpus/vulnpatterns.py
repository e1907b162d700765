"""The twelve security-patch pattern generators (Table V taxonomy).

Each generator takes a file's source text and returns the *patched* text —
the world builder commits the result, so the repository history contains a
security fix whose code change matches the corresponding Table V category:

====  =======================================================
Type  Pattern
====  =======================================================
1     add or change bound checks
2     add or change null checks
3     add or change other sanity checks
4     change variable definitions
5     change variable values
6     change function declarations
7     change function parameters
8     add or change function calls
9     add or change jump statements
10    move statements without modification
11    add or change functions (redesign)
12    others
====  =======================================================

Generators return ``None`` when the file offers no applicable anchor, and
the world builder falls back to another type.
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

__all__ = [
    "PATTERN_NAMES",
    "SECURITY_GENERATORS",
    "apply_security_pattern",
]

PATTERN_NAMES: dict[int, str] = {
    1: "add or change bound checks",
    2: "add or change null checks",
    3: "add or change other sanity checks",
    4: "change variable definitions",
    5: "change variable values",
    6: "change function declarations",
    7: "change function parameters",
    8: "add or change function calls",
    9: "add or change jump statements",
    10: "move statements without modification",
    11: "add or change functions (redesign)",
    12: "others",
}


def _returns_void(fn) -> bool:
    """True if a parsed function's return type is plain void."""
    rt = fn.return_type_text.strip()
    return rt == "void" or rt.endswith(" void")


def _pick_function_body(text: str, rng: np.random.Generator):
    """Return (lines, fn, lo, hi) for a random function, or None."""
    fns = function_spans(text)
    if not fns:
        return None
    fn = pick(rng, fns)
    lines = split_lines(text)
    lo, hi = body_range(fn)
    if hi <= lo:
        return None
    return lines, fn, lo, hi


def _scalar_ident(lines: list[str], lo: int, hi: int, rng: np.random.Generator, fallback: str) -> str:
    idents = identifiers_in(lines[lo : hi + 1])
    return pick(rng, idents) if idents else fallback


def gen_bound_check(text: str, rng: np.random.Generator) -> str | None:
    """Type 1: insert a bound check before an indexing/simple statement."""
    picked = _pick_function_body(text, rng)
    if picked is None:
        return None
    lines, fn, lo, hi = picked
    anchors = statement_line_indices(lines, lo, hi)
    if not anchors:
        return None
    at = pick(rng, anchors)
    var = _scalar_ident(lines, lo, hi, rng, "len")
    bound = pick(rng, ["sizeof(" + var + ")", str(int(rng.integers(16, 4096))), _scalar_ident(lines, lo, hi, rng, "max")])
    op = pick(rng, [">", ">=", ">", ">="])
    indent = indent_of(lines[at])
    ret = "-1" if not _returns_void(fn) else ""
    check = [f"{indent}if ({var} {op} {bound})", f"{indent}    return {ret};".replace(" ;", ";")]
    return "\n".join(lines[:at] + check + lines[at:]) + "\n"


def gen_null_check(text: str, rng: np.random.Generator) -> str | None:
    """Type 2: insert a NULL check after an allocation/assignment."""
    picked = _pick_function_body(text, rng)
    if picked is None:
        return None
    lines, fn, lo, hi = picked
    # Prefer a malloc line; fall back to any simple statement.
    mallocs = [i for i in range(lo, hi + 1) if "malloc(" in lines[i] or "calloc(" in lines[i]]
    anchors = mallocs or statement_line_indices(lines, lo, hi)
    if not anchors:
        return None
    at = pick(rng, anchors)
    stripped = lines[at].strip()
    var = stripped.split("=", 1)[0].strip().lstrip("*") if "=" in stripped else _scalar_ident(lines, lo, hi, rng, "ptr")
    if not var.isidentifier():
        var = _scalar_ident(lines, lo, hi, rng, "ptr")
    indent = indent_of(lines[at])
    form = pick(rng, [f"!{var}", f"{var} == NULL"])
    ret = pick(rng, ["-1", "0"]) if not _returns_void(fn) else ""
    check = [f"{indent}if ({form})", f"{indent}    return {ret};".replace(" ;", ";")]
    return "\n".join(lines[: at + 1] + check + lines[at + 1 :]) + "\n"


def gen_sanity_check(text: str, rng: np.random.Generator) -> str | None:
    """Type 3: add a flag/range/state sanity check."""
    picked = _pick_function_body(text, rng)
    if picked is None:
        return None
    lines, fn, lo, hi = picked
    anchors = statement_line_indices(lines, lo, hi)
    if not anchors:
        return None
    at = pick(rng, anchors)
    var = _scalar_ident(lines, lo, hi, rng, "flags")
    indent = indent_of(lines[at])
    cond = pick(
        rng,
        [
            f"{var} & 0x{int(rng.integers(1, 128)):02x}",
            f"{var} < 0 || {var} > {int(rng.integers(64, 1024))}",
            f"{var} != {int(rng.integers(0, 4))} && {var} != {int(rng.integers(4, 16))}",
        ],
    )
    ret = "-1" if not _returns_void(fn) else ""
    check = [f"{indent}if ({cond})", f"{indent}    return {ret};".replace(" ;", ";")]
    return "\n".join(lines[:at] + check + lines[at:]) + "\n"


def gen_var_definition(text: str, rng: np.random.Generator) -> str | None:
    """Type 4: widen/sign-fix a local variable's type."""
    picked = _pick_function_body(text, rng)
    if picked is None:
        return None
    lines, fn, lo, hi = picked
    swaps = {
        "int ": "unsigned int ",
        "short ": "int ",
        "long ": "size_t ",
        "uint8_t ": "uint32_t ",
        "unsigned int ": "size_t ",
    }
    candidates = [
        (i, old, new)
        for i in range(lo, hi + 1)
        for old, new in swaps.items()
        if lines[i].strip().startswith(old) and lines[i].strip().endswith(";")
    ]
    if not candidates:
        return None
    i, old, new = pick(rng, candidates)
    lines[i] = lines[i].replace(old, new, 1)
    return "\n".join(lines) + "\n"


def gen_var_value(text: str, rng: np.random.Generator) -> str | None:
    """Type 5: zero-initialize / change an initial value (info-leak style)."""
    picked = _pick_function_body(text, rng)
    if picked is None:
        return None
    lines, fn, lo, hi = picked
    inits = [
        i
        for i in range(lo, hi + 1)
        if "=" in lines[i] and lines[i].strip().endswith(";") and "==" not in lines[i]
    ]
    if not inits:
        return None
    i = pick(rng, inits)
    head, _, tail = lines[i].rpartition("=")
    if not head.strip():
        return None
    if rng.random() < 0.5:
        lines[i] = f"{head}= 0;"
    else:
        var = head.strip().split()[-1].lstrip("*")
        indent = indent_of(lines[i])
        lines.insert(i + 1, f"{indent}memset(&{var}, 0, sizeof({var}));")
    return "\n".join(lines) + "\n"


def gen_func_declaration(text: str, rng: np.random.Generator) -> str | None:
    """Type 6: change a function's declared return type."""
    fns = function_spans(text)
    if not fns:
        return None
    fn = pick(rng, fns)
    lines = split_lines(text)
    sig_idx = fn.start_line - 1
    swaps = {"int ": "long ", "void ": "int ", "size_t ": "ssize_t ", "long ": "int "}
    for old, new in swaps.items():
        if lines[sig_idx].startswith(old):
            lines[sig_idx] = new + lines[sig_idx][len(old) :]
            # A changed int->void needs no return fix for realism purposes.
            return "\n".join(lines) + "\n"
    return None


def gen_func_parameters(text: str, rng: np.random.Generator) -> str | None:
    """Type 7: add a length/context parameter to a signature."""
    fns = function_spans(text)
    if not fns:
        return None
    fn = pick(rng, fns)
    lines = split_lines(text)
    sig_idx = fn.start_line - 1
    sig = lines[sig_idx]
    close = sig.rfind(")")
    if close < 0:
        return None
    new_param = pick(rng, ["size_t buflen", "unsigned int limit", "int strict"])
    if sig[close - 1] == "(" or sig[close - 5 : close] == "(void":
        inner = new_param
        sig = sig[: sig.rfind("(") + 1] + inner + ")"
    else:
        sig = sig[:close] + ", " + new_param + sig[close:]
    lines[sig_idx] = sig
    # Reference the new parameter once so the change looks purposeful.
    lo, hi = body_range(fn)
    anchors = statement_line_indices(lines, lo, hi)
    if anchors:
        at = anchors[0]
        indent = indent_of(lines[at])
        name = new_param.split()[-1]
        ret = "-1" if not _returns_void(fn) else ""
        lines.insert(at, f"{indent}if ({name} == 0)")
        lines.insert(at + 1, f"{indent}    return {ret};".replace(" ;", ";"))
    return "\n".join(lines) + "\n"


def gen_func_calls(text: str, rng: np.random.Generator) -> str | None:
    """Type 8: lock/unlock pairs, release calls, safer call variants."""
    picked = _pick_function_body(text, rng)
    if picked is None:
        return None
    lines, fn, lo, hi = picked
    anchors = statement_line_indices(lines, lo, hi)
    if not anchors:
        return None
    at = pick(rng, anchors)
    indent = indent_of(lines[at])
    var = _scalar_ident(lines, lo, hi, rng, "ctx")
    style = rng.random()
    if style < 0.4:  # lock around a racy operation
        lines.insert(at, f"{indent}mutex_lock(&{var}_lock);")
        lines.insert(at + 2, f"{indent}mutex_unlock(&{var}_lock);")
    elif style < 0.7:  # release to avoid leak
        lines.insert(at + 1, f"{indent}release_{var}({var});")
    else:  # safer variant of an existing call
        stripped = lines[at].strip()
        if "(" in stripped:
            name_end = stripped.index("(")
            callee = stripped[:name_end].split("=")[-1].strip()
            if callee.isidentifier():
                lines[at] = lines[at].replace(callee + "(", "safe_" + callee + "(", 1)
            else:
                lines.insert(at + 1, f"{indent}sanitize_{var}({var});")
        else:
            lines.insert(at + 1, f"{indent}sanitize_{var}({var});")
    return "\n".join(lines) + "\n"


def gen_jump_statements(text: str, rng: np.random.Generator) -> str | None:
    """Type 9: route an early return through a cleanup label."""
    picked = _pick_function_body(text, rng)
    if picked is None:
        return None
    lines, fn, lo, hi = picked
    returns = [i for i in range(lo, hi + 1) if lines[i].strip().startswith("return ")]
    if not returns or _returns_void(fn):
        return None
    at = returns[0]
    value = lines[at].strip()[len("return ") :].rstrip(";")
    indent = indent_of(lines[at])
    lines[at] = f"{indent}goto out;"
    # Append the label just before the closing brace.
    close = fn.end_line - 1
    label = ["out:", f"    return {value};"]
    return "\n".join(lines[:close] + label + lines[close:]) + "\n"


def gen_move_statements(text: str, rng: np.random.Generator) -> str | None:
    """Type 10: move a statement earlier without modification."""
    picked = _pick_function_body(text, rng)
    if picked is None:
        return None
    lines, fn, lo, hi = picked
    anchors = statement_line_indices(lines, lo, hi)
    if len(anchors) < 2:
        return None
    src_pos = int(rng.integers(1, len(anchors)))
    dst_pos = int(rng.integers(0, src_pos))
    src, dst = anchors[src_pos], anchors[dst_pos]
    if src - dst < 2:
        return None
    moved = lines.pop(src)
    lines.insert(dst, moved)
    return "\n".join(lines) + "\n"


def gen_redesign(text: str, rng: np.random.Generator) -> str | None:
    """Type 11: rewrite a chunk of a function's logic."""
    picked = _pick_function_body(text, rng)
    if picked is None:
        return None
    lines, fn, lo, hi = picked
    anchors = statement_line_indices(lines, lo, hi)
    if len(anchors) < 2:
        return None
    start = anchors[0]
    end = anchors[min(len(anchors) - 1, int(rng.integers(1, len(anchors))))]
    if end <= start:
        return None
    gen = CodeGenerator(rng)
    indent = indent_of(lines[start])
    var = _scalar_ident(lines, lo, hi, rng, "state")
    replacement = [
        f"{indent}if ({var} < 0 || {var} > {int(rng.integers(64, 512))}) {{",
        f"{indent}    {var} = 0;",
        f"{indent}    return -1;" if not _returns_void(fn) else f"{indent}    return;",
        f"{indent}}}",
        f"{indent}{var} = validate_{gen.noun()}({var});",
        f"{indent}for (i = 0; i < {var}; i++) {{",
        f"{indent}    update_{gen.noun()}(i, {var});",
        f"{indent}}}",
    ]
    return "\n".join(lines[:start] + replacement + lines[end + 1 :]) + "\n"


def gen_others(text: str, rng: np.random.Generator) -> str | None:
    """Type 12: minor uncategorized tweak (off-by-one, operator fix)."""
    picked = _pick_function_body(text, rng)
    if picked is None:
        return None
    lines, fn, lo, hi = picked
    swaps = [(" < ", " <= "), (" <= ", " < "), (" > ", " >= "), (" && ", " || ")]
    candidates = [
        (i, old, new) for i in range(lo, hi + 1) for old, new in swaps if old in lines[i]
    ]
    if not candidates:
        return None
    i, old, new = pick(rng, candidates)
    lines[i] = lines[i].replace(old, new, 1)
    return "\n".join(lines) + "\n"


SECURITY_GENERATORS: dict[int, Callable[[str, np.random.Generator], str | None]] = {
    1: gen_bound_check,
    2: gen_null_check,
    3: gen_sanity_check,
    4: gen_var_definition,
    5: gen_var_value,
    6: gen_func_declaration,
    7: gen_func_parameters,
    8: gen_func_calls,
    9: gen_jump_statements,
    10: gen_move_statements,
    11: gen_redesign,
    12: gen_others,
}


def apply_security_pattern(
    text: str, pattern_type: int, rng: np.random.Generator
) -> str | None:
    """Apply one Table V pattern to *text*; None if inapplicable."""
    return SECURITY_GENERATORS[pattern_type](text, rng)
