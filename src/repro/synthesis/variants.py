"""The eight control-flow variants of Fig. 5.

Each variant rewrites one ``if (COND)`` statement into a semantically
equivalent form with extra control-flow scaffolding: constant guards,
hoisted condition variables, or flag variables set by a preceding ``if``.
The scaffolding identifiers carry a ``_SYS_`` prefix and a unique suffix so
several variants can stack in one function without collisions.

Equivalence assumes ``COND`` has no side effects — variants 3-8 evaluate it
(at most) twice.  :func:`apply_variant_text` enforces that assumption with
:func:`repro.lang.sideeffects.expression_side_effects` and refuses (raises
:class:`SynthesisError`) to rewrite a side-effecting condition, so the
engine simply skips such sites.  The corpus generator never emits them; the
check matters for arbitrary real-world code (the paper's tool shares the
assumption without enforcing it).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SynthesisError
from ..lang.sideeffects import expression_side_effects
from ..patch.model import split_lines

__all__ = ["Variant", "VARIANTS", "apply_variant_text", "N_VARIANTS"]

N_VARIANTS = 8


@dataclass(frozen=True, slots=True)
class Variant:
    """One Fig. 5 template.

    Attributes:
        variant_id: 1-8, matching the figure's reading order (left column
            top-to-bottom, then right column).
        description: what the template adds.
    """

    variant_id: int
    description: str

    def rewrite(self, cond: str, suffix: str, indent: str) -> tuple[list[str], str]:
        """Produce (pre_lines, new_condition) for a condition text.

        Args:
            cond: the original condition's source text.
            suffix: uniquifying suffix for scaffold identifiers.
            indent: indentation string of the ``if`` line.

        Raises:
            SynthesisError: for an unknown variant id.
        """
        c = f"({cond})" if _needs_parens(cond) else cond
        v = self.variant_id
        if v == 1:
            zero = f"_SYS_ZERO_{suffix}"
            return [f"{indent}const int {zero} = 0;"], f"{zero} || {c}"
        if v == 2:
            one = f"_SYS_ONE_{suffix}"
            return [f"{indent}const int {one} = 1;"], f"{one} && {c}"
        if v == 3:
            stmt = f"_SYS_STMT_{suffix}"
            return [f"{indent}int {stmt} = {c};"], f"1 == {stmt}"
        if v == 4:
            stmt = f"_SYS_STMT_{suffix}"
            # '!' binds tighter than comparison operators, so the hoisted
            # negation must parenthesize even "simple" conditions: for
            # c == 'a > 1', '!a > 1' would negate only 'a'.
            negated = f"!{c}" if c.startswith("(") else f"!({c})"
            return [f"{indent}int {stmt} = {negated};"], f"!{stmt}"
        if v == 5:
            val = f"_SYS_VAL_{suffix}"
            pre = [
                f"{indent}int {val} = 0;",
                f"{indent}if {c if c.startswith('(') else '(' + c + ')'} {{ {val} = 1; }}",
            ]
            return pre, f"{val}"
        if v == 6:
            val = f"_SYS_VAL_{suffix}"
            pre = [
                f"{indent}int {val} = 1;",
                f"{indent}if {c if c.startswith('(') else '(' + c + ')'} {{ {val} = 0; }}",
            ]
            return pre, f"!{val}"
        if v == 7:
            val = f"_SYS_VAL_{suffix}"
            pre = [
                f"{indent}int {val} = 0;",
                f"{indent}if {c if c.startswith('(') else '(' + c + ')'} {{ {val} = 1; }}",
            ]
            return pre, f"{val} && {c}"
        if v == 8:
            val = f"_SYS_VAL_{suffix}"
            pre = [
                f"{indent}int {val} = 1;",
                f"{indent}if {c if c.startswith('(') else '(' + c + ')'} {{ {val} = 0; }}",
            ]
            return pre, f"!{val} || {c}"
        raise SynthesisError(f"unknown variant id {v}")


def _needs_parens(cond: str) -> bool:
    """Wrap compound conditions so added operators bind correctly."""
    stripped = cond.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        # Already fully parenthesized only if the outer parens match.
        depth = 0
        for i, ch in enumerate(stripped):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i < len(stripped) - 1:
                    return True
        return False
    return any(op in stripped for op in ("&&", "||", "?", ","))


VARIANTS: tuple[Variant, ...] = (
    Variant(1, "OR with a constant zero"),
    Variant(2, "AND with a constant one"),
    Variant(3, "hoist condition into a flag, compare against 1"),
    Variant(4, "hoist negated condition into a flag, negate again"),
    Variant(5, "set flag in a preceding if, branch on flag"),
    Variant(6, "clear flag in a preceding if, branch on negated flag"),
    Variant(7, "flag AND original condition"),
    Variant(8, "negated flag OR original condition"),
)


def apply_variant_text(
    source: str,
    variant: Variant,
    cond_open: tuple[int, int],
    cond_close: tuple[int, int],
    if_line: int,
    suffix: str,
) -> str:
    """Rewrite one if statement inside *source*.

    Args:
        source: full file text.
        variant: the template to apply.
        cond_open: (line, col) of the opening parenthesis (1-based).
        cond_close: (line, col) of the closing parenthesis (1-based).
        if_line: 1-based line of the ``if`` keyword.
        suffix: scaffold identifier suffix.

    Returns:
        The transformed file text.

    Raises:
        SynthesisError: if the coordinates do not resolve to parentheses, or
            if the condition has side effects (assignment, ``++``/``--``, or
            a function call) — variants 3-8 may evaluate it twice, so
            rewriting such a condition would not be behavior-preserving.
    """
    lines = split_lines(source)
    open_line, open_col = cond_open
    close_line, close_col = cond_close
    if not (1 <= open_line <= len(lines) and 1 <= close_line <= len(lines)):
        raise SynthesisError("condition span outside the file")
    if lines[open_line - 1][open_col - 1] != "(" or lines[close_line - 1][close_col - 1] != ")":
        raise SynthesisError("condition span does not align with parentheses")

    # Extract the condition text (possibly multi-line; joined with spaces).
    if open_line == close_line:
        cond = lines[open_line - 1][open_col : close_col - 1]
    else:
        parts = [lines[open_line - 1][open_col:]]
        parts.extend(lines[ln - 1] for ln in range(open_line + 1, close_line))
        parts.append(lines[close_line - 1][: close_col - 1])
        cond = " ".join(p.strip() for p in parts)

    effects = expression_side_effects(cond)
    if effects:
        raise SynthesisError(
            f"condition {cond.strip()!r} has side effects "
            f"({', '.join(e.describe() for e in effects)}); "
            "rewriting it would not be behavior-preserving"
        )

    indent = lines[if_line - 1][: len(lines[if_line - 1]) - len(lines[if_line - 1].lstrip())]
    pre_lines, new_cond = variant.rewrite(cond.strip(), suffix, indent)

    # Rebuild: collapse the if-header span onto one line with the new cond.
    head = lines[open_line - 1][:open_col]  # up to and including '('
    tail = lines[close_line - 1][close_col - 1 :]  # from ')' on
    new_if = f"{head}{new_cond}{tail}"
    out = lines[: open_line - 1] + [new_if] + lines[close_line:]
    # Insert scaffolding just above the if keyword's line.
    insert_at = if_line - 1
    out = out[:insert_at] + pre_lines + out[insert_at:]
    return "\n".join(out) + ("\n" if source.endswith("\n") else "")
