"""The 60-dimensional syntactic feature extractor (Table I).

``extract_features`` maps a :class:`~repro.patch.model.Patch` to a NumPy
vector laid out per :data:`~repro.features.vector.FEATURE_NAMES`.  The
affected-range percentages (features 58/60) need repository context — how
many files and functions the repository has — supplied via
:class:`RepoContext`; without context they fall back to percentages within
the patch itself, which keeps the features well-defined for stand-alone
``.patch`` files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lang.abstraction import abstract_tokens
from ..lang.lexer import tokenize
from ..lang.metrics import FragmentCounts, count_tokens
from ..lang.tokens import Token, TokenKind
from ..patch.model import Hunk, Patch
from .levenshtein import levenshtein
from .vector import FEATURE_COUNT, feature_index
from typing import Callable, Iterable, Sequence

__all__ = ["RepoContext", "extract_features", "extract_feature_matrix", "FeatureExtractor"]


@dataclass(frozen=True, slots=True)
class RepoContext:
    """Repository-level denominators for the affected-range features.

    Attributes:
        total_files: number of files in the repository snapshot.
        total_functions: number of function definitions in the repository.
    """

    total_files: int
    total_functions: int


def extract_features(patch: Patch, context: RepoContext | None = None) -> np.ndarray:
    """Extract the Table I feature vector for one patch."""
    return FeatureExtractor(context).extract(patch)


def extract_feature_matrix(
    patches: Sequence[Patch], context: RepoContext | None = None
) -> np.ndarray:
    """Extract features for many patches into an ``(N, 60)`` matrix."""
    extractor = FeatureExtractor(context)
    if not patches:
        return np.zeros((0, FEATURE_COUNT), dtype=np.float64)
    return np.vstack([extractor.extract(p) for p in patches])


class FeatureExtractor:
    """Reusable extractor bound to optional repository context."""

    def __init__(self, context: RepoContext | None = None) -> None:
        self._context = context

    def extract(self, patch: Patch) -> np.ndarray:
        """Compute the 60-dimensional vector for *patch*."""
        vec = np.zeros(FEATURE_COUNT, dtype=np.float64)
        hunks = patch.hunks
        added_lines = patch.added_lines()
        removed_lines = patch.removed_lines()
        # One lex per distinct fragment text: a one-hunk patch's side text
        # is also its hunk's text.  The memo lives for this call only.
        lexed: dict[str, list[Token]] = {}

        def lex(text: str) -> list[Token]:
            tokens = lexed.get(text)
            if tokens is None:
                tokens = lexed[text] = tokenize(text)
            return tokens

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

        add_counts = count_tokens(_code_only(lex("\n".join(added_lines))))
        rem_counts = count_tokens(_code_only(lex("\n".join(removed_lines))))
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

        self._hunk_distances(vec, hunks, lex)

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
            # Fallback: functions touched per touched file.
            set_("affected_functions_pct", affected_functions / affected_files if affected_files else 0.0)
        return vec

    # ---- helpers ---------------------------------------------------------

    @staticmethod
    def _set(vec: np.ndarray):
        def setter(name: str, value: float) -> None:
            vec[feature_index(name)] = float(value)

        return setter

    @staticmethod
    def _quad(vec: np.ndarray, prefix: str, added: float, removed: float) -> None:
        """Fill an added/removed/total/net quadruple."""
        vec[feature_index(f"added_{prefix}")] = float(added)
        vec[feature_index(f"removed_{prefix}")] = float(removed)
        vec[feature_index(f"total_{prefix}")] = float(added + removed)
        vec[feature_index(f"net_{prefix}")] = float(added - removed)

    @staticmethod
    def _modified_functions(
        patch: Patch, add_counts: FragmentCounts, rem_counts: FragmentCounts
    ) -> set[str]:
        """Distinct functions a patch modifies.

        The hunk section heading (``@@ ... @@ int foo(...)``) identifies the
        enclosing function the way ``git diff`` reports it; hunks without a
        heading fall back to a per-file anonymous bucket.
        """
        names: set[str] = set()
        for fdiff in patch.files:
            for hunk in fdiff.hunks:
                if hunk.section:
                    names.add(f"{fdiff.path}:{_heading_name(hunk.section)}")
                else:
                    names.add(f"{fdiff.path}:@{hunk.old_start // 200}")
        return names

    @staticmethod
    def _count_defs(lines: list[str]) -> int:
        """Count function-definition-looking lines in a fragment."""
        count = 0
        for line in lines:
            stripped = line.strip()
            if not stripped or stripped.startswith(("//", "/*", "*", "#")):
                continue
            if (
                "(" in stripped
                and not stripped.endswith(";")
                and not stripped[0].isspace()
                and line
                and not line[0].isspace()
                and ("{" in stripped or stripped.endswith(")"))
                and not stripped.startswith(("if", "for", "while", "switch", "return", "else"))
            ):
                count += 1
        return count

    def _hunk_distances(
        self, vec: np.ndarray, hunks: tuple[Hunk, ...], lex: Callable[[str], list[Token]]
    ) -> None:
        """Features 49-56: per-hunk Levenshtein stats and same-hunk counts."""
        raw: list[float] = []
        abstracted: list[float] = []
        same_raw = same_abs = 0
        for hunk in hunks:
            rem_text = "\n".join(hunk.removed)
            add_text = "\n".join(hunk.added)
            raw.append(float(levenshtein(rem_text, add_text)))
            rem_abs = abstract_tokens(lex(rem_text))
            add_abs = abstract_tokens(lex(add_text))
            abstracted.append(float(levenshtein(rem_abs, add_abs)))
            if _normalized_lines(hunk.removed) == _normalized_lines(hunk.added):
                same_raw += 1
            if rem_abs == add_abs:
                same_abs += 1
        set_ = self._set(vec)
        for prefix, values in (("raw", raw), ("abs", abstracted)):
            if values:
                # Whole-number distances sum exactly in any order, so this
                # mean has the bits of np.mean's.
                set_(f"lev_mean_{prefix}", sum(values) / len(values))
                set_(f"lev_min_{prefix}", min(values))
                set_(f"lev_max_{prefix}", max(values))
        set_("same_hunks_raw", same_raw)
        set_("same_hunks_abs", same_abs)


def _code_only(tokens: list[Token]) -> list[Token]:
    """The code tokens of a lexed fragment, as ``code_tokens`` keeps them."""
    return [t for t in tokens if t.kind is not TokenKind.COMMENT and t.kind is not TokenKind.NEWLINE]


def _heading_name(section: str) -> str:
    """Extract the function name from a hunk section heading."""
    head = section.split("(", 1)[0].strip()
    return head.rsplit(" ", 1)[-1].lstrip("*") if head else section


def _normalized_lines(lines: Iterable[str]) -> list[str]:
    """Whitespace-normalized line texts for same-hunk comparison."""
    return [" ".join(t.split()) for t in lines if t.strip()]
