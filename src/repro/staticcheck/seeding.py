"""Seeded-violation and false-positive fixtures for the checker suite.

``inject_violation`` plants exactly one violation of a chosen checker class
into an existing (clean) source file; ``seed_all`` does so for every
checker.  The recall test lints each mutated file and asserts the matching
checker fires — a per-checker known-answer harness that keeps heuristic
drift honest: any future tightening of a checker that stops it catching its
canonical instance fails the suite immediately.

``inject_false_positive`` is the precision-side mirror: it plants a *clean*
statement block that merely looks like a violation of the chosen checker.
For the dataflow-upgraded checkers (:data:`DATAFLOW_FP_CHECKERS`) the
lookalike trips the token/AST heuristic but is vetoed by dataflow facts, so
:func:`score_fixtures` pins the precision gap between the two modes; for
the remaining checkers the lookalike is clean in both modes, documenting
the discrimination the heuristic already has.

Payloads are chosen to trip *their* checker without tripping the others,
so the tests can also assert precision on the injected line.
"""

from __future__ import annotations

from ..errors import StaticCheckError
from ..lang.parser import parse_translation_unit
from ..patch.model import split_lines
from .analyzer import analyze_source
from .checkers import CHECKER_IDS, make_checkers
from .model import LintReport, shifted_finding_ids

__all__ = [
    "SEEDABLE_CHECKERS",
    "DATAFLOW_FP_CHECKERS",
    "OPAQUE_FIXTURE",
    "FP_OPAQUE_FIXTURE",
    "PAYLOAD_MARKERS",
    "inject_violation",
    "inject_false_positive",
    "plant_violation",
    "seed_all",
    "seed_false_positives",
    "score_fixtures",
]

#: One canonical violating statement block per checker (indented two levels
#: deep is fine anywhere inside a function body).
_PAYLOADS: dict[str, list[str]] = {
    "dangerous-api": ["    strcpy(seed_dst, seed_src);"],
    "missing-check": ["    seed_arr[seed_idx] = 0;"],
    "side-effect-cond": ["    if (seed_flag++) { seed_flag = 0; }"],
    "unreachable": ["    do { continue; seed_skip = 1; } while (0);"],
    "alloc-free": ["    char *seed_leak = malloc(8);"],
    "scaffold-leak": ["    int _SYS_SEED_leak = 0;"],
    "decl-use": ["    seed_late = 3;", "    int seed_late;"],
}

#: Checkers with an injectable in-function payload (all but parse-coverage,
#: which gets a standalone fixture file instead).
SEEDABLE_CHECKERS: tuple[str, ...] = tuple(
    c for c in CHECKER_IDS if c in _PAYLOADS
)

#: One identifier unique to each checker's payload.  The autofix oracle's
#: ground truth is "marker absent": a repair has removed the planted flaw
#: exactly when its marker no longer appears in the text.
PAYLOAD_MARKERS: dict[str, str] = {
    "dangerous-api": "seed_dst",
    "missing-check": "seed_arr",
    "side-effect-cond": "seed_flag",
    "unreachable": "seed_skip",
    "alloc-free": "seed_leak",
    "scaffold-leak": "_SYS_SEED_leak",
    "decl-use": "seed_late",
}

#: One clean-but-suspicious statement block per checker.  Each block is a
#: non-violation that resembles the checker's target pattern; the three
#: dataflow-upgraded checkers' blocks trip the heuristic mode only.
_FP_PAYLOADS: dict[str, list[str]] = {
    # memcpy with a sizeof-derived length is bounded.
    "dangerous-api": ["    memcpy(fp_dst, fp_src, sizeof(fp_dst));"],
    # Every definition reaching the index is a literal constant.
    "missing-check": [
        "    int fp_idx = 3;",
        "    fp_buf[fp_idx] = 0;",
    ],
    # sizeof is a keyword application, not a side-effecting call.
    "side-effect-cond": ["    if (sizeof(fp_sz) > 4) { fp_use = 1; }"],
    # The continue is branch-guarded; the following statement is reachable.
    "unreachable": ["    do { if (fp_u) { continue; } fp_u = 2; } while (0);"],
    # The pointer is re-pointed at a fresh allocation between the frees.
    "alloc-free": [
        "    char *fp_buf2 = malloc(4);",
        "    free(fp_buf2);",
        "    fp_buf2 = malloc(8);",
        "    free(fp_buf2);",
    ],
    # Contains the scaffold namespace as a substring without being in it.
    "scaffold-leak": ["    int fp_SYS_marker = 0;"],
    # The declaration reaches the use through the gotos despite line order.
    "decl-use": [
        "    int fp_r = 0;",
        "    goto fp_setup;",
        "fp_use:",
        "    fp_r = fp_late + 1;",
        "    goto fp_done;",
        "fp_setup:",
        "    int fp_late = 4;",
        "    goto fp_use;",
        "fp_done:",
        "    fp_r = fp_r + 1;",
    ],
}

#: Checkers whose false-positive payload trips the heuristic mode but is
#: vetoed by dataflow facts — the measurable precision win of the upgrade.
DATAFLOW_FP_CHECKERS: tuple[str, ...] = ("missing-check", "alloc-free", "decl-use")

#: A standalone file the parser models none of: every code line is opaque,
#: which is exactly what the parse-coverage checker reports.
OPAQUE_FIXTURE = (
    "__attribute__((packed)) struct seed_a { int x; };\n"
    "__attribute__((packed)) struct seed_b { int y; };\n"
    "__attribute__((packed)) struct seed_c { int z; };\n"
    "__attribute__((packed)) struct seed_d { int w; };\n"
    "__attribute__((packed)) struct seed_e { int v; };\n"
    "__attribute__((packed)) struct seed_f { int u; };\n"
)

#: The precision-side mirror of OPAQUE_FIXTURE: one opaque top-level region
#: in a file that is otherwise parsed, keeping the ratio under threshold.
FP_OPAQUE_FIXTURE = (
    "__attribute__((packed)) struct fp_a { int x; };\n"
    "int fp_host(void) {\n"
    "    int fp_x = 0;\n"
    "    fp_x = fp_x + 1;\n"
    "    fp_x = fp_x + 2;\n"
    "    fp_x = fp_x + 3;\n"
    "    return fp_x;\n"
    "}\n"
)


def inject_violation(source: str, checker_id: str, path: str = "seed.c") -> str:
    """Plant one *checker_id* violation at the top of the first function.

    Args:
        source: a parseable C file with at least one function.
        checker_id: one of :data:`SEEDABLE_CHECKERS`.
        path: path used for parse diagnostics.

    Raises:
        StaticCheckError: for an unseedable checker id or a source with no
            parseable function to host the payload.
    """
    payload = _PAYLOADS.get(checker_id)
    if payload is None:
        raise StaticCheckError(
            f"checker {checker_id!r} has no injectable payload "
            f"(seedable: {', '.join(SEEDABLE_CHECKERS)})"
        )
    return _inject(source, payload, path)[0]


def plant_violation(source: str, checker_id: str, path: str = "seed.c") -> tuple[str, int, int]:
    """Like :func:`inject_violation`, but also reports where.

    Returns:
        (mutated text, insertion line, payload line count) — the insertion
        line is 1-based and the payload occupies the lines just below it,
        which is exactly what the autofix pipeline needs to attribute
        findings to the plant and to shift a pre-plant baseline.
    """
    payload = _PAYLOADS.get(checker_id)
    if payload is None:
        raise StaticCheckError(
            f"checker {checker_id!r} has no injectable payload "
            f"(seedable: {', '.join(SEEDABLE_CHECKERS)})"
        )
    return _inject(source, payload, path)


def inject_false_positive(source: str, checker_id: str, path: str = "seed.c") -> str:
    """Plant one clean *checker_id* lookalike at the top of the first
    function (see :data:`_FP_PAYLOADS` for what each block resembles).

    Raises:
        StaticCheckError: for a checker without a lookalike payload or a
            source with no parseable function to host it.
    """
    payload = _FP_PAYLOADS.get(checker_id)
    if payload is None:
        raise StaticCheckError(
            f"checker {checker_id!r} has no false-positive payload "
            f"(available: {', '.join(sorted(_FP_PAYLOADS))})"
        )
    return _inject(source, payload, path)[0]


def _inject(source: str, payload: list[str], path: str) -> tuple[str, int, int]:
    """Insert *payload* first in the first function's body.

    Returns (mutated text, insertion line, payload length) — the latter two
    feed :func:`repro.staticcheck.model.shifted_finding_ids`.
    """
    unit = parse_translation_unit(source, path)
    if not unit.functions:
        raise StaticCheckError(f"{path}: no function to host a seeded violation")
    body = unit.functions[0].body
    lines = split_lines(source)
    # Insert right after the body's opening line, i.e. first in the block.
    insert_at = body.start_line
    out = lines[:insert_at] + payload + lines[insert_at:]
    return (
        "\n".join(out) + ("\n" if source.endswith("\n") else ""),
        insert_at,
        len(payload),
    )


def seed_all(source: str, path: str = "seed.c") -> dict[str, str]:
    """One mutated copy of *source* per seedable checker, plus the opaque
    fixture under ``"parse-coverage"``."""
    out = {c: inject_violation(source, c, path) for c in SEEDABLE_CHECKERS}
    out["parse-coverage"] = OPAQUE_FIXTURE
    return out


def seed_false_positives(source: str, path: str = "seed.c") -> dict[str, str]:
    """One clean-lookalike copy of *source* per checker with a
    false-positive payload, plus the sub-threshold opaque fixture under
    ``"parse-coverage"``."""
    out = {c: inject_false_positive(source, c, path) for c in sorted(_FP_PAYLOADS)}
    out["parse-coverage"] = FP_OPAQUE_FIXTURE
    return out


def score_fixtures(source: str, path: str = "seed.c", dataflow: bool = True) -> dict[str, dict]:
    """Per-checker precision/recall over the seeded + lookalike fixtures.

    For every checker with both payloads, the seeded copy contributes the
    recall side (did the checker fire on its canonical violation?) and the
    lookalike copy the precision side (did it stay quiet on the clean
    twin?).  Findings pre-existing in *source* are subtracted by
    shift-adjusted stable id so only payload-attributable findings count.

    Returns:
        ``{checker: {"tp", "fp", "fn", "precision", "recall"}}`` where
        precision is ``tp / (tp + fp)`` (1.0 when nothing fired at all).
    """
    checkers = make_checkers(dataflow=dataflow)
    baseline = LintReport(files=[analyze_source(path, source, checkers)])
    scores: dict[str, dict] = {}
    for checker_id in SEEDABLE_CHECKERS:
        seeded, insert_at, added = _inject(source, _PAYLOADS[checker_id], path)
        base_ids = shifted_finding_ids(baseline, insert_at, added)
        seeded_new = [
            f
            for f in analyze_source(path, seeded, checkers).findings
            if f.stable_id not in base_ids
        ]
        tp = sum(1 for f in seeded_new if f.checker == checker_id)
        fp = 0
        if checker_id in _FP_PAYLOADS:
            lookalike, insert_at, added = _inject(source, _FP_PAYLOADS[checker_id], path)
            base_ids = shifted_finding_ids(baseline, insert_at, added)
            fp = sum(
                1
                for f in analyze_source(path, lookalike, checkers).findings
                if f.stable_id not in base_ids and f.checker == checker_id
            )
        scores[checker_id] = {
            "tp": tp,
            "fp": fp,
            "fn": 0 if tp else 1,
            "precision": tp / (tp + fp) if (tp + fp) else 1.0,
            "recall": 1.0 if tp else 0.0,
        }
    return scores
