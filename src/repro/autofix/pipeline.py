"""The closed loop: plant a flaw, find it, patch it, verify the patch.

Per file the pipeline (1) **plants** one deterministic flaw — a checker
payload from :mod:`repro.staticcheck.seeding` or a Fig. 5 scaffold from
:mod:`repro.synthesis.variants` — so ground truth is known exactly;
(2) **finds** it with the checker suite, scoring per-checker precision and
recall by subtracting the file's shift-adjusted pre-plant baseline;
(3) **patches** it by inverting what the finding describes — descaffolding
via :func:`repro.synthesis.repair.repair_all` for scaffold findings, line
deletion around the finding for payload findings; (4) **verifies** each
candidate behind five gates (parse, CFG-signature equality with the
pre-plant original, no new lint findings, no new dead stores, oracle panel
re-labels non-vulnerable) and accepts the first candidate passing all five.

The loop is *finder-driven*: a plant the finder misses is never repaired,
so the verified repair rate compounds finder recall with patcher/verifier
soundness — exactly the quantity the CI gate bounds.

Everything is deterministic per (path, kind): scaffold suffixes and oracle
draws are derived from hashes of the path, so a serial run and a
``--workers N`` run produce byte-identical manifests (files go through
:func:`repro.parallel.map_chunks` in sorted-path order, like
:func:`repro.staticcheck.analyzer.lint_sources`).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from ..errors import AutofixError, ReproError
from ..lang.ast_nodes import IfStmt, walk
from ..lang.parser import parse_translation_unit
from ..obs import ObsRegistry
from ..parallel import map_chunks
from ..patch.model import split_lines
from ..staticcheck.analyzer import CODE_SUFFIXES, analyze_source
from ..staticcheck.checkers import Checker, make_checkers
from ..staticcheck.dataflow import FunctionFlow
from ..staticcheck.equivalence import cfg_signature
from ..staticcheck.model import LintReport, shifted_finding_ids
from ..staticcheck.seeding import PAYLOAD_MARKERS, SEEDABLE_CHECKERS, plant_violation
from ..synthesis.repair import repair_all
from ..synthesis.variants import VARIANTS, apply_variant_text
from .model import GATE_NAMES, AutofixReport, FlawPlant, RepairOutcome

__all__ = ["DEFAULT_KINDS", "AutofixConfig", "AutofixOracle", "run_autofix", "autofix_world"]

#: Plant kinds cycled over the files of a run: every seedable checker
#: payload plus every Fig. 5 variant.
DEFAULT_KINDS: tuple[str, ...] = tuple(SEEDABLE_CHECKERS) + tuple(
    f"variant:{v.variant_id}" for v in VARIANTS
)


@dataclass(frozen=True, slots=True)
class AutofixConfig:
    """Knobs of one autofix run (picklable: rides to pool workers whole).

    Attributes:
        kinds: plant kinds cycled across files in sorted-path order.
        dataflow: run the finder's checkers in dataflow mode.
        n_annotators: oracle panel size (odd).
        annotator_error_rate: per-annotator label-flip probability.
        seed: stream seed for oracle draws (per-plant streams are derived
            from it and the plant's path, so worker order cannot matter).
    """

    kinds: tuple[str, ...] = DEFAULT_KINDS
    dataflow: bool = True
    n_annotators: int = 3
    annotator_error_rate: float = 0.0
    seed: int = 2021

    def validate(self) -> None:
        """Sanity-check the configuration.

        Raises:
            AutofixError: on out-of-range values or unknown plant kinds.
        """
        if not self.kinds:
            raise AutofixError("at least one plant kind is required")
        for kind in self.kinds:
            if kind in SEEDABLE_CHECKERS:
                continue
            if kind.startswith("variant:"):
                tail = kind.split(":", 1)[1]
                if tail.isdigit() and 1 <= int(tail) <= len(VARIANTS):
                    continue
            raise AutofixError(
                f"unknown plant kind {kind!r} (checker ids: "
                f"{', '.join(SEEDABLE_CHECKERS)}; variants: variant:1..variant:{len(VARIANTS)})"
            )
        if self.n_annotators < 1 or self.n_annotators % 2 == 0:
            raise AutofixError("n_annotators must be odd and >= 1")
        if not 0.0 <= self.annotator_error_rate < 0.5:
            raise AutofixError("annotator_error_rate must be in [0, 0.5)")

    def to_dict(self) -> dict:
        """JSON-ready form for the manifest."""
        return {
            "kinds": list(self.kinds),
            "dataflow": self.dataflow,
            "n_annotators": self.n_annotators,
            "annotator_error_rate": self.annotator_error_rate,
            "seed": self.seed,
        }


class AutofixOracle:
    """Simulated expert panel over *planted* ground truth.

    The corpus oracle (:class:`repro.core.oracle.VerificationOracle`)
    consults commit labels; here the ground truth is the plant itself — a
    candidate is still vulnerable exactly when the plant's marker token
    survives in its text.  Each plant gets its own hash-derived RNG stream,
    so verdicts do not depend on the order plants are verified in (the
    property that makes chunk-parallel runs bit-identical).
    """

    def __init__(
        self, n_annotators: int = 3, annotator_error_rate: float = 0.0, seed: int = 2021
    ) -> None:
        self.n_annotators = n_annotators
        self.annotator_error_rate = annotator_error_rate
        self.seed = seed

    def is_vulnerable(self, text: str, plant: FlawPlant) -> bool:
        """Panel-label one candidate: True = the flaw is still present."""
        truth = plant.marker in text
        if self.annotator_error_rate == 0.0:
            return truth
        import numpy as np

        digest = hashlib.sha1(f"{self.seed}:{plant.path}:{plant.kind}".encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        votes = sum(
            int(truth ^ (rng.random() < self.annotator_error_rate))
            for _ in range(self.n_annotators)
        )
        return votes * 2 > self.n_annotators


# ---- plant ------------------------------------------------------------


def _plant(path: str, text: str, kind: str) -> tuple[str, FlawPlant] | None:
    """Apply one flaw of *kind* to *text*; None when the file can't host it."""
    if kind in SEEDABLE_CHECKERS:
        try:
            planted, insert_line, n_lines = plant_violation(text, kind, path)
        except ReproError:
            return None
        return planted, FlawPlant(
            path=path,
            kind=kind,
            checker=kind,
            insert_line=insert_line,
            n_lines=n_lines,
            span_start=insert_line + 1,
            span_end=insert_line + n_lines,
            marker=PAYLOAD_MARKERS[kind],
        )
    variant = VARIANTS[int(kind.split(":", 1)[1]) - 1]
    try:
        unit = parse_translation_unit(text, path)
    except Exception:
        return None
    for fn in unit.functions:
        for node in walk(fn):
            if not isinstance(node, IfStmt):
                continue
            # Single-line headers keep the rewrite a pure insertion (no
            # collapsed lines), so baseline shifting stays exact.
            if not (node.cond_open_line == node.cond_close_line == node.start_line):
                continue
            suffix = hashlib.sha1(f"{path}:{variant.variant_id}".encode()).hexdigest()[:8]
            try:
                planted = apply_variant_text(
                    text,
                    variant,
                    (node.cond_open_line, node.cond_open_col),
                    (node.cond_close_line, node.cond_close_col),
                    node.start_line,
                    suffix,
                )
            except ReproError:  # side-effecting condition: try the next if
                continue
            n_lines = 1 if variant.variant_id <= 4 else 2
            return planted, FlawPlant(
                path=path,
                kind=kind,
                checker="scaffold-leak",
                insert_line=node.start_line - 1,
                n_lines=n_lines,
                # The rewritten if header sits just below the inserted
                # scaffolding and references the flag, so it belongs to
                # the plant's attribution span too.
                span_start=node.start_line,
                span_end=node.start_line + n_lines,
                marker="_SYS_",
            )
    return None


# ---- patch ------------------------------------------------------------


def _candidates(planted: str, plant: FlawPlant, finding_line: int) -> list[str]:
    """Candidate repairs for one found plant, in trial order.

    Scaffold findings invert the Fig. 5 templates; payload findings try
    deleting the flagged line, then the two-line windows below and above
    it (payloads are 1-2 lines and the finding anchors to the first).
    """
    if plant.kind.startswith("variant:"):
        try:
            repaired, _n = repair_all(planted, plant.path)
        except ReproError:
            return []
        return [repaired]
    out = []
    for start, end in ((finding_line, finding_line), (finding_line, finding_line + 1), (finding_line - 1, finding_line)):
        lines = split_lines(planted)
        if not (1 <= start and end <= len(lines)):
            continue
        kept = lines[: start - 1] + lines[end:]
        out.append("\n".join(kept) + ("\n" if planted.endswith("\n") else ""))
    return out


# ---- verify -----------------------------------------------------------


def _dead_store_keys(source: str, path: str) -> set[tuple[str, str]]:
    """(function, variable) pairs with at least one dead store."""
    unit = parse_translation_unit(source, path)
    keys: set[tuple[str, str]] = set()
    for fn in unit.functions:
        flow = FunctionFlow(fn)
        for d in flow.dead_stores():
            keys.add((fn.name, d.var))
    return keys


def _verify(
    candidate: str,
    plant: FlawPlant,
    checkers: list[Checker],
    original_sig: tuple,
    baseline_ids: frozenset[str],
    original_dead: set[tuple[str, str]],
    oracle: AutofixOracle,
) -> dict:
    """Evaluate the five gates in order, short-circuiting on failure."""
    gates = {g: False for g in GATE_NAMES}
    try:
        sig = cfg_signature(candidate, plant.path)
    except Exception:
        return gates
    gates["parse"] = True
    gates["cfg"] = sig == original_sig
    if not gates["cfg"]:
        return gates
    report = analyze_source(plant.path, candidate, checkers)
    gates["lint"] = all(f.stable_id in baseline_ids for f in report.findings)
    if not gates["lint"]:
        return gates
    gates["dead_stores"] = _dead_store_keys(candidate, plant.path) <= original_dead
    if not gates["dead_stores"]:
        return gates
    gates["oracle"] = not oracle.is_vulnerable(candidate, plant)
    return gates


# ---- one file through the whole loop ----------------------------------


def _process_item(
    path: str, text: str, kind: str, config: AutofixConfig, checkers: list[Checker]
) -> RepairOutcome:
    """Run plant→find→patch→verify for one file."""
    started = time.perf_counter()
    oracle = AutofixOracle(config.n_annotators, config.annotator_error_rate, config.seed)
    planted_pair = _plant(path, text, kind)
    if planted_pair is None:
        plant = FlawPlant(path, kind, "", 0, 0, 0, 0, "")
        return RepairOutcome(plant=plant, planted=False)
    planted, plant = planted_pair

    baseline = analyze_source(path, text, checkers)
    baseline_report = LintReport(files=[baseline])
    shifted_ids = shifted_finding_ids(baseline_report, plant.insert_line, plant.n_lines)
    new = [
        f
        for f in analyze_source(path, planted, checkers).findings
        if f.stable_id not in shifted_ids
    ]
    hits = [
        f
        for f in new
        if f.checker == plant.checker and plant.span_start <= f.line <= plant.span_end
    ]
    # Any new finding inside the plant span is attributable to the plant —
    # the inserted text (e.g. a hoisted condition) legitimately trips other
    # checkers on those lines.  Only out-of-span findings charge the finder.
    fps = tuple(
        (f.checker, f.line)
        for f in new
        if not (plant.span_start <= f.line <= plant.span_end)
    )
    if not hits:
        return RepairOutcome(
            plant=plant,
            found=False,
            false_positives=fps,
            elapsed_ms=(time.perf_counter() - started) * 1e3,
        )

    candidates = _candidates(planted, plant, hits[0].line)
    original_sig = cfg_signature(text, path)
    baseline_ids = baseline_report.finding_ids()
    original_dead = _dead_store_keys(text, path)
    accepted_at = -1
    gates: dict = {g: False for g in GATE_NAMES}
    crashed = False
    diff = ""
    for i, candidate in enumerate(candidates):
        try:
            gates = _verify(
                candidate, plant, checkers, original_sig, baseline_ids, original_dead, oracle
            )
        except Exception:
            crashed = True
            continue
        if all(gates.values()):
            accepted_at = i
            diff = _render_diff(planted, candidate, path)
            break
    return RepairOutcome(
        plant=plant,
        found=True,
        finding_id=hits[0].stable_id,
        false_positives=fps,
        n_candidates=len(candidates),
        accepted=accepted_at >= 0,
        candidate_index=accepted_at,
        gates=gates,
        crashed=crashed,
        diff=diff,
        elapsed_ms=(time.perf_counter() - started) * 1e3,
    )


def _render_diff(before: str, after: str, path: str) -> str:
    """Unified diff of one accepted repair (the per-patch artifact body)."""
    from ..diffing.unified_gen import diff_texts
    from ..patch.unified import render_file_diff

    return render_file_diff(diff_texts(before, after, path))


# ---- per-file work (serial and pooled) -----------------------------------


def _autofix(
    state: tuple[AutofixConfig, list[Checker]],
    items: list[tuple[str, str, str]],
    obs: ObsRegistry,
) -> list[RepairOutcome]:
    """Run the loop over (path, text, kind) items, one ``autofix.file``
    timing each, then count the outcomes."""
    config, checkers = state
    outcomes = []
    for path, text, kind in items:
        with obs.timer("autofix.file"):
            outcomes.append(_process_item(path, text, kind, config, checkers))
    _count_outcomes(obs, outcomes)
    return outcomes


def _count_outcomes(obs: ObsRegistry, outcomes: list[RepairOutcome]) -> None:
    obs.add("autofix_plants", sum(1 for o in outcomes if o.planted))
    obs.add("autofix_found", sum(1 for o in outcomes if o.found))
    obs.add("autofix_accepted", sum(1 for o in outcomes if o.accepted))
    obs.add("autofix_crashes", sum(1 for o in outcomes if o.crashed))


# ---- entry points -----------------------------------------------------


def run_autofix(
    items: list[tuple[str, str]],
    config: AutofixConfig | None = None,
    workers: int | None = None,
    obs: ObsRegistry | None = None,
) -> AutofixReport:
    """Run the closed loop over many (path, text) files.

    Args:
        items: (path, text) pairs; plant kinds cycle over
            ``config.kinds`` in sorted-path order.
        config: run configuration (validated here).
        workers: >1 processes files in a chunked pool.  The report is
            byte-identical to a serial run.
        obs: registry for the ``autofix.file`` timer and the
            ``autofix_plants``/``autofix_found``/``autofix_accepted``/
            ``autofix_crashes`` counters.
    """
    config = config if config is not None else AutofixConfig()
    config.validate()
    obs = obs if obs is not None else ObsRegistry()
    ordered = sorted(items, key=lambda item: item[0])
    tagged = [
        (path, text, config.kinds[i % len(config.kinds)])
        for i, (path, text) in enumerate(ordered)
    ]
    with obs.span("autofix.run", files=len(tagged), workers=workers or 1):
        outcomes = map_chunks(
            _autofix,
            tagged,
            workers=workers,
            obs=obs,
            name="autofix",
            state=(config, make_checkers(dataflow=config.dataflow)),
        )
    return AutofixReport(outcomes=list(outcomes), config=config.to_dict())


def autofix_world(
    world,
    config: AutofixConfig | None = None,
    workers: int | None = None,
    obs: ObsRegistry | None = None,
    max_files: int | None = None,
) -> AutofixReport:
    """Run the closed loop over every code file at a world's repo heads.

    Paths are namespaced ``slug/path`` like :func:`lint_world`; *max_files*
    caps the run after sorting, so a capped run is a prefix of the full one.
    """
    items: list[tuple[str, str]] = []
    for slug in sorted(world.repos):
        repo = world.repos[slug]
        tree = repo.checkout(repo.head)
        for path in sorted(tree):
            if path.endswith(CODE_SUFFIXES):
                items.append((f"{slug}/{path}", tree[path]))
    items.sort(key=lambda item: item[0])
    if max_files is not None:
        items = items[:max_files]
    return run_autofix(items, config=config, workers=workers, obs=obs)
