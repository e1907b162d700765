"""The corpus/synthesis validation gate.

``run_gate`` answers one question for a built world: *is everything the
downstream pipeline consumes well-formed?*  Concretely it enforces:

1. **Lint gate** — every code file at every repository head is linted; any
   gate-class finding (parse failure, ``_SYS_`` scaffold leak,
   side-effecting condition) fails the gate.  A clean corpus generator
   produces zero of these, so a hit is a generator regression.
2. **Variant equivalence** — for a sample of security patches, every
   applicable Fig. 5 variant is applied and the transformed text is
   descaffolded and CFG-compared against the original
   (:func:`~repro.staticcheck.equivalence.cfg_equivalent`).  A template
   that changes control flow fails the gate.

The CI lint-gate job and ``python -m repro lint`` (with no target) are thin
wrappers over this function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import ObsRegistry
from ..synthesis.engine import _synthesize_with_sites
from ..synthesis.variants import VARIANTS
from .analyzer import CODE_SUFFIXES, lint_world
from .checkers import Checker
from .equivalence import cfg_equivalent
from .model import LintReport

__all__ = ["GateResult", "run_gate"]


@dataclass(slots=True)
class GateResult:
    """Outcome of one validation-gate run.

    Attributes:
        report: the full lint report over the world's head files.
        variant_checks: number of (patch, variant, side) equivalence checks.
        variant_failures: human-readable descriptions of non-equivalent
            transformations (empty on a healthy synthesis engine).
    """

    report: LintReport
    variant_checks: int = 0
    variant_failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when there are no gate findings and no equivalence failures."""
        return not self.report.gate_findings and not self.variant_failures

    def summary(self) -> dict:
        """Headline numbers for rendering / JSON embedding."""
        return {
            "passed": self.passed,
            "gate_findings": len(self.report.gate_findings),
            "variant_checks": self.variant_checks,
            "variant_failures": len(self.variant_failures),
            **{f"lint_{k}": v for k, v in self.report.summary().items()},
        }

    def render_text(self, max_findings: int | None = 50) -> str:
        """Human-readable gate outcome."""
        lines = [self.report.render_text(max_findings=max_findings)]
        lines.append(
            f"variant equivalence: {self.variant_checks} checks, "
            f"{len(self.variant_failures)} failures"
        )
        lines.extend(f"  NOT EQUIVALENT: {msg}" for msg in self.variant_failures)
        lines.append(f"gate: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def run_gate(
    world,
    checkers: list[Checker] | None = None,
    workers: int | None = None,
    variant_sample: int = 25,
    seed: int = 0,
    obs: ObsRegistry | None = None,
) -> GateResult:
    """Run the full validation gate over a built world.

    Args:
        world: a :class:`~repro.corpus.world.World`.
        checkers: lint suite; the full registry when None.
        workers: parallelize the lint half in a process pool.
        variant_sample: how many security patches to equivalence-check
            (each against all eight variants, both sides); 0 disables the
            equivalence half.
        seed: sampling seed (the sample is deterministic given the world).
        obs: observability registry.
    """
    obs = obs if obs is not None else ObsRegistry()
    with obs.timer("gate"):
        report = lint_world(world, checkers=checkers, workers=workers, obs=obs)
        checks, failures = _check_variants(world, variant_sample, seed, obs)
    return GateResult(report=report, variant_checks=checks, variant_failures=failures)


def _check_variants(
    world, variant_sample: int, seed: int, obs: ObsRegistry
) -> tuple[int, list[str]]:
    """Equivalence-check sampled security patches under all variants."""
    if variant_sample <= 0:
        return 0, []
    shas = sorted(world.security_shas())
    if len(shas) > variant_sample:
        rng = np.random.default_rng(seed)
        shas = [shas[i] for i in sorted(rng.choice(len(shas), variant_sample, replace=False))]
    checks = 0
    failures: list[str] = []
    for sha in shas:
        repo = world.repo_of(sha)
        before_tree, after_tree = repo.before_after(sha)
        patch = world.patch_for(sha)
        for fdiff in patch.files:
            path = fdiff.path
            if not path.endswith(CODE_SUFFIXES):
                continue
            before = before_tree.get(path, "")
            after = after_tree.get(path, "")
            located: dict = {}  # each side parsed once for all 16 checks
            for variant in VARIANTS:
                for side in ("after", "before"):
                    result = _synthesize_with_sites(located, before, after, path, variant, side)
                    if result is None:
                        continue
                    original = after if side == "after" else before
                    transformed = result[1] if side == "after" else result[0]
                    checks += 1
                    obs.add("variant_equiv_checks")
                    if not cfg_equivalent(original, transformed):
                        obs.add("variant_equiv_failures")
                        failures.append(
                            f"{sha[:10]} {path} variant {variant.variant_id} ({side})"
                        )
    return checks, failures
