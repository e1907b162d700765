"""Running the checker suite over files, worlds, and patches.

Three entry points share one core:

* :func:`analyze_source` — one (path, text) pair → :class:`FileReport`.
* :func:`lint_sources` — many pairs, fanned out to a chunked process pool
  through :func:`repro.parallel.map_chunks` when there are at least two
  files per worker (the checker list rides to each worker once; results
  are identical to a serial run; only pool-infrastructure failures fall
  back to serial, counted in ``pool_fallback.lint``).
* :func:`lint_world` / :func:`lint_patch` — adapters that collect the
  (path, text) pairs from a corpus world's head trees or from a parsed
  patch's added lines.

Reports list files in sorted path order regardless of worker count, so
``--workers N`` output is byte-identical to serial output.
"""

from __future__ import annotations

from ..obs import ObsRegistry
from ..parallel import map_chunks
from ..patch.model import Patch
from .checkers import Checker, make_checkers
from .context import CheckContext
from .model import FileReport, LintReport

__all__ = [
    "CODE_SUFFIXES",
    "analyze_source",
    "lint_sources",
    "lint_world",
    "lint_patch",
    "patch_fragments",
]

#: File suffixes the linter considers source code.
CODE_SUFFIXES = (".c", ".h", ".cc", ".cpp", ".hpp", ".cxx")


def _lint(
    checkers: list[Checker], items: list[tuple[str, str, bool]], obs: ObsRegistry
) -> list[FileReport]:
    """Lint (path, text, is_fragment) items, one ``lint`` timing each."""
    reports = []
    for path, source, fragment in items:
        with obs.timer("lint"):
            reports.append(analyze_source(path, source, checkers, is_fragment=fragment))
    return reports


def analyze_source(
    path: str,
    source: str,
    checkers: list[Checker] | None = None,
    is_fragment: bool = False,
) -> FileReport:
    """Run the checker suite over one file's text.

    Args:
        path: file path recorded in findings.
        source: full file text (or patch fragment).
        checkers: suite to run; the full registry when None.
        is_fragment: the text is a patch fragment — parse failures are
            advisory rather than gate-class and coverage is not reported.
    """
    if checkers is None:
        checkers = make_checkers()
    ctx = CheckContext(path, source, is_fragment=is_fragment)
    findings = [f for checker in checkers for f in checker.check(ctx)]
    findings.sort(key=lambda f: (f.line, f.checker, f.message))
    code, opaque = ctx.coverage() if not is_fragment else (0, 0)
    return FileReport(
        path=path,
        findings=tuple(findings),
        parse_failed=ctx.parse_error is not None,
        code_lines=code,
        opaque_lines=opaque,
    )


def lint_sources(
    items: list[tuple[str, str]],
    checkers: list[Checker] | None = None,
    workers: int | None = None,
    obs: ObsRegistry | None = None,
    fragments: bool = False,
) -> LintReport:
    """Lint many (path, source) pairs into one report.

    Args:
        items: (path, text) pairs; duplicated paths are linted once each.
        checkers: suite to run; the full registry when None.
        workers: >1 lints in a process pool.  Output is identical to the
            serial run.
        obs: observability registry for ``lint``/``lint_parallel`` timers
            and ``files_linted``/``lint_findings`` counters.
        fragments: treat every item as a patch fragment.
    """
    obs = obs if obs is not None else ObsRegistry()
    tagged = sorted(
        ((path, text, fragments) for path, text in items), key=lambda item: item[0]
    )
    reports = map_chunks(
        _lint,
        tagged,
        workers=workers,
        obs=obs,
        name="lint",
        state=checkers if checkers is not None else make_checkers(),
    )
    obs.add("files_linted", len(reports))
    report = LintReport(files=list(reports))
    obs.add("lint_findings", len(report.findings()))
    for checker_id, n in report.counts_by_checker().items():
        obs.add(f"lint_{checker_id.replace('-', '_')}", n)
    return report


def lint_world(
    world,
    checkers: list[Checker] | None = None,
    workers: int | None = None,
    obs: ObsRegistry | None = None,
) -> LintReport:
    """Lint every code file at every repository head of a corpus world.

    Paths are namespaced ``slug/path`` so findings are attributable across
    repositories.
    """
    items: list[tuple[str, str]] = []
    for slug in sorted(world.repos):
        repo = world.repos[slug]
        tree = repo.checkout(repo.head)
        for path in sorted(tree):
            if path.endswith(CODE_SUFFIXES):
                items.append((f"{slug}/{path}", tree[path]))
    return lint_sources(items, checkers=checkers, workers=workers, obs=obs)


def patch_fragments(patch: Patch) -> list[tuple[str, str]]:
    """The added-side text of each touched code file in a patch.

    Each fragment is the concatenation of the added lines of every hunk of
    one file — not a complete compilation unit, hence linted with
    ``fragments=True``.
    """
    out: list[tuple[str, str]] = []
    for fd in patch.files:
        if not fd.new_path.endswith(CODE_SUFFIXES):
            continue
        added = [text for hunk in fd.hunks for text in hunk.added]
        if added:
            out.append((fd.new_path, "\n".join(added) + "\n"))
    return out


def lint_patch(
    patch: Patch,
    checkers: list[Checker] | None = None,
    obs: ObsRegistry | None = None,
) -> LintReport:
    """Lint the added lines of a patch as per-file fragments."""
    return lint_sources(patch_fragments(patch), checkers=checkers, obs=obs, fragments=True)
