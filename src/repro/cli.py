"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``build``     — run the full construction pipeline, write a PatchDB JSONL.
* ``augment``   — run the Table II augmentation rounds (the nearest-link loop).
* ``evaluate``  — run the Table III/IV/VI evaluation suite at a scale.
* ``stats``     — summarize an existing PatchDB JSONL (counts, composition).
* ``features``  — print the Table I feature vector of a ``.patch`` file.
* ``categorize``— print the Table V pattern type of a ``.patch`` file.
* ``synthesize``— apply the Fig. 5 variants to a before/after file pair.
* ``lint``      — run the static-analysis suite over a built world (the
  validation gate), a PatchDB JSONL, or a directory of ``.patch`` files.
* ``trace``     — render an exported run trace (span tree + top phases).
* ``serve``     — stand up the long-running HTTP service (query/classify/
  manifest endpoints) over a built world + PatchDB.

Shared flags come from two parent parsers instead of per-subcommand
re-declarations: ``_world_parent()`` (``--scale``/``--seed``/``--workers``/
``--world-cache``) and ``_obs_parent()`` (``--stats``,
``--stats-json PATH`` with machine-readable merged timers and counters,
``--trace PATH`` with a JSONL span trace for ``repro trace``).

The CLI wraps the library one-to-one; every command is also available
programmatically (see README).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .analysis.experiments import (
    MEDIUM,
    SMALL,
    TINY,
    ExperimentWorld,
    build_patchdb,
    run_table2,
    run_table3,
    run_table4,
    run_table6,
)
from .core.categorize import categorize_patch
from .core.patchdb import PatchDB
from .core.query import PatchQuery
from .corpus.vulnpatterns import PATTERN_NAMES
from .errors import ReproError
from .features.extractor import extract_features
from .features.vector import FEATURE_NAMES
from .obs import ObsRegistry
from .patch.gitformat import parse_patch

_SCALES = {"tiny": TINY, "small": SMALL, "medium": MEDIUM}


def _experiment_world(args: argparse.Namespace, obs: ObsRegistry) -> ExperimentWorld:
    """Construct the command's ExperimentWorld, honoring the shared flags.

    ``--workers`` parallelizes the sharded world build, seeds the caches'
    default worker count and sizes the classifier-fit pool, on the built
    and the loaded world alike; ``--world-cache DIR`` loads/persists the
    whole built world as an ``ExperimentWorld.cached`` pickle so repeated
    runs (and CI jobs sharing the artifact) skip construction entirely.
    """
    scale = _SCALES[args.scale]
    if getattr(args, "world_cache", None):
        ew = ExperimentWorld.cached(
            scale, seed=args.seed, cache_dir=args.world_cache, workers=args.workers, obs=obs
        )
    else:
        ew = ExperimentWorld(scale, seed=args.seed, workers=args.workers, obs=obs)
    ew.ml_workers = args.workers
    return ew


def _emit_observability(
    args: argparse.Namespace,
    obs: ObsRegistry,
    manifest: dict,
) -> None:
    """Honor the shared ``--stats`` / ``--stats-json`` / ``--trace`` flags."""
    if getattr(args, "stats", False):
        print(f"\n{obs.report()}", file=sys.stderr)
    if getattr(args, "stats_json", None):
        payload = obs.to_dict()
        payload["manifest"] = manifest
        Path(args.stats_json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote stats to {args.stats_json}", file=sys.stderr)
    if getattr(args, "trace", None):
        obs.export_trace(args.trace, manifest=manifest)
        print(f"wrote trace to {args.trace}", file=sys.stderr)


def _cmd_build(args: argparse.Namespace) -> int:
    scale = _SCALES[args.scale]
    print(f"building {scale.name} world (seed {args.seed})...", file=sys.stderr)
    start = time.perf_counter()
    obs = ObsRegistry()
    with obs.span("cli.build", scale=scale.name, seed=args.seed):
        ew = _experiment_world(args, obs)
        db = build_patchdb(ew, synthesize=not args.no_synthetic)
        db.save_jsonl(args.output)
    for key, value in db.summary().items():
        print(f"{key:>24s}: {value}")
    _emit_observability(
        args,
        ew.obs,
        ew.manifest(
            command="build",
            output=str(args.output),
            records=len(db),
            wall_clock_s=round(time.perf_counter() - start, 3),
        ),
    )
    print(f"wrote {len(db)} records to {args.output}", file=sys.stderr)
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    scale = _SCALES[args.scale]
    print(f"building {scale.name} world (seed {args.seed})...", file=sys.stderr)
    start = time.perf_counter()
    obs = ObsRegistry()
    with obs.span("cli.augment", scale=scale.name, seed=args.seed):
        ew = _experiment_world(args, obs)
        outcome = run_table2(ew)
    print("Table II — wild-based dataset construction")
    print(outcome.table())
    print(
        f"wild security patches found: {outcome.wild_security_count} "
        f"(seed {len(ew.nvd_seed_shas)} NVD patches)"
    )
    _emit_observability(
        args,
        ew.obs,
        ew.manifest(
            command="augment",
            rounds=len(outcome.rounds),
            wild_security=outcome.wild_security_count,
            wall_clock_s=round(time.perf_counter() - start, 3),
        ),
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    tables = [t.strip() for t in args.tables.split(",") if t.strip()]
    unknown = [t for t in tables if t not in ("3", "4", "6")]
    if unknown:
        print(f"unknown table(s): {', '.join(unknown)} (choose from 3,4,6)", file=sys.stderr)
        return 2
    scale = _SCALES[args.scale]
    print(f"building {scale.name} world (seed {args.seed})...", file=sys.stderr)
    start = time.perf_counter()
    obs = ObsRegistry()
    with obs.span("cli.evaluate", scale=scale.name, seed=args.seed, tables=args.tables):
        ew = _experiment_world(args, obs)
        models = None
        if args.model_cache:
            from .ml.model_cache import FittedModelCache

            models = FittedModelCache(persist_path=args.model_cache, obs=obs)
        if "3" in tables:
            print("Table III — augmentation methods")
            for row in run_table3(ew):
                print(row.row())
        if "4" in tables:
            print("\nTable IV — synthetic patches")
            print(run_table4(ew, model_cache=models).table())
        if "6" in tables:
            print("\nTable VI — cross-source generalization")
            print(run_table6(ew, model_cache=models).table())
    if args.model_cache and models is not None:
        models.save()
        print(f"persisted {len(models)} fitted models to {args.model_cache}", file=sys.stderr)
    _emit_observability(
        args,
        ew.obs,
        ew.manifest(
            command="evaluate",
            tables=",".join(tables),
            wall_clock_s=round(time.perf_counter() - start, 3),
        ),
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    db = PatchDB.load_jsonl(args.patchdb)
    for key, value in db.summary().items():
        print(f"{key:>24s}: {value}")
    from collections import Counter

    types = Counter(
        r.pattern_type
        for r in db.records(PatchQuery(is_security=True))
        if r.pattern_type is not None
    )
    total = sum(types.values())
    if total:
        print("\nsecurity patch composition:")
        for t in sorted(PATTERN_NAMES):
            share = types.get(t, 0) / total
            print(f"  {t:>2d} {PATTERN_NAMES[t]:<40s} {share:6.1%}")
    return 0


def _read_text(path: str | Path, what: str = "file") -> str:
    """Read a text file, folding OS failures into a clean CLI error."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
        raise ReproError(f"cannot read {what} {str(path)!r}: {reason}") from exc


def _read_patch(path: str):
    return parse_patch(_read_text(path, "patch file"))


def _cmd_features(args: argparse.Namespace) -> int:
    patch = _read_patch(args.patch)
    vec = extract_features(patch)
    for name, value in zip(FEATURE_NAMES, vec):
        if value != 0 or args.all:
            print(f"{name:>28s}: {value:g}")
    return 0


def _cmd_categorize(args: argparse.Namespace) -> int:
    patch = _read_patch(args.patch)
    kind = categorize_patch(patch)
    print(f"{kind}\t{PATTERN_NAMES[kind]}")
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from .diffing.unified_gen import diff_texts
    from .patch.unified import render_file_diff
    from .synthesis.variants import VARIANTS
    from .synthesis.engine import synthesize_from_texts

    before = _read_text(args.before, "source file")
    after = _read_text(args.after, "source file")
    produced = 0
    for variant in VARIANTS:
        if args.variant and variant.variant_id != args.variant:
            continue
        result = synthesize_from_texts(before, after, args.before, variant, side=args.side)
        if result is None:
            continue
        new_before, new_after = result
        print(f"# variant {variant.variant_id}: {variant.description}")
        print(render_file_diff(diff_texts(new_before, new_after, args.before)))
        print()
        produced += 1
    if not produced:
        print("no if-statement site found in the changed region", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .corpus.world import build_world
    from .obs import ObsRegistry
    from .staticcheck import (
        CHECKER_IDS,
        LintReport,
        Severity,
        lint_sources,
        make_checkers,
        patch_fragments,
        run_gate,
    )

    start = time.perf_counter()
    obs = ObsRegistry()
    gate_result = None
    manifest: dict = {
        "format": "repro-run-manifest-v1",
        "command": "lint",
        "target": args.target,
        "created_unix": time.time(),
    }
    with obs.span("cli.lint", target=args.target):
        if args.target is None:
            # No target: build a world at --scale and run the full gate.
            scale = _SCALES[args.scale]
            print(f"building {scale.name} world (seed {args.seed})...", file=sys.stderr)
            if getattr(args, "world_cache", None):
                from .analysis.experiments import ExperimentWorld

                world = ExperimentWorld.cached(
                    scale,
                    seed=args.seed,
                    cache_dir=args.world_cache,
                    workers=args.workers,
                    obs=obs,
                ).world
            else:
                with obs.span(
                    "world.build", scale=scale.name, seed=args.seed, workers=args.workers
                ):
                    world = build_world(
                        scale.world_config(args.seed), workers=args.workers, obs=obs
                    )
            stats = world.build_stats or {}
            manifest.update(
                scale=scale.name,
                seed=args.seed,
                world_digest=world.digest(),
                commits_attempted=stats.get("attempted"),
                commits_produced=stats.get("produced"),
                commits_skipped=stats.get("skipped_no_c_paths", 0)
                + stats.get("skipped_exhausted", 0),
            )
            gate_result = run_gate(
                world, workers=args.workers, variant_sample=args.variant_sample, obs=obs
            )
            report = gate_result.report
        else:
            target = Path(args.target)
            if target.is_dir():
                items = [
                    (str(p), _read_patch(str(p))) for p in sorted(target.glob("*.patch"))
                ]
                pairs = [(path, frag) for path, p in items for frag in patch_fragments(p)]
                report = lint_sources(
                    [(f"{path}:{fp}", text) for path, (fp, text) in pairs],
                    workers=args.workers,
                    obs=obs,
                    fragments=True,
                )
            elif target.suffix == ".jsonl":
                # Synthetic records carry _SYS_ scaffolding by construction, so
                # the scaffold-leak checker only applies to natural records.
                natural_pairs: list[tuple[str, str]] = []
                synthetic_pairs: list[tuple[str, str]] = []
                for record in PatchDB.iter_jsonl(target):
                    dest = synthetic_pairs if record.source == "synthetic" else natural_pairs
                    for fp, text in patch_fragments(record.patch):
                        dest.append((f"{record.patch.sha[:12]}:{fp}", text))
                no_scaffold = make_checkers([c for c in CHECKER_IDS if c != "scaffold-leak"])
                rep_nat = lint_sources(
                    natural_pairs, workers=args.workers, obs=obs, fragments=True
                )
                rep_syn = lint_sources(
                    synthetic_pairs,
                    checkers=no_scaffold,
                    workers=args.workers,
                    obs=obs,
                    fragments=True,
                )
                report = LintReport(
                    files=sorted(rep_nat.files + rep_syn.files, key=lambda fr: fr.path)
                )
            else:
                report = lint_sources(
                    [(str(target), _read_text(target, "lint target"))],
                    workers=args.workers,
                    obs=obs,
                )

    if args.baseline:
        baseline_ids = LintReport.from_json(
            _read_text(args.baseline, "lint baseline")
        ).finding_ids()
        n_before = sum(len(fr.findings) for fr in report.files)
        report = report.apply_baseline(baseline_ids)
        manifest["baseline_suppressed"] = n_before - sum(
            len(fr.findings) for fr in report.files
        )
        if gate_result is not None:
            gate_result.report = report

    if args.format == "json":
        import json as _json

        payload = _json.loads(report.to_json())
        if gate_result is not None:
            payload["gate"] = gate_result.summary()
            payload["gate"]["variant_failures_detail"] = gate_result.variant_failures
        text = _json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = (
            gate_result.render_text(max_findings=args.max_findings)
            if gate_result is not None
            else report.render_text(max_findings=args.max_findings)
        )
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote report to {args.output}", file=sys.stderr)
    else:
        print(text)
    manifest["files_linted"] = obs.count("files_linted")
    manifest["wall_clock_s"] = round(time.perf_counter() - start, 3)
    _emit_observability(args, obs, manifest)

    if args.fail_on == "never":
        return 0
    failing = report.findings(Severity.GATE)
    if args.fail_on == "warning":
        failing = failing + report.findings(Severity.WARNING)
    if gate_result is not None and gate_result.variant_failures:
        return 1
    return 1 if failing else 0


def _cmd_autofix(args: argparse.Namespace) -> int:
    import hashlib

    from .autofix import DEFAULT_KINDS, AutofixConfig, autofix_world

    start = time.perf_counter()
    obs = ObsRegistry()
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip()) if args.kinds else DEFAULT_KINDS
    config = AutofixConfig(kinds=kinds, dataflow=not args.heuristic)
    config.validate()
    manifest: dict = {
        "format": "repro-run-manifest-v1",
        "command": "autofix",
        "created_unix": time.time(),
    }
    with obs.span("cli.autofix", scale=args.scale, dataflow=config.dataflow):
        print(f"building {args.scale} world (seed {args.seed})...", file=sys.stderr)
        world = _experiment_world(args, obs).world
        manifest.update(scale=args.scale, seed=args.seed, world_digest=world.digest())
        report = autofix_world(
            world,
            config=config,
            workers=args.workers,
            obs=obs,
            max_files=args.max_files,
        )
    print(report.render_text())

    if args.report:
        Path(args.report).write_text(report.to_json() + "\n")
        print(f"wrote autofix report to {args.report}", file=sys.stderr)
    if args.artifacts:
        art_dir = Path(args.artifacts)
        art_dir.mkdir(parents=True, exist_ok=True)
        written = 0
        for outcome in report.outcomes:
            if not outcome.planted:
                continue
            tag = hashlib.sha1(
                f"{outcome.plant.path}|{outcome.plant.kind}".encode()
            ).hexdigest()[:12]
            (art_dir / f"autofix-{tag}.json").write_text(
                json.dumps(outcome.to_dict(include_timings=True), indent=2, sort_keys=True)
                + "\n"
            )
            written += 1
        print(f"wrote {written} patch artifacts to {art_dir}", file=sys.stderr)

    summary = report.summary()
    manifest.update(
        plants_applied=summary["plants_applied"],
        found=summary["found"],
        accepted=summary["accepted"],
        repair_rate=summary["repair_rate"],
        verifier_crashes=summary["verifier_crashes"],
        wall_clock_s=round(time.perf_counter() - start, 3),
    )
    _emit_observability(args, obs, manifest)

    if report.verifier_crashes:
        print(f"FAIL: {report.verifier_crashes} verifier crashes", file=sys.stderr)
        return 1
    if args.fail_under is not None and report.repair_rate < args.fail_under:
        print(
            f"FAIL: repair rate {report.repair_rate:.1%} below "
            f"--fail-under {args.fail_under:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .trace import fetch_trace, load_trace, render_span_tree, render_top_phases

    try:
        if args.url:
            trace = fetch_trace(args.url)
        elif args.trace_file:
            trace = load_trace(args.trace_file)
        else:
            print("error: give a trace JSONL file or --url", file=sys.stderr)
            return 2
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_span_tree(trace))
    print()
    print(render_top_phases(trace, top=args.top))
    counters = trace.summary.get("counters", {})
    if counters and args.counters:
        print("\ncounters:")
        for name in sorted(counters):
            print(f"  {name:>28s}: {counters[name]}")
    return 0


def _make_service(args: argparse.Namespace, obs: ObsRegistry):
    """Build the world + dataset + warmed service behind ``repro serve``.

    Honors the shared world flags (``--world-cache`` makes restarts load a
    pickle instead of rebuilding), loads the dataset from ``--patchdb``
    when given (skipping the construction pipeline), and warms the classify
    model through the persisted ``--model-cache`` — a warm restart against
    the same dataset performs no training at all.
    """
    from .analysis.experiments import build_patchdb as _build_patchdb
    from .ml.model_cache import FittedModelCache
    from .serve import PatchDBService, ServeTelemetry

    ew = _experiment_world(args, obs)
    if args.patchdb:
        _read_text(args.patchdb, "PatchDB JSONL")  # clean error on a bad path
        db = PatchDB.load_jsonl(args.patchdb)
        print(f"loaded {len(db)} records from {args.patchdb}", file=sys.stderr)
    else:
        db = _build_patchdb(ew)
        print(f"built PatchDB with {len(db)} records", file=sys.stderr)
    models = FittedModelCache(persist_path=args.model_cache, obs=obs)
    service = PatchDBService(
        ew,
        db,
        model_cache=models,
        obs=obs,
        max_batch=args.max_batch,
        telemetry=ServeTelemetry(
            enabled=not args.no_telemetry,
            trace_tail=args.trace_store,
            slow_threshold_s=args.slow_ms / 1000.0,
        ),
    )
    info = service.warm()
    source = "cache hit" if info["cached"] else "cold fit"
    print(
        f"classify model warm ({source}, {info['n_train']} training records, "
        f"{info['warm_s']}s) key={info['model_key'][:16]}",
        file=sys.stderr,
    )
    if args.model_cache and not info["cached"]:
        service.models.save()
        print(f"persisted model cache to {args.model_cache}", file=sys.stderr)
    return service


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import make_server

    start = time.perf_counter()
    obs = ObsRegistry()
    with obs.span("cli.serve", scale=args.scale, seed=args.seed):
        service = _make_service(args, obs)
        server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(f"serving PatchDB on http://{host}:{port}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        server.server_close()
        service.close()
    _emit_observability(
        args,
        obs,
        service.ew.manifest(
            command="serve",
            records=len(service.db),
            model_key=service.model_key,
            wall_clock_s=round(time.perf_counter() - start, 3),
        ),
    )
    return 0


def _obs_parent() -> argparse.ArgumentParser:
    """Parent parser: the shared observability flags of every world command."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--stats", action="store_true", help="print phase timings and counters to stderr"
    )
    parent.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write merged timers/call counts/counters/histograms as JSON",
    )
    parent.add_argument(
        "--trace",
        default=None,
        metavar="JSONL",
        help="export the run's span trace + manifest (render with `repro trace`)",
    )
    return parent


def _world_parent() -> argparse.ArgumentParser:
    """Parent parser: the shared world-building flags.

    Every command that constructs a world gets the same ``--scale``/
    ``--seed``/``--workers``/``--world-cache`` spelling from here instead
    of re-declaring (and subtly re-wording) them per subcommand.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--scale", choices=sorted(_SCALES), default="tiny")
    parent.add_argument("--seed", type=int, default=2021)
    parent.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process count for the sharded world build and the parallel "
        "feature/token/lint/fit pools (results are bit-identical at every count)",
    )
    parent.add_argument(
        "--world-cache",
        default=None,
        metavar="DIR",
        help="load/persist the whole built world as an ExperimentWorld pickle in DIR",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing).

    World-building subcommands share their flags through the
    :func:`_world_parent`/:func:`_obs_parent` parent parsers; only flags
    unique to a command are declared at its subparser.
    """
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    obs_parent = _obs_parent()
    world_parent = _world_parent()

    p_build = sub.add_parser(
        "build",
        help="run the full PatchDB construction pipeline",
        parents=[world_parent, obs_parent],
    )
    p_build.add_argument("output", help="output JSONL path")
    p_build.add_argument("--no-synthetic", action="store_true", help="skip oversampling")
    p_build.set_defaults(func=_cmd_build)

    p_aug = sub.add_parser(
        "augment",
        help="run the Table II augmentation rounds (nearest-link loop)",
        parents=[world_parent, obs_parent],
    )
    p_aug.set_defaults(func=_cmd_augment)

    p_eval = sub.add_parser(
        "evaluate",
        help="run the Table III/IV/VI evaluation suite",
        parents=[world_parent, obs_parent],
    )
    p_eval.add_argument(
        "--tables", default="3,4,6", help="comma-separated subset of 3,4,6 (default: all)"
    )
    p_eval.add_argument(
        "--model-cache",
        default=None,
        metavar="PKL",
        help="persist/reuse Table IV/VI fitted models at this pickle path; "
        "re-evaluating with unchanged training sets re-fits nothing",
    )
    p_eval.set_defaults(func=_cmd_evaluate)

    p_stats = sub.add_parser("stats", help="summarize a PatchDB JSONL")
    p_stats.add_argument("patchdb", help="PatchDB JSONL path")
    p_stats.set_defaults(func=_cmd_stats)

    p_feat = sub.add_parser("features", help="Table I features of a .patch file")
    p_feat.add_argument("patch", help=".patch file path")
    p_feat.add_argument("--all", action="store_true", help="include zero-valued features")
    p_feat.set_defaults(func=_cmd_features)

    p_cat = sub.add_parser("categorize", help="Table V pattern type of a .patch file")
    p_cat.add_argument("patch", help=".patch file path")
    p_cat.set_defaults(func=_cmd_categorize)

    p_syn = sub.add_parser("synthesize", help="apply Fig. 5 variants to a file pair")
    p_syn.add_argument("before", help="pre-patch file")
    p_syn.add_argument("after", help="post-patch file")
    p_syn.add_argument("--variant", type=int, choices=range(1, 9), default=None)
    p_syn.add_argument("--side", choices=("before", "after"), default="after")
    p_syn.set_defaults(func=_cmd_synthesize)

    p_lint = sub.add_parser(
        "lint",
        help="run the static-analysis suite (validation gate without a target)",
        parents=[world_parent, obs_parent],
    )
    p_lint.add_argument(
        "target",
        nargs="?",
        default=None,
        help="a C file, a PatchDB .jsonl, or a directory of .patch files; "
        "omit to build a world at --scale and run the full validation gate",
    )
    p_lint.add_argument("--format", choices=("text", "json"), default="text")
    p_lint.add_argument("--output", default=None, metavar="FILE", help="write the report here")
    p_lint.add_argument(
        "--fail-on",
        choices=("gate", "warning", "never"),
        default="gate",
        help="exit non-zero when findings of this class (or worse) exist",
    )
    p_lint.add_argument(
        "--variant-sample",
        type=int,
        default=25,
        metavar="N",
        help="security patches to CFG-equivalence-check in gate mode (0 disables)",
    )
    p_lint.add_argument(
        "--max-findings", type=int, default=50, help="cap findings printed in text mode"
    )
    p_lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="suppress findings whose stable ids appear in this prior "
        "`lint --format json` report",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_fix = sub.add_parser(
        "autofix",
        help="closed-loop find→patch→verify repair over a built world",
        parents=[world_parent, obs_parent],
    )
    p_fix.add_argument(
        "--kinds",
        default=None,
        metavar="K1,K2,...",
        help="comma-separated plant kinds (checker ids and variant:N); "
        "default cycles all of them",
    )
    p_fix.add_argument(
        "--heuristic",
        action="store_true",
        help="run the finder's checkers without dataflow refinement",
    )
    p_fix.add_argument(
        "--max-files",
        type=int,
        default=None,
        metavar="N",
        help="cap the run to the first N files in sorted path order",
    )
    p_fix.add_argument(
        "--fail-under",
        type=float,
        default=None,
        metavar="RATE",
        help="exit non-zero when the verified repair rate is below RATE (0..1)",
    )
    p_fix.add_argument(
        "--report",
        default=None,
        metavar="JSON",
        help="write the repro-autofix-manifest-v1 report here",
    )
    p_fix.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="write one per-patch artifact JSON (finding, diff, gates, timings) per plant",
    )
    p_fix.set_defaults(func=_cmd_autofix)

    p_serve = sub.add_parser(
        "serve",
        help="serve PatchDB over HTTP (query/classify/manifest endpoints)",
        parents=[world_parent, obs_parent],
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8127, help="listen port (0 picks a free one)"
    )
    p_serve.add_argument(
        "--patchdb",
        default=None,
        metavar="JSONL",
        help="serve this PatchDB release instead of running the construction pipeline",
    )
    p_serve.add_argument(
        "--model-cache",
        default=None,
        metavar="PKL",
        help="persist/reuse the fitted classify model at this pickle path "
        "(keyed by training-set sha; corrupt files degrade to a cold fit)",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="largest classify batch per model call",
    )
    p_serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable request tracing and live metrics (the overhead baseline)",
    )
    p_serve.add_argument(
        "--trace-store",
        type=int,
        default=256,
        metavar="N",
        help="tail ring size of the live trace store (/v1/traces)",
    )
    p_serve.add_argument(
        "--slow-ms",
        type=float,
        default=250.0,
        help="latency threshold for slow-request trace sampling",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_trace = sub.add_parser(
        "trace", help="render an exported run trace (span tree + top phases)"
    )
    p_trace.add_argument(
        "trace_file", nargs="?", default=None, help="trace JSONL written by --trace"
    )
    p_trace.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="fetch live sampled request traces from a running server "
        "(base URL or full /v1/traces endpoint) instead of reading a file",
    )
    p_trace.add_argument(
        "--top", type=int, default=10, metavar="N", help="phases to list by total time"
    )
    p_trace.add_argument(
        "--counters", action="store_true", help="also print the run's counters"
    )
    p_trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped to a pager/head that exited early; not an error.
        # Detach stdout so interpreter shutdown doesn't re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
