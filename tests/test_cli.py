"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

PATCH_TEXT = """commit b84c2cab55948a5ee70860779b2640913e3ee1ed
Author: Dev <d@example.org>
Date:   Tue Nov 5 10:00:00 2019 -0500

    prevent stack underflow

diff --git a/src/bits.c b/src/bits.c
--- a/src/bits.c
+++ b/src/bits.c
@@ -953,7 +953,7 @@ bit_write_UMC (Bit_Chain *dat, BITCODE_UMC val)
     if (byte[i] & 0x7f)
       break;

-  if (byte[i] & 0x40)
+  if (byte[i] & 0x40 && i > 0)
     byte[i] &= 0x7f;
   for (j = 4; j >= i; j--)
     {
"""

BEFORE_C = "int get(int idx, int cap)\n{\n    if (idx >= cap)\n        return -1;\n    return idx;\n}\n"
AFTER_C = BEFORE_C.replace("idx >= cap", "idx >= cap || idx < 0")


@pytest.fixture()
def patch_file(tmp_path):
    path = tmp_path / "fix.patch"
    path.write_text(PATCH_TEXT)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "cmd",
        [
            "build",
            "augment",
            "evaluate",
            "stats",
            "features",
            "categorize",
            "synthesize",
            "lint",
            "autofix",
            "trace",
            "serve",
        ],
    )
    def test_subcommands_exist(self, cmd):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([cmd, "--help"])

    @pytest.mark.parametrize("cmd", ["build", "augment", "evaluate", "lint", "serve", "autofix"])
    def test_world_flags_shared_across_subcommands(self, cmd):
        """Every world-building subcommand accepts the shared parent flags."""
        argv = [cmd, "--scale", "tiny", "--seed", "7", "--workers", "2"]
        if cmd == "build":
            argv.append("out.jsonl")
        args = build_parser().parse_args(argv)
        assert (args.scale, args.seed, args.workers) == ("tiny", 7, 2)
        assert hasattr(args, "world_cache")

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--model-cache", "m.pkl", "--max-batch", "8"]
        )
        assert args.port == 0
        assert args.model_cache == "m.pkl"
        assert args.max_batch == 8


class TestMissingFileErrors:
    """A bad path exits 2 with a clean error, not a traceback (no raw OSError)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["features", "/no/such/file.patch"],
            ["categorize", "/no/such/file.patch"],
            ["lint", "/no/such/file.c"],
        ],
    )
    def test_clean_error_and_exit_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")
        assert "Traceback" not in err

    def test_synthesize_missing_input(self, tmp_path, capsys):
        before = tmp_path / "b.c"
        before.write_text(BEFORE_C)
        assert main(["synthesize", str(before), str(tmp_path / "missing.c")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestCategorize:
    def test_prints_type(self, patch_file, capsys):
        assert main(["categorize", patch_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("3\t")
        assert "sanity checks" in out


class TestFeatures:
    def test_nonzero_only_by_default(self, patch_file, capsys):
        assert main(["features", patch_file]) == 0
        out = capsys.readouterr().out
        assert "changed_lines: 2" in out
        assert "added_loops" not in out

    def test_all_flag_prints_sixty(self, patch_file, capsys):
        assert main(["features", "--all", patch_file]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 60


class TestSynthesize:
    def test_all_variants(self, tmp_path, capsys):
        before = tmp_path / "b.c"
        after = tmp_path / "a.c"
        before.write_text(BEFORE_C)
        after.write_text(AFTER_C)
        assert main(["synthesize", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert out.count("# variant") == 8
        assert "_SYS_" in out

    def test_single_variant(self, tmp_path, capsys):
        before = tmp_path / "b.c"
        after = tmp_path / "a.c"
        before.write_text(BEFORE_C)
        after.write_text(AFTER_C)
        assert main(["synthesize", str(before), str(after), "--variant", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("# variant") == 1
        assert "_SYS_ZERO" in out

    def test_no_if_site_fails(self, tmp_path, capsys):
        before = tmp_path / "b.c"
        after = tmp_path / "a.c"
        before.write_text("int x = 1;\n")
        after.write_text("int x = 2;\n")
        assert main(["synthesize", str(before), str(after)]) == 1


class TestBuildAndStats:
    def test_build_then_stats(self, tmp_path, capsys):
        out_path = tmp_path / "db.jsonl"
        assert main(["build", str(out_path), "--scale", "tiny", "--no-synthetic"]) == 0
        build_out = capsys.readouterr().out
        assert "nvd_security" in build_out
        assert out_path.exists()

        assert main(["stats", str(out_path)]) == 0
        stats_out = capsys.readouterr().out
        assert "security patch composition" in stats_out
        assert "total" in stats_out

    def test_build_with_feature_cache_workers_and_stats(self, tmp_path, capsys):
        out_path = tmp_path / "db.jsonl"
        assert (
            main(
                [
                    "build",
                    str(out_path),
                    "--scale",
                    "tiny",
                    "--no-synthetic",
                    "--workers",
                    "2",
                    "--stats",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert out_path.exists()
        assert "phase timings:" in err
        assert "vectors_extracted" in err
        assert "vector_cache_hits" in err


class TestEvaluate:
    def test_table6_with_engine_and_token_cache(self, capsys):
        assert (
            main(
                [
                    "evaluate",
                    "--scale",
                    "tiny",
                    "--tables",
                    "6",
                    "--workers",
                    "2",
                    "--stats",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "Table VI" in captured.out
        assert "Random Forest" in captured.out
        assert "Table III" not in captured.out
        assert "token_cache_misses" in captured.err
        assert "token_cache_hits" in captured.err
        assert "fits_parallel" in captured.err  # --workers sizes the fit pool
        assert "phase timings:" in captured.err

    def test_unknown_table_rejected(self, capsys):
        assert main(["evaluate", "--tables", "5"]) == 2
        assert "unknown table" in capsys.readouterr().err


class TestAugmentAndTrace:
    def test_augment_runs_table2(self, capsys):
        assert main(["augment", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "round 1" in out
        assert "wild security patches found" in out

    def test_stats_json_payload(self, tmp_path, capsys):
        import json

        stats_path = tmp_path / "stats.json"
        code = main(
            ["augment", "--scale", "tiny", "--stats-json", str(stats_path)]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(stats_path.read_text())
        assert payload["format"] == "repro-obs-stats-v1"
        assert payload["timer_calls"]["extract"] == payload["histograms"]["extract"]["count"]
        assert payload["counters"]["vectors_extracted"] > 0
        manifest = payload["manifest"]
        assert manifest["format"] == "repro-run-manifest-v1"
        assert manifest["command"] == "augment"
        assert manifest["scale"] == "tiny"
        assert len(manifest["world_digest"]) == 40
        assert manifest["wall_clock_s"] > 0

    def test_trace_roundtrip(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main(["augment", "--scale", "tiny", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert trace_path.exists()

        assert main(["trace", str(trace_path), "--counters"]) == 0
        out = capsys.readouterr().out
        assert "cli.augment" in out
        assert "augment.schedule" in out
        assert "augment.round" in out
        assert "└─" in out  # tree structure rendered
        assert "top" in out and "phases" in out
        assert "vectors_extracted" in out

    def test_trace_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", str(bad)]) == 2
        assert capsys.readouterr().err != ""

    def test_trace_rejects_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        capsys.readouterr()


class TestMakeService:
    """``repro serve`` construction: a cold fit persists, a restart loads it."""

    def test_model_cache_cold_fit_then_cached(self, tmp_path, capsys):
        from repro.cli import _make_service
        from repro.obs import ObsRegistry

        model_cache = tmp_path / "models.pkl"
        args = build_parser().parse_args(
            [
                "serve",
                "--scale",
                "tiny",
                "--world-cache",
                str(tmp_path / "world"),
                "--model-cache",
                str(model_cache),
            ]
        )
        cold = _make_service(args, ObsRegistry())
        cold.close()
        assert cold.manifest()["model_cached"] is False
        assert cold.telemetry.merged().calls("model_fit") == 1
        assert model_cache.exists()  # the cold fit was persisted
        assert "cold fit" in capsys.readouterr().err

        warm = _make_service(args, ObsRegistry())
        warm.close()
        assert warm.manifest()["model_cached"] is True
        assert warm.telemetry.merged().calls("model_fit") == 0
        assert warm.model_key == cold.model_key
        assert "cache hit" in capsys.readouterr().err


DIRTY_C = "void f(void) {\n    strcpy(dst, src);\n    int _SYS_left = 0;\n}\n"


class TestLint:
    @pytest.fixture()
    def clean_file(self, tmp_path):
        path = tmp_path / "clean.c"
        path.write_text(BEFORE_C)
        return str(path)

    @pytest.fixture()
    def dirty_file(self, tmp_path):
        path = tmp_path / "dirty.c"
        path.write_text(DIRTY_C)
        return str(path)

    def test_clean_file_passes(self, clean_file, capsys):
        assert main(["lint", clean_file]) == 0
        assert "0 finding" in capsys.readouterr().out

    def test_gate_finding_fails_by_default(self, dirty_file, capsys):
        # The scaffold leak is gate-class; exit code must be 1.
        assert main(["lint", dirty_file]) == 1
        out = capsys.readouterr().out
        assert "scaffold-leak" in out
        assert "dangerous-api" in out

    def test_fail_on_never_always_passes(self, dirty_file, capsys):
        assert main(["lint", dirty_file, "--fail-on", "never"]) == 0
        capsys.readouterr()

    def test_fail_on_warning_includes_warnings(self, tmp_path, capsys):
        path = tmp_path / "warn.c"
        path.write_text("void f(void) {\n    strcpy(dst, src);\n}\n")
        assert main(["lint", str(path)]) == 0  # warning only
        assert main(["lint", str(path), "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_json_format_parses(self, dirty_file, capsys):
        import json

        assert main(["lint", dirty_file, "--fail-on", "never", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-lint-report-v1"
        checkers = {f["checker"] for fr in payload["files"] for f in fr["findings"]}
        assert "scaffold-leak" in checkers

    def test_patch_directory_lints_fragments(self, patch_file, tmp_path, capsys):
        assert main(["lint", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # Fragment paths are namespaced as <patch-path>:<file-path>.
        assert "fix.patch" in out or "0 finding" in out

    def test_output_file_written(self, clean_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["lint", clean_file, "--format", "json", "--output", str(report_path)]
        )
        assert code == 0
        assert report_path.exists()
        capsys.readouterr()

    def test_lint_stats_json(self, dirty_file, tmp_path, capsys):
        import json

        stats_path = tmp_path / "lint-stats.json"
        code = main(
            ["lint", dirty_file, "--fail-on", "never", "--stats-json", str(stats_path)]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(stats_path.read_text())
        assert payload["counters"]["files_linted"] == 1
        assert payload["timer_calls"]["lint"] == 1
        assert payload["manifest"]["command"] == "lint"
        assert payload["manifest"]["files_linted"] == 1

    def test_gate_mode_builds_world(self, capsys):
        import json

        code = main(
            [
                "lint",
                "--scale",
                "tiny",
                "--seed",
                "2021",
                "--variant-sample",
                "2",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gate"]["passed"] is True
        assert payload["gate"]["variant_failures"] == 0

    def test_baseline_suppresses_known_findings(self, dirty_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint",
                    dirty_file,
                    "--fail-on",
                    "never",
                    "--format",
                    "json",
                    "--output",
                    str(baseline),
                ]
            )
            == 0
        )
        capsys.readouterr()
        # With every current finding recorded, the gate-class leak no
        # longer fails the run and the report is clean.
        assert main(["lint", dirty_file, "--baseline", str(baseline)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_baseline_does_not_mask_new_findings(self, dirty_file, tmp_path, capsys):
        from pathlib import Path

        baseline = tmp_path / "baseline.json"
        main(["lint", dirty_file, "--fail-on", "never", "--format", "json",
              "--output", str(baseline)])
        capsys.readouterr()
        # A new gate-class violation after the baseline was recorded.
        text = Path(dirty_file).read_text()
        Path(dirty_file).write_text(text.replace("{\n", "{\n    int _SYS_fresh = 1;\n", 1))
        assert main(["lint", dirty_file, "--baseline", str(baseline)]) == 1
        assert "_SYS_fresh" in capsys.readouterr().out

    def test_missing_baseline_errors_cleanly(self, dirty_file, tmp_path, capsys):
        code = main(["lint", dirty_file, "--baseline", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestAutofix:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        # One TINY world shared by every test in the class.
        return str(tmp_path_factory.mktemp("world-cache"))

    def _run(self, cache_dir, *extra):
        return main(
            ["autofix", "--scale", "tiny", "--world-cache", cache_dir,
             "--max-files", "10", *extra]
        )

    def test_round_trip_with_report_and_artifacts(self, cache_dir, tmp_path, capsys):
        import json

        report_path = tmp_path / "autofix-report.json"
        artifacts = tmp_path / "artifacts"
        code = self._run(
            cache_dir,
            "--fail-under", "0.9",
            "--report", str(report_path),
            "--artifacts", str(artifacts),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verified repairs" in out
        payload = json.loads(report_path.read_text())
        assert payload["format"] == "repro-autofix-manifest-v1"
        assert payload["summary"]["verifier_crashes"] == 0
        assert payload["summary"]["repair_rate"] >= 0.9
        per_patch = sorted(artifacts.glob("autofix-*.json"))
        assert len(per_patch) == payload["summary"]["plants_applied"]
        one = json.loads(per_patch[0].read_text())
        assert "elapsed_ms" in one and "diff" in one

    def test_fail_under_breach_exits_nonzero(self, cache_dir, capsys):
        code = self._run(cache_dir, "--kinds", "dangerous-api", "--fail-under", "1.1")
        assert code == 1
        assert "below" in capsys.readouterr().err

    def test_unknown_kind_exits_2(self, cache_dir, capsys):
        code = self._run(cache_dir, "--kinds", "bogus")
        assert code == 2
        assert "unknown plant kind" in capsys.readouterr().err

    def test_stats_json_carries_the_loop_counters(self, cache_dir, tmp_path, capsys):
        import json

        stats_path = tmp_path / "stats.json"
        code = self._run(cache_dir, "--stats-json", str(stats_path))
        assert code == 0
        capsys.readouterr()
        payload = json.loads(stats_path.read_text())
        assert payload["counters"]["autofix_plants"] == 10
        assert payload["counters"]["autofix_accepted"] >= 9
        assert payload["manifest"]["command"] == "autofix"
        assert payload["manifest"]["repair_rate"] >= 0.9
