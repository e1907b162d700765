"""Tests for the oversampling locator and engine."""

from dataclasses import replace

import numpy as np
import pytest

from repro.diffing import diff_texts
from repro.errors import SynthesisError
from repro.synthesis import (
    VARIANTS,
    PatchSynthesizer,
    SyntheticPatch,
    locate_ifs,
    locator,
    synthesize_from_texts,
    touched_lines,
)
from repro.synthesis.engine import _synthetic_sha

BEFORE = """int check(int len, int cap)
{
    int r = 0;
    r = len + 1;
    if (len > cap) {
        r = -1;
    }
    return r;
}
"""

# The "patch": tighten the condition (touches the if statement).
AFTER = BEFORE.replace("if (len > cap) {", "if (len > cap || len < 0) {")


class TestTouchedLines:
    def test_after_side(self):
        d = diff_texts(BEFORE, AFTER, "a.c")
        assert 5 in touched_lines(d, "after")

    def test_before_side(self):
        d = diff_texts(BEFORE, AFTER, "a.c")
        assert 5 in touched_lines(d, "before")

    def test_pure_addition_has_no_before_lines(self):
        new = BEFORE.replace("    return r;", "    log(r);\n    return r;")
        d = diff_texts(BEFORE, new, "a.c")
        assert touched_lines(d, "before") == set()
        assert touched_lines(d, "after") != set()


class TestLocator:
    def test_direct_intersection_found(self):
        d = diff_texts(BEFORE, AFTER, "a.c")
        sites = locate_ifs(AFTER, touched_lines(d, "after"))
        assert sites
        assert sites[0].direct
        assert "len > cap" in sites[0].stmt.cond.text

    def test_function_fallback(self):
        # Change a line outside the if; fallback finds the function's ifs.
        new = BEFORE.replace("r = len + 1;", "r = len + 2;")
        d = diff_texts(BEFORE, new, "a.c")
        sites = locate_ifs(new, touched_lines(d, "after"))
        assert sites
        assert not sites[0].direct

    def test_fallback_disabled(self):
        new = BEFORE.replace("r = len + 1;", "r = len + 2;")
        d = diff_texts(BEFORE, new, "a.c")
        assert locate_ifs(new, touched_lines(d, "after"), allow_function_fallback=False) == []

    def test_empty_lines_no_sites(self):
        assert locate_ifs(AFTER, set()) == []

    def test_unparsable_source_has_no_sites(self):
        broken = "int f(int a) {\n    if a) return 1;\n}\n"
        assert locate_ifs(broken, {2}) == []

    def test_other_parser_errors_propagate(self, monkeypatch):
        def buggy_parser(source):
            raise ValueError("parser bug")

        monkeypatch.setattr(locator, "parse_translation_unit", buggy_parser)
        with pytest.raises(ValueError, match="parser bug"):
            locate_ifs(AFTER, {5})


class TestSynthesizeFromTexts:
    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: f"v{v.variant_id}")
    def test_after_side_keeps_before(self, variant):
        result = synthesize_from_texts(BEFORE, AFTER, "a.c", variant, side="after")
        assert result is not None
        new_before, new_after = result
        assert new_before == BEFORE
        assert "_SYS_" in new_after

    def test_before_side_keeps_after(self):
        result = synthesize_from_texts(BEFORE, AFTER, "a.c", VARIANTS[0], side="before")
        assert result is not None
        new_before, new_after = result
        assert new_after == AFTER
        assert "_SYS_" in new_before

    def test_synthetic_diff_contains_original_fix(self):
        _, new_after = synthesize_from_texts(BEFORE, AFTER, "a.c", VARIANTS[0], side="after")
        d = diff_texts(BEFORE, new_after, "a.c")
        added = " ".join(l for h in d.hunks for l in h.added)
        assert "len < 0" in added  # the natural fix survives
        assert "_SYS_ZERO" in added  # plus the variant scaffolding

    def test_identical_texts_return_none(self):
        assert synthesize_from_texts(BEFORE, BEFORE, "a.c", VARIANTS[0]) is None

    def test_bad_side_raises(self):
        with pytest.raises(SynthesisError):
            synthesize_from_texts(BEFORE, AFTER, "a.c", VARIANTS[0], side="sideways")

    def test_site_index_out_of_range(self):
        assert synthesize_from_texts(BEFORE, AFTER, "a.c", VARIANTS[0], site_index=99) is None

    def test_form_feed_line_gives_the_same_variants_as_a_blank_line(self):
        # The lexer breaks lines at "\n" only, so a form feed on a line of
        # its own is blank space, and the if's coordinates must still land.
        def variants(blank_line: str) -> list:
            def with_line(text: str) -> str:
                return text.replace("    int r = 0;\n", "    int r = 0;\n" + blank_line + "\n")

            return [
                synthesize_from_texts(with_line(BEFORE), with_line(AFTER), "a.c", variant)
                for variant in VARIANTS
            ]

        blank = variants("")
        form_feed = variants("\f")
        assert len(blank) == 8 and None not in blank
        assert [tuple(t.replace("\f", "") for t in pair) for pair in form_feed] == blank


class TestPatchSynthesizer:
    def test_synthesizes_for_security_patches(self, tiny_world):
        synth = PatchSynthesizer(tiny_world, max_per_patch=4, seed=0)
        produced = synth.synthesize_many(tiny_world.security_shas()[:15])
        assert len(produced) > 0

    def test_max_per_patch_respected(self, tiny_world):
        synth = PatchSynthesizer(tiny_world, max_per_patch=2, seed=0)
        for sha in tiny_world.security_shas()[:10]:
            assert len(synth.synthesize(sha)) <= 2

    def test_provenance_recorded(self, tiny_world):
        synth = PatchSynthesizer(tiny_world, max_per_patch=3, seed=0)
        sha = tiny_world.security_shas()[0]
        for sp in synth.synthesize(sha):
            assert sp.origin_sha == sha
            assert 1 <= sp.variant_id <= 8
            assert sp.side in ("before", "after")

    def test_synthetic_sha_distinct_and_hexlike(self, tiny_world):
        synth = PatchSynthesizer(tiny_world, max_per_patch=4, seed=0)
        shas = []
        for sha in tiny_world.security_shas()[:10]:
            for sp in synth.synthesize(sha):
                assert len(sp.patch.sha) == 40
                assert all(c in "0123456789abcdef" for c in sp.patch.sha)
                assert sp.patch.sha != sha
                shas.append(sp.patch.sha)
        assert len(shas) == len(set(shas))

    def test_synthetic_patch_contains_scaffolding(self, tiny_world):
        synth = PatchSynthesizer(tiny_world, max_per_patch=4, seed=0)
        for sha in tiny_world.security_shas()[:10]:
            for sp in synth.synthesize(sha):
                # AFTER-side variants show scaffolding as added lines;
                # BEFORE-side variants show it as removed lines (§III-C-3).
                changed = " ".join(sp.patch.added_lines() + sp.patch.removed_lines())
                assert "_SYS_" in changed

    def test_deterministic(self, tiny_world):
        sha = tiny_world.security_shas()[0]
        a = PatchSynthesizer(tiny_world, seed=7).synthesize(sha)
        b = PatchSynthesizer(tiny_world, seed=7).synthesize(sha)
        assert [sp.patch.sha for sp in a] == [sp.patch.sha for sp in b]

    def test_repeat_call_served_from_memo(self, tiny_world, monkeypatch):
        sha = tiny_world.security_shas()[0]
        fresh = [sp.patch.sha for sp in PatchSynthesizer(tiny_world, seed=7).synthesize(sha)]
        synth = PatchSynthesizer(tiny_world, seed=7)
        synth.synthesize(sha).clear()  # each caller owns its list
        monkeypatch.setattr(tiny_world, "repo_of", lambda _: pytest.fail("re-synthesized"))
        assert [sp.patch.sha for sp in synth.synthesize(sha)] == fresh

    def test_bad_max_per_patch(self, tiny_world):
        with pytest.raises(SynthesisError):
            PatchSynthesizer(tiny_world, max_per_patch=0)


def reference_synthesize(world, seed, sha, max_per_patch=4):
    """PatchSynthesizer.synthesize spelled out with one public
    synthesize_from_texts call per variant and side (no shared parses)."""
    repo = world.repo_of(sha)
    before_tree, after_tree = repo.before_after(sha)
    natural = world.patch_for(sha)
    rng = np.random.default_rng((seed, int(sha[:16], 16)))
    order = rng.permutation(len(VARIANTS))
    out = []
    for k in range(len(VARIANTS)):
        if len(out) >= max_per_patch:
            break
        variant = VARIANTS[int(order[k])]
        side = "after" if rng.random() < 0.7 else "before"
        for fdiff in natural.files:
            path = fdiff.path
            before, after = before_tree.get(path, ""), after_tree.get(path, "")
            result = synthesize_from_texts(before, after, path, variant, side)
            if result is None and side == "after":
                result = synthesize_from_texts(before, after, path, variant, "before")
                side = "before" if result is not None else side
            if result is None:
                continue
            new_fdiff = diff_texts(result[0], result[1], path)
            if not new_fdiff.hunks:
                continue
            files = tuple(new_fdiff if f.path == path else f for f in natural.files)
            synthetic_sha = _synthetic_sha(sha, variant.variant_id, side, k)
            patch = replace(natural, sha=synthetic_sha, files=files)
            out.append(SyntheticPatch(patch, sha, variant.variant_id, side))
            break
    return out


@pytest.fixture()
def count_parses(monkeypatch):
    """The sources the locator parses, one entry per whole-file parse."""
    parsed = []
    real = locator.parse_translation_unit

    def counting(source):
        parsed.append(source)
        return real(source)

    monkeypatch.setattr(locator, "parse_translation_unit", counting)
    return parsed


class TestParseOnceSynthesis:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_one_call_per_variant(self, experiment_world, seed):
        world = experiment_world.world
        synth = PatchSynthesizer(world, seed=seed)
        for sha in world.security_shas():
            assert synth.synthesize(sha) == reference_synthesize(world, seed, sha)

    def test_at_most_one_parse_per_path_and_side(self, experiment_world, count_parses):
        world = experiment_world.world
        synth = PatchSynthesizer(world, seed=0)
        shared = 0
        for sha in world.security_shas():
            count_parses.clear()
            synth.synthesize(sha)
            first = len(count_parses)
            assert first <= 2 * len(world.patch_for(sha).files)
            # The located sites live for one call: a fresh synthesizer
            # parses the same sha again, and this one serves its memo.
            count_parses.clear()
            PatchSynthesizer(world, seed=0).synthesize(sha)
            assert len(count_parses) == first
            count_parses.clear()
            synth.synthesize(sha)
            assert len(count_parses) == 0
            shared += first
        count_parses.clear()
        for sha in world.security_shas():
            reference_synthesize(world, 0, sha)
        assert 0 < shared < len(count_parses)
