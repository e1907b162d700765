"""Tests for Levenshtein distance."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import extract_feature_matrix, extractor, levenshtein, normalized_levenshtein
from repro.features.levenshtein import _MAX_LEN

words = st.text(alphabet="abcd", max_size=15)


def exact_texts(n):
    """Strings of exactly *n* characters over a small alphabet plus newline."""
    return st.text(alphabet="ab\n", min_size=n, max_size=n)


# Lengths up to 300 so the bit vectors cross the 30/60/64-bit boundaries of
# small-int and machine-word representations.
long_texts = st.integers(0, 300).flatmap(exact_texts)
mixed_items = st.one_of(
    st.sampled_from(["if", "(", "VAR", ")"]),
    st.integers(0, 3),
    st.tuples(st.integers(0, 1), st.sampled_from("ab")),
)


def naive_levenshtein(a, b):
    """Full-matrix reference DP, no fast paths — the oracle for properties."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1, dp[i - 1][j - 1] + cost)
    return dp[n][m]


class TestKnownDistances:
    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_identical(self):
        assert levenshtein("abc", "abc") == 0

    def test_empty_vs_word(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_both_empty(self):
        assert levenshtein("", "") == 0

    def test_single_substitution(self):
        assert levenshtein("cat", "bat") == 1

    def test_token_sequences(self):
        a = ["if", "(", "VAR", ")"]
        b = ["if", "(", "VAR", "&&", "VAR", ")"]
        assert levenshtein(a, b) == 2

    def test_truncation_bound(self):
        # Distances are capped by the truncation length.
        assert levenshtein("a" * 5000, "b" * 5000, max_len=100) == 100

    def test_seeded_2000_by_2000_pair(self):
        # A worst-case-sized hunk pair; 1169 was computed once with
        # naive_levenshtein.
        rng = random.Random(2000)
        a = "".join(rng.choice("abcd\n") for _ in range(2000))
        b = "".join(rng.choice("abcd\n") for _ in range(2000))
        assert levenshtein(a, b) == 1169


class TestNormalized:
    def test_range(self):
        assert normalized_levenshtein("abc", "xyz") == 1.0
        assert normalized_levenshtein("abc", "abc") == 0.0

    def test_empty(self):
        assert normalized_levenshtein("", "") == 0.0


class TestProperties:
    @given(a=words, b=words)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(a=words, b=words)
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, a, b):
        d = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(a=words)
    @settings(max_examples=100, deadline=None)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(a=words, b=words, c=words)
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(a=words, b=words)
    @settings(max_examples=100, deadline=None)
    def test_zero_iff_equal(self, a, b):
        assert (levenshtein(a, b) == 0) == (a == b)

    @given(a=words, b=words)
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_dp(self, a, b):
        # The equal-input and prefix/suffix fast paths must not change any
        # distance; check against the full-matrix reference.
        assert levenshtein(a, b) == naive_levenshtein(a, b)

    @given(pre=words, a=words, b=words, suf=words)
    @settings(max_examples=200, deadline=None)
    def test_shared_affixes_preserved(self, pre, a, b, suf):
        # Explicitly exercise the stripping path with forced common affixes.
        assert levenshtein(pre + a + suf, pre + b + suf) == naive_levenshtein(
            pre + a + suf, pre + b + suf
        )

    @given(a=st.lists(st.sampled_from(["if", "(", "VAR", ")", "NUM"]), max_size=10),
           b=st.lists(st.sampled_from(["if", "(", "VAR", ")", "NUM"]), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_dp_on_token_lists(self, a, b):
        assert levenshtein(a, b) == naive_levenshtein(a, b)

    @given(a=long_texts, b=long_texts)
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_dp_across_word_boundaries(self, a, b):
        assert levenshtein(a, b) == naive_levenshtein(a, b)

    @given(a=st.lists(mixed_items, max_size=40), b=st.lists(mixed_items, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_dp_on_mixed_hashable_items(self, a, b):
        assert levenshtein(a, b) == naive_levenshtein(a, b)

    @given(item=st.sampled_from("ab\n"), other=st.text(alphabet="ab\n", max_size=100))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_dp_with_one_element_side(self, item, other):
        assert levenshtein(item, other) == naive_levenshtein(item, other)
        assert levenshtein(other, item) == naive_levenshtein(other, item)

    @given(
        max_len=st.integers(1, 80),
        extra_a=st.integers(0, 2),
        extra_b=st.integers(0, 2),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_truncation_at_max_len(self, max_len, extra_a, extra_b, data):
        # Inputs of exactly max_len items, or one or two past it.
        a = data.draw(exact_texts(max_len + extra_a))
        b = data.draw(exact_texts(max_len + extra_b))
        expected = naive_levenshtein(a[:max_len], b[:max_len])
        assert levenshtein(a, b, max_len=max_len) == expected


class TestExtractorParity:
    def test_feature_matrix_matches_oracle_kernel(self, experiment_world, monkeypatch):
        # Features 49-54 over every TINY commit, shipped kernel vs oracle.
        world = experiment_world.world
        patches = [world.patch_for(sha) for sha in world.all_shas()]
        shipped = extract_feature_matrix(patches)
        pairs = []

        def oracle(a, b):
            pairs.append((a, b))
            return naive_levenshtein(a[:_MAX_LEN], b[:_MAX_LEN])

        monkeypatch.setattr(extractor, "levenshtein", oracle)
        assert np.array_equal(extract_feature_matrix(patches), shipped)
        assert pairs  # the oracle really stood in for the kernel
