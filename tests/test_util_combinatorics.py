"""Unit and property tests for the exact combinatorics primitives."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.combinatorics import (
    binomial,
    bounded_compositions,
    bounded_vectors,
    compositions,
    falling_factorial,
    multinomial,
    stirling2,
    surjections,
)


class TestBinomial:
    def test_small_values(self):
        assert binomial(5, 2) == 10
        assert binomial(0, 0) == 1
        assert binomial(7, 7) == 1

    def test_zero_outside_range(self):
        """The paper's convention: C(a, b) = 0 for b > a (footnote 9)."""
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0
        assert binomial(-2, 1) == 0

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_matches_math_comb(self, n, k):
        expected = math.comb(n, k) if 0 <= k <= n else 0
        assert binomial(n, k) == expected


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(5, 3) == 60
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(3, 5) == 0

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            falling_factorial(4, -1)

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_equals_binomial_times_factorial(self, n, k):
        assert falling_factorial(n, k) == binomial(n, k) * math.factorial(k)


class TestMultinomial:
    def test_values(self):
        assert multinomial([2, 1]) == 3
        assert multinomial([1, 1, 1]) == 6
        assert multinomial([]) == 1
        assert multinomial([4]) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            multinomial([2, -1])

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    def test_matches_factorial_formula(self, counts):
        total = sum(counts)
        expected = math.factorial(total)
        for count in counts:
            expected //= math.factorial(count)
        assert multinomial(counts) == expected


class TestSurjections:
    def test_paper_conventions(self):
        """Footnote 3: surj(a, b) = 0 when a < b; surj(0, 0) = 1."""
        assert surjections(2, 3) == 0
        assert surjections(0, 0) == 1
        assert surjections(0, 1) == 0
        assert surjections(3, 0) == 0

    def test_known_values(self):
        assert surjections(3, 2) == 6
        assert surjections(4, 2) == 14
        assert surjections(4, 4) == 24

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_stirling_identity(self, n, m):
        """surj(n, m) = m! * S(n, m)."""
        assert surjections(n, m) == math.factorial(m) * stirling2(n, m)

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(deadline=None)
    def test_counts_actual_surjections(self, n, m):
        from itertools import product

        count = 0
        for func in product(range(m), repeat=n):
            if set(func) == set(range(m)):
                count += 1
        if n == 0 and m == 0:
            count = 1
        assert surjections(n, m) == count

    @given(st.integers(0, 10))
    def test_total_functions_decomposition(self, n):
        """m^n = sum_k C(m, k) surj(n, k): every function is onto its image."""
        m = 4
        assert m**n == sum(
            binomial(m, k) * surjections(n, k) for k in range(m + 1)
        )


class TestCompositions:
    def test_enumerates_all(self):
        assert sorted(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(3, 0)) == []

    @given(st.integers(0, 6), st.integers(0, 4))
    def test_count_is_stars_and_bars(self, total, parts):
        expected = binomial(total + parts - 1, parts - 1) if parts else (
            1 if total == 0 else 0
        )
        assert sum(1 for _ in compositions(total, parts)) == expected

    def test_bounded_respects_bounds(self):
        results = list(bounded_compositions(3, [1, 2, 3]))
        assert all(sum(r) == 3 for r in results)
        assert all(r[0] <= 1 and r[1] <= 2 and r[2] <= 3 for r in results)
        assert len(set(results)) == len(results)

    @given(
        st.integers(0, 5),
        st.lists(st.integers(0, 3), min_size=0, max_size=3),
    )
    def test_bounded_matches_filtered_unbounded(self, total, bounds):
        expected = [
            c
            for c in compositions(total, len(bounds))
            if all(x <= b for x, b in zip(c, bounds))
        ]
        assert sorted(bounded_compositions(total, bounds)) == sorted(expected)

    def test_bounded_vectors(self):
        vectors = list(bounded_vectors([1, 2]))
        assert len(vectors) == 6
        assert len(set(vectors)) == 6
        assert all(v[0] <= 1 and v[1] <= 2 for v in vectors)
        assert list(bounded_vectors([])) == [()]
