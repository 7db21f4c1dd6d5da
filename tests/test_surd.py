"""Exact quadratic-surd arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lieconf.surd import (
    LevelSolution,
    QuadraticNumber,
    parse_rational,
    squarefree_extract,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=12),
)
small_ints = st.integers(min_value=-40, max_value=40)
radicands = st.sampled_from([2, 3, 5, 7, 11, 46265])


def quad(p, q, d):
    return QuadraticNumber(Fraction(p), Fraction(q), d)


class TestSquarefreeExtract:
    @pytest.mark.parametrize(
        "n, expected",
        [(1, (1, 1)), (4, (2, 1)), (12, (2, 3)), (45, (3, 5)), (46265, (1, 46265)),
         (49, (7, 1)), (360, (6, 10)), (2, (1, 2))],
    )
    def test_known(self, n, expected):
        assert squarefree_extract(n) == expected

    @given(st.integers(min_value=1, max_value=200000))
    def test_reconstructs_and_is_squarefree(self, n):
        s, d = squarefree_extract(n)
        assert s * s * d == n
        for p in range(2, 60):
            if d % (p * p) == 0:
                raise AssertionError(f"{d} is divisible by {p}^2")


class TestQuadraticNumber:
    def test_rational_collapse(self):
        x = quad(3, 0, 5)
        assert x.is_rational and x.to_fraction() == 3

    def test_square_of_surd(self):
        x = quad(0, 1, 5)
        assert (x * x).to_fraction() == 5

    def test_golden_ratio_equation(self):
        phi = quad(Fraction(1, 2), Fraction(1, 2), 5)
        assert phi * phi == phi + 1

    def test_inverse(self):
        x = quad(2, 3, 7)
        assert (x * x.inverse()).to_fraction() == 1

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError):
            quad(0, 1, 2) + quad(0, 1, 3)

    def test_compare_with_rational(self):
        assert quad(Fraction(5, 2), 0, 3) == Fraction(5, 2)
        assert quad(1, 1, 2) != 1

    @given(rationals, radicands)
    def test_rational_values_hash_like_the_rational(self, r, d):
        # equal values must hash equally, so a set holds them once
        for x in (QuadraticNumber(r), quad(r, 0, d), quad(r, 0, 1)):
            assert x == r and hash(x) == hash(r)
            assert len({x, r}) == 1
        assert len({QuadraticNumber(r.numerator), r.numerator}) == 1

    def test_sign(self):
        assert quad(-3, 1, 2).sign() < 0  # -3 + sqrt(2) < 0
        assert quad(-1, 1, 2).sign() > 0  # -1 + sqrt(2) > 0
        assert quad(0, 0, 2).sign() == 0

    @given(rationals, rationals, rationals, rationals, radicands)
    def test_field_axioms(self, a, b, c, e, d):
        x, y = quad(a, b, d), quad(c, e, d)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) - y == x
        if not (y.is_rational and y.to_fraction() == 0) and y.sign() != 0:
            assert (x / y) * y == x

    @given(rationals, rationals, radicands, rationals)
    def test_scalar_ops_match_embedding(self, a, b, d, r):
        x = quad(a, b, d)
        assert x + r == x + quad(r, 0, d)
        assert x * r == quad(a * r, b * r, d)
        assert r + x == x + r and r * x == x * r


class TestLevelSolution:
    def test_normalization_collapses_square(self):
        s = LevelSolution(1, 1, 2, 4)  # (1 + sqrt(4)) / 2 = 3/2
        assert s.is_rational and s.to_fraction() == Fraction(3, 2)

    def test_normalization_extracts_square_factor(self):
        s = LevelSolution(0, 1, 1, 12)  # sqrt(12) = 2 sqrt(3)
        t = LevelSolution(0, 2, 1, 3)
        assert s == t

    def test_denominator_sign_and_gcd(self):
        assert LevelSolution(2, 4, -2, 5) == LevelSolution(-1, -2, 1, 5)

    def test_from_rational_roundtrip(self):
        s = LevelSolution.from_rational(Fraction(-5, 2))
        assert s.is_rational and s.to_fraction() == Fraction(-5, 2)

    def test_as_quadratic_matches(self):
        s = LevelSolution(479, 3, 1524, 46265)
        q = s.as_quadratic()
        # (1524 q - 479)^2 == 9 * 46265
        lhs = (1524 * q - 479)
        assert (lhs * lhs).to_fraction() == 9 * 46265

    def test_sort_key_orders_rationals_first(self):
        a = LevelSolution.from_rational(Fraction(1))
        b = LevelSolution(0, 1, 1, 5)
        assert sorted([b, a], key=lambda s: s.sort_key())[0] == a

    def test_irrational_pair_not_equal(self):
        assert LevelSolution(479, 3, 1524, 46265) != LevelSolution(479, -3, 1524, 46265)


class TestParseRational:
    @pytest.mark.parametrize(
        "text, value",
        [("-5/2", Fraction(-5, 2)), ("−5/2", Fraction(-5, 2)), ("17", 17),
         ("0", 0), ("-1", -1), ("64/75", Fraction(64, 75)), ("+3/4", Fraction(3, 4)),
         ("1.5", Fraction(3, 2))],
    )
    def test_accepts(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["", "abc", "1/0", "2/3/4"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)
