"""Exact quadratic-surd arithmetic."""

import copy
import pickle
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from lieconf.surd import (
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

    def test_zero_and_negative(self):
        assert squarefree_extract(0) == (0, 0)
        with pytest.raises(ValueError, match="n >= 0"):
            squarefree_extract(-1)


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

    @given(rationals, rationals, radicands, rationals, rationals, radicands)
    def test_equality_and_hash_agree_across_radicands(self, a, b, d, c, e, d2):
        # With d >= 2 squarefree, a + b sqrt(d) and c + e sqrt(d2) are equal
        # exactly when a == c and the surd parts have equal signed squares.
        x, y = quad(a, b, d), quad(c, e, d2)
        equal = a == c and b * abs(b) * d == e * abs(e) * d2
        assert (x == y, x != y, x in [y], y in {x}) == (equal, not equal, equal, equal)
        if equal:
            assert hash(x) == hash(y)
        # b sqrt(4 d) is 2 b sqrt(d), whatever radicand it was written with
        z = quad(a, 2 * b, d)
        assert quad(a, b, 4 * d) == z and hash(quad(a, b, 4 * d)) == hash(z)

    def test_attributes_cannot_be_set(self):
        x = quad(1, 1, 2)
        held = {x}
        for name in ("p", "q", "d"):
            with pytest.raises(AttributeError):
                setattr(x, name, 5)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x in held and (x.p, x.q, x.d) == (1, 1, 2)
        # copies are rebuilt by the constructor, not by setting attributes
        assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x

    @given(rationals, radicands)
    def test_rational_values_hash_like_the_rational(self, r, d):
        # equal values must hash equally, so a set holds them once
        for x in (QuadraticNumber(r), quad(r, 0, d), quad(r, 0, 1)):
            assert x == r and hash(x) == hash(r)
            assert len({x, r}) == 1
        assert len({QuadraticNumber(r.numerator), r.numerator}) == 1

    @given(rationals, rationals, rationals, rationals, radicands)
    def test_field_axioms(self, a, b, c, e, d):
        x, y = quad(a, b, d), quad(c, e, d)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) - y == x
        if y:
            assert (x / y) * y == x

    @given(rationals, rationals, radicands, rationals)
    def test_scalar_ops_match_embedding(self, a, b, d, r):
        x = quad(a, b, d)
        assert x + r == x + quad(r, 0, d)
        assert x * r == quad(a * r, b * r, d)
        assert r + x == x + r and r * x == x * r

    def test_guards(self):
        with pytest.raises(ValueError, match="negative radicand"):
            QuadraticNumber(1, 1, -2)
        with pytest.raises(ValueError, match="irrational"):
            quad(1, 1, 2).to_fraction()
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            QuadraticNumber(0).inverse()

    def test_rational_over_surd_divides_through_rtruediv(self):
        # Fraction / QuadraticNumber returns NotImplemented from Fraction, as
        # ap_check meets it at a surd level: 1/2 / (1 + sqrt 2) = (sqrt 2 - 1) / 2
        assert Fraction(1, 2) / QuadraticNumber(1, 1, 2) == quad(Fraction(-1, 2), Fraction(1, 2), 2)


class TestQuadraticNormalForm:
    """The normal form of solved levels and its (a+b*sqrt(d))/c spelling."""

    def test_normalization_collapses_square(self):
        x = quad(Fraction(1, 2), Fraction(1, 2), 4)  # (1 + sqrt(4)) / 2 = 3/2
        assert x.is_rational and x.to_fraction() == Fraction(3, 2)
        assert str(x) == "3/2"

    def test_normalization_extracts_square_factor(self):
        x = quad(0, 1, 12)  # sqrt(12) = 2 sqrt(3)
        assert (x.p, x.q, x.d) == (0, 2, 3)
        assert x == quad(0, 2, 3) and hash(x) == hash(quad(0, 2, 3))

    def test_denominator_sign_and_gcd(self):
        # (2 + 4 sqrt(5)) / (-2) = -1 - 2 sqrt(5)
        assert str(quad(Fraction(2, -2), Fraction(4, -2), 5)) == "(-1-2*sqrt(5))"
        assert str(quad(Fraction(6, 4), Fraction(2, 4), 5)) == "(3+1*sqrt(5))/2"

    @given(small_ints, small_ints.filter(bool), st.integers(1, 30), radicands)
    def test_string_is_the_reduced_normal_form(self, a, b, c, d):
        x = quad(Fraction(a, c), Fraction(b, c), d)
        match = re.fullmatch(r"\((-?\d+)([+-])(\d+)\*sqrt\((\d+)\)\)(?:/(\d+))?", str(x))
        assert match, str(x)
        a2, b2, d2 = int(match[1]), int(match[3]), int(match[4])
        b2 = -b2 if match[2] == "-" else b2
        c2 = int(match[5] or 1)
        assert c2 > 0 and gcd(gcd(a2, b2), c2) == 1 and d2 == d
        assert quad(Fraction(a2, c2), Fraction(b2, c2), d2) == x

    def test_from_rational_roundtrip(self):
        x = QuadraticNumber(Fraction(-5, 2))
        assert x.is_rational and x.to_fraction() == Fraction(-5, 2)
        assert str(x) == "-5/2" and str(QuadraticNumber(17)) == "17"

    def test_surd_level_satisfies_its_equation(self):
        x = quad(Fraction(479, 1524), Fraction(3, 1524), 46265)
        assert str(x) == "(479+3*sqrt(46265))/1524"
        lhs = 1524 * x - 479  # (1524 x - 479)^2 == 9 * 46265
        assert (lhs * lhs).to_fraction() == 9 * 46265

    def test_irrational_pair_not_equal(self):
        plus = quad(Fraction(479, 1524), Fraction(3, 1524), 46265)
        minus = quad(Fraction(479, 1524), Fraction(-3, 1524), 46265)
        assert plus != minus
        assert str(minus) == "(479-3*sqrt(46265))/1524"


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
