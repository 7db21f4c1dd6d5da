"""Exact truncated Puiseux arithmetic, the Euler product, the character
models, and the four coefficientwise-verified identities."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lieconf import qseries
from lieconf.qseries import (
    CHARACTER_MODELS,
    IDENTITY_NAMES,
    MAX_ORDER,
    PuiseuxSeries,
    character,
    euler_phi,
    identity_sides,
    verify_identity,
)
from lieconf.qseries import SeriesError, _convolve, _eta_quotient, _exact_div, _power

from oracles import (
    fraction_character,
    fraction_delta,
    fraction_identity_sides,
    fraction_kw_sum,
    fraction_signed_double_sum,
    naive_euler_product,
    pentagonal_euler_phi,
)

# partition numbers p(0), p(1), ...
PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def colored_partition_counts(colors: int, order: int) -> list:
    """Coefficients of prod_{k>=1} (1 - q^k)^(-colors), by coin-change DP."""
    ways = [Fraction(0)] * order
    ways[0] = Fraction(1)
    for _ in range(colors):
        for part in range(1, order):
            for n in range(part, order):
                ways[n] += ways[n - part]
    return ways


_coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def random_series(draw):
    denom = draw(st.sampled_from([1, 2, 3, 4]))
    order = draw(st.integers(min_value=3, max_value=9))
    entries = draw(
        st.dictionaries(
            st.integers(min_value=-4 * denom, max_value=order * denom - 1),
            _coeffs,
            max_size=5,
        )
    )
    return PuiseuxSeries(denom, entries, order * denom)


class TestSeriesBasics:
    def test_from_terms_and_views(self):
        s = PuiseuxSeries.from_terms({Fraction(3, 8): 2, 1: -1}, 5)
        assert s.denom == 8
        assert s.order_exponent == 5
        assert s.min_exponent == Fraction(3, 8)
        assert s.terms() == [(Fraction(3, 8), Fraction(2)), (Fraction(1), Fraction(-1))]
        assert s.coefficient(Fraction(3, 8)) == 2
        assert s.coefficient(1) == -1
        assert s.coefficient(2) == 0

    def test_zero_coefficients_and_overflow_terms_are_dropped(self):
        s = PuiseuxSeries.from_terms({1: 0, 2: 3, 7: 4}, 5)
        assert s.terms() == [(Fraction(2), Fraction(3))]
        assert not s.is_zero()
        assert PuiseuxSeries.from_terms({1: 0}, 5).is_zero()

    def test_denominator_is_minimized(self):
        s = PuiseuxSeries(4, {2: Fraction(1)}, 8)
        assert s.denom == 2
        assert s.order_exponent == 2
        assert s.coefficient(Fraction(1, 2)) == 1

    def test_coefficient_beyond_order_raises(self):
        s = PuiseuxSeries.from_terms({0: 1}, 4)
        with pytest.raises(SeriesError):
            s.coefficient(4)
        with pytest.raises(SeriesError):
            s.coefficient(Fraction(9, 2))

    def test_coefficient_off_lattice_is_zero(self):
        s = PuiseuxSeries.from_terms({Fraction(1, 2): 5}, 3)
        assert s.coefficient(Fraction(1, 3)) == 0

    def test_min_exponent_of_empty_series_is_the_order(self):
        assert PuiseuxSeries.zero(7).min_exponent == 7

    def test_immutability_and_unhashability(self):
        s = PuiseuxSeries.one(4)
        with pytest.raises(AttributeError):
            s.order = 10
        with pytest.raises(TypeError):
            hash(s)

    def test_equality_only_compares_below_the_smaller_order(self):
        a = PuiseuxSeries.from_terms({0: 1}, 5)
        b = PuiseuxSeries.from_terms({0: 1, 6: 9}, 8)
        assert a == b
        assert b.coefficient(6) == 9

    def test_str_and_repr_smoke(self):
        s = PuiseuxSeries.from_terms({0: 1, Fraction(1, 2): -1, 1: Fraction(3, 4)}, 2)
        assert "O(q^(2))" in str(s)
        assert "PuiseuxSeries" in repr(s)
        assert str(PuiseuxSeries.zero(3)) == "O(q^(3))"

    def test_invalid_constructions(self):
        with pytest.raises(SeriesError):
            PuiseuxSeries(0, {}, 5)
        with pytest.raises(SeriesError):
            PuiseuxSeries.zero(Fraction(1, 3), 2)


class TestRingLaws:
    @given(random_series(), random_series(), random_series())
    @settings(max_examples=40, deadline=None)
    def test_addition_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + 0 == a
        assert (a - a).is_zero()
        assert -(-a) == a

    @given(random_series(), random_series(), random_series())
    @settings(max_examples=40, deadline=None)
    def test_multiplication_laws(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * 1 == a
        assert (a * 0).is_zero()
        assert a * (b + c) == a * b + a * c

    @given(random_series(), _coeffs)
    @settings(max_examples=40, deadline=None)
    def test_scalar_action_matches_repeated_addition(self, a, r):
        assert 2 * a == a + a
        assert r * a == a * r

    @given(random_series())
    @settings(max_examples=40, deadline=None)
    def test_inverse_is_two_sided(self, a):
        assume(not a.is_zero())
        inv = a.inverse()
        assert a * inv == 1
        assert inv * a == 1

    @given(random_series())
    @settings(max_examples=40, deadline=None)
    def test_powers_match_repeated_products(self, a):
        assert a**2 == a * a
        assert a**3 == a * a * a
        assert a**0 == PuiseuxSeries.one(a.order_exponent)
        assume(not a.is_zero())
        assert a ** (-1) == a.inverse()

    @given(random_series())
    @settings(max_examples=40, deadline=None)
    def test_substitution_roundtrip(self, a):
        assert a.substitute(1, 2).substitute(2, 1) == a

    def test_substitution_scales_exponents(self):
        s = PuiseuxSeries.from_terms({1: 2, 3: -5}, 6)
        half = s.substitute(1, 2)
        assert half.coefficient(Fraction(1, 2)) == 2
        assert half.coefficient(Fraction(3, 2)) == -5
        assert half.order_exponent == 3

    def test_truncate_keeps_low_coefficients_and_refuses_to_extend(self):
        s = PuiseuxSeries.from_terms({0: 1, 2: 7}, 6)
        t = s.truncate(3)
        assert t.order_exponent == 3
        assert t.coefficient(2) == 7
        assert s.truncate(s.order_exponent) == s
        with pytest.raises(SeriesError):
            s.truncate(7)

    def test_inverting_the_empty_series_raises(self):
        with pytest.raises(SeriesError):
            PuiseuxSeries.zero(5).inverse()

    def test_non_integer_power_raises(self):
        with pytest.raises(SeriesError):
            PuiseuxSeries.one(4) ** Fraction(1, 2)

    def test_first_mismatch_reports_smallest_differing_exponent(self):
        a = PuiseuxSeries.from_terms({0: 1, 2: 5, 3: 1}, 6)
        b = PuiseuxSeries.from_terms({0: 1, 2: 4, Fraction(5, 2): 9}, 6)
        assert a.first_mismatch(b) == 2
        assert b.first_mismatch(a) == 2
        assert a.first_mismatch(a) is None


class TestEulerProduct:
    def test_matches_term_by_term_expansion(self):
        phi = euler_phi(60)
        naive = naive_euler_product(60)
        for e in range(60):
            assert phi.coefficient(e) == naive.get(e, 0)

    @pytest.mark.parametrize(
        "exponent, value",
        [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1), (15, -1), (22, 1), (26, 1)],
    )
    def test_generalized_pentagonal_coefficients(self, exponent, value):
        assert euler_phi(30).coefficient(exponent) == value

    @pytest.mark.parametrize("exponent", [3, 4, 6, 8, 9, 10, 11, 13])
    def test_non_pentagonal_coefficients_vanish(self, exponent):
        assert euler_phi(30).coefficient(exponent) == 0

    def test_inverse_counts_partitions(self):
        inv = euler_phi(len(PARTITIONS) + 1).inverse()
        for n, p in enumerate(PARTITIONS):
            assert inv.coefficient(n) == p

    def test_product_with_inverse_is_one(self):
        phi = euler_phi(40)
        assert phi * phi.inverse() == 1

    @pytest.mark.parametrize("order", [1, 2, 30, 200])
    def test_matches_the_pentagonal_expansion(self, order):
        assert _layout(euler_phi(order)) == _layout(pentagonal_euler_phi(order))

    def test_bad_order_raises(self):
        with pytest.raises(SeriesError):
            euler_phi(0)
        with pytest.raises(SeriesError, match="MAX_ORDER"):
            euler_phi(MAX_ORDER + 1)


class TestCharacterModels:
    def test_model_and_identity_name_registries(self):
        assert CHARACTER_MODELS == ("sl2_m32", "sl2_m4", "weyl_M3", "delta")
        assert IDENTITY_NAMES == ("delta_eta", "eq92", "kw", "thm92")

    def test_delta_is_the_triangular_series(self):
        s = character("delta", 0, 25)
        triangular = {n * (n + 1) // 2 for n in range(10)}
        for e in range(25):
            assert s.coefficient(e) == (1 if e in triangular else 0)

    def test_ell_is_ignored_where_documented(self):
        assert character("delta", 5, 20) == character("delta", 0, 20)
        assert character("weyl_M3", 5, 12) == character("weyl_M3", 0, 12)

    def test_free_field_character_leading_coefficients(self):
        s = character("weyl_M3", 0, 16)
        expected = [1, 6, 21, 62, 162]
        for k, c in enumerate(expected):
            assert s.coefficient(Fraction(1, 8) + Fraction(k, 2)) == c
        assert s.min_exponent == Fraction(1, 8)

    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_highest_weight_model_is_a_shifted_triple_product(self, ell):
        order = 12
        s = character("sl2_m32", ell, order)
        shift = Fraction(3, 8) + Fraction(ell * (ell + 2), 2)
        assert s.min_exponent == shift
        ways = colored_partition_counts(3, order)
        n = 0
        while shift + n < order:
            assert s.coefficient(shift + n) == (ell + 1) * ways[n]
            n += 1

    def test_alternating_model_at_ell_zero(self):
        order = 12
        s = character("sl2_m4", 0, order)
        ways = colored_partition_counts(3, order)
        for n in range(order):
            if Fraction(-1, 4) + n < order:
                assert s.coefficient(Fraction(-1, 4) + n) == ways[n]

    def test_alternating_model_at_ell_one(self):
        order = 12
        s = character("sl2_m4", 1, order)
        ways = colored_partition_counts(3, order + 2)
        assert s.min_exponent == Fraction(-5, 4)
        for n in range(order):
            expected = 3 * ways[n] - (ways[n - 1] if n >= 1 else 0)
            assert s.coefficient(Fraction(-5, 4) + n) == expected

    def test_bad_arguments(self):
        with pytest.raises(SeriesError):
            character("eta_quotient", 0, 10)
        with pytest.raises(SeriesError):
            character("delta", 0, 0)
        with pytest.raises(SeriesError):
            character("sl2_m32", -1, 10)


class TestIdentities:
    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_verifies_at_moderate_order(self, name):
        ok, mismatch = verify_identity(name, 48)
        assert ok and mismatch is None

    @pytest.mark.parametrize(
        "name, poke",
        [
            ("delta_eta", Fraction(7)),
            ("eq92", Fraction(7, 2)),
            ("kw", Fraction(5)),
            ("thm92", Fraction(41, 8)),
        ],
    )
    def test_single_coefficient_mutation_is_located_exactly(self, name, poke):
        lhs, rhs = identity_sides(name, 24)
        assert lhs.first_mismatch(rhs) is None
        bad = rhs + PuiseuxSeries.monomial(poke, 1, rhs.order_exponent)
        assert lhs.first_mismatch(bad) == poke
        assert bad.first_mismatch(lhs) == poke

    def test_sixth_power_coefficients(self):
        # both sides of the odd-pair identity start 1, 6, 15, 26, 45
        lhs, rhs = identity_sides("kw", 12)
        for e, c in enumerate([1, 6, 15, 26, 45]):
            assert lhs.coefficient(e) == c
            assert rhs.coefficient(e) == c

    def test_signed_double_sum_half_integer_coefficients(self):
        # same numbers as the sixth power, spread over half-integer steps
        _, rhs = identity_sides("eq92", 12)
        for k, c in enumerate([1, 6, 15, 26, 45]):
            assert rhs.coefficient(Fraction(k, 2)) == c

    def test_product_slices_assemble_the_free_field_character(self):
        # sum over ell of sl2_m32(ell) * sl2_m4(ell), with each factor built
        # at a raised order because the alternating factor's negative lowest
        # exponent drags the product's truncation order down.
        order = 6
        total = PuiseuxSeries.zero(order)
        ell = 0
        while Fraction(1, 8) + Fraction(ell, 2) < order:
            raised = order + ell * (ell + 1) // 2 + 1
            piece = character("sl2_m32", ell, raised) * character("sl2_m4", ell, raised)
            total = total + piece.truncate(order)
            ell += 1
        assert total == character("weyl_M3", 0, order)

    def test_product_order_drops_without_raising(self):
        piece = character("sl2_m32", 2, 10) * character("sl2_m4", 2, 10)
        assert piece.order_exponent == 10 - Fraction(1, 4) - 3

    @pytest.mark.parametrize(
        "name, side, index, exponent",
        [
            ("eq92", "_signed_double_sum", 11, Fraction(11, 2)),  # half-integer grid
            ("thm92", "_signed_double_sum", 8, Fraction(33, 8)),  # (8 + 1/4)/2
            ("kw", "_kw_sum", 8, Fraction(8)),
            ("delta_eta", "_triangular", 7, Fraction(7)),
        ],
        ids=["eq92", "thm92", "kw", "delta_eta"],
    )
    def test_changed_grid_coefficient_gives_its_exponent(
        self, monkeypatch, name, side, index, exponent
    ):
        original = getattr(qseries, side)

        def changed(n):
            coeffs = original(n)
            coeffs[index] += 1
            return coeffs

        monkeypatch.setattr(qseries, side, changed)
        assert verify_identity(name, 24) == (False, exponent)

    def test_verification_builds_no_fraction_or_series(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_identity built a Fraction or a series")

        monkeypatch.setattr(qseries, "Fraction", refuse)
        monkeypatch.setattr(qseries, "PuiseuxSeries", refuse)
        for name in IDENTITY_NAMES:
            assert verify_identity(name, 48) == (True, None)

    def test_bad_arguments(self):
        with pytest.raises(SeriesError):
            verify_identity("eq93", 20)
        with pytest.raises(SeriesError):
            identity_sides("kw", 3)


def _layout(series):
    return series.denom, series.coeffs, series.order


class TestIntegerEngine:
    """The integer recurrences against the Fraction-dict series products."""

    @pytest.mark.parametrize("order", [4, 5, 24, 61])
    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_identity_sides_match_the_fraction_oracle(self, name, order):
        new, old = identity_sides(name, order), fraction_identity_sides(name, order)
        assert [_layout(s) for s in new] == [_layout(s) for s in old]

    @pytest.mark.parametrize("order", [4, 5, 24, 61, 300])
    @pytest.mark.parametrize(
        "side, denom, oracle",
        [
            (qseries._triangular, 1, fraction_delta),
            (qseries._signed_double_sum, 2, fraction_signed_double_sum),
            (qseries._kw_sum, 1, fraction_kw_sum),
        ],
        ids=["triangular", "signed_double_sum", "kw_sum"],
    )
    def test_direct_sums_match_the_fraction_oracle(self, side, denom, oracle, order):
        coeffs = side(order)
        assert len(coeffs) == denom * order
        assert all(type(c) is int for c in coeffs)
        assert _layout(qseries._from_grid(coeffs, denom, 0, order)) == _layout(oracle(order))

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 40])
    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    @pytest.mark.parametrize("model", CHARACTER_MODELS)
    def test_character_models_match_the_fraction_oracle(self, model, ell, order):
        assert _layout(character(model, ell, order)) == _layout(
            fraction_character(model, ell, order)
        )

    @given(
        st.dictionaries(st.integers(1, 4), st.integers(-6, 12), max_size=4),
        st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_eta_quotient_matches_the_product_of_euler_factors(self, exps, n):
        product = PuiseuxSeries.one(n + 1)
        for d, e in exps.items():
            phi = PuiseuxSeries(1, naive_euler_product(n + 1), n + 1)
            product = (product * phi.substitute(d, 1) ** e).truncate(n + 1)
        assert _eta_quotient(exps, n) == [product.coefficient(k) for k in range(n)]

    @given(st.lists(st.integers(-5, 5), max_size=8), st.integers(0, 7), st.integers(0, 16))
    @settings(max_examples=60, deadline=None)
    def test_power_and_convolution_match_series_products(self, tail, k, n):
        p = [1] + tail
        series = PuiseuxSeries(1, dict(enumerate(p)), n + 1)
        expected = [(series**k).coefficient(m) for m in range(n)]
        assert _power(p, k, n) == expected
        if k:
            assert _convolve(p, _power(p, k - 1, n), n) == expected

    def test_power_needs_constant_term_one(self):
        with pytest.raises(SeriesError):
            _power([2, 1], 2, 4)

    def test_inexact_division_raises(self):
        assert _exact_div(-12, 4) == -3
        with pytest.raises(SeriesError):
            _exact_div(7, 2)

    def test_bad_eta_step_raises(self):
        with pytest.raises(SeriesError):
            _eta_quotient({0: 1}, 5)

    def test_orders_above_the_bound_are_refused(self):
        with pytest.raises(SeriesError, match="MAX_ORDER"):
            identity_sides("kw", MAX_ORDER + 1)
        with pytest.raises(SeriesError, match="MAX_ORDER"):
            character("delta", 0, MAX_ORDER + 1)
        with pytest.raises(SeriesError, match="MAX_ORDER"):
            character("sl2_m4", 63, 1)  # spans 1 + 2016 integer steps
        assert character("sl2_m32", 10**6, 5).is_zero()
