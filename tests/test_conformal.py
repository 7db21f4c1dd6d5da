"""Level solving, balance checks, forced constants, exclusion tests, the
classification searches, and the global report."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from lieconf.liealg import AlgebraType, LieError, SizeError, build_algebra, constructible_types
from lieconf.embed import (
    DUAL_PAIR_FAMILIES,
    SubalgebraSpec,
    dual_pair_branching,
    load_catalog,
    resolve_case,
)
from lieconf.reps import dynkin_index
from lieconf.surd import QuadraticNumber
from lieconf import conformal
from lieconf.conformal import (
    EXCLUDED_CANDIDATES,
    a1_exclusion_check,
    a1_exclusion_survey,
    ap_check,
    central_charge,
    global_report,
    level_flags,
    necessary_constants,
    search_sl_irreducible,
    search_so_irreducible,
    solve_levels,
    table1_scan,
    table2_rows,
    verify_case,
)
from lieconf.conformal import (
    MAX_LEVEL_COEFF,
    MAX_LEVEL_ENTRIES,
    _charge_entries,
    _divisors,
    _level_polynomial,
    _real_roots,
)

from oracles import (
    divisor_search_rational_roots,
    divisor_search_real_roots,
    fraction_level_polynomial,
    fraction_rational_roots,
    isqrt_a1_exclusion,
    restricted_balance,
)


def levels_of(case):
    return solve_levels(case.ambient, case.sub)


def rational_levels(case):
    return sorted(s.to_fraction() for s in levels_of(case) if s.is_rational)


class TestCentralCharge:
    def test_known_values(self):
        assert central_charge("A1", 1) == Fraction(1)
        assert central_charge("A2", 1) == Fraction(2)
        assert central_charge("G2", 1) == Fraction(14, 5)

    def test_critical_level_raises(self):
        with pytest.raises(LieError):
            central_charge("G2", -4)

    def test_surd_level(self):
        k = QuadraticNumber(0, 1, 2)  # sqrt(2)
        c = central_charge("A1", k)
        # c = 3 sqrt2 / (sqrt2 + 2) = 3 (sqrt2 (sqrt2 - 2)) / (2 - 4) = 3 - ...
        expected = 3 * k * (k + 2).inverse()
        assert c == expected


class TestSolveLevels:
    @pytest.mark.parametrize(
        "n, m", [(2, 2), (2, 5), (3, 3), (4, 6), (6, 6)]
    )
    def test_slsl_closed_form(self, n, m):
        case = dual_pair_branching("slsl", n, m)
        assert rational_levels(case) == sorted([Fraction(1), Fraction(-1)])

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 5), (4, 4), (6, 6)])
    def test_spsp_closed_form(self, n, m):
        case = dual_pair_branching("spsp", n, m)
        second = Fraction(-2 * (m * n - 1), 2 * m * n - m - n)
        assert rational_levels(case) == sorted([Fraction(1), second])

    @pytest.mark.parametrize("n, m", [(3, 3), (3, 4), (4, 5), (5, 5), (6, 6)])
    def test_soso_closed_form(self, n, m):
        case = dual_pair_branching("soso", n, m)
        second = Fraction(4 - m * n, m * n + m + n)
        assert rational_levels(case) == sorted([Fraction(1), second])

    @pytest.mark.parametrize("n, m", [(2, 3), (2, 6), (3, 4), (5, 6), (6, 6)])
    def test_spso_closed_form(self, n, m):
        case = dual_pair_branching("spso", n, m)
        second = Fraction(m * n + 2, 2 * m * n + 2 * n - m)
        assert rational_levels(case) == sorted([Fraction(-1, 2), second])

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 4), (3, 3), (5, 6), (6, 6)])
    def test_bb_closed_form(self, n, m):
        case = dual_pair_branching("BB", n, m)
        assert rational_levels(case) == sorted([Fraction(1), Fraction(1 - m - n)])

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (2, 2), (3, 4), (4, 4)])
    def test_cc_closed_form(self, n, m):
        case = dual_pair_branching("CC", n, m)
        assert rational_levels(case) == sorted(
            [Fraction(-1, 2), Fraction(-2 - n - m, 2)]
        )

    @pytest.mark.parametrize("n, m", [(3, 3), (3, 4), (4, 6), (6, 6)])
    def test_oo_closed_form(self, n, m):
        case = dual_pair_branching("OO", n, m)
        assert rational_levels(case) == sorted([Fraction(1), 2 - Fraction(n + m, 2)])

    def test_so3_so4_no_spurious_root(self):
        # so(4) enters as two sl(2) slots sharing one pole; clearing per slot
        # would manufacture a root at -2/3.
        case = dual_pair_branching("soso", 3, 4)
        assert Fraction(-2, 3) not in rational_levels(case)
        assert rational_levels(case) == sorted([Fraction(1), Fraction(-8, 19)])

    def test_bb_diagonal_keeps_repeated_critical_root(self):
        # both B_n factors hit criticality at the same level; the root must
        # survive with multiplicity folded in, not be cancelled.
        case = dual_pair_branching("BB", 3, 3)
        assert Fraction(-5) in rational_levels(case)

    def test_spsl_level(self):
        case = resolve_case("spsl:3")
        assert Fraction(-1) in rational_levels(case)

    def test_g2_b3_single_root(self):
        case = resolve_case("G2-in-B3")
        assert rational_levels(case) == [Fraction(-2)]

    def test_surd_case_roots(self):
        amb, factors, stated = EXCLUDED_CANDIDATES[-1]
        assert amb == "E7"
        sols = _solve_excluded(amb, factors)
        for s in stated:
            assert s in sols

    def test_zero_root_removed(self):
        case = dual_pair_branching("slsl", 2, 2)
        assert Fraction(0) not in rational_levels(case)

    def test_levels_sorted_rationals_first(self):
        # a cubic: one rational root deflated out, then a real surd pair
        sols = _solve_excluded("E6", (("A1", 1), ("A1", 1), ("A1", 2)))
        assert [str(s) for s in sols] == [
            "-2", "(-19-1*sqrt(269))/23", "(-19+1*sqrt(269))/23"]
        assert sols == sorted(sols, key=lambda s: (s.d, s.p, s.q))
        assert sols[0].is_rational and sols[1].q < 0 < sols[2].q


small_roots = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=6)
)


def _from_roots(roots, tail):
    coeffs = [Fraction(c) for c in tail]
    for r in roots:
        coeffs = [-r * coeffs[0]] + [
            coeffs[i - 1] - r * coeffs[i] for i in range(1, len(coeffs))
        ] + [coeffs[-1]]
    return coeffs


def _cleared(coeffs):
    scale = lcm(*(Fraction(c).denominator for c in coeffs))
    return [int(c * scale) for c in coeffs]


def _rational_of(roots):
    return sorted(r.to_fraction() for r in roots if r.is_rational)


def _root_keys(roots):
    return sorted((r.d, r.p, r.q) for r in roots)


def _expected_cap(ints):
    """The SizeError message `_real_roots` owes on ints, or None when neither
    its divisor search nor its surd extraction passes MAX_LEVEL_COEFF."""
    content = gcd(*ints)
    coeffs = [c // content for c in ints]
    while len(coeffs) > 1 and coeffs[0] == 0:
        del coeffs[0]
    if len(coeffs) > 3:
        ends = max(abs(coeffs[0]), abs(coeffs[-1]))
        if ends > MAX_LEVEL_COEFF:
            return (
                f"cleared polynomial of degree {len(coeffs) - 1} has an end coefficient of "
                f"{ends.bit_length()} bits; its divisor search exceeds the cap "
                "MAX_LEVEL_COEFF = 2**24")
        # Deflation only shrinks the end coefficients; what the search leaves
        # is the quadratic, if any, that the closed form solves.
        divisor_search_rational_roots(coeffs)
    if len(coeffs) == 3:
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        if disc > 5 * MAX_LEVEL_COEFF**2 and isqrt(disc) ** 2 != disc:
            return (
                f"cleared quadratic has a non-square discriminant of {disc.bit_length()} bits; "
                "extracting its square part exceeds the cap 5 * MAX_LEVEL_COEFF**2 = 5 * 2**48")
    return None


def _assert_matches_divisor_search(ints):
    """`_real_roots` on ints against the divisor search run to the last
    rational root: the same roots with multiplicity, or the same LieError,
    or the cap exactly where `_expected_cap` puts it."""
    cap = _expected_cap(ints)
    if cap is not None:
        with pytest.raises(SizeError) as info:
            _real_roots(ints)
        assert str(info.value) == cap
        return
    try:
        expected = divisor_search_real_roots(ints)
    except LieError as exc:
        with pytest.raises(LieError) as info:
            _real_roots(ints)
        assert str(info.value) == str(exc)
        return
    assert _root_keys(_real_roots(ints)) == _root_keys(expected)


class TestRationalRoots:
    @given(st.lists(small_roots, max_size=4), st.sampled_from([[1], [1, 0, 1], [3, 1, 5], [-2, 0, 1]]))
    def test_recovers_every_root_with_multiplicity(self, roots, tail):
        # tail is 1, k^2 + 1, 5k^2 + k + 3 or k^2 - 2: none has a rational root
        found = _real_roots(_cleared(_from_roots(roots, tail)))
        assert _rational_of(found) == sorted(roots)

    @settings(max_examples=60)
    @given(st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=6)
           .filter(lambda c: c[-1] != 0))
    def test_matches_fraction_oracle(self, ints):
        expected = fraction_rational_roots([Fraction(c) for c in ints])
        try:
            found = _real_roots(ints)
        except LieError:
            # a cubic or more is left once every rational root is divided out
            assert len(ints) - 1 - len(expected) >= 3
        else:
            assert _rational_of(found) == expected

    @pytest.mark.parametrize("coeffs, steps", [
        ([14414400, 1, 14414400], 0),  # a quadratic: closed form, no search
        (_from_roots([Fraction(1, 3), Fraction(-5, 2), Fraction(7)], [1]), 1),
        (_from_roots([Fraction(1, 3), Fraction(-5, 2), Fraction(7), Fraction(-4)], [1]), 2),
    ])
    def test_divisors_listed_twice_per_deflation_step(self, monkeypatch, coeffs, steps):
        # The leading coefficient's divisors are listed once per step, not
        # once per divisor of the constant (14414400 has 504 divisors), and
        # deflation stops at degree 2.
        calls = []

        def counting(n):
            calls.append(n)
            return _divisors(n)

        monkeypatch.setattr(conformal, "_divisors", counting)
        _real_roots(_cleared(coeffs))
        assert steps <= len(calls) <= 2 * steps


class TestRealRootsAgainstDivisorSearch:
    """The closed-form solver against the divisor search it replaced."""

    def test_every_polynomial_the_reports_solve(self, monkeypatch):
        seen = []

        def recording(ints):
            seen.append(tuple(ints))
            return _real_roots(ints)

        monkeypatch.setattr(conformal, "_real_roots", recording)
        table2_rows()
        global_report()
        a1_exclusion_survey()
        polys = set(seen)
        # 111 table2 cells, 114 report rows (15 catalog cases among them) and
        # the 8 excluded candidates; many are shared.  The survey's sl(2)
        # variants solve nothing: its 4 surd rows are irrational, and each of
        # its 7 rational rows has d k = n/m with m not dividing 4
        assert len(seen) == 111 + 114 + 8
        # every one is at most a quadratic, so none reaches the divisor search
        assert max(len(ints) for ints in polys) == 3
        for ints in polys:
            _assert_matches_divisor_search(list(ints))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=-60, max_value=60),
                      st.integers(min_value=1, max_value=12)),
            max_size=4,
        ),
        st.lists(st.integers(min_value=-300, max_value=300), min_size=1, max_size=3)
        .filter(lambda c: c[-1] != 0),
    )
    def test_polynomials_with_rational_roots(self, roots, tail):
        roots = [Fraction(p, q) for p, q in roots]
        _assert_matches_divisor_search(_cleared(_from_roots(roots, tail)))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=-MAX_LEVEL_COEFF, max_value=MAX_LEVEL_COEFF),
                    min_size=2, max_size=7).filter(lambda c: c[-1] != 0))
    def test_integer_polynomials_under_the_cap(self, ints):
        _assert_matches_divisor_search(ints)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=-MAX_LEVEL_COEFF, max_value=MAX_LEVEL_COEFF),
                    min_size=3, max_size=3).filter(lambda c: c[-1] != 0))
    @example([-MAX_LEVEL_COEFF, MAX_LEVEL_COEFF - 1, MAX_LEVEL_COEFF])
    def test_quadratics_under_the_cap_never_trip_it(self, ints):
        # Every discriminant here is below 5 * MAX_LEVEL_COEFF**2; the
        # example's is a 51-bit non-square, past the square of the cap.
        assert _expected_cap(ints) is None
        assert _root_keys(_real_roots(ints)) == _root_keys(divisor_search_real_roots(ints))

    @pytest.mark.parametrize("ints, roots", [
        # A cubic whose end coefficient is MAX_LEVEL_COEFF, and one past it.
        ([-2**24, 0, 0, 1], ["256"]),
        ([-(2**24 + 1), 0, 0, 1], None),
        # A quadratic whose non-square discriminant is 5 * MAX_LEVEL_COEFF**2,
        # and one past it.
        ([-5 * 2**46, 0, 1], ["(0+8388608*sqrt(5))", "(0-8388608*sqrt(5))"]),
        ([-(5 * 2**46 + 1), 0, 1], None),
    ])
    def test_each_cap_admits_its_bound(self, ints, roots):
        if roots is None:
            with pytest.raises(SizeError):
                _real_roots(ints)
        else:
            assert [str(r) for r in _real_roots(ints)] == roots


def _entries(case):
    return _charge_entries(build_algebra(case.ambient), case.sub)


def _dual_pair_grid():
    for family in DUAL_PAIR_FAMILIES:
        lo = 3 if family in ("soso", "OO") else 2
        for n in range(lo, 7):
            for m in range(3 if family == "spso" else lo, 7):
                yield dual_pair_branching(family, n, m)


level_factor_types = st.sampled_from(["A1", "A2", "A4", "B3", "C2", "D5", "G2", "F4", "E6", "E8"])
level_indices = st.builds(
    Fraction, st.integers(min_value=1, max_value=2**16), st.integers(min_value=1, max_value=30)
)


class TestLevelPolynomial:
    """The integer level polynomial against its Fraction build."""

    def test_dual_pair_grid(self):
        cases = list(_dual_pair_grid())
        assert len(cases) == 152
        for case in cases:
            entries = _entries(case)
            assert _level_polynomial(entries) == fraction_level_polynomial(entries), case.label

    def test_catalog_and_excluded_candidates(self):
        entry_lists = [_entries(case) for case in load_catalog().values()]
        for ambient, factors, _levels in EXCLUDED_CANDIDATES:
            sub = SubalgebraSpec(tuple((AlgebraType.parse(t), Fraction(j)) for t, j in factors))
            entry_lists.append(_charge_entries(build_algebra(ambient), sub))
        assert len(entry_lists) == 15 + len(EXCLUDED_CANDIDATES)
        for entries in entry_lists:
            assert _level_polynomial(entries) == fraction_level_polynomial(entries)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["A7", "B4", "C5", "D6", "G2", "E7", "E8"]),
        st.lists(
            st.tuples(level_factor_types, level_indices),
            min_size=1,
            max_size=MAX_LEVEL_ENTRIES - 1,
        ),
    )
    def test_factor_lists_match_and_trip_the_same_cap(self, ambient, factors):
        sub = SubalgebraSpec(tuple((AlgebraType.parse(t), j) for t, j in factors))
        entries = _charge_entries(build_algebra(ambient), sub)
        assert len(entries) <= MAX_LEVEL_ENTRIES
        coeffs = fraction_level_polynomial(entries)
        assert _level_polynomial(entries) == coeffs
        cap = _expected_cap(coeffs) if coeffs else None
        if cap is not None:
            with pytest.raises(SizeError) as info:
                solve_levels(ambient, sub)
            assert str(info.value) == cap
        elif coeffs:
            try:
                solve_levels(ambient, sub)
            except LieError as exc:
                assert not isinstance(exc, SizeError) and "keeps degree" in str(exc)

    def test_cap_message_names_the_bits(self):
        # A cubic whose end coefficient has 50 bits, and a quadratic whose
        # non-square discriminant has 103 bits.
        big = (AlgebraType.parse("A1"), Fraction(10**13))
        a1 = (AlgebraType.parse("A1"), Fraction(1))
        for factors, message in [
            ((big, a1, a1), "cleared polynomial of degree 3 has an end coefficient of 50 bits; "
             "its divisor search exceeds the cap MAX_LEVEL_COEFF = 2**24"),
            ((big, a1), "cleared quadratic has a non-square discriminant of 103 bits; "
             "extracting its square part exceeds the cap 5 * MAX_LEVEL_COEFF**2 = 5 * 2**48"),
        ]:
            sub = SubalgebraSpec(factors)
            entries = _charge_entries(build_algebra("E8"), sub)
            assert _expected_cap(fraction_level_polynomial(entries)) == message
            with pytest.raises(SizeError) as info:
                solve_levels("E8", sub)
            assert str(info.value) == message

    def test_spsp_40_40_needs_no_trial_division(self, monkeypatch):
        # C40^40 x C40^40 in so(6400): a quadratic with 25-bit coefficients
        # and a square discriminant.
        ambient, c40 = AlgebraType.parse("D3200"), AlgebraType.parse("C40")
        sub = SubalgebraSpec(((c40, Fraction(40)), (c40, Fraction(40))))
        entries = _charge_entries(build_algebra(ambient), sub)
        assert max(abs(c) for c in fraction_level_polynomial(entries)).bit_length() == 25
        monkeypatch.setattr(conformal, "_divisors", None)
        monkeypatch.setattr("lieconf.surd.squarefree_extract", None)
        assert [str(s) for s in solve_levels(ambient, sub)] == ["-41/40", "1"]


def _solve_excluded(ambient, factors):
    from lieconf.embed import SubalgebraSpec
    from lieconf.liealg import AlgebraType

    sub = SubalgebraSpec(
        tuple((AlgebraType.parse(t), Fraction(j)) for t, j in factors), label=""
    )
    return solve_levels(ambient, sub)


class TestPhysicalFactors:
    """Each group of ``sub.groups`` enters the charge equation once."""

    @pytest.mark.parametrize("label, levels", [
        ("spso:2,4", ["-1/2", "5/8"]),  # one term per slot would add -1/4
        ("soso:4,3", ["-8/19", "1"]),  # ... -2/3
        ("OO:3,4", ["-3/2", "1"]),  # ... -2
        ("OO:4,4", ["-2", "1"]),  # -2 stays: both so(4) factors are critical there
    ])
    def test_grouped_levels(self, label, levels):
        case = resolve_case(label, {})
        assert [str(s) for s in solve_levels(case.ambient, case.sub)] == levels

    def test_bb_keeps_the_groups_of_its_oo_case(self):
        for n, m in product(range(1, 4), repeat=2):
            bb = dual_pair_branching("BB", n, m)
            oo = dual_pair_branching("OO", 2 * n + 1, 2 * m + 1)
            assert bb.label == f"BB:{n},{m}"
            assert bb.sub.groups == oo.sub.groups and bb.sub.factors == oo.sub.factors

    def test_slots_of_a_group_must_share_a_critical_level(self):
        a1, a2 = AlgebraType("A", 1), AlgebraType("A", 2)
        # Refused when built, so level_flags and ap_check never see such a spec.
        with pytest.raises(LieError, match="must share a critical level"):
            SubalgebraSpec(((a1, Fraction(1)), (a2, Fraction(1))), groups=((0, 1),))


class TestLevelFlags:
    def test_slsl_diagonal_critical(self):
        case = dual_pair_branching("slsl", 3, 3)
        flags = level_flags(case.ambient, case.sub, Fraction(-1))
        assert flags.critical and set(flags.critical_factors) == {0, 1}

    def test_slsl_off_diagonal_not_critical(self):
        case = dual_pair_branching("slsl", 2, 3)
        flags = level_flags(case.ambient, case.sub, Fraction(-1))
        assert not flags.critical

    def test_ambient_criticality(self):
        case = resolve_case("G2-in-B3")
        flags = level_flags(case.ambient, case.sub, Fraction(-5))
        assert flags.ambient_critical

    def test_spso_critical_when_m_is_2n_plus_2(self):
        case = dual_pair_branching("spso", 2, 6)
        flags = level_flags(case.ambient, case.sub, Fraction(-1, 2))
        assert flags.critical


class TestAPCheck:
    balanced_cases = [
        ("slsl:2,3", Fraction(-1)),
        ("slsl:4,4", Fraction(1)),
        ("spso:2,3", Fraction(-1, 2)),
        ("CC:2,3", Fraction(-1, 2)),
        ("OO:4,5", 2 - Fraction(9, 2)),
        ("spsl:3", Fraction(-1)),
        ("G2-in-B3", Fraction(-2)),
        ("B3-in-D4", Fraction(-2)),
    ]

    @pytest.mark.parametrize("label, k", balanced_cases, ids=lambda v: str(v))
    def test_balanced_families(self, label, k):
        case = resolve_case(label)
        report = ap_check(case, k)
        assert report.all_balanced
        for _idx, value, balanced in report.per_component:
            assert balanced and value == 1

    def test_methods_agree_on_catalog(self):
        for case in load_catalog().values():
            a = ap_check(case, case.level)
            b = restricted_balance(case, case.level)
            assert a.per_component == b.per_component
            assert a.flags == b.flags
            assert a.all_balanced and b.all_balanced

    @given(
        st.sampled_from(["slsl:2,3", "spso:2,4", "CC:1,2", "G2-in-B3", "spsl:2"]),
        st.fractions(min_value=-8, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_methods_agree_everywhere(self, label, k):
        case = resolve_case(label)
        a = ap_check(case, k)
        b = restricted_balance(case, k)
        assert a.per_component == b.per_component
        assert a.flags == b.flags
        assert a.all_balanced == b.all_balanced

    @pytest.mark.parametrize(
        "family, n, m",
        [("spsp", 2, 3), ("spsp", 3, 5), ("soso", 3, 4), ("soso", 4, 5), ("spso", 2, 4), ("spso", 3, 5)],
    )
    def test_second_candidates_unbalanced_off_diagonal(self, family, n, m):
        assert n != m
        case = dual_pair_branching(family, n, m)
        second = [
            s for s in rational_levels(case) if s not in (Fraction(1), Fraction(-1, 2))
        ]
        assert len(second) == 1
        report = ap_check(case, second[0])
        assert not report.all_balanced

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 5), (2, 5)])
    def test_bb_second_level_balances_off_diagonal(self, n, m):
        # unlike the tensor families, both odd-orthogonal levels are genuine:
        # 1 - n - m stays balanced whenever n != m.
        case = dual_pair_branching("BB", n, m)
        k = Fraction(1 - n - m)
        assert k in rational_levels(case)
        assert ap_check(case, k).all_balanced

    def test_critical_factor_reports_none_rows(self):
        case = dual_pair_branching("slsl", 3, 3)
        report = ap_check(case, Fraction(-1))
        assert not report.all_balanced
        assert report.flags.critical_factors
        for _idx, value, balanced in report.per_component:
            assert value is None and not balanced


class TestNecessaryConstants:
    @pytest.mark.parametrize(
        "kind, dim_k, dim_v, sign, expected",
        [
            ("orthogonal", 14, 7, "+", (-2, 4, 4)),
            ("orthogonal", 21, 8, "+", (-2, 5, 6)),
            ("linear", 21, 6, "-", (-1, 4, 6)),
            ("symplectic", 10, 4, "+", (1, 3, 8)),
        ],
    )
    def test_known_tuples(self, kind, dim_k, dim_v, sign, expected):
        k, g1, gamma = necessary_constants(kind, dim_k, dim_v, sign)
        assert (k, g1, gamma) == expected

    @given(
        st.sampled_from(["orthogonal", "symplectic", "linear"]),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=5, max_value=40),
        st.sampled_from(["+", "-"]),
    )
    @settings(max_examples=60)
    def test_balance_identity_holds(self, kind, dim_k, dim_v, sign):
        if kind == "symplectic" and dim_v % 2:
            dim_v += 1
        k, g1, gamma = necessary_constants(kind, dim_k, dim_v, sign)
        assert gamma == 2 * (k + g1)

    def test_symplectic_odd_dimension_rejected(self):
        with pytest.raises(LieError):
            necessary_constants("symplectic", 10, 5)

    @pytest.mark.parametrize(
        "args, message",
        [(("orthogonal", 0, 7), "dimensions must be positive"),
         (("linear", 8, 3, "*"), "sign must be")],
        ids=["zero-dimension", "linear-sign"],
    )
    def test_bad_arguments_rejected(self, args, message):
        with pytest.raises(LieError, match=message):
            necessary_constants(*args)

    def test_unknown_kind_rejected(self):
        with pytest.raises(LieError):
            necessary_constants("unitary", 3, 4)


class TestA1Exclusion:
    def test_positive_example_printed_variant(self):
        res = a1_exclusion_check(1, 5)
        # 4*5+5 = 25, l = 4: 4^2/2 + 4 = 12 = 2(5+1)
        assert res.printed == 4 and not res.empty

    def test_casimir_critical_at_minus_two(self):
        res = a1_exclusion_check(1, -2)
        assert res.casimir_critical and res.casimir is None

    def test_printed_critical_at_minus_one(self):
        res = a1_exclusion_check(1, -1)
        assert res.printed_critical and res.printed is None

    def test_irrational_product_is_empty(self):
        k = QuadraticNumber(0, 1, 5)
        res = a1_exclusion_check(3, k)
        assert res.empty and res.printed is None and res.casimir is None

    def test_nonpositive_index_rejected(self):
        with pytest.raises(LieError):
            a1_exclusion_check(0, 1)

    def test_survey_is_entirely_empty(self):
        rows = a1_exclusion_survey()
        assert len(rows) == 11
        for row in rows:
            assert row.result.empty, (row.description, row.a1_index, str(row.level))

    def test_survey_names_a_stored_surd_with_the_wrong_radicand(self, monkeypatch):
        # The E7 pair solves to radicand 46265; a stored 46266 is not a root,
        # and the survey names it rather than failing on the comparison.
        wrong = QuadraticNumber(Fraction(479, 1524), Fraction(3, 1524), 46266)
        row = ("E7", (("A1", 24), ("A1", 15)), (wrong,))
        monkeypatch.setattr(conformal, "EXCLUDED_CANDIDATES", [row])
        with pytest.raises(LieError, match=r"stored level \(479\+3\*sqrt\(46266\)\)/1524 is not"):
            a1_exclusion_survey()

    def test_survey_covers_all_stored_candidates(self):
        rows = a1_exclusion_survey()
        descriptions = {row.description for row in rows}
        assert len(EXCLUDED_CANDIDATES) == 8
        assert len(descriptions) == 8

    def test_integer_roots_match_the_perfect_square_test(self):
        # d = a/b, k = p/q over a grid that holds both critical points and
        # solutions of either variant.  Both tests read d and k only through
        # d k, so each of the 2757 distinct products is checked once, at its
        # first (d, k), and counted with its multiplicity in the grid.
        grid = Counter()
        first = {}
        for a, b, p, q in product(range(1, 13), range(1, 5), range(-40, 41), (1, 2, 3, 4, 5, 8)):
            dk = Fraction(a * p, b * q)
            grid[dk] += 1
            if dk not in first:
                first[dk] = Fraction(a, b), Fraction(p, q)
        assert sum(grid.values()) == 23328 and len(grid) == 2757
        results = {dk: a1_exclusion_check(*dk_pair) for dk, dk_pair in first.items()}
        wrong = [dk for dk, res in results.items() if tuple(res) != isqrt_a1_exclusion(*first[dk])]
        assert not wrong
        assert sum(grid[dk] for dk, res in results.items() if not res.empty) == 1483

    def test_discriminants_within_the_cap_are_answered(self):
        # A 49-bit non-square discriminant, past MAX_LEVEL_COEFF**2 but within
        # five times it; and the Casimir variant's 4 * 33554433, 28 bits, from
        # a quadratic whose leading coefficient has 26 bits.
        assert a1_exclusion_check(1, Fraction(-10905188, 6710885)).empty
        assert a1_exclusion_check(1, Fraction(-75497474, 33554433)).empty

    @pytest.mark.parametrize(
        "m", [3, 5, 6, 7, 8, 12, 35, 2**23 - 1, 2**23 + 1, 2**61 - 1, 10**30 + 7])
    def test_a_denominator_not_dividing_four_solves_nothing(self, m, monkeypatch):
        # m (l^2 + 2 l - 4) = 4 n and m (l^2 - 9) = 4 n need m | 4 when
        # gcd(n, m) = 1, so no quadratic is solved, at any size of n or m.
        # At m = 2^23 - 1 the row adds d k = (2^23 + 1) / m, which raised
        # SizeError on a 52-bit non-square discriminant, though the
        # perfect-square oracle returns the empty result.
        monkeypatch.setattr(conformal, "_real_roots", None)
        levels = [Fraction(2**23 + 1, 2**23 - 1)] if m == 2**23 - 1 else []
        levels += [Fraction(n, m) for n in (*range(-30, 31), 2**60 + 1, -(10**40) - 1)
                   if 4 % Fraction(n, m).denominator]
        assert len(levels) >= 30
        for dk in levels:
            res = a1_exclusion_check(1, dk)
            assert res.empty and tuple(res) == isqrt_a1_exclusion(1, dk), dk
        # d and k enter only through their product
        assert a1_exclusion_check(2**23 + 1, Fraction(1, 2**23 - 1)).empty

    def test_huge_level_fails_at_once(self):
        with pytest.raises(SizeError):
            a1_exclusion_check(1, 10**30)

    def test_variant_levels_also_empty(self):
        # the level values that differ from the re-derived ones by a digit
        # must be just as empty, whichever variant is consulted
        assert a1_exclusion_check(1240, Fraction(64, 75)).empty
        assert a1_exclusion_check(389, Fraction(16, 39)).empty


class TestSearches:
    def test_so_survivors_exact(self):
        found = {(str(f.algebra), f.weight, f.dim_v, f.copies) for f in search_so_irreducible()}
        assert found == {("B3", (0, 0, 1), 8, 1), ("G2", (1, 0), 7, 1)}

    def test_sl_survivors_exact(self):
        found = [(str(f.algebra), f.weight, f.dim_v, f.copies) for f in search_sl_irreducible(6)]
        assert found == [
            (f"C{n}", tuple(int(i == 0) for i in range(n)), 2 * n, 1) for n in range(2, 7)
        ]

    @pytest.mark.parametrize(
        "search, typ, v, dim_ambient, weights, copies",
        [
            # so(14) = k + 5 L(omega_2) by dimension, for both 14-dimensional irreducibles of C3
            (search_so_irreducible, "C3", 14, 91, [(0, 0, 1), (0, 1, 0)], 5),
            # sl(8) = k + 6 L(omega_1) by dimension, for B3's spin module
            (lambda: search_sl_irreducible(3), "B3", 8, 63, [(0, 0, 1)], 6),
        ],
    )
    def test_split_rejects_what_the_dimension_count_admits(
        self, monkeypatch, search, typ, v, dim_ambient, weights, copies
    ):
        walk = conformal._irreducible_walk
        alg = build_algebra(typ)

        def dims(alg, lam2):
            return [(v, dim_ambient)]

        counted = walk([alg], dims, lambda alg, lam, parts: True)
        assert [(f.weight, f.copies) for f in counted] == [(w, copies) for w in weights]
        # the search's own split test, on the same row and v, keeps none
        monkeypatch.setattr(conformal, "_irreducible_walk",
                            lambda rows, _dims, splits: walk([alg], dims, splits))
        assert search() == []

    def test_sl_search_respects_rank_bound(self):
        assert len(search_sl_irreducible(3)) == 2


class TestTable1Scan:
    @pytest.mark.parametrize(
        "typ, expected",
        [
            ("B2", [(1, 0)]),
            ("B3", [(1, 0, 0)]),
            ("B4", [(1, 0, 0, 0)]),
            ("C3", [(0, 1, 0)]),
            ("C4", [(0, 1, 0, 0)]),
            ("F4", [(0, 0, 0, 1)]),
            ("G2", [(1, 0)]),
            ("A2", []),
            ("A3", []),
            ("D4", []),
            ("E6", []),
        ],
    )
    def test_exact_hit_sets(self, typ, expected):
        assert table1_scan(typ, 2) == expected

    def test_bound_three_adds_nothing(self):
        for typ in ("B2", "C3", "F4", "G2", "A2", "D4"):
            assert table1_scan(typ, 3) == table1_scan(typ, 2)

    @pytest.mark.parametrize("typ", constructible_types(4), ids=str)
    def test_scan_matches_the_box(self, typ):
        alg = build_algebra(typ)
        box = [
            w for w in product(range(4), repeat=alg.rank)
            if any(w) and dynkin_index(alg, w, "killing") < 1 and alg.in_root_lattice(w)
        ]
        assert table1_scan(typ, 3) == box

    def test_bad_bound_rejected(self):
        with pytest.raises(LieError):
            table1_scan("B2", 0)


class TestVerifyCase:
    def test_diagonal_pair_is_ok_only_when_criticality_is_expected(self):
        case = resolve_case("slsl:3,3")
        expected = verify_case(case, -1, expect_critical=True)
        assert expected.ok and expected.stated_is_root and expected.ap.flags.critical
        unexpected = verify_case(case, -1)
        assert not unexpected.ok and not unexpected.ap.all_balanced

    def test_level_that_is_no_root(self):
        verdict = verify_case(resolve_case("G2-in-B3"), Fraction(5, 3))
        assert verdict.levels == [-2]
        assert not verdict.stated_is_root and not verdict.ok

    def test_verdict_is_immutable(self):
        verdict = verify_case(resolve_case("G2-in-B3"), -2)
        with pytest.raises(AttributeError):
            verdict.ok = False
        with pytest.raises(AttributeError):
            verdict.reason = "x"
        assert verdict.ok


class TestGlobalReport:
    def test_full_report(self):
        rows = global_report()
        assert len(rows) == 114
        assert all(row["status"] == "ok" for row in rows)
        labels = [row["label"] for row in rows]
        assert labels == sorted(labels)
        critical = [row for row in rows if row["ap"]["critical"]]
        assert len(critical) == 14

    def test_deterministic(self):
        import json

        a = json.dumps(global_report(), sort_keys=True)
        b = json.dumps(global_report(), sort_keys=True)
        assert a == b

    def test_reads_the_shipped_catalog_once(self, monkeypatch):
        from lieconf import conformal, embed

        reads = []

        def counting(*args):
            reads.append(args)
            return load_catalog(*args)

        monkeypatch.setattr(embed, "load_catalog", counting)
        monkeypatch.setattr(conformal, "load_catalog", counting)
        assert len(global_report()) == 114
        assert reads == [()]

    def test_row_shape(self):
        row = global_report()[0]
        assert set(row) == {"label", "ambient", "levels", "ap", "status"}
        assert set(row["ap"]) == {"level", "balanced", "critical"}
