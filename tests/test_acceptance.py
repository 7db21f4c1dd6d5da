"""Acceptance suite: the seven shipped guarantees and the paper's worked
examples, one test (and one ``pytest -v`` line) apiece; criterion 1 has a
second, on the level data alone.

Every comparison below is exact — integers and rationals only, no floats,
no tolerances.  Randomized sections draw from a fixed seed so failures
reproduce verbatim.
"""

import random
from fractions import Fraction

from lieconf.liealg import build_algebra, constructible_types
from lieconf.reps import (
    dynkin_index,
    freudenthal_weights,
    square_decompose,
    tensor_decompose,
    weyl_dim,
)
from lieconf.embed import dual_pair_branching, load_catalog, resolve_case, resolve_levels
from lieconf.conformal import (
    EXCLUDED_CANDIDATES,
    a1_exclusion_check,
    a1_exclusion_survey,
    ap_check,
    level_flags,
    search_sl_irreducible,
    search_so_irreducible,
    solve_levels,
    table1_scan,
    verify_case,
)
from lieconf import qseries
from lieconf.qseries import PuiseuxSeries, identity_sides, verify_identity

from oracles import check_character, peel_tensor, restricted_balance

# The four tensor families and the direct-sum pair BB = so(2n+1) x so(2m+1).
GRID_FAMILIES = ("slsl", "spsp", "soso", "spso", "BB")


def _grid(top=6):
    for family in GRID_FAMILIES:
        for n in range(2, top + 1):
            for m in range(2, top + 1):
                if family == "soso" and (n < 3 or m < 3):
                    continue
                if family == "spso" and m < 3:
                    continue
                yield family, n, m


def _expected_levels(family, n, m):
    if family == "slsl":
        return {Fraction(1), Fraction(-1)}
    if family == "spsp":
        return {Fraction(1), Fraction(-2 * (m * n - 1), 2 * m * n - m - n)}
    if family == "soso":
        return {Fraction(1), Fraction(4 - m * n, m * n + m + n)}
    if family == "spso":
        return {Fraction(-1, 2), Fraction(m * n + 2, 2 * m * n + 2 * n - m)}
    return {Fraction(1), Fraction(1 - n - m)}  # BB


def _critical_level(family, n, m):
    """The one level the classification flags, with its flagging condition."""
    if family == "spso":
        return Fraction(-1, 2), m == 2 * n + 2
    second = next(iter(_expected_levels(family, n, m) - {Fraction(1)}))
    return second, n == m


def test_criterion_1_dual_pair_level_grid():
    for family, n, m in _grid():
        case = dual_pair_branching(family, n, m)
        sols = solve_levels(case.ambient, case.sub)
        assert all(s.is_rational for s in sols), (family, n, m)
        got = {s.to_fraction() for s in sols}
        assert got == _expected_levels(family, n, m), (family, n, m)
        flagged_level, expect_flag = _critical_level(family, n, m)
        for k in got:
            flags = level_flags(case.ambient, case.sub, k)
            expected = expect_flag and k == flagged_level
            assert bool(flags.critical_factors) == expected, (family, n, m, str(k))


def test_criterion_1_closed_forms_from_the_subalgebra_alone():
    # The levels and flags of every grid cell with n, m <= 20, and of the
    # spsp block 33 <= n, m <= 40 whose cleared quadratics reach 25-bit
    # coefficients, read from their level data alone: no p is built for them.
    cells = list(_grid(20)) + [("spsp", n, m) for n in range(33, 41) for m in range(33, 41)]
    assert len(cells) == 1749 + 64
    for family, n, m in cells:
        ambient, sub = resolve_levels(f"{family}:{n},{m}", {})
        sols = solve_levels(ambient, sub)
        assert all(s.is_rational for s in sols), (family, n, m)
        got = {s.to_fraction() for s in sols}
        assert got == _expected_levels(family, n, m), (family, n, m)
        flagged_level, expect_flag = _critical_level(family, n, m)
        for k in got:
            flags = level_flags(ambient, sub, k)
            assert bool(flags.critical_factors) == (expect_flag and k == flagged_level), (
                family, n, m, str(k))


def test_criterion_2_balance_verdicts():
    catalog = load_catalog()
    required = {
        "G2xF4-in-E8",
        "F4xA1-in-E7",
        "G2xA2-in-E6",
        "F4-in-E6",
        "G2xA1-in-F4",
    }
    assert required <= set(catalog)
    balanced = 0
    for label in sorted(catalog):
        case = catalog[label]
        assert ap_check(case, case.level).all_balanced, label
        balanced += 1
    family_instances = [
        ("slsl", 2, 3, [Fraction(1), Fraction(-1)]),
        ("spsp", 2, 3, [Fraction(1)]),
        ("soso", 3, 4, [Fraction(1)]),
        ("spso", 2, 3, [Fraction(-1, 2)]),
        ("BB", 2, 3, [Fraction(1), Fraction(-4)]),
        ("OO", 3, 4, [Fraction(1), Fraction(-3, 2)]),
        ("CC", 1, 2, [Fraction(-1, 2), Fraction(-5, 2)]),
    ]
    for family, n, m, levels in family_instances:
        case = dual_pair_branching(family, n, m)
        for k in levels:
            assert ap_check(case, k).all_balanced, (family, n, m, str(k))
            balanced += 1
    assert balanced >= 20

    # the discarded second candidates of the three tensor families
    rejected = 0
    for family, n, m in _grid():
        if family in ("slsl", "BB") or n == m or n > 5 or m > 5:
            continue
        case = dual_pair_branching(family, n, m)
        generic = Fraction(-1, 2) if family == "spso" else Fraction(1)
        second = next(iter(_expected_levels(family, n, m) - {generic}))
        assert not ap_check(case, second).all_balanced, (family, n, m)
        rejected += 1
    assert rejected >= 20


def test_criterion_3_classification_searches():
    so_found = {
        (str(f.algebra), f.weight, f.dim_v, f.copies) for f in search_so_irreducible()
    }
    assert so_found == {("B3", (0, 0, 1), 8, 1), ("G2", (1, 0), 7, 1)}

    sl_found = {
        (str(f.algebra), f.weight, f.dim_v, f.copies)
        for f in search_sl_irreducible(8)
    }
    expected = {
        (f"C{n}", (1,) + (0,) * (n - 1), 2 * n, 1) for n in range(2, 9)
    }
    assert sl_found == expected

    hits = {
        "B3": [(1, 0, 0)],
        "B4": [(1, 0, 0, 0)],
        "C3": [(0, 1, 0)],
        "C4": [(0, 1, 0, 0)],
        "F4": [(0, 0, 0, 1)],
        "G2": [(1, 0)],
    }
    for typ, weights in hits.items():
        assert table1_scan(typ, 3) == weights, typ
    for typ in ("A2", "A3", "D4", "E6", "E7", "E8"):
        assert table1_scan(typ, 3) == [], typ


def test_criterion_4_sl2_candidates_are_excluded():
    rows = a1_exclusion_survey()
    assert len(rows) == 11
    for row in rows:
        assert row.result.empty, (row.description, row.a1_index, str(row.level))
    assert len({row.description for row in rows}) == len(EXCLUDED_CANDIDATES) == 8
    # the two level values that circulate with a transposed digit
    assert a1_exclusion_check(1240, Fraction(64, 75)).empty
    assert a1_exclusion_check(389, Fraction(16, 39)).empty


def test_criterion_5_identities_to_order_100(monkeypatch):
    for name in ("delta_eta", "eq92", "kw", "thm92"):
        ok, mismatch = verify_identity(name, 100)
        assert ok and mismatch is None, name
    pokes = {
        "delta_eta": Fraction(9),
        "eq92": Fraction(11, 2),
        "kw": Fraction(8),
        "thm92": Fraction(33, 8),
    }
    for name, exponent in pokes.items():
        lhs, rhs = identity_sides(name, 20)
        bad = rhs + PuiseuxSeries.monomial(exponent, 1, rhs.order_exponent)
        assert lhs.first_mismatch(bad) == exponent, name

    # The same corruption on the path `qseries verify` runs: one coefficient
    # of the right side's integer grid.
    grid = qseries._identity_grid

    def corrupted(which, order):
        lhs, rhs, denom, shift = grid(which, order)
        k = pokes[which] * denom - shift
        assert k.denominator == 1 and 0 <= k < len(rhs), which
        rhs = list(rhs)
        rhs[int(k)] += 1
        return lhs, rhs, denom, shift

    monkeypatch.setattr(qseries, "_identity_grid", corrupted)
    for name, exponent in pokes.items():
        assert verify_identity(name, 20) == (False, exponent), name


def test_criterion_6_randomized_cross_validation():
    rng = random.Random(20260816)
    small = constructible_types(3)

    checked = 0
    while checked < 30:
        alg = build_algebra(rng.choice(small))
        lam = tuple(rng.randrange(0, 4) for _ in range(alg.rank))
        if weyl_dim(alg, lam) > 2000:
            continue
        check_character(alg, lam, freudenthal_weights(alg, lam).entries)
        checked += 1

    checked = 0
    while checked < 20:
        alg = build_algebra(rng.choice(small))
        lam = tuple(rng.randrange(0, 3) for _ in range(alg.rank))
        mu = tuple(rng.randrange(0, 3) for _ in range(alg.rank))
        if weyl_dim(alg, lam) * weyl_dim(alg, mu) > 5000:
            continue
        assert tensor_decompose(alg, lam, mu).single() == peel_tensor(alg, lam, mu)
        checked += 1

    checked = 0
    while checked < 15:
        alg = build_algebra(rng.choice(small))
        lam = tuple(rng.randrange(0, 3) for _ in range(alg.rank))
        v = weyl_dim(alg, lam)
        if v < 2 or v * v > 5000:
            continue
        combined = dict(square_decompose([alg], [lam], "alt").components)
        for comp, mult in square_decompose([alg], [lam], "sym").components.items():
            combined[comp] = combined.get(comp, 0) + mult
        assert combined == tensor_decompose(alg, lam, lam).components
        checked += 1

    catalog = load_catalog()
    for label in sorted(catalog):
        case = catalog[label]
        factor = ap_check(case, case.level)
        restricted = restricted_balance(case, case.level)
        assert factor.per_component == restricted.per_component, label
        assert factor.flags == restricted.flags, label
        assert factor.all_balanced and restricted.all_balanced, label


def test_criterion_7_structural_invariants():
    types = constructible_types(8)
    assert len(types) == 33
    for typ in types:
        alg = build_algebra(typ)
        assert alg.inner_product(alg.theta, alg.theta) == 2, str(typ)
        assert alg.dual_coxeter == alg.inner_product(alg.rho, alg.theta) + 1, str(typ)
        assert alg.dim == alg.rank + 2 * alg.num_positive, str(typ)
        assert len(alg.positive_roots_alpha) == alg.num_positive, str(typ)
        assert dynkin_index(alg, alg.theta) == alg.dual_coxeter, str(typ)


def test_criterion_8_paper_worked_examples():
    # sp(2) x so(3) in sp(6) and sp(2) x so(8) in sp(16), both at k = -1/2
    for label, ambient in (("spso:1,3", "C3"), ("spso:1,8", "C8")):
        case = resolve_case(label)
        assert str(case.ambient) == ambient, label
        verdict = verify_case(case, Fraction(-1, 2))
        assert verdict.stated_is_root, label
        assert verdict.ap.flags.critical_factors == (), label
        assert not verdict.ap.flags.ambient_critical, label
        assert verdict.ap.all_balanced and verdict.ok, label
        factor_dims = sum(build_algebra(typ).dim for typ, _ in case.sub.factors)
        assert case.p_components.dim() + factor_dims == build_algebra(case.ambient).dim, label
