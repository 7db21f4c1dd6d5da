"""Root systems, Cartan data, and the normalized invariant form."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from lieconf import liealg
from lieconf.liealg import (
    MAX_TABLE_RANK,
    AlgebraType,
    LieError,
    SizeError,
    build_algebra,
    constructible_types,
    fundamental,
)
from oracles import (
    fraction_cartan_inverse,
    fraction_form,
    fraction_root_halves,
    string_closure_roots,
)

DUAL_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": {6: 12, 7: 18, 8: 30}.get,
    "F": {4: 9}.get,
    "G": {2: 4}.get,
}

NUM_POSITIVE = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": {6: 36, 7: 63, 8: 120}.get,
    "F": {4: 24}.get,
    "G": {2: 6}.get,
}


def all_types():
    return constructible_types(8)


class TestTypeParsing:
    @pytest.mark.parametrize("text", ["B3", "b3", "E8", "A1", "G2", "D12"])
    def test_accepts(self, text):
        typ = AlgebraType.parse(text)
        assert str(typ) == text.upper()

    @pytest.mark.parametrize("text", ["H4", "E9", "F5", "G3", "B1", "D2", "A0", "", "B"])
    def test_rejects(self, text):
        with pytest.raises(LieError):
            build_algebra(text)

    def test_constructible_count(self):
        assert len(all_types()) == 33


class TestAlgebraTypeContract:
    def test_sorts_by_family_then_rank(self):
        types = all_types()
        assert sorted(types[::-1]) == sorted(types, key=lambda t: (t.family, t.rank)) == types
        assert AlgebraType("A", 9) < AlgebraType("A", 10) < AlgebraType("B", 2)

    @given(st.sampled_from([(t.family, t.rank) for t in constructible_types(8)]))
    def test_equal_instances_hash_equal(self, fields):
        a, b = AlgebraType(*fields), AlgebraType.parse("".join(map(str, fields)))
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_immutable(self):
        typ = AlgebraType("B", 3)
        with pytest.raises(AttributeError):
            typ.rank = 4
        with pytest.raises(AttributeError):
            typ.extra = 1
        assert typ == AlgebraType("B", 3)

    @pytest.mark.parametrize(
        "family, rank, message",
        [
            ("H", 4, "unknown family 'H' (expected one of A..G)"),
            ("B", 1, "rank 1 invalid for family B (allowed 2 and up)"),
            ("E", 9, "rank 9 invalid for family E (allowed 6..8)"),
        ],
    )
    def test_bad_family_or_rank_keeps_its_message(self, family, rank, message):
        with pytest.raises(LieError) as info:
            AlgebraType(family, rank)
        assert str(info.value) == message

    @given(st.sampled_from(all_types()), st.sampled_from("ABCDEFGH"), st.integers(0, 10))
    @example(AlgebraType("E", 6), "E", 9)
    def test_replace_and_make_keep_the_checks(self, typ, family, rank):
        # _replace and _make build as the constructor does: a valid value
        # round-trips, an invalid one raises the constructor's LieError.
        def outcome(build, *args, **kwargs):
            try:
                return build(*args, **kwargs)
            except LieError as exc:
                return str(exc)

        assert typ._replace() == typ and AlgebraType._make(typ) == typ
        assert outcome(typ._replace, rank=rank) == outcome(AlgebraType, typ.family, rank)
        want = outcome(AlgebraType, family, rank)
        assert outcome(typ._replace, family=family, rank=rank) == want
        assert outcome(AlgebraType._make, (family, rank)) == want

    def test_compares_equal_to_the_plain_tuple(self):
        # A NamedTuple: equal, and equal in hash, to the tuple of its fields.
        assert AlgebraType("B", 3) == ("B", 3)
        assert hash(AlgebraType("B", 3)) == hash(("B", 3))


class TestStructuralInvariants:
    @pytest.mark.parametrize("typ", all_types(), ids=str)
    def test_highest_root_norm_is_two(self, typ):
        alg = build_algebra(typ)
        assert alg.inner_product(alg.theta, alg.theta) == 2

    @pytest.mark.parametrize("typ", all_types(), ids=str)
    def test_dimension_formula(self, typ):
        alg = build_algebra(typ)
        assert alg.dim == alg.rank + 2 * alg.num_positive
        want = NUM_POSITIVE[typ.family](typ.rank)
        assert alg.num_positive == want
        # num_positive and dual_coxeter are closed forms: check them against the closure
        assert len(alg.positive_roots_alpha) == alg.num_positive
        assert alg.dual_coxeter == alg.inner_product(alg.rho, alg.theta) + 1

    @pytest.mark.parametrize("typ", all_types(), ids=str)
    def test_dual_coxeter_number(self, typ):
        alg = build_algebra(typ)
        assert alg.dual_coxeter == DUAL_COXETER[typ.family](typ.rank)
        assert alg.dual_coxeter == alg.inner_product(alg.rho, alg.theta) + 1

    @pytest.mark.parametrize("typ", all_types(), ids=str)
    def test_form_matches_fraction_oracle(self, typ):
        # (omega_i, omega_j) read off the roots against d_i (C^{-1})_ij by
        # Fraction Gauss-Jordan, with d_i read off the symmetrized Cartan matrix.
        alg = build_algebra(typ)
        form = fraction_form(alg)
        omegas = [fundamental(alg, i + 1) for i in range(alg.rank)]
        assert [[alg.inner_product(u, v) for v in omegas] for u in omegas] == [
            list(row) for row in form]
        assert alg.d6 == tuple(6 * x for x in fraction_root_halves(alg))

    @pytest.mark.parametrize("typ", all_types() + [AlgebraType("D", 72)], ids=str)
    def test_form_is_symmetric_and_dual_to_the_simple_roots(self, typ):
        # On integers, 36 h^vee (u, v) = sum over alpha > 0 of 6 (u, alpha) 6 (v, alpha):
        # (omega_i, alpha_j) = delta_ij d_j, and (alpha_i, alpha_j) = d_i C_ij is symmetric.
        alg = build_algebra(typ)
        n, scale = alg.rank, 6 * alg.dual_coxeter
        d6, cartan = alg.d6, alg.cartan

        def pairings(w):
            return {r: s for r, s in alg.root_pairings(w).items() if s}

        def pair(p, q):
            return sum(s * q[r] for r, s in p.items() if r in q)

        omegas = [pairings(fundamental(alg, i + 1)) for i in range(n)]
        alphas = [pairings(col) for col in alg.cartan_columns]
        for j, a in enumerate(alphas):
            assert [pair(a, w) for w in omegas] == [scale * d6[j] * (i == j) for i in range(n)]
            for i, b in enumerate(alphas[:j]):
                assert pair(b, a) == scale * d6[i] * cartan[i][j] == scale * d6[j] * cartan[j][i]
        if n <= 8:
            weights = [fundamental(alg, i + 1) for i in range(n)] + list(alg.cartan_columns)
            for u in weights:
                for v in weights:
                    assert alg.inner_product(u, v) == alg.inner_product(v, u)

    @pytest.mark.parametrize("typ", all_types(), ids=str)
    def test_root_lattice_matches_fraction_oracle(self, typ):
        # lam is in the root lattice when C^{-1} lam is integral.
        alg = build_algebra(typ)
        inverse = fraction_cartan_inverse(alg)
        k = min(alg.rank, 4)
        for head in product(range(-1, 3), repeat=k):
            lam = head + (0,) * (alg.rank - k)
            integral = all(sum(x * y for x, y in zip(row, lam)).denominator == 1 for row in inverse)
            assert alg.in_root_lattice(lam) == integral, lam

    @pytest.mark.parametrize("typ", all_types(), ids=str)
    def test_short_root_norms(self, typ):
        alg = build_algebra(typ)
        ns = alg.inner_product(alg.theta_short, alg.theta_short)
        if typ.family in ("A", "D", "E"):
            assert alg.theta_short == alg.theta
        else:
            assert ns in (1, Fraction(2, 3))  # BCF short = 1, G2 short = 2/3

    @pytest.mark.parametrize("typ", all_types(), ids=str)
    def test_theta_dominant_and_in_root_lattice(self, typ):
        alg = build_algebra(typ)
        assert alg.is_dominant(alg.theta)
        assert alg.in_root_lattice(alg.theta)
        assert alg.in_root_lattice(alg.theta_short)


class TestKnownHighestRoots:
    @pytest.mark.parametrize(
        "typ, theta, theta_short",
        [
            ("A1", (2,), (2,)),
            ("A3", (1, 0, 1), (1, 0, 1)),
            ("B3", (0, 1, 0), (1, 0, 0)),
            ("C3", (2, 0, 0), (0, 1, 0)),
            ("D4", (0, 1, 0, 0), (0, 1, 0, 0)),
            ("G2", (0, 1), (1, 0)),
            ("F4", (1, 0, 0, 0), (0, 0, 0, 1)),
            ("E8", (0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 0, 1)),
        ],
    )
    def test_values(self, typ, theta, theta_short):
        alg = build_algebra(typ)
        assert alg.theta == theta
        assert alg.theta_short == theta_short

    def test_d3_is_a3(self):
        d3 = build_algebra("D3")
        a3 = build_algebra("A3")
        assert d3.dim == a3.dim == 15
        assert d3.dual_coxeter == a3.dual_coxeter == 4
        assert d3.iso_note


class TestRootWalk:
    @pytest.mark.parametrize(
        "typ", constructible_types(12) + [AlgebraType(f, 40) for f in "ABCD"], ids=str)
    def test_walk_matches_the_string_closure(self, typ):
        # positive_roots_alpha, positive_roots_omega, theta and theta_short
        alg = build_algebra(typ)
        assert alg._roots == string_closure_roots(alg)

    def test_one_dominant_root_per_length_is_checked(self):
        alg = liealg.SimpleAlgebra(AlgebraType("G", 2))
        alg.cartan_columns
        vars(alg)["d6"] = (6, 6)  # claims one root length; G2's walk finds two dominant roots
        with pytest.raises(LieError, match="2 dominant roots for 1 root lengths"):
            alg.theta


class TestWeylAction:
    small_types = [AlgebraType.parse(t) for t in ("A2", "B2", "G2", "A3", "C3")]

    @given(
        typ=st.sampled_from(small_types),
        data=st.data(),
    )
    def test_reflections_preserve_form(self, typ, data):
        alg = build_algebra(typ)
        w = tuple(
            data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(alg.rank)
        )
        for i, col in enumerate(alg.cartan_columns):
            r = tuple(wk - w[i] * ck for wk, ck in zip(w, col))  # s_i w
            assert alg.inner_product(r, r) == alg.inner_product(w, w)

    @given(
        typ=st.sampled_from(small_types),
        data=st.data(),
    )
    def test_to_dominant_lands_in_chamber(self, typ, data):
        alg = build_algebra(typ)
        w = tuple(
            data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(alg.rank)
        )
        dom, sign = alg.to_dominant(w)
        assert alg.is_dominant(dom)
        assert sign in (1, -1)
        assert alg.inner_product(dom, dom) == alg.inner_product(w, w)
        if alg.is_dominant(w):
            assert dom == w and sign == 1


class TestRootLattice:
    def test_positive_roots_are_roots(self):
        alg = build_algebra("G2")
        roots = alg.positive_roots_omega
        assert len(roots) == 6
        assert alg.theta in roots
        for r in roots:
            assert alg.in_root_lattice(r)

    def test_weight_outside_root_lattice(self):
        a2 = build_algebra("A2")
        assert not a2.in_root_lattice((1, 0))
        assert a2.in_root_lattice((1, 1))

    def test_root_lattice_index_respects_center(self):
        # A1: weight lattice / root lattice has order 2
        a1 = build_algebra("A1")
        assert a1.in_root_lattice((2,))
        assert not a1.in_root_lattice((3,))


class TestFrozen:
    @pytest.mark.parametrize("name", ["dim", "dual_coxeter", "_roots", "cartan", "root_columns"])
    def test_shared_algebra_cannot_be_changed(self, name):
        # build_algebra hands every caller the same cached instance.
        alg = build_algebra("B2")
        before = getattr(alg, name)
        with pytest.raises(AttributeError):
            setattr(alg, name, 99)
        with pytest.raises(AttributeError):
            delattr(alg, name)
        assert build_algebra("B2") is alg and getattr(alg, name) == before
        assert (alg.dim, alg.dual_coxeter) == (10, 3)

    def test_tables_still_build_on_first_use(self):
        alg = liealg.SimpleAlgebra(AlgebraType("G", 2))
        assert "root_columns" not in vars(alg)
        assert alg.root_columns is alg.root_columns and "root_columns" in vars(alg)


class TestWeightValidation:
    def test_wrong_rank_rejected(self):
        alg = build_algebra("B3")
        with pytest.raises(LieError):
            alg.check_weight((1, 0))

    @pytest.mark.parametrize("i", [0, 4], ids=["zero", "rank+1"])
    def test_fundamental_index_out_of_range(self, i):
        with pytest.raises(LieError, match="out of range"):
            fundamental(build_algebra("B3"), i)

    def test_large_classical_rank_builds(self):
        alg = build_algebra("B12")
        assert alg.dim == 300
        assert alg.dual_coxeter == 23

    @pytest.mark.parametrize("wrong", [(16, 4), (14, 5)], ids=["dim", "dual_coxeter"])
    def test_closure_is_checked_against_the_closed_forms(self, wrong, monkeypatch):
        monkeypatch.setitem(liealg._CLOSED_FORMS, "G", {2: wrong}.get)
        alg = liealg.SimpleAlgebra(AlgebraType("G", 2))
        with pytest.raises(LieError):
            alg.theta

    def test_closed_forms_need_no_tables_above_the_rank_cap(self):
        alg = build_algebra(AlgebraType("D", MAX_TABLE_RANK + 1))
        n = MAX_TABLE_RANK + 1
        assert (alg.dim, alg.dual_coxeter) == (n * (2 * n - 1), 2 * n - 2)
        assert alg.num_positive == n * (n - 1)
        for table in ("theta", "positive_roots_alpha", "root_columns", "d6", "cartan", "rho"):
            with pytest.raises(SizeError):
                getattr(alg, table)
