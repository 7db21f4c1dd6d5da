"""Highest-weight module data: dimensions, Casimir eigenvalues, indices,
weight systems, tensor products, and square decompositions."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieconf.embed import DUAL_PAIR_FAMILIES, dual_pair_branching
from lieconf.liealg import LieError, build_algebra, constructible_types, fundamental
from lieconf.reps import (
    Decomposition,
    NotACharacter,
    SizeError,
    casimir,
    decompose_weight_system,
    dual_weight,
    dynkin_index,
    freudenthal_weights,
    irreps_of_dim,
    pair_weights,
    product_dim,
    product_weight_system,
    split_coords,
    square_decompose,
    tensor_decompose,
    weyl_dim,
    _weight_system,
    _weyl_data,
)

from oracles import (
    check_character,
    dense_weyl_dim,
    fraction_decompose,
    fraction_form,
    fraction_weight_system,
    fraction_weyl_data,
    fraction_weyl_dim,
    peel_tensor,
    tuple_adjoint_weights,
)
from test_embed import grid_cells, verify_arguments

# the products the peel round trip draws from
PEEL_PRODUCTS = [("A2",), ("B2",), ("G2",), ("A1", "A2")]


class TestWeylDimension:
    @pytest.mark.parametrize(
        "typ, lam, dim",
        [
            ("A1", (1,), 2),
            ("A1", (7,), 8),
            ("A2", (1, 1), 8),
            ("A5", (0, 1, 0, 0, 0), 15),
            ("A5", (0, 0, 1, 0, 0), 20),
            ("B3", (0, 0, 1), 8),
            ("B3", (0, 1, 0), 21),
            ("C3", (0, 0, 1), 14),
            ("D6", (0, 0, 0, 0, 0, 1), 32),
            ("D4", (0, 1, 0, 0), 28),
            ("G2", (1, 0), 7),
            ("G2", (0, 1), 14),
            ("F4", (0, 0, 0, 1), 26),
            ("F4", (1, 0, 0, 0), 52),
            ("E6", (1, 0, 0, 0, 0, 0), 27),
            ("E7", (0, 0, 0, 0, 0, 0, 1), 56),
            ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 248),
            ("E8", (1, 0, 0, 0, 0, 0, 0, 0), 3875),
        ],
    )
    def test_known_dimensions(self, typ, lam, dim):
        assert weyl_dim(build_algebra(typ), lam) == dim

    def test_adjoint_dimension_everywhere(self):
        for t in ("A4", "B5", "C4", "D5", "E6", "F4", "G2"):
            alg = build_algebra(t)
            assert weyl_dim(alg, alg.theta) == alg.dim

    def test_trivial_module(self):
        assert weyl_dim(build_algebra("E7"), (0,) * 7) == 1

    @pytest.mark.parametrize("typ", constructible_types(8), ids=str)
    def test_integer_table_matches_fraction_table(self, typ):
        # The rows against the Fraction table; each value at rho and each norm
        # against 6 (rho, alpha) and 6 (alpha, alpha) from the Fraction form on
        # the root's omega-coordinates; the algebra's root columns against the rows.
        alg = build_algebra(typ)
        table = _weyl_data(alg)
        oracle_rows, denom = fraction_weyl_data(alg)
        assert table.rows == oracle_rows and math.prod(table.at_rho) == denom
        form = fraction_form(alg)
        n = alg.rank

        def pair6(u, v):
            return 6 * sum(x * g * y for x, row in zip(u, form) for g, y in zip(row, v))

        for a, value, norm in zip(alg.positive_roots_alpha, table.at_rho, table.norms, strict=True):
            omega = [sum(alg.cartan[t][j] * a[j] for j in range(n)) for t in range(n)]
            assert (value, norm) == (pair6([1] * n, omega), pair6(omega, omega)), a
        assert alg.root_columns == tuple(
            tuple((r, row[i]) for r, row in enumerate(oracle_rows) if row[i]) for i in range(n)
        )
        for lam in [fundamental(alg, i) for i in range(1, alg.rank + 1)] + [alg.rho]:
            assert weyl_dim(alg, lam) == fraction_weyl_dim(alg, lam)

    @pytest.mark.parametrize("lam", [(-1, 0), (Fraction(1, 2), 0)], ids=["negative", "fractional"])
    def test_non_dominant_integral_weight_is_refused(self, lam):
        with pytest.raises(LieError, match="not a dominant integral weight"):
            weyl_dim(build_algebra("A2"), lam)


def _sparse_and_dense_weights(alg, rng):
    n = alg.rank
    weights = [(0,) * n, alg.rho]
    weights += [fundamental(alg, i) for i in range(1, n + 1)]
    for _ in range(8):
        lam = [0] * n
        for i in rng.sample(range(n), min(n, rng.randint(1, 3))):
            lam[i] = rng.randint(1, 100)
        weights.append(tuple(lam))
    weights += [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(4)]
    return weights


class TestWeylDimensionAgainstDenseProduct:
    """The product over the roots that meet a weight's support against the
    dense product over every positive root."""

    @pytest.mark.parametrize("typ", constructible_types(8) + ["A40", "B40", "C40", "D40"], ids=str)
    def test_every_type_of_rank_at_most_8_and_rank_40(self, typ):
        alg = build_algebra(typ)
        rng = random.Random(str(typ))
        for lam in _sparse_and_dense_weights(alg, rng):
            assert weyl_dim(alg, lam) == dense_weyl_dim(alg, lam), lam


class TestCasimir:
    @pytest.mark.parametrize(
        "typ, lam, value",
        [
            ("G2", (1, 0), Fraction(4)),
            ("F4", (0, 0, 0, 1), Fraction(12)),
            ("E7", (0, 0, 0, 0, 0, 0, 1), Fraction(57, 2)),
            ("E6", (1, 0, 0, 0, 0, 0), Fraction(52, 3)),
            ("D6", (0, 0, 0, 0, 1, 0), Fraction(33, 2)),
            ("A5", (0, 1, 0, 0, 0), Fraction(28, 3)),
            ("A5", (0, 0, 1, 0, 0), Fraction(21, 2)),
            ("C3", (0, 0, 1), Fraction(15, 2)),
            ("B4", (0, 0, 0, 1), Fraction(9)),
            ("A2", (2, 0), Fraction(20, 3)),
        ],
    )
    def test_known_values(self, typ, lam, value):
        assert casimir(build_algebra(typ), lam) == value

    @given(st.integers(min_value=0, max_value=40))
    def test_sl2_closed_form(self, m):
        assert casimir(build_algebra("A1"), (m,)) == Fraction(m * (m + 2), 2)

    @given(st.integers(min_value=2, max_value=9), st.data())
    def test_sln_fundamental_closed_form(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        alg = build_algebra(f"A{n - 1}")
        lam = tuple(int(i == k - 1) for i in range(n - 1))
        assert casimir(alg, lam) == Fraction(k * (n - k) * (n + 1), n)

    def test_adjoint_is_twice_dual_coxeter(self):
        for t in ("A3", "B4", "C3", "D5", "G2", "F4", "E6"):
            alg = build_algebra(t)
            assert casimir(alg, alg.theta) == 2 * alg.dual_coxeter

    @pytest.mark.parametrize("typ", constructible_types(8), ids=str)
    def test_matches_the_fraction_form(self, typ):
        # (lam, lam + 2 rho) = sum_ij lam_i (omega_i, omega_j) (lam_j + 2) by the
        # Fraction Gram matrix, against the sum over the roots.
        alg = build_algebra(typ)
        form = fraction_form(alg)
        k = min(alg.rank, 3)
        for head in itertools.product(range(3), repeat=k):
            lam = head + (0,) * (alg.rank - k)
            want = sum(x * g * (y + 2) for x, row in zip(lam, form) for g, y in zip(row, lam))
            assert casimir(alg, lam) == want, lam


class TestDynkinIndex:
    @pytest.mark.parametrize(
        "typ, lam, index",
        [
            ("A3", (1, 0, 0), Fraction(1, 2)),   # defining sl(4)
            ("C4", (1, 0, 0, 0), Fraction(1, 2)),  # defining sp(8)
            ("B3", (1, 0, 0), Fraction(1)),      # vector so(7)
            ("D5", (1, 0, 0, 0, 0), Fraction(1)),  # vector so(10)
            ("B3", (2, 0, 0), Fraction(9)),      # sym2_0 so(7): m + 2
            ("D5", (2, 0, 0, 0, 0), Fraction(12)),  # sym2_0 so(10)
            ("C3", (1, 0, 0), Fraction(1, 2)),
            ("C3", (0, 1, 0), Fraction(2)),  # Lambda^2_0 sp(6)
        ],
    )
    def test_known_normalized(self, typ, lam, index):
        assert dynkin_index(build_algebra(typ), lam) == index

    def test_adjoint_index_is_dual_coxeter(self):
        for t in ("A5", "B4", "C3", "D6", "G2", "F4", "E7"):
            alg = build_algebra(t)
            assert dynkin_index(alg, alg.theta) == alg.dual_coxeter

    def test_killing_convention_normalizes_adjoint_to_one(self):
        for t in ("A2", "B3", "C4", "G2", "F4", "E6"):
            alg = build_algebra(t)
            norm = dynkin_index(alg, alg.theta, convention="normalized")
            kill = dynkin_index(alg, alg.theta, convention="killing")
            assert kill == 1
            assert kill == norm / alg.dual_coxeter

    def test_index_additive_in_tensor_dimension(self):
        # ind(V (x) W) = dim W * ind V + dim V * ind W, checked through a
        # tensor decomposition.
        alg = build_algebra("A2")
        lam, mu = (1, 0), (0, 1)
        lhs = weyl_dim(alg, mu) * dynkin_index(alg, lam) + weyl_dim(alg, lam) * dynkin_index(alg, mu)
        total = sum(
            mult * dynkin_index(alg, comp[0])
            for comp, mult in tensor_decompose(alg, lam, mu).components.items()
        )
        assert total == lhs

    def test_unknown_convention_is_refused(self):
        with pytest.raises(LieError, match="unknown index convention"):
            dynkin_index(build_algebra("A2"), (1, 0), convention="bogus")


class TestDualWeight:
    def test_a_family_reverses(self):
        alg = build_algebra("A4")
        assert dual_weight(alg, (1, 2, 0, 3)) == (3, 0, 2, 1)

    def test_self_dual_families(self):
        for t in ("B3", "C3", "D4", "G2", "F4", "E7"):
            alg = build_algebra(t)
            lam = tuple(1 if i == 0 else 0 for i in range(alg.rank))
            assert dual_weight(alg, lam) == lam

    def test_e6_is_not_self_dual(self):
        alg = build_algebra("E6")
        lam = (1, 0, 0, 0, 0, 0)
        assert dual_weight(alg, lam) != lam
        assert dual_weight(alg, dual_weight(alg, lam)) == lam

    def test_d5_swaps_half_spins(self):
        alg = build_algebra("D5")
        s_plus = (0, 0, 0, 0, 1)
        assert dual_weight(alg, s_plus) != s_plus


class TestFreudenthal:
    def test_matches_character_oracle_on_fixed_cases(self):
        for typ, lam in (
            ("A2", (1, 1)),
            ("A2", (3, 1)),
            ("B2", (1, 2)),
            ("G2", (0, 1)),
            ("B3", (0, 0, 2)),
            ("C3", (1, 0, 1)),
        ):
            alg = build_algebra(typ)
            ws = freudenthal_weights(alg, lam)
            assert ws.total() == weyl_dim(alg, lam)
            check_character(alg, lam, ws.entries)

    def test_weight_system_is_weyl_symmetric(self):
        alg = build_algebra("G2")
        ws = freudenthal_weights(alg, (1, 1)).entries
        for w, m in ws.items():
            dom, _ = alg.to_dominant(w)
            assert ws[dom] == m

    def test_zero_weight_multiplicity_adjoint_is_rank(self):
        for t in ("A3", "B3", "D4", "G2"):
            alg = build_algebra(t)
            ws = freudenthal_weights(alg, alg.theta)
            assert ws.entries[(0,) * alg.rank] == alg.rank

    def test_size_cap(self):
        # L(400, 400) of A2 has dimension 64,481,201.
        with pytest.raises(SizeError, match="exceeds the cap MAX_MODULE_DIM = 100000"):
            freudenthal_weights(build_algebra("A2"), (400, 400))


def _oracle_modules():
    """Each fundamental weight, 2 omega_1 and rho of every type up to rank 8,
    where the module has dimension at most 5000."""
    cases = []
    for typ in constructible_types(8):
        alg = build_algebra(typ)
        n = alg.rank
        lams = [fundamental(alg, i) for i in range(1, n + 1)]
        lams += [(2,) + (0,) * (n - 1), alg.rho]
        cases += [
            pytest.param(typ, lam, id=f"{typ}-{','.join(map(str, lam))}")
            for lam in dict.fromkeys(lams)
            if weyl_dim(alg, lam) <= 5000
        ]
    return cases


class TestFractionOracle:
    @pytest.mark.parametrize("typ, lam", _oracle_modules())
    def test_weight_system_matches_fraction_freudenthal(self, typ, lam):
        alg = build_algebra(typ)
        assert dict(_weight_system(alg, lam)) == fraction_weight_system(alg, lam)

    @pytest.mark.parametrize("family", DUAL_PAIR_FAMILIES)
    def test_peel_matches_fraction_peel_on_dual_pair_grid(self, family):
        # The restricted adjoint multiset of every grid cell whose V has
        # dimension at most 64 (the larger cells would add seconds of Fraction
        # peel), rebuilt by the coordinate-tuple oracle, is peeled by both
        # decomposers, and both must return the stated k (+) p.
        checked = 0
        for n, m in grid_cells(family):
            check_algs, ambient, module, _p = verify_arguments(family, n, m)
            if sum(product_dim(check_algs, comp) for comp in module) > 64:
                continue
            ws = tuple_adjoint_weights(check_algs, ambient, module)
            case = dual_pair_branching(family, n, m)
            algs = case.sub.algebras
            assert check_algs == algs
            stated = dict(case.p_components.components)
            for slot, alg in enumerate(algs):
                comp = tuple(
                    alg.theta if j == slot else (0,) * a.rank for j, a in enumerate(algs)
                )
                stated[comp] = stated.get(comp, 0) + 1
            comps = decompose_weight_system(algs, ws).components
            assert comps == fraction_decompose(algs, ws) == stated
            checked += 1
        assert checked

    def test_cached_weight_system_is_read_only(self):
        alg = build_algebra("A2")
        cached = _weight_system(alg, (1, 0))
        with pytest.raises(TypeError):
            cached[(1, 0)] = 5
        entries = freudenthal_weights(alg, (1, 0)).entries
        entries[(1, 0)] = 5
        assert _weight_system(alg, (1, 0))[(1, 0)] == 1


class TestTensor:
    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
    @settings(max_examples=40)
    def test_sl2_clebsch_gordan(self, m, n):
        alg = build_algebra("A1")
        decomp = tensor_decompose(alg, (m,), (n,))
        expected = {(abs(m - n) + 2 * i,): 1 for i in range(min(m, n) + 1)}
        assert {k[0]: v for k, v in decomp.components.items()} == expected

    def test_matches_peel_oracle_on_fixed_cases(self):
        for typ, lam, mu in (
            ("A2", (1, 1), (1, 1)),
            ("B2", (1, 0), (0, 2)),
            ("G2", (1, 0), (0, 1)),
            ("A3", (1, 0, 1), (1, 0, 0)),
            ("C3", (1, 0, 0), (0, 0, 1)),
        ):
            alg = build_algebra(typ)
            got = {k[0]: v for k, v in tensor_decompose(alg, lam, mu).components.items()}
            assert got == peel_tensor(alg, lam, mu)

    def test_total_dimension_preserved(self):
        alg = build_algebra("B3")
        lam, mu = (1, 0, 0), (0, 0, 1)
        decomp = tensor_decompose(alg, lam, mu)
        assert decomp.dim() == weyl_dim(alg, lam) * weyl_dim(alg, mu)

    def test_trivial_factor_is_identity(self):
        alg = build_algebra("F4")
        lam = (0, 0, 0, 1)
        decomp = tensor_decompose(alg, lam, (0, 0, 0, 0))
        assert {k[0]: v for k, v in decomp.components.items()} == {lam: 1}

    def test_adjoint_appears_in_v_tensor_dual(self):
        alg = build_algebra("A4")
        lam = (1, 0, 0, 0)
        decomp = tensor_decompose(alg, lam, dual_weight(alg, lam))
        comps = {k[0]: v for k, v in decomp.components.items()}
        assert comps == {alg.theta: 1, (0, 0, 0, 0): 1}


class TestSquares:
    @pytest.mark.parametrize(
        "typ, module",
        [
            ("A2", ((1, 0),)),
            ("B2", ((1, 0),)),
            ("A1", ((3,),)),
            ("C3", ((1, 0, 0),)),
            ("G2", ((1, 0),)),
        ],
    )
    def test_alt_plus_sym_is_square(self, typ, module):
        alg = build_algebra(typ)
        algs = (alg,)
        alt = square_decompose(algs, module, "alt")
        sym = square_decompose(algs, module, "sym")
        full = tensor_decompose(alg, module[0], module[0])
        merged = {}
        for part in (alt, sym):
            for comp, mult in part.components.items():
                merged[comp] = merged.get(comp, 0) + mult
        assert merged == full.components

    def test_so_adjoint_is_alt_square_of_vector(self):
        for t, vec in (("B3", (1, 0, 0)), ("D4", (1, 0, 0, 0))):
            alg = build_algebra(t)
            alt = square_decompose((alg,), (vec,), "alt")
            assert {k[0]: v for k, v in alt.components.items()} == {alg.theta: 1}

    def test_sp_adjoint_is_sym_square_of_defining(self):
        alg = build_algebra("C3")
        sym = square_decompose((alg,), ((1, 0, 0),), "sym")
        assert {k[0]: v for k, v in sym.components.items()} == {alg.theta: 1}

    def test_pair_weights_counts(self):
        ws = {(1,): 1, (-1,): 1}  # sl2 defining
        alt = pair_weights(ws, "alt")
        sym = pair_weights(ws, "sym")
        assert sum(alt.values()) == 1 and sum(sym.values()) == 3
        with pytest.raises(Exception):
            pair_weights(ws, "cube")


class TestProductSystems:
    def test_product_weight_system_dim(self):
        a1 = build_algebra("A1")
        b2 = build_algebra("B2")
        ws = product_weight_system((a1, b2), ((2,), (1, 0)))
        assert sum(ws.values()) == 3 * 5

    def test_one_highest_weight_per_factor(self):
        algs = (build_algebra("A1"), build_algebra("B2"))
        with pytest.raises(LieError, match="one highest weight per factor"):
            product_weight_system(algs, ((2,),))

    def test_single_needs_one_factor(self):
        decomp = Decomposition((build_algebra("A1"), build_algebra("A1")), {((1,), (1,)): 1})
        with pytest.raises(LieError, match="one-factor"):
            decomp.single()

    def test_decompose_weight_system_roundtrip(self):
        a2 = build_algebra("A2")
        ws = product_weight_system((a2,), ((1, 1),))
        merged = {}
        for w, m in ws.items():
            merged[w] = merged.get(w, 0) + m
        # add a second copy of the trivial module
        merged[(0, 0)] = merged.get((0, 0), 0) + 1
        decomp = decompose_weight_system((a2,), merged)
        assert decomp.components == {((1, 1),): 1, ((0, 0),): 1}

    def test_sorted_items_order_by_height_across_factor_denominators(self):
        # A1 and G2 have forms over different denominators (2 and 3)
        algs = (build_algebra("A1"), build_algebra("G2"))
        comps = [((4,), (0, 0)), ((0,), (1, 0)), ((0,), (0, 1)), ((1,), (1, 0)), ((3,), (0, 0))]
        decomp = Decomposition(algs, {c: 1 for c in comps})

        def height(comp):
            return sum(a.inner_product(w, (2,) * a.rank) for a, w in zip(algs, comp))

        want = sorted(comps, key=lambda c: (-height(c), c))
        assert [c for c, _ in decomp.sorted_items()] == want

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_peel_returns_the_components_it_was_built_from(self, data):
        # a sum of 1-4 distinct irreducible characters, each 1-3 times, peels
        # back into exactly those components, as the Fraction oracle does
        algs = tuple(map(build_algebra, data.draw(st.sampled_from(PEEL_PRODUCTS))))
        rank = sum(a.rank for a in algs)
        tops = data.draw(
            st.lists(st.tuples(*[st.integers(0, 2)] * rank), min_size=1, max_size=4, unique=True)
        )
        stated = {split_coords(algs, w): data.draw(st.integers(1, 3)) for w in tops}
        ws = {}
        for comp, m in stated.items():
            for w, cm in product_weight_system(algs, comp).items():
                ws[w] = ws.get(w, 0) + m * cm
        assert decompose_weight_system(algs, ws).components == stated == fraction_decompose(algs, ws)

    def test_non_character_rejected(self):
        # L(omega_1) of A2 has the weights (1,0), (-1,1), (0,-1); peeling it
        # leaves (-1,1) at -1, a weight the input never had
        a2 = build_algebra("A2")
        with pytest.raises(NotACharacter, match=r"negative multiplicity -1 at \(-1, 1\)"):
            decompose_weight_system((a2,), {(1, 0): 1, (0, 0): 1})

    def test_non_dominant_maximal_weight_rejected(self):
        # (-1, 2) has height 6 (w, 2 rho) = 12 over the 0 of (0, 0)
        a2 = build_algebra("A2")
        with pytest.raises(NotACharacter, match=r"maximal weight \(-1, 2\) is not dominant"):
            decompose_weight_system((a2,), {(-1, 2): 1, (0, 0): 1})


class TestIrrepsOfDim:
    @pytest.mark.parametrize(
        "typ, v, expected",
        [
            ("A1", 8, [(7,)]),
            ("B3", 8, [(0, 0, 1)]),
            ("G2", 7, [(1, 0)]),
            ("G2", 14, [(0, 1)]),
            ("A2", 8, [(1, 1)]),
            ("A2", 9, []),
            ("C3", 14, [(0, 0, 1), (0, 1, 0)]),
        ],
    )
    def test_known_lists(self, typ, v, expected):
        got = irreps_of_dim(build_algebra(typ), v)
        assert sorted(got) == sorted(expected)

    @pytest.mark.parametrize("typ", constructible_types(4), ids=str)
    def test_scan_matches_the_box(self, typ):
        # A weight with a coordinate above top has at least the dimension of
        # some L((top + 1) omega_i), so the box [0, top]^rank holds every
        # weight of smaller dimension.  Dimensions are checked up to 300.
        alg = build_algebra(typ)
        top = 12 // alg.rank
        box = {}
        for lam in itertools.product(range(top + 1), repeat=alg.rank):
            box.setdefault(weyl_dim(alg, lam), []).append(lam)
        limit = min(
            300,
            *(weyl_dim(alg, tuple((top + 1) * x for x in fundamental(alg, i)))
              for i in range(1, alg.rank + 1)),
        )
        for v in range(1, limit):
            assert irreps_of_dim(alg, v) == box.get(v, []), v

    def test_every_hit_has_the_dimension(self):
        alg = build_algebra("B4")
        for lam in irreps_of_dim(alg, 36):
            assert weyl_dim(alg, lam) == 36
