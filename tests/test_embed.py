"""Embedding constructions: dual-pair branchings, embedding indices, the
shipped case catalog, and label resolution."""

import json
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from lieconf.liealg import AlgebraType, LieError, build_algebra
from lieconf import embed, liealg, reps
from lieconf.conformal import global_report, solve_levels, table2_rows
from lieconf.reps import NotACharacter, freudenthal_weights, irreps_of_dim, product_dim, weyl_dim
from lieconf.embed import (
    DUAL_PAIR_FAMILIES,
    SubalgebraSpec,
    builtin_labels,
    defining_weight,
    dual_pair_branching,
    embedding_index,
    load_catalog,
    resolve_case,
    resolve_levels,
)
from oracles import tuple_verify_adjoint_branching


def case_dims_close(case):
    case.check_dimensions()
    return True


# Each family's smallest n and m; spsp:1,1 (sp(2) x sp(2) in so(4)) is not a pair.
FAMILY_MINIMUM = {
    "slsl": (2, 2), "spsp": (1, 1), "soso": (3, 3), "spso": (1, 3), "BB": (1, 1), "CC": (1, 1),
    "OO": (3, 3),
}


def grid_cells(family, top=6):
    """(n, m) of every valid cell of ``family`` with n, m <= top."""
    n_lo, m_lo = FAMILY_MINIMUM[family]
    return [
        (n, m) for n in range(n_lo, top + 1) for m in range(m_lo, top + 1)
        if (family, n, m) != ("spsp", 1, 1)
    ]


def verify_arguments(family, n, m):
    """The arguments that dual_pair_branching(family, n, m) passes to the
    branching check: algebras, ambient type, module components of V, p."""
    calls = []
    with mock.patch.object(embed, "_verify_adjoint_branching", lambda *args: calls.append(args)):
        dual_pair_branching(family, n, m)
    (args,) = calls
    return args


def swap_mutant(algs, p_components):
    """The stated p with one component swapped for another of the same
    dimension.  The first component that allows it changes one factor's
    weight for another of that dimension, or else becomes an irreducible of a
    single factor, trivial on the others; failing both, the first component
    becomes that many trivial components."""
    trivial = tuple((0,) * a.rank for a in algs)

    def swaps(comp):
        for slot, (alg, lam) in enumerate(zip(algs, comp)):
            for mu in irreps_of_dim(alg, weyl_dim(alg, lam)):
                yield comp[:slot] + (mu,) + comp[slot + 1:], 1
        for slot, alg in enumerate(algs):
            for mu in irreps_of_dim(alg, product_dim(algs, comp)):
                yield trivial[:slot] + (mu,) + trivial[slot + 1:], 1
        yield trivial, product_dim(algs, comp)

    for comp in p_components:
        for swapped, mult in swaps(comp):
            if swapped != comp:
                mutant = Counter(p_components)
                mutant[comp] -= 1
                mutant[swapped] += mult
                return dict(+mutant)


class TestDualPairConstruction:
    @pytest.mark.parametrize(
        "family, n, m, ambient",
        [
            ("slsl", 2, 3, "A5"),
            ("slsl", 3, 3, "A8"),
            ("spsp", 2, 2, "D8"),
            ("spsp", 2, 3, "D12"),
            ("soso", 3, 5, "B7"),
            ("soso", 4, 4, "D8"),
            ("spso", 2, 3, "C6"),
            ("spso", 2, 6, "C12"),
            ("BB", 2, 2, "D5"),  # so(5) + so(5) inside so(10)
            ("CC", 1, 2, "C3"),
            ("CC", 2, 2, "C4"),
            ("OO", 3, 4, "B3"),
            ("OO", 5, 5, "D5"),
        ],
    )
    def test_ambient_types_and_dimensions(self, family, n, m, ambient):
        case = dual_pair_branching(family, n, m)
        assert str(case.ambient) == ambient
        assert case_dims_close(case)

    def test_every_family_member_dimension_checks(self):
        for family in DUAL_PAIR_FAMILIES:
            for n, m in grid_cells(family, top=4):
                assert case_dims_close(dual_pair_branching(family, n, m))

    def test_slsl_p_is_adjoint_tensor_adjoint(self):
        case = dual_pair_branching("slsl", 2, 3)
        comps = dict(case.p_components.components)
        assert comps == {((2,), (1, 1)): 1}
        assert case.p_components.dim() == (4 - 1) * (9 - 1)

    def test_spso_n1_merges_into_single_component(self):
        case = dual_pair_branching("spso", 1, 7)
        assert str(case.ambient) == "C7"
        assert case_dims_close(case)

    def test_so4_factor_spawns_two_sl2_slots_one_group(self):
        case = dual_pair_branching("soso", 3, 4)
        assert len(case.sub.factors) == 3
        assert case.sub.groups == ((0,), (1, 2))

    def test_groups_default_to_one_per_slot(self):
        a1 = AlgebraType("A", 1)
        assert SubalgebraSpec(((a1, Fraction(1)),) * 3).groups == ((0,), (1,), (2,))
        assert resolve_case("G2-in-B3", {}).sub.groups == ((0,),)

    @pytest.mark.parametrize("groups", [
        ((0,),),  # slot 1 left out
        ((0, 1), (1,)),  # slot 1 twice
        ((0,), (1,), (2,)),  # no slot 2
        ((0, 1), ()),  # an empty group
    ])
    def test_groups_must_partition_the_slots(self, groups):
        a1 = AlgebraType("A", 1)
        with pytest.raises(LieError, match="must partition"):
            SubalgebraSpec(((a1, Fraction(1)),) * 2, groups=groups)

    def test_bad_parameters_rejected(self):
        with pytest.raises(LieError):
            dual_pair_branching("slsl", 1, 3)
        with pytest.raises(LieError):
            dual_pair_branching("soso", 2, 4)
        with pytest.raises(LieError):
            dual_pair_branching("nope", 2, 2)

    def test_minimum_cells_are_the_first_valid_ones(self):
        for family, (n, m) in FAMILY_MINIMUM.items():
            for below in ((n - 1, m), (n, m - 1)):
                with pytest.raises(LieError):
                    dual_pair_branching(family, *below)
        with pytest.raises(LieError, match="spsp needs so"):
            dual_pair_branching("spsp", 1, 1)

    def test_derived_indices_match_the_ambient_dynkin_index(self):
        # Every slot of every valid cell with n, m <= 4: the index derived
        # from V equals the one measured against the ambient's own defining
        # module, which builds the ambient's tables.
        slots = 0
        for family in DUAL_PAIR_FAMILIES:
            for n, m in grid_cells(family, top=4):
                case = dual_pair_branching(family, n, m)
                algs, ambient, module, _p = verify_arguments(family, n, m)
                for i, alg in enumerate(algs):
                    restriction = Counter()
                    for comp in module:
                        restriction[comp[i]] += product_dim(algs, comp) // weyl_dim(alg, comp[i])
                    assert case.sub.indices[i] == embedding_index(ambient, alg, restriction), (
                        family, n, m, i)
                    slots += 1
        assert slots == 156

    def test_no_ambient_table_is_built(self, monkeypatch):
        # A fresh algebra cache: spsp:6,6 and its levels read only the closed
        # forms of its so(144) ambient, never its roots, form or Weyl data.
        monkeypatch.setattr(liealg, "_build", lru_cache(maxsize=None)(liealg.SimpleAlgebra))
        case = dual_pair_branching("spsp", 6, 6)
        solve_levels(case.ambient, case.sub)
        tables = {
            name for name, attr in vars(liealg.SimpleAlgebra).items()
            if isinstance(attr, cached_property)
        }
        assert {"_roots", "root_columns", "cartan"} <= tables
        assert not tables & set(vars(build_algebra("D72")))

    def test_indices_match_family_rules(self):
        case = dual_pair_branching("slsl", 3, 4)
        assert case.sub.indices == (Fraction(4), Fraction(3))
        case = dual_pair_branching("spso", 2, 5)
        assert case.sub.indices == (Fraction(5), Fraction(8))
        case = dual_pair_branching("CC", 2, 3)
        assert case.sub.indices == (Fraction(1), Fraction(1))


class TestSingleCases:
    def test_g2_in_b3(self):
        case = resolve_case("G2-in-B3")
        assert str(case.ambient) == "B3"
        assert [str(t) for t, _ in case.sub.factors] == ["G2"]
        assert case.p_components.dim() == 21 - 14
        assert case_dims_close(case)

    def test_b3_in_d4(self):
        case = resolve_case("B3-in-D4")
        assert str(case.ambient) == "D4"
        assert case.p_components.dim() == 28 - 21
        assert case_dims_close(case)

    def test_spsl(self):
        case = resolve_case("spsl:3")
        assert str(case.ambient) == "A5"
        assert [str(t) for t, _ in case.sub.factors] == ["C3"]
        assert case_dims_close(case)

    def test_family_label_resolution(self):
        case = resolve_case("spso:2,3")
        assert str(case.ambient) == "C6"
        with pytest.raises(LieError):
            resolve_case("slsl:2")
        with pytest.raises(LieError):
            resolve_case("unknown-case")


class TestLevelData:
    LABELS = [
        f"{family}:{n},{m}" for family in DUAL_PAIR_FAMILIES for n, m in grid_cells(family)
    ] + [f"spsl:{n}" for n in range(2, 7)] + ["G2-in-B3", "B3-in-D4"]

    def test_level_data_is_the_checked_case_s(self, monkeypatch):
        # The same ambient and subalgebra (factors, indices, groups, label) as
        # the checked case, read without building a weight or checking p.
        cases = {label: resolve_case(label, {}) for label in self.LABELS}
        for name in ("_verify_adjoint_branching", "_weight_system"):
            monkeypatch.setattr(embed, name, mock.Mock(side_effect=AssertionError(name)))
        for label, case in cases.items():
            ambient, sub = resolve_levels(label, {})
            assert (ambient, sub) == (case.ambient, case.sub), label
            assert (sub.indices, sub.groups, sub.label) == (
                case.sub.indices, case.sub.groups, case.label), label
        assert len(cases) == 188 + 5 + 2

    def test_catalog_labels_win(self):
        case = load_catalog()["G2xF4-in-E8"]
        assert resolve_levels("G2xF4-in-E8") == (case.ambient, case.sub)

    @pytest.mark.parametrize("label", ["slsl:2", "slsl:1,2", "spsl:1", "BB:0,1", "soso:2,3", "x"])
    def test_bad_label_has_the_checked_resolver_s_message(self, label):
        with pytest.raises(LieError) as levels:
            resolve_levels(label, {})
        with pytest.raises(LieError) as checked:
            resolve_case(label, {})
        assert str(levels.value) == str(checked.value)


class TestEmbeddingIndex:
    def test_vector_in_so(self):
        # so(7) inside so(8): vector 8 -> vector 7 + singlet
        idx = embedding_index("D4", "B3", {(1, 0, 0): 1, (0, 0, 0): 1})
        assert idx == 1

    def test_principal_sl2_in_sl3(self):
        # sl(2) -> sl(3) via the 3-dimensional irreducible: index 4
        idx = embedding_index("A2", "A1", {(2,): 1})
        assert idx == 4

    def test_g2_in_b3_index_one(self):
        idx = embedding_index("B3", "G2", {(1, 0): 1})
        assert idx == 1

    def test_diagonal_sl2(self):
        # sl(2) diagonal in sl(4) = two copies of the defining module
        idx = embedding_index("A3", "A1", {(1,): 2})
        assert idx == 2


class TestDefiningWeight:
    def test_classical_definitions(self):
        assert defining_weight(build_algebra("A3")) == (1, 0, 0)
        assert defining_weight(build_algebra("B3")) == (1, 0, 0)
        assert defining_weight(build_algebra("C4")) == (1, 0, 0, 0)
        assert defining_weight(build_algebra("D5")) == (1, 0, 0, 0, 0)

    def test_exceptional_fallback_is_adjoint(self):
        g2 = build_algebra("G2")
        assert defining_weight(g2) == g2.theta


def toy_entry(**fields):
    """A valid catalog entry, G2 in B3 at level -2, with ``fields`` replaced."""
    entry = {
        "label": "toy-G2-in-B3",
        "ambient": "B3",
        "factors": [{"type": "G2", "index": "1"}],
        "level": "-2",
        "p": [{"weights": [[1, 0]], "mult": 1}],
    }
    entry.update(fields)
    return entry


# (test id, replaced entry fields, the error after the case label)
BAD_CATALOG_FIELDS = [
    ("ambient", {"ambient": 7}, "ambient must be a JSON string, got 7"),
    ("factor type", {"factors": [{"type": 2, "index": "1"}]},
     "factor type must be a JSON string, got 2"),
    ("factor index", {"factors": [{"type": "G2", "index": 1}]},
     "factor index must be a JSON string, got 1"),
    ("level", {"level": -2}, "level must be a JSON string, got -2"),
    ("factor index 0", {"factors": [{"type": "G2", "index": "0"}]},
     "bad factor: embedding index must be positive, got 0 for G2"),
    ("source", {"source": 3}, "source must be a JSON string, got 3"),
    ("unknown field", {"sorce": "x"}, "unknown field 'sorce'"),
    ("unknown factor field", {"factors": [{"type": "G2", "index": "1", "mult": 1}]},
     "unknown factor field 'mult'"),
    ("unknown p component field", {"p": [{"weights": [[1, 0]], "multiplicity": 1}]},
     "unknown p component field 'multiplicity'"),
    ("ambient rank", {"ambient": "D2"},
     "bad ambient: rank 2 invalid for family D (allowed 3 and up)"),
    ("ambient type", {"ambient": "Q3"},
     "bad ambient: cannot parse algebra type 'Q3' (expected e.g. 'B3', 'E8')"),
    ("no factors", {"factors": []}, "factors must be a non-empty list"),
    ("factors not a list", {"factors": "G2"}, "factors must be a non-empty list"),
    ("factor without index", {"factors": [{"type": "G2"}]},
     "each factor needs 'type' and 'index'"),
    ("factor not an object", {"factors": ["G2"]}, "each factor needs 'type' and 'index'"),
    ("factor type unparsed", {"factors": [{"type": "Q2", "index": "1"}]},
     "bad factor: cannot parse algebra type 'Q2' (expected e.g. 'B3', 'E8')"),
    ("factor index unparsed", {"factors": [{"type": "G2", "index": "x"}]},
     "bad factor: Invalid literal for Fraction: 'x'"),
    ("factor index over zero", {"factors": [{"type": "G2", "index": "1/0"}]},
     "bad factor: zero denominator in '1/0'"),
    ("level unparsed", {"level": "minus two"},
     "bad level: Invalid literal for Fraction: 'minus two'"),
    ("no p", {"p": []}, "p must be a non-empty list of components"),
    ("p not a list", {"p": {}}, "p must be a non-empty list of components"),
    ("p component without weights", {"p": [{"mult": 1}]}, "each p component needs 'weights'"),
    ("p component not an object", {"p": [[1, 0]]}, "each p component needs 'weights'"),
    ("p weights per factor", {"p": [{"weights": [[1, 0], [0]], "mult": 1}]},
     "expected one weight array per factor"),
    ("p weights not nested", {"p": [{"weights": [1, 0], "mult": 1}]},
     "expected one weight array per factor"),
]
BAD_CATALOG_IDS = [name for name, _fields, _message in BAD_CATALOG_FIELDS]

# (test id, catalog document, the whole error): refusals before any label is read
BAD_CATALOG_DOCUMENTS = [
    ("not an array", {"label": "toy"}, "catalog document must be a JSON array of cases"),
    ("entry not an object", [3], "catalog entries must be objects"),
    ("entry without label", [{"ambient": "B3"}], "catalog entry lacks a label"),
    ("empty label", [{"label": ""}], "catalog entry lacks a label"),
]
BAD_CATALOG_DOCUMENT_IDS = [name for name, _document, _message in BAD_CATALOG_DOCUMENTS]


class TestCatalog:
    def test_loads_fifteen_unique_cases(self):
        catalog = load_catalog()
        assert len(catalog) == 15
        assert len(set(catalog)) == 15

    def test_every_case_dimension_checks(self):
        for case in load_catalog().values():
            assert case_dims_close(case)

    def test_every_case_has_level_and_source(self):
        for case in load_catalog().values():
            assert case.level is not None
            assert case.label
        with open(embed._SHIPPED_CATALOG, encoding="utf-8") as handle:
            document = json.load(handle)
        assert len(document) == 15
        for entry in document:
            assert isinstance(entry["source"], str) and entry["source"]

    def test_repeated_label_rejected(self):
        with pytest.raises(LieError, match="^duplicate label 'toy-G2-in-B3'$"):
            load_catalog([toy_entry(), toy_entry()])

    def test_cases_keyed_by_label_in_document_order(self):
        doc = [toy_entry(label="b"), toy_entry(label="a")]
        assert list(load_catalog(doc)) == ["b", "a"]
        assert [case.label for case in load_catalog(doc).values()] == ["b", "a"]

    def test_source_is_an_optional_string(self):
        assert "toy-G2-in-B3" in load_catalog([toy_entry(source="Slansky, table 16")])
        assert "toy-G2-in-B3" in load_catalog([toy_entry()])

    def test_known_labels_present(self):
        catalog = load_catalog()
        for label in (
            "G2xF4-in-E8",
            "F4xA1-in-E7",
            "G2xA2-in-E6",
            "F4-in-E6",
            "G2xA1-in-F4",
            "A1xE7-in-E8",
        ):
            assert label in catalog

    def test_resolution_prefers_catalog(self):
        catalog = load_catalog()
        case = resolve_case("G2xA1-in-F4", catalog)
        assert str(case.ambient) == "F4"

    def test_catalog_from_document_and_file(self, tmp_path):
        doc = [
            {
                "label": "toy-G2-in-B3",
                "ambient": "B3",
                "factors": [{"type": "G2", "index": "1"}],
                "level": "-2",
                "p": [{"weights": [[1, 0]], "mult": 1}],
            }
        ]
        catalog = load_catalog(doc)
        assert "toy-G2-in-B3" in catalog
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        catalog2 = load_catalog(str(path))
        case = resolve_case("toy-G2-in-B3", catalog2)
        assert case.level == Fraction(-2)
        # built-in labels still resolve when absent from the override
        assert str(resolve_case("G2-in-B3", catalog2).ambient) == "B3"

    def test_malformed_documents_rejected(self):
        with pytest.raises(LieError):
            load_catalog([{"label": "x"}])
        with pytest.raises(LieError):
            load_catalog([{
                "label": "bad-dims",
                "ambient": "B3",
                "factors": [{"type": "G2", "index": "1"}],
                "level": "-2",
                "p": [{"weights": [[0, 1]], "mult": 1}],  # 14-dim p: dims can't match
            }])

    @pytest.mark.parametrize("name, fields, message", BAD_CATALOG_FIELDS, ids=BAD_CATALOG_IDS)
    def test_non_string_field_names_label_and_field(self, name, fields, message):
        with pytest.raises(LieError) as info:
            load_catalog([toy_entry(**fields)])
        assert str(info.value) == f"case 'toy-G2-in-B3': {message}"

    @pytest.mark.parametrize(
        "name, document, message", BAD_CATALOG_DOCUMENTS, ids=BAD_CATALOG_DOCUMENT_IDS)
    def test_malformed_document_is_refused_without_a_label(self, tmp_path, name, document, message):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(document))
        with pytest.raises(LieError) as info:
            load_catalog(str(path))
        assert str(info.value) == message

    def test_booleans_are_not_integers(self):
        with pytest.raises(LieError, match="is not a dominant integral weight"):
            load_catalog([toy_entry(p=[{"weights": [[True, False]], "mult": 1}])])
        with pytest.raises(LieError, match="bad multiplicity True"):
            load_catalog([toy_entry(p=[{"weights": [[1, 0]], "mult": True}])])

    def test_builtin_labels_listing(self):
        labels = builtin_labels()
        assert "G2xF4-in-E8" in labels
        assert any("spsl" in lab for lab in labels)


_FACTOR = st.tuples(
    st.sampled_from(["A1", "B3", "G2", "E8"]), st.integers(1, 40), st.integers(1, 6)
)


class TestValueTypeContracts:
    @given(st.lists(_FACTOR, min_size=1, max_size=4), st.text(max_size=4))
    def test_equal_specs_hash_equal(self, raw, label):
        # The same indices, once as Fractions and once as ints where integral.
        fracs = [(AlgebraType.parse(t), Fraction(p, q)) for t, p, q in raw]
        mixed = [(t, int(j) if j.denominator == 1 else j) for t, j in fracs]
        a = SubalgebraSpec(tuple(fracs), label)
        b = SubalgebraSpec(tuple(mixed), label=label)
        assert a == b and hash(a) == hash(b)

    @given(
        st.lists(_FACTOR, min_size=1, max_size=3),
        st.lists(st.tuples(st.sampled_from(["A1", "G2"]), st.integers(-1, 3)), max_size=4),
        st.none() | st.lists(st.lists(st.integers(0, 3), max_size=3).map(tuple), max_size=3).map(
            tuple
        ),
    )
    @example([("A1", 1, 1)] * 2, [("A1", 1)] * 3, None)
    @example([("A1", 1, 1), ("G2", 1, 1)], [("A1", 1), ("G2", 1)], ((0, 1),))
    def test_replace_and_make_keep_the_checks(self, raw, new_raw, groups):
        # _replace and _make build as the constructor does: a valid value
        # round-trips, an invalid one raises the constructor's LieError.
        # The first example puts three A1 slots under groups of two: built
        # unchecked, solve_levels would drop the third slot silently.  The
        # second puts A1 (critical at -2) and G2 (at -4) in one group.
        def outcome(build, *args, **kwargs):
            try:
                return build(*args, **kwargs)
            except LieError as exc:
                return str(exc)

        spec = SubalgebraSpec(tuple((AlgebraType.parse(t), Fraction(p, q)) for t, p, q in raw), "s")
        assert spec._replace() == spec and SubalgebraSpec._make(spec) == spec
        factors = tuple((AlgebraType.parse(t), Fraction(j)) for t, j in new_raw)
        want = outcome(SubalgebraSpec, factors, "s", spec.groups)
        assert outcome(spec._replace, factors=factors) == want
        want = outcome(SubalgebraSpec, spec.factors, "s", groups)
        assert outcome(spec._replace, groups=groups) == want
        want = outcome(SubalgebraSpec, factors, "s", groups)
        assert outcome(SubalgebraSpec._make, (factors, "s", groups)) == want

    def test_critical_levels_are_one_per_slot(self):
        a1, g2, c3 = AlgebraType("A", 1), AlgebraType("G", 2), AlgebraType("C", 3)
        spec = SubalgebraSpec(((a1, 2), (g2, Fraction(4, 3)), (c3, Fraction(1, 2))))
        assert spec.critical_levels == (Fraction(-1), Fraction(-3), Fraction(-8))
        # A1^2 and C3^4 are both critical at -1, so they may form one group.
        grouped = SubalgebraSpec(((a1, 2), (c3, 4)), groups=((0, 1),))
        assert grouped.critical_levels == (Fraction(-1), Fraction(-1))
        message = "slots of one physical factor must share a critical level"
        with pytest.raises(LieError, match=message):
            grouped._replace(factors=((a1, 1), (c3, 4)))
        with pytest.raises(LieError, match=message):
            SubalgebraSpec._make((spec.factors, "", ((0,), (1, 2))))

    def test_replace_yields_the_new_factors_levels(self):
        a1, c3 = AlgebraType("A", 1), AlgebraType("C", 3)
        spec = SubalgebraSpec(((a1, 2), (c3, 4)))
        moved = spec._replace(factors=((a1, 1), (c3, Fraction(1, 2))))
        assert moved.critical_levels == (Fraction(-2), Fraction(-8))
        assert spec.critical_levels == (Fraction(-1), Fraction(-1))

    def test_cached_levels_are_minus_h_vee_over_j_for_every_report_spec(self, monkeypatch):
        # h_vee from the standard table, not from a built algebra.
        classical = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1,
                     "C": lambda n: n + 1, "D": lambda n: 2 * n - 2}
        exceptional = {("E", 6): 12, ("E", 7): 18, ("E", 8): 30, ("F", 4): 9, ("G", 2): 4}

        def h_vee(t):
            return exceptional.get(tuple(t)) or classical[t.family](t.rank)

        cached, read = embed._critical_levels, set()
        monkeypatch.setattr(embed, "_critical_levels", lambda f: read.add(f) or cached(f))
        table2_rows()
        global_report(load_catalog())
        assert len(read) > 30
        for factors in read:
            levels = cached(factors)
            assert levels is cached(factors)
            assert levels == tuple(Fraction(-h_vee(t)) / j for t, j in factors)

    @pytest.mark.parametrize("index, shown", [(0, "0"), (Fraction(-1, 2), "-1/2")])
    def test_non_positive_index_keeps_its_message(self, index, shown):
        with pytest.raises(LieError) as info:
            SubalgebraSpec(((AlgebraType("A", 1), index),))
        assert str(info.value) == f"embedding index must be positive, got {shown} for A1"

    def test_spec_and_case_are_immutable(self):
        case = resolve_case("G2-in-B3")
        for obj, field in ((case.sub, "label"), (case, "level")):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                obj.extra = 1
        assert case.sub.label == "G2-in-B3" and case.level == -2

    def test_cases_compare_by_value(self):
        # NamedTuples: equal fields make equal cases, and a case holding a
        # dict-valued Decomposition is unhashable.
        assert resolve_case("spso:1,3") == resolve_case("spso:1,3")
        assert resolve_case("spso:1,3") != resolve_case("spso:1,4")
        with pytest.raises(TypeError):
            hash(resolve_case("spso:1,3"))


class TestBranchingSoundness:
    def test_g2_in_b3_branching_restricts_adjoint(self):
        # dim check: 21 = 14 + 7 with p the 7-dimensional module
        case = resolve_case("G2-in-B3")
        (comp, mult), = case.p_components.components.items()
        assert mult == 1
        g2 = build_algebra("G2")
        assert freudenthal_weights(g2, comp[0]).total() == 7

    def test_p_weights_belong_to_listed_factors(self):
        case = dual_pair_branching("slsl", 2, 4)
        ranks = [t.rank for t, _ in case.sub.factors]
        for comp in case.p_components.components:
            assert [len(w) for w in comp] == ranks


class TestVerifyAdjointBranching:
    """A stated branching is checked by comparing characters; the peel runs
    only to explain a mismatch."""

    A1, A2, C2 = build_algebra("A1"), build_algebra("A2"), build_algebra("C2")
    A5, D8 = AlgebraType.parse("A5"), AlgebraType.parse("D8")

    def test_true_branchings_verify(self):
        # slsl:2,3 and spsp:2,2, as the dual-pair constructions state them
        embed._verify_adjoint_branching(
            (self.A1, self.A2), self.A5, [((1,), (1, 0))], {((2,), (1, 1)): 1}
        )
        embed._verify_adjoint_branching(
            (self.C2, self.C2), self.D8, [((1, 0), (1, 0))],
            {((2, 0), (0, 1)): 1, ((0, 1), (2, 0)): 1},
        )

    @pytest.mark.parametrize(
        "algs, ambient, module, p_components, message",
        [
            (
                # slsl:2,3 with its 24-dimensional p swapped for L(23) (x) 1
                ("A1", "A2"), A5, [((1,), (1, 0))], {((23,), (0, 0)): 1},
                "stated branching disagrees with the recomputed decomposition: "
                "derived {((2,), (1, 1)): 1, ((0,), (1, 1)): 1, ((2,), (0, 0)): 1}, "
                "stated {((2,), (0, 0)): 1, ((0,), (1, 1)): 1, ((23,), (0, 0)): 1}",
            ),
            (
                # spsp:2,2 with (theta, omega_2) swapped for (omega_2, theta)
                ("C2", "C2"), D8, [((1, 0), (1, 0))], {((0, 1), (2, 0)): 2},
                "stated branching disagrees with the recomputed decomposition: "
                "derived {((2, 0), (0, 1)): 1, ((0, 1), (2, 0)): 1, ((2, 0), (0, 0)): 1, "
                "((0, 0), (2, 0)): 1}, "
                "stated {((2, 0), (0, 0)): 1, ((0, 0), (2, 0)): 1, ((0, 1), (2, 0)): 2}",
            ),
        ],
        ids=["slsl:2,3", "spsp:2,2"],
    )
    def test_swapped_component_names_both_decompositions(
        self, algs, ambient, module, p_components, message
    ):
        algs = tuple(build_algebra(t) for t in algs)
        with pytest.raises(LieError) as info:
            embed._verify_adjoint_branching(algs, ambient, module, p_components)
        assert str(info.value) == message

    def test_non_character_multiset_is_rejected(self, monkeypatch):
        # The stated A2 adjoint plus omega_1 is larger than the restricted
        # adjoint, whose mismatch-path rebuild reaches the peel swapped for
        # {(1, 0): 1, (0, 0): 1}, no character.
        peel = embed.decompose_weight_system
        monkeypatch.setattr(
            embed, "decompose_weight_system", lambda algs, ws: peel(algs, {(1, 0): 1, (0, 0): 1})
        )
        with pytest.raises(NotACharacter):
            embed._verify_adjoint_branching((self.A2,), self.A2.type, [((1, 0),)], {((1, 0),): 1})

    @pytest.mark.parametrize("family", DUAL_PAIR_FAMILIES)
    def test_dominant_check_matches_tuple_oracle_on_grid(self, family):
        # Every valid cell with n, m <= 6, as stated, with one same-dimension
        # swap in p, and with one p component dropped: the dominant-weight
        # check and the coordinate-tuple oracle accept the stated branching
        # and reject both mutants with the same error.  The check is called
        # directly, so the dimension identity cannot reject the dropped
        # component first.  On every CC cell, and on the OO cells with n or m
        # even, p = V1 (x) V2 has no weight at a dominant weight of k's
        # adjoints, so only the size condition rejects that mutant.
        def verdict(check, *args):
            try:
                return check(*args)
            except LieError as exc:
                return type(exc).__name__, str(exc)

        for n, m in grid_cells(family):
            algs, ambient, module, p = verify_arguments(family, n, m)
            assert verdict(embed._verify_adjoint_branching, algs, ambient, module, p) is None
            assert verdict(tuple_verify_adjoint_branching, algs, ambient, module, p) is None
            swapped = swap_mutant(algs, p)
            assert sum(product_dim(algs, c) * k for c, k in swapped.items()) == sum(
                product_dim(algs, c) * k for c, k in p.items()
            )
            dropped = Counter(p)
            dropped[next(iter(p))] -= 1
            for mutant in (swapped, dict(+dropped)):
                found = verdict(embed._verify_adjoint_branching, algs, ambient, module, mutant)
                oracle = verdict(tuple_verify_adjoint_branching, algs, ambient, module, mutant)
                assert found == oracle
                assert found[0] == "LieError", (family, n, m, found)

    def test_each_weight_is_validated_once_per_check(self):
        # Every (component, slot) weight of V and of k (+) p passes
        # _check_dominant once, in the size pass before any weight is built.
        algs, ambient, module, p = verify_arguments("spsp", 6, 6)
        zero = (0,) * 6
        adjoints = [(algs[0].theta, zero), (zero, algs[1].theta)]
        with mock.patch.object(reps, "_check_dominant", wraps=reps._check_dominant) as spy:
            embed._verify_adjoint_branching(algs, ambient, module, p)
        validated = Counter((call.args[0], tuple(call.args[1])) for call in spy.call_args_list)
        assert validated == Counter(
            (alg, lam) for comp in [*module, *adjoints, *p] for alg, lam in zip(algs, comp)
        )

    def test_every_grid_cell_is_checked_when_built(self):
        # Each of the 188 grid cells checks its branching once; none is
        # skipped for its size.
        check = embed._verify_adjoint_branching
        with mock.patch.object(embed, "_verify_adjoint_branching", wraps=check) as spy:
            cells = [
                dual_pair_branching(f, n, m) for f in DUAL_PAIR_FAMILIES for n, m in grid_cells(f)
            ]
        assert len(cells) == spy.call_count == 188
