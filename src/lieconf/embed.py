"""Semisimple subalgebras of simple Lie algebras and their adjoint branchings.

A :class:`BranchingCase` records an ambient algebra, the simple factors of a
subalgebra k (each with its embedding index), and the decomposition of the
orthocomplement p of k inside the ambient adjoint module.  Cases come from
three sources: the classical dual-pair constructions built in code
(:func:`dual_pair_branching`), a handful of single-factor constructions, and
a JSON catalog of exceptional cases shipped with the package
(:func:`load_catalog`).

Every dual pair comes from one table of classical factors and three rules
for p: adj1 (x) adj2 for sl(V1) x sl(V2), adj1 (x) sq2 + sq1 (x) adj2 for the
other tensor pairs V = V1 (x) V2 (sq the factor's other square of V less the
trivial summand), and V1 (x) V2 for the direct sums V = V1 (+) V2.  Every
built-in case derives its embedding indices from the restriction of V: a
slot's Dynkin index of V over the constant index of V for the ambient, so
the ambient's own tables are never built.

Every built-in case (the dual-pair families, spsl:n, G2-in-B3 and B3-in-D4)
states the restriction of a faithful ambient module V.  Its candidate
levels need the subalgebra alone, which :func:`resolve_levels` reads
without building any weight of V or p.  Every case that is built
(:func:`dual_pair_branching`, :func:`resolve_case`) has its branching
checked: the adjoint restricted through V (V (x) V* less 1, or the
symmetric or exterior square of V) must have the summed characters of
k (+) p, which holds exactly when the stated components are the
decomposition, irreducible characters being linearly independent.  Both
are Weyl-invariant, so they are compared by size and at the dominant
weights of k (+) p alone, the adjoint's multiplicities counted from the
weights of V; the peel-off runs only to explain a mismatch.
A case whose adjoint, or any single component of V or of k (+) p, has
dimension above MAX_MODULE_DIM is refused with SizeError before any weight
of it is built.
Every case is additionally required to satisfy the dimension identity
dim(ambient) = sum dim(factors) + dim(p).
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import DUAL_PAIR_FAMILIES
from .liealg import (
    AlgebraType,
    Coords,
    LieError,
    SimpleAlgebra,
    build_algebra,
    fundamental,
    zero_weight,
)
from .reps import (
    Decomposition,
    _check_dim,
    _weight_system,
    casimir,
    decompose_weight_system,
    dynkin_index,
    product_dim,
    weyl_dim,
)
from .surd import parse_rational

__all__ = [
    "SubalgebraSpec",
    "BranchingCase",
    "dual_pair_branching",
    "embedding_index",
    "defining_weight",
    "load_catalog",
    "resolve_case",
    "resolve_levels",
    "builtin_labels",
    "DUAL_PAIR_FAMILIES",
]


# ---------------------------------------------------------------------------
# core types


class _SubalgebraSpecFields(NamedTuple):
    factors: Tuple[Tuple[AlgebraType, Fraction], ...]
    label: str = ""
    groups: Tuple[Tuple[int, ...], ...] = ()


@lru_cache(maxsize=None)
def _critical_levels(factors: Tuple[Tuple[AlgebraType, Fraction], ...]) -> Tuple[Fraction, ...]:
    # One tuple per distinct factor list: a classification run builds the
    # same few specs many times and reads each one's levels several times.
    return tuple(Fraction(-build_algebra(t).dual_coxeter) / j for t, j in factors)


class SubalgebraSpec(_SubalgebraSpecFields):
    """Simple factors of a semisimple subalgebra, each with its embedding index.

    ``groups`` partitions the factor slots into physical factors: an so(4)
    factor is presented as two sl(2) slots but is a single group.  The
    default is one group per slot.  The slots of one group must share a
    critical level (see :attr:`critical_levels`).
    """

    __slots__ = ()

    def __new__(
        cls,
        factors: Tuple[Tuple[AlgebraType, Fraction], ...],
        label: str = "",
        groups: Optional[Tuple[Tuple[int, ...], ...]] = None,
    ) -> "SubalgebraSpec":
        for typ, idx in factors:
            if idx <= 0:
                raise LieError(f"embedding index must be positive, got {idx} for {typ}")
        if groups is None:
            groups = tuple((i,) for i in range(len(factors)))
        if not all(groups) or sorted(chain.from_iterable(groups)) != list(range(len(factors))):
            raise LieError("groups must partition the factor slots")
        spec = super().__new__(cls, factors, label, groups)
        levels = spec.critical_levels
        if any(levels[i] != levels[group[0]] for group in groups for i in group):
            raise LieError("slots of one physical factor must share a critical level")
        return spec

    @classmethod
    def _make(cls, iterable) -> "SubalgebraSpec":
        # _replace builds through _make: both keep the checks of __new__.
        return cls(*iterable)

    @property
    def algebras(self) -> Tuple[SimpleAlgebra, ...]:
        return tuple(build_algebra(t) for t, _ in self.factors)

    @property
    def indices(self) -> Tuple[Fraction, ...]:
        return tuple(idx for _, idx in self.factors)

    @property
    def critical_levels(self) -> Tuple[Fraction, ...]:
        """Per slot, the ambient level k = -h_vee / j at which it is critical."""
        return _critical_levels(self.factors)

    def describe(self) -> str:
        return " x ".join(str(typ) if idx == 1 else f"{typ}^{idx}" for typ, idx in self.factors)


class BranchingCase(NamedTuple):
    """An adjoint branching g = (+)_j k_j (+) p with embedding data."""

    ambient: AlgebraType
    sub: SubalgebraSpec
    p_components: Decomposition
    level: Optional[Fraction] = None

    @property
    def label(self) -> str:
        return self.sub.label

    def check_dimensions(self) -> None:
        total = sum(alg.dim for alg in self.sub.algebras) + self.p_components.dim()
        ambient_dim = build_algebra(self.ambient).dim
        if total != ambient_dim:
            raise LieError(
                f"case {self.label or self.sub.describe()!r}: factor and p dimensions "
                f"sum to {total}, ambient {self.ambient} has dimension {ambient_dim}"
            )


# ---------------------------------------------------------------------------
# classical factors
#
# A factor sl(V), sp(V) or so(V) of a dual pair enters as one or more simple
# slots: so(3) is one A1 slot acting on V through its adjoint, so(4) two A1
# slots with V = C^2 (x) C^2, and sp(2) one A1 slot.  Each factor lists its
# slot types, the weights of V on them, and its other square of V less the
# trivial summand: S^2 V for so, Lambda^2 V for sp (nothing for sp(2)),
# nothing for sl.  Its adjoint has one component per slot, theta there and
# trivial elsewhere.

_A1 = AlgebraType("A", 1)


class _Factor(NamedTuple):
    types: Tuple[AlgebraType, ...]
    vector: Tuple[Coords, ...]
    square: Tuple[Tuple[Coords, ...], ...]

    @property
    def zeros(self) -> Tuple[Coords, ...]:
        return tuple((0,) * t.rank for t in self.types)

    @property
    def adjoint(self) -> List[Tuple[Coords, ...]]:
        z = self.zeros
        return [z[:s] + (build_algebra(t).theta,) + z[s + 1:] for s, t in enumerate(self.types)]


def _classical_type(group: str, size: int) -> AlgebraType:
    """sl(size), sp(size) or so(size) as a simple type; sp(2) is A1, so(6) is D3."""
    if group == "sl":
        return AlgebraType("A", size - 1)
    if group == "sp":
        return AlgebraType("C", size // 2) if size > 2 else _A1
    return AlgebraType("B", (size - 1) // 2) if size % 2 else AlgebraType("D", size // 2)


def _classical_factor(group: str, size: int) -> _Factor:
    """The factor sl(size), sp(size) or so(size) acting on V = C^size."""
    if group == "so" and size < 5:
        if size < 3:
            raise LieError(f"an orthogonal factor so({size}) is not semisimple")
        vector = ((2,),) if size == 3 else ((1,), (1,))
        types = (_A1,) * len(vector)
    else:
        alg = build_algebra(_classical_type(group, size))
        alg._table_rank()  # refused before a weight of that rank is built
        types, vector = (alg.type,), (fundamental(alg, 1),)
    if group == "so":
        square = (tuple(tuple(2 * x for x in w) for w in vector),)
    elif group == "sp" and size > 2:
        square = ((fundamental(build_algebra(types[0]), 2),),)
    else:
        square = ()
    return _Factor(types, vector, square)


def defining_weight(alg: SimpleAlgebra) -> Coords:
    """Highest weight of the defining module for classical types, adjoint otherwise."""
    if alg.family in "ABCD":
        return fundamental(alg, 1)
    return alg.theta


# ---------------------------------------------------------------------------
# verification of stated branchings on dominant weights


def _verify_adjoint_branching(
    algs: Sequence[SimpleAlgebra],
    ambient: AlgebraType,
    module_components: Sequence[Tuple[Coords, ...]],
    p_components: Dict[Tuple[Coords, ...], int],
) -> None:
    """Check a stated adjoint branching by character equality.

    The adjoint restricted through the faithful module V must have the summed
    characters of each adjoint of k once and p with its multiplicities.  Both
    are Weyl-invariant, so they are equal exactly when they have the same
    size and the same multiplicity at each dominant weight of k (+) p: the
    adjoint then matches k (+) p at every weight conjugate to one of those,
    and the equal sizes leave it no other weight.  The peel names the
    derived components on a mismatch.  Raises `SizeError` when the adjoint
    or a module to be built exceeds `MAX_MODULE_DIM`, and `LieError` on a
    mismatch.
    """
    _check_dim("adjoint dimension", build_algebra(ambient).dim)
    expected = Counter(
        tuple(alg.theta if j == slot else zero_weight(a) for j, a in enumerate(algs))
        for slot, alg in enumerate(algs)
    )
    expected.update(p_components)
    # Every module passes the size cap before any of its weights is built.
    dims = {comp: product_dim(algs, comp) for comp in chain(module_components, expected)}
    for dim in dims.values():
        _check_dim("product dimension", dim)

    def weights(components: Dict[Tuple[Coords, ...], int], dominant: bool) -> Counter:
        # The products of the factors' weights, or of their dominant ones alone.
        out: Counter = Counter()
        for comp, mult in components.items():
            acc: List[Tuple[Coords, int]] = [((), mult)]
            for alg, lam in zip(algs, comp):
                ws = [(w, k) for w, k in _weight_system(alg, lam).items()
                      if not dominant or min(w) >= 0]
                acc = [(nu + w, m * k) for nu, m in acc for w, k in ws]
            out.update(dict(acc))
        return out

    v = weights(Counter(module_components), False)
    family, n = ambient.family, v.total()

    def adjoint(pairs: int, diag: int, trivial: int) -> int:
        # The adjoint over V from the ordered pairs of V weights, the pairs of
        # a weight with itself and the trivial summand: V (x) V* less 1 for sl,
        # S^2 V for sp, Lambda^2 V for so.
        if family == "A":
            return pairs - trivial
        return (pairs + diag if family == "C" else pairs - diag) // 2

    def at(nu: Coords, pairs: int) -> int:
        diag = 0 if any(x % 2 for x in nu) else v.get(tuple(x // 2 for x in nu), 0)
        return adjoint(pairs, diag, not any(nu))

    # k (+) p at its dominant weights, the products of its factors' ones,
    # against the adjoint at each from the pairs of V weights differing by
    # it.  V is self-dual for sp and so: these are the pairs summing to it.
    char = weights(expected, True)
    if adjoint(n * n, n, 1) != sum(m * dims[comp] for comp, m in expected.items()) or any(
        at(nu, sum(m * v.get(tuple(map(sub, mu, nu)), 0) for mu, m in v.items())) != m
        for nu, m in char.items()
    ):
        pairs: Counter = Counter()
        for mu, m in v.items():
            for nu, k in v.items():
                pairs[tuple(map(sub, mu, nu))] += m * k
        derived = decompose_weight_system(algs, {nu: at(nu, c) for nu, c in pairs.items()})
        raise LieError(
            "stated branching disagrees with the recomputed decomposition: "
            f"derived {derived.components}, stated {dict(expected)}"
        )


# An unchecked case and the restriction of V that checks it.
_Parts = Tuple[BranchingCase, Sequence[Tuple[Coords, ...]]]

# Dynkin index of the defining module of an sl, so or sp ambient.
_DEFINING_INDEX = {"A": Fraction(1, 2), "B": Fraction(1), "C": Fraction(1, 2), "D": Fraction(1)}


def _case_parts(
    ambient: AlgebraType,
    types: Sequence[AlgebraType],
    p_list: Sequence[Tuple[Coords, ...]],
    label: str,
    module_components: Sequence[Tuple[Coords, ...]],
    level: Optional[Fraction] = None,
    groups: Optional[Tuple[Tuple[int, ...], ...]] = None,
) -> _Parts:
    """A case from the restriction of the ambient's defining module V, its
    branching not yet checked, and that restriction.

    Each slot's embedding index is its Dynkin index of V, each component of V
    counted with the dimension of its other slots, over the index of V for
    the ambient, a constant: the ambient's own tables are never built.  The
    index of L(lam) is dim L(lam) C2(lam) / (2 dim k), so a slot's share of
    a component is the component's dimension times C2 / (2 dim k).
    """
    algs = tuple(map(build_algebra, types))
    dims = [product_dim(algs, comp) for comp in module_components]
    indices = [
        sum(d * casimir(alg, comp[i]) for d, comp in zip(dims, module_components))
        / (2 * alg.dim * _DEFINING_INDEX[ambient.family])
        for i, alg in enumerate(algs)
    ]
    sub = SubalgebraSpec(tuple(zip(types, indices)), label, groups)
    case = BranchingCase(ambient, sub, Decomposition(algs, dict(Counter(p_list))), level)
    return case, module_components


def _checked(case: BranchingCase, module: Sequence[Tuple[Coords, ...]]) -> BranchingCase:
    """``case`` once its dimensions and its stated branching through V hold."""
    case.check_dimensions()
    p = case.p_components
    _verify_adjoint_branching(p.algebras, case.ambient, module, p.components)
    return case


# ---------------------------------------------------------------------------
# dual-pair constructions

# family: (group of V1 = C^n, group of V2 = C^m, V = V1 (x) V2 or V1 (+) V2);
# sp(2n) is sp(C^2n).  BB is OO on so(2n+1) and so(2m+1).
_FAMILY_RULES = {
    "slsl": ("sl", "sl", "tensor"),
    "spsp": ("sp", "sp", "tensor"),
    "soso": ("so", "so", "tensor"),
    "spso": ("sp", "so", "tensor"),
    "CC": ("sp", "sp", "sum"),
    "OO": ("so", "so", "sum"),
}


def dual_pair_branching(family: str, n: int, m: int) -> BranchingCase:
    """Adjoint branching for a classical dual pair or direct-sum pair.

    p follows the three rules of the module docstring.  The ambient of a
    tensor-product pair (V = V1 (x) V2) is sl, so or sp as V carries no form,
    a symmetric or an alternating one:
      slsl: sl(n) x sl(m) in sl(nm), n, m >= 2
      spsp: sp(2n) x sp(2m) in so(4nm)
      soso: so(n) x so(m) in so(nm), n, m >= 3
      spso: sp(2n) x so(m) in sp(2nm), m >= 3
    Direct-sum pairs (V = V1 (+) V2):
      BB: so(2n+1) x so(2m+1) in so(2(n+m+1))
      CC: sp(2n) x sp(2m) in sp(2(n+m))
      OO: so(n) x so(m) in so(n+m), n, m >= 3 (any parity; BB delegates here)
    """
    return _checked(*_pair_parts(family, n, m))


def _pair_parts(family: str, n: int, m: int, label: str = "") -> _Parts:
    if family not in DUAL_PAIR_FAMILIES:
        raise LieError(f"unknown dual-pair family {family!r}")
    if n < 1 or m < 1:
        raise LieError("dual-pair parameters must be positive")
    label = label or f"{family}:{n},{m}"
    if family == "BB":
        return _pair_parts("OO", 2 * n + 1, 2 * m + 1, label)
    if family == "slsl" and (n < 2 or m < 2):
        raise LieError("slsl needs n, m >= 2")
    if family == "spsp" and n * m < 2:
        raise LieError("spsp needs so(4nm) of rank >= 3")

    group1, group2, kind = _FAMILY_RULES[family]
    size1 = 2 * n if group1 == "sp" else n
    size2 = 2 * m if group2 == "sp" else m
    f1, f2 = _classical_factor(group1, size1), _classical_factor(group2, size2)
    if kind == "sum":
        ambient = _classical_type(group1, size1 + size2)
        p_list = [f1.vector + f2.vector]
        module = [f1.vector + f2.zeros, f1.zeros + f2.vector]
    else:
        group = "sl" if group1 == "sl" else "so" if group1 == group2 else "sp"
        ambient = _classical_type(group, size1 * size2)
        if group == "sl":
            p_list = [a1 + a2 for a1 in f1.adjoint for a2 in f2.adjoint]
        else:
            p_list = [a + s for a in f1.adjoint for s in f2.square]
            p_list += [s + a for s in f1.square for a in f2.adjoint]
        module = [f1.vector + f2.vector]
    k1, k2 = len(f1.types), len(f2.types)
    groups = (tuple(range(k1)), tuple(range(k1, k1 + k2)))
    return _case_parts(ambient, f1.types + f2.types, p_list, label, module, groups=groups)


# ---------------------------------------------------------------------------
# embedding index


def embedding_index(
    ambient: Union[SimpleAlgebra, AlgebraType, str],
    sub_factor: Union[SimpleAlgebra, AlgebraType, str],
    restriction: Union[Decomposition, Dict[Coords, int]],
) -> Fraction:
    """Dynkin index of an embedding from the restriction of a faithful module.

    ``restriction`` gives the decomposition of the ambient module
    :func:`defining_weight` (the defining module of a classical ambient, the
    adjoint otherwise) as a ``sub_factor``-module (trivial summands allowed,
    weight 0).  The index is the ratio of total normalized Dynkin indices,
    sub over ambient.
    """
    amb = build_algebra(ambient)
    sub = build_algebra(sub_factor)
    module = defining_weight(amb)
    if isinstance(restriction, Decomposition):
        comps = {key[0]: mult for key, mult in restriction.components.items()}
    else:
        comps = dict(restriction)
    if not comps:
        raise LieError("restriction must contain at least one component")
    restricted_dim = sum(mult * weyl_dim(sub, w) for w, mult in comps.items())
    module_dim = weyl_dim(amb, module)
    if restricted_dim != module_dim:
        raise LieError(
            f"restriction has dimension {restricted_dim}, "
            f"ambient module has dimension {module_dim}"
        )
    total = sum(
        (mult * dynkin_index(sub, w) for w, mult in comps.items()), Fraction(0)
    )
    return total / dynkin_index(amb, module)


# ---------------------------------------------------------------------------
# the shipped catalog

# Read with a plain open: importlib.resources would load pathlib, zipfile and
# tempfile on every command that loads the catalog.
_SHIPPED_CATALOG = os.path.join(os.path.dirname(__file__), "data", "exceptional.json")


def _parse_weight_rows(label: str, factors: Sequence[SimpleAlgebra], rows) -> Tuple[Coords, ...]:
    if not isinstance(rows, list) or len(rows) != len(factors):
        raise LieError(f"case {label!r}: expected one weight array per factor")
    out = []
    for alg, row in zip(factors, rows):
        if (
            not isinstance(row, list)
            or len(row) != alg.rank
            or not all(type(x) is int and x >= 0 for x in row)
        ):
            raise LieError(
                f"case {label!r}: weight {row!r} is not a dominant "
                f"integral weight of {alg.type} in omega coordinates"
            )
        out.append(tuple(row))
    return tuple(out)


def _require_string(label: str, field: str, value) -> None:
    if not isinstance(value, str):
        raise LieError(f"case {label!r}: {field} must be a JSON string, got {value!r}")


def _reject_unknown(label: str, where: str, item: dict, known: Tuple[str, ...]) -> None:
    for field in item:
        if field not in known:
            raise LieError(f"case {label!r}: unknown {where} {field!r}")


def _case_from_document(entry) -> BranchingCase:
    if not isinstance(entry, dict):
        raise LieError("catalog entries must be objects")
    label = entry.get("label")
    if not isinstance(label, str) or not label:
        raise LieError("catalog entry lacks a label")
    required = {"label", "ambient", "factors", "level", "p"}
    missing = required - set(entry)
    if missing:
        raise LieError(f"case {label!r}: missing fields {sorted(missing)}")
    _reject_unknown(label, "field", entry, ("label", "ambient", "factors", "level", "p", "source"))
    if "source" in entry:
        _require_string(label, "source", entry["source"])
    _require_string(label, "ambient", entry["ambient"])
    try:
        ambient = AlgebraType.parse(entry["ambient"])
    except LieError as exc:
        raise LieError(f"case {label!r}: bad ambient: {exc}") from None
    raw_factors = entry["factors"]
    if not isinstance(raw_factors, list) or not raw_factors:
        raise LieError(f"case {label!r}: factors must be a non-empty list")
    factors = []
    for item in raw_factors:
        if not isinstance(item, dict) or "type" not in item or "index" not in item:
            raise LieError(f"case {label!r}: each factor needs 'type' and 'index'")
        _reject_unknown(label, "factor field", item, ("type", "index"))
        _require_string(label, "factor type", item["type"])
        _require_string(label, "factor index", item["index"])
        try:
            typ = AlgebraType.parse(item["type"])
            idx = parse_rational(item["index"])
        except ValueError as exc:
            raise LieError(f"case {label!r}: bad factor: {exc}") from None
        factors.append((typ, idx))
    _require_string(label, "level", entry["level"])
    try:
        level = parse_rational(entry["level"])
    except ValueError as exc:
        raise LieError(f"case {label!r}: bad level: {exc}") from None
    try:
        sub = SubalgebraSpec(tuple(factors), label)
    except LieError as exc:
        raise LieError(f"case {label!r}: bad factor: {exc}") from None
    algs = sub.algebras
    raw_p = entry["p"]
    if not isinstance(raw_p, list) or not raw_p:
        raise LieError(f"case {label!r}: p must be a non-empty list of components")
    components: Dict[Tuple[Coords, ...], int] = {}
    for item in raw_p:
        if not isinstance(item, dict) or "weights" not in item:
            raise LieError(f"case {label!r}: each p component needs 'weights'")
        _reject_unknown(label, "p component field", item, ("weights", "mult"))
        mult = item.get("mult", 1)
        if type(mult) is not int or mult < 1:
            raise LieError(f"case {label!r}: bad multiplicity {mult!r}")
        key = _parse_weight_rows(label, algs, item["weights"])
        components[key] = components.get(key, 0) + mult
    case = BranchingCase(ambient, sub, Decomposition(algs, components), level)
    case.check_dimensions()
    return case


def load_catalog(source=None) -> Dict[str, BranchingCase]:
    """Load and validate a catalog document (default: the shipped catalog).

    Returns the cases keyed by label, in document order.  ``source`` may be
    a parsed JSON array or the path of a JSON file; a path is always opened,
    whatever its name.  Any schema violation, duplicate label, or dimension
    mismatch rejects the whole document, naming the offending label.
    """
    if isinstance(source, (list, tuple)):
        document = list(source)
    else:
        path = _SHIPPED_CATALOG if source is None else source
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    if not isinstance(document, list):
        raise LieError("catalog document must be a JSON array of cases")
    catalog: Dict[str, BranchingCase] = {}
    for entry in document:
        case = _case_from_document(entry)
        if case.label in catalog:
            raise LieError(f"duplicate label {case.label!r}")
        catalog[case.label] = case
    return catalog


# ---------------------------------------------------------------------------
# label resolution for the command line and the global report

_FAMILY_LABEL = re.compile(rf"^({'|'.join(DUAL_PAIR_FAMILIES)}):(\d+),(\d+)$")
_SPSL_LABEL = re.compile(r"^spsl:(\d+)$")
# label: (ambient, factor, highest weight of p, of the restricted V, level)
_FIXED_CASES = {
    "G2-in-B3": ("B3", "G2", (1, 0), (1, 0), -2),
    "B3-in-D4": ("D4", "B3", (1, 0, 0), (0, 0, 1), -2),
}


def _builtin_parts(label: str) -> _Parts:
    """The one parser of built-in labels: the case's parts, as `_case_parts` gives them."""
    if label in _FIXED_CASES:
        ambient, factor, p, v, level = _FIXED_CASES[label]
        return _case_parts(
            AlgebraType.parse(ambient), [AlgebraType.parse(factor)], [(p,)], label, [(v,)],
            level=Fraction(level),
        )
    match = _SPSL_LABEL.match(label)
    if match:
        # sp(2n) in sl(2n): p is the other square of sp(2n), Lambda^2 V less 1.
        n = int(match.group(1))
        if n < 2:
            raise LieError("spsl needs n >= 2")
        factor = _classical_factor("sp", 2 * n)
        return _case_parts(
            AlgebraType("A", 2 * n - 1), factor.types, factor.square, f"spsl:{n}",
            [factor.vector], level=Fraction(-1),
        )
    match = _FAMILY_LABEL.match(label)
    if match:
        return _pair_parts(match.group(1), int(match.group(2)), int(match.group(3)))
    raise LieError(
        f"unknown case label {label!r}; known forms: a catalog label, "
        "'G2-in-B3', 'B3-in-D4', 'spsl:n', or 'family:n,m' with family in "
        f"{DUAL_PAIR_FAMILIES}"
    )


def resolve_case(
    label: str, catalog: Optional[Dict[str, BranchingCase]] = None
) -> BranchingCase:
    """Resolve a built-in case label to a BranchingCase.

    Catalog labels win; otherwise family labels like ``spso:2,3`` or
    ``spsl:3`` and the fixed labels ``G2-in-B3`` / ``B3-in-D4`` construct the
    case on the fly and check its branching.
    """
    if catalog is None:
        catalog = load_catalog()
    return catalog[label] if label in catalog else _checked(*_builtin_parts(label))


def resolve_levels(
    label: str, catalog: Optional[Dict[str, BranchingCase]] = None
) -> Tuple[AlgebraType, SubalgebraSpec]:
    """The ambient and subalgebra of a case label, all that its levels depend on.

    Labels resolve as in :func:`resolve_case`, but a built-in case stops at
    its stated data: it checks no branching and builds only each factor's roots
    and Weyl table (for theta and the indices), so no module size cap applies.
    """
    if catalog is None:
        catalog = load_catalog()
    case = catalog[label] if label in catalog else _builtin_parts(label)[0]
    return case.ambient, case.sub


def builtin_labels(catalog: Optional[Dict[str, BranchingCase]] = None) -> List[str]:
    if catalog is None:
        catalog = load_catalog()
    return [*catalog, *_FIXED_CASES, "spsl:<n>", "<family>:<n>,<m>"]
