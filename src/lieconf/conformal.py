"""Decision procedures for conformal embeddings at non-integrable levels.

Everything is exact: central charges and the balance criterion are evaluated
in rational (or real-quadratic) arithmetic, candidate levels are the roots of
a cleared polynomial solved by rational-root deflation plus the quadratic
formula, and the classification searches re-run the case analyses that
produce the known survivor lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .liealg import (
    AlgebraType,
    Coords,
    LieError,
    SimpleAlgebra,
    SizeError,
    build_algebra,
    zero_weight,
)
from .reps import (
    _dominant_scan,
    casimir,
    dual_weight,
    irreps_of_dim,
    tensor_decompose,
    weyl_dim,
)
from .embed import (
    BranchingCase,
    SubalgebraSpec,
    dual_pair_branching,
    load_catalog,
    resolve_case,
    resolve_levels,
)
from .surd import QuadraticNumber

__all__ = [
    "central_charge",
    "solve_levels",
    "level_flags",
    "LevelFlags",
    "Verdict",
    "verify_case",
    "APReport",
    "ap_check",
    "necessary_constants",
    "IrreducibleFinding",
    "search_so_irreducible",
    "search_sl_irreducible",
    "table1_scan",
    "A1ExclusionResult",
    "a1_exclusion_check",
    "a1_exclusion_survey",
    "EXCLUDED_CANDIDATES",
    "global_report",
    "table2_rows",
]

Rational = Union[int, Fraction]
Level = Union[int, Fraction, QuadraticNumber]

# Caps on the classification searches.  The small-index scan stops at the
# index threshold long before coordinate 100; the irreducible searches build
# B_n and C_n for every n up to the rank bound (about 0.7 s at rank 20).
MAX_SCAN_BOUND = 100
MAX_SEARCH_RANK = 20
# Cap on the level solver's trial divisions: the divisor search of a cubic
# or more needs end coefficients up to MAX_LEVEL_COEFF, and a non-square
# discriminant is factored only up to 5 * MAX_LEVEL_COEFF**2, which bounds
# any quadratic within the cap.  Every shipped, catalog and Table-2 equation
# is a quadratic at most.  Worst cases: 504-divisor ends with no rational root
# take 0.06 s at degree 4, 0.2 s at degree 31; a prime near 5 * 2**48, 0.01 s.
MAX_LEVEL_COEFF = 2**24
# Cap on the charge entries (physical factors plus the ambient): the
# polynomial build takes O(N^2) steps on integers of about N times the bits of
# the poles' common denominator, and runs before either trial division.
# Shipped, benchmarked and tested cases have at most five entries; the worst
# case under the cap (32 entries, 40-bit indices) takes about 0.15 s.
MAX_LEVEL_ENTRIES = 32


def _as_number(k: Level) -> Union[Fraction, QuadraticNumber]:
    """Normalize a level to a Fraction when rational, QuadraticNumber otherwise."""
    if isinstance(k, QuadraticNumber):
        return k.to_fraction() if k.is_rational else k
    return Fraction(k)


# ---------------------------------------------------------------------------
# central charge


def central_charge(alg: Union[SimpleAlgebra, AlgebraType, str], k: Level):
    """Sugawara central charge k dim(g) / (k + h_vee), exact."""
    alg = build_algebra(alg)
    k = _as_number(k)
    den = k + alg.dual_coxeter
    if not den:
        raise LieError(
            f"level {k} is critical for {alg.type}: k = -h_vee = -{alg.dual_coxeter}"
        )
    return k * alg.dim / den


# ---------------------------------------------------------------------------
# candidate-level solving
#
# Matching central charges, sum_j c_{j_j k}(k_j) = c_k(g), clears to a
# polynomial once multiplied by every factor's (k - k_j), k_j its critical
# level from SubalgebraSpec.critical_levels, and the ambient's (k + h_g).  The
# always-present root k = 0 is removed; rational roots are deflated while the
# degree is 3 or more, and what is left is solved in closed form.
# Linear forms are kept once per *physical* factor, a group of
# SubalgebraSpec.groups (an so(4) factor contributes a single form even though
# it is presented as two sl(2) slots; its slots share a critical level), so a
# coincidence of candidate root and critical level survives in the output
# exactly when two distinct factors share the form.


def _scaled_value(ints: Sequence[int], p: int, q: int) -> int:
    """q**n * f(p/q) for the degree-n integer polynomial f, constant first."""
    acc, q_power = 0, 1
    for c in reversed(ints):
        acc = acc * p + c * q_power
        q_power *= q
    return acc


def _deflate(ints: Sequence[int], p: int, q: int) -> List[int]:
    """Divide by (q k - p) for a root p/q in lowest terms; constant first.

    The quotient has integer coefficients by Gauss's lemma, so each step
    divides exactly.
    """
    out = [0] * (len(ints) - 1)
    carry = 0
    for i in range(len(ints) - 1, 0, -1):
        carry = (ints[i] + p * carry) // q
        out[i - 1] = carry
    return out


def _divisors(n: int) -> List[int]:
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _real_roots(ints: Sequence[int]) -> List[QuadraticNumber]:
    """Real roots with multiplicity of a non-zero integer polynomial, constant first.

    Zero roots come off first.  While the degree is 3 or more, rational roots
    p/q are deflated, p dividing the constant and q the leading coefficient
    (the rational root theorem), else LieError; the rest is solved in closed
    form.  SizeError comes before a trial division above MAX_LEVEL_COEFF.
    """
    zeros = next(i for i, c in enumerate(ints) if c)
    content = gcd(*ints)
    coeffs = [c // content for c in ints[zeros:]]
    roots = [QuadraticNumber(0)] * zeros
    while len(coeffs) > 3:
        ends = max(abs(coeffs[0]), abs(coeffs[-1]))
        if ends > MAX_LEVEL_COEFF:
            raise SizeError(
                f"cleared polynomial of degree {len(coeffs) - 1} has an end coefficient of "
                f"{ends.bit_length()} bits; its divisor search exceeds the cap "
                f"MAX_LEVEL_COEFF = 2**{MAX_LEVEL_COEFF.bit_length() - 1}")
        leading = _divisors(coeffs[-1])
        found = next(
            (
                (p, q)
                for p_abs in _divisors(coeffs[0])
                for q in leading
                if gcd(p_abs, q) == 1
                for p in (p_abs, -p_abs)
                if _scaled_value(coeffs, p, q) == 0
            ),
            None,
        )
        if found is None:
            raise LieError(
                f"cleared polynomial keeps degree {len(coeffs) - 1} after rational-root "
                "removal; roots are not expressible in quadratic surds")
        roots.append(QuadraticNumber(Fraction(*found)))
        coeffs = _deflate(coeffs, *found)
    if len(coeffs) == 2:
        roots.append(QuadraticNumber(Fraction(-coeffs[0], coeffs[1])))
    elif len(coeffs) == 3:
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        s = isqrt(max(disc, 0))
        # A square discriminant gives rational roots; QuadraticNumber
        # extracts the square part of any other.
        surd, d = (s, 1) if s * s == disc else (1, disc)
        if d > 5 * MAX_LEVEL_COEFF**2:
            raise SizeError(
                f"cleared quadratic has a non-square discriminant of {disc.bit_length()} "
                "bits; extracting its square part exceeds the cap 5 * MAX_LEVEL_COEFF**2 = "
                f"5 * 2**{2 * (MAX_LEVEL_COEFF.bit_length() - 1)}")
        if disc >= 0:
            roots.extend(
                QuadraticNumber(Fraction(-b, 2 * a), Fraction(sign * surd, 2 * a), d)
                for sign in (1, -1))
    return roots


def _charge_entries(ambient: SimpleAlgebra, sub: SubalgebraSpec) -> List[Tuple[Fraction, int]]:
    """(pole, signed dimension) per physical factor, ambient last."""
    poles, algs = sub.critical_levels, sub.algebras
    entries = [(poles[group[0]], sum(algs[i].dim for i in group)) for group in sub.groups]
    entries.append((Fraction(-ambient.dual_coxeter), -ambient.dim))
    return entries


def _level_polynomial(entries: Sequence[Tuple[Fraction, int]]) -> List[int]:
    """Cleared coefficients, constant first, of M(k) = sum_e w_e prod_{e' != e} (k - pole_e').

    The removed overall factor k is already absorbed into the entries.  With
    the poles over one denominator D, pole_e = a_e / D,
    D^(N-1) M(k) = sum_e w_e prod_{e' != e} (D k - a_e') has integer
    coefficients; dividing them by their gcd with D^(N-1) gives M times the
    lcm of its coefficients' denominators.  Trailing zeros are dropped, so
    the zero polynomial is [].
    """
    denom = lcm(*(pole.denominator for pole, _w in entries))
    nums = [pole.numerator * (denom // pole.denominator) for pole, _w in entries]
    # Running sums over the first entries: full is their product of (D k - a),
    # total the sum over them of w_e times the product without e's own factor.
    total, full = [0], [1]
    for a, (_pole, weight) in zip(nums, entries):
        total = [
            denom * y - a * x + weight * f
            for x, y, f in zip(total + [0], [0] + total, full + [0])
        ]
        full = [denom * y - a * x for x, y in zip(full + [0], [0] + full)]
    while total and not total[-1]:
        total.pop()
    content = gcd(denom ** (len(entries) - 1), *total)
    return [c // content for c in total]


def solve_levels(
    ambient: Union[SimpleAlgebra, AlgebraType, str], sub: SubalgebraSpec
) -> List[QuadraticNumber]:
    """All non-zero candidate levels where central charges can match.

    Returns the roots, sorted by (d, p, q), of the equation
    sum_j c_{j_j k}(k_j) = c_k(g) cleared to a polynomial (the trivial root
    k = 0 removed), with one term per physical factor of ``sub.groups``.
    Roots at which a factor or the ambient algebra is critical are included;
    flag them with :func:`level_flags`.  Raises when more than a quadratic
    remains after rational-root deflation, and SizeError above
    MAX_LEVEL_ENTRIES physical factors or before a trial division above
    MAX_LEVEL_COEFF (see :func:`_real_roots`).
    """
    ambient = build_algebra(ambient)
    entries = _charge_entries(ambient, sub)
    if len(entries) > MAX_LEVEL_ENTRIES:
        raise SizeError(
            f"charge-matching equation has {len(entries)} entries (physical factors "
            f"plus the ambient); it exceeds the cap MAX_LEVEL_ENTRIES = {MAX_LEVEL_ENTRIES}")
    coeffs = _level_polynomial(entries)
    if not coeffs:
        raise LieError("charge-matching equation is identically zero")
    return sorted({r for r in _real_roots(coeffs) if r}, key=lambda s: (s.d, s.p, s.q))


class LevelFlags(NamedTuple):
    """Criticality data for one candidate level."""

    critical_factors: Tuple[int, ...]
    ambient_critical: bool

    @property
    def critical(self) -> bool:
        return bool(self.critical_factors) or self.ambient_critical


def level_flags(
    ambient: Union[SimpleAlgebra, AlgebraType, str],
    sub: SubalgebraSpec,
    k: Level,
) -> LevelFlags:
    """Which factor slots (and whether the ambient) are critical at level k."""
    k = _as_number(k)
    crit = tuple(i for i, level in enumerate(sub.critical_levels) if k == level)
    return LevelFlags(crit, k == -build_algebra(ambient).dual_coxeter)


# ---------------------------------------------------------------------------
# the balance criterion


class APReport(NamedTuple):
    """Outcome of the balance criterion at one level.

    ``per_component`` rows are (component index, left-hand side, balanced);
    the left-hand side is None when a critical factor made the component
    unevaluable.  ``all_balanced`` holds exactly when every left-hand side
    equals 1 and no factor is critical.  ``flags`` are the
    :func:`level_flags` of the level.
    """

    per_component: List[Tuple[int, Optional[Union[Fraction, QuadraticNumber]], bool]]
    all_balanced: bool
    flags: LevelFlags


def ap_check(case: BranchingCase, k: Level) -> APReport:
    """Evaluate the balance criterion for every component of p at level k.

    Component lambda balances when sum_j C_j(lambda) / (2 j_j (k - k_j)) = 1,
    summing Casimir eigenvalues over the factors at their levels j_j k, with
    k_j the slot's critical level (``SubalgebraSpec.critical_levels``).
    A critical factor (:func:`level_flags`) leaves every row unevaluated.
    """
    k = _as_number(k)
    flags = level_flags(case.ambient, case.sub, k)
    critical = flags.critical_factors
    algs, sub = case.p_components.algebras, case.sub
    denoms = [2 * j * (k - level) for j, level in zip(sub.indices, sub.critical_levels)]
    rows: List[Tuple[int, Optional[Union[Fraction, QuadraticNumber]], bool]] = []
    for idx, (comp, _mult) in enumerate(case.p_components.sorted_items()):
        if critical:
            rows.append((idx, None, False))
            continue
        lhs = sum(
            (casimir(alg, w) / den for alg, den, w in zip(algs, denoms, comp)), Fraction(0)
        )
        rows.append((idx, lhs, lhs == 1))
    all_balanced = not critical and all(balanced for _idx, _lhs, balanced in rows)
    return APReport(rows, all_balanced, flags)


# ---------------------------------------------------------------------------
# lemma constants


def necessary_constants(
    kind: str, dim_k: int, dim_v: int, sign: str = "+"
) -> Tuple[Fraction, Fraction, Fraction]:
    """The forced (k, g1, gamma) for an irreducible orthogonal, symplectic,
    or linear decomposition p = V with dim k = dim_k and dim V = dim_v.

    The balance identity gamma / (2 (k + g1)) = 1 holds by construction.
    """
    if dim_k <= 0 or dim_v <= 0:
        raise LieError("dimensions must be positive")
    if kind == "orthogonal":
        k = Fraction(-2)
        gamma = Fraction(2 * (dim_v - 4) * dim_k, dim_v * (dim_v - 1) // 2)
    elif kind == "symplectic":
        if dim_v % 2:
            raise LieError("symplectic dim V must be even")
        k = Fraction(1)
        gamma = Fraction((dim_v + 4) * dim_k, dim_v * (dim_v + 1) // 2)
    elif kind == "linear":
        if sign not in ("+", "-"):
            raise LieError("sign must be '+' or '-'")
        k = Fraction(1) if sign == "+" else Fraction(-1)
        gamma = Fraction(2 * dim_k, dim_v - 1 if sign == "+" else dim_v + 1)
    else:
        raise LieError(f"unknown kind {kind!r}")
    g1 = gamma / 2 - k
    return (k, g1, gamma)


# ---------------------------------------------------------------------------
# classification searches


class IrreducibleFinding(NamedTuple):
    algebra: AlgebraType
    weight: Coords
    dim_v: int
    copies: int


def _table1_weight(alg: SimpleAlgebra) -> Optional[Coords]:
    hits = table1_scan(alg, 2)
    if len(hits) > 1:
        raise LieError(f"{alg.type}: expected at most one small-index root-lattice weight")
    return hits[0] if hits else None


def _search_rows(max_rank: int) -> List[SimpleAlgebra]:
    if max_rank > MAX_SEARCH_RANK:
        raise SizeError(
            f"rank bound {max_rank} exceeds the cap MAX_SEARCH_RANK = {MAX_SEARCH_RANK}")
    rows: List[SimpleAlgebra] = []
    for fam, lo in (("B", 2), ("C", 2)):
        for n in range(lo, max_rank + 1):
            rows.append(build_algebra(AlgebraType(fam, n)))
    rows.append(build_algebra(AlgebraType("F", 4)))
    rows.append(build_algebra(AlgebraType("G", 2)))
    return rows


def search_so_irreducible() -> List[IrreducibleFinding]:
    """Search for k with an irreducible orthogonal complement p = V.

    The candidates are B_n and C_n of rank at most 12, F4 and G2.  For each
    candidate with a small-index root-lattice weight mu, the Casimir of mu
    must equal 2 d h (v-4) / (d (v-4) + v (v-1)) with d = dim k,
    h the dual Coxeter number, and v = dim V; so(v) must split as k plus p
    copies of L(mu); and k must actually possess an irreducible of dimension
    v.  Survivors are returned with their v-dimensional highest weight.
    """
    findings: List[IrreducibleFinding] = []
    for alg in _search_rows(12):
        mu = _table1_weight(alg)
        if mu is None:
            continue
        lam2 = casimir(alg, mu)
        d, h = alg.dim, alg.dual_coxeter
        # lam2 v^2 + (lam2 d - lam2 - 2 d h) v + (8 d h - 4 lam2 d) = 0
        coeffs = [8 * d * h - 4 * lam2 * d, lam2 * d - lam2 - 2 * d * h, lam2]
        roots = _real_roots([int(c * lam2.denominator) for c in coeffs])
        for v in (int(r.p) for r in roots if r.is_rational and r.p.denominator == 1 and r.p > 4):
            numer = v * (v - 1) // 2 - d
            dim_mu = weyl_dim(alg, mu)
            if numer <= 0 or numer % dim_mu:
                continue
            p = numer // dim_mu
            for lam in irreps_of_dim(alg, v):
                findings.append(IrreducibleFinding(alg.type, lam, v, p))
    return findings


def search_sl_irreducible(max_rank: int) -> List[IrreducibleFinding]:
    """Search for k with p = V (+) V* irreducible on each side, sl(V) ambient.

    The Casimir condition lam2 = 2 d h / (1 + v + d) fixes v per candidate
    type; v must be realized by an irreducible k-module V, and V (x) V* must
    decompose exactly as trivial + adjoint + p copies of L(mu).  The
    symplectic defining modules survive for every rank up to max_rank.
    """
    if max_rank < 2:
        raise LieError("max_rank must be at least 2")
    findings: List[IrreducibleFinding] = []
    rows = [alg for alg in _search_rows(max_rank) if not (alg.family == "B" and alg.rank == 2)]
    for alg in rows:
        mu = _table1_weight(alg)
        if mu is None:
            continue
        lam2 = casimir(alg, mu)
        d, h = alg.dim, alg.dual_coxeter
        v_frac = Fraction(2 * d * h) / lam2 - 1 - d
        if v_frac.denominator != 1 or v_frac < 2:
            continue
        v = int(v_frac)
        dim_mu = weyl_dim(alg, mu)
        numer = v * v - 1 - d
        if numer <= 0 or numer % dim_mu:
            continue
        p = numer // dim_mu
        for lam in irreps_of_dim(alg, v):
            allowed = {
                (zero_weight(alg),): 1,
                (alg.theta,): 1,
                (mu,): p,
            }
            product = tensor_decompose(alg, lam, dual_weight(alg, lam))
            if product.components == allowed:
                findings.append(IrreducibleFinding(alg.type, lam, v, p))
    return findings


def table1_scan(alg: Union[SimpleAlgebra, AlgebraType, str], coord_bound: int) -> List[Coords]:
    """Nonzero dominant weights with small coordinates, Killing-convention
    Dynkin index < 1, lying in the root lattice."""
    alg = build_algebra(alg)
    alg._table_rank()  # the scan recurses once per coordinate, and 0 always fits
    if coord_bound < 1:
        raise LieError("coord_bound must be at least 1")
    if coord_bound > MAX_SCAN_BOUND:
        raise SizeError(
            f"coordinate bound {coord_bound} exceeds the cap MAX_SCAN_BOUND = {MAX_SCAN_BOUND}")
    threshold = 2 * alg.dim * alg.dual_coxeter  # dim V * Casimir at the unit index

    def fits(w: Coords) -> bool:
        return not any(w) or weyl_dim(alg, w) * casimir(alg, w) < threshold

    return [w for w in _dominant_scan(alg, fits, coord_bound) if any(w) and alg.in_root_lattice(w)]


# ---------------------------------------------------------------------------
# sl(2)-summand exclusion


class A1ExclusionResult(NamedTuple):
    """Integer summand dimensions solving each variant of the sl(2) test."""

    printed: Optional[int]
    casimir: Optional[int]
    printed_critical: bool
    casimir_critical: bool

    @property
    def empty(self) -> bool:
        return self.printed is None and self.casimir is None


def a1_exclusion_check(d: Rational, k: Level) -> A1ExclusionResult:
    """Test whether an sl(2) summand dimension l >= 2 can balance at level k.

    The first variant solves (l^2/2 + l) / (2 (d k + 1)) = 1 for an integer
    l; the second replaces the numerator by the Casimir eigenvalue
    (l^2 - 1)/2 and the shifted denominator by 2 (d k + 2).  Irrational d k
    admits no integer solution in either variant.
    """
    d = Fraction(d)
    if d <= 0:
        raise LieError("the sl(2) index d must be positive")
    kn = _as_number(k)
    dk = d * kn
    if isinstance(dk, QuadraticNumber):
        return A1ExclusionResult(None, None, False, False)

    n, m = dk.numerator, dk.denominator

    def integer_root(coeffs: List[int]) -> Optional[int]:
        roots = _real_roots(coeffs)
        return next(
            (int(r.p) for r in roots if r.is_rational and r.p.denominator == 1 and r.p >= 2), None)

    # l^2 + 2 l - 4 (d k + 1) = 0 and l^2 - 4 d k - 9 = 0, times m and constant
    # first; at the critical d k = -1 and -2 neither has an integer root l >= 2.
    return A1ExclusionResult(
        integer_root([-4 * (n + m), 2 * m, m]), integer_root([-4 * n - 9 * m, 0, m]),
        dk == -1, dk == -2)


# The non-integrable candidate levels of the deep sl(2)-heavy subalgebras of
# E7 and E8 that the exclusion test must rule out.  Each stored level is what
# the charge-matching equation actually yields: the index-1240 sl(2) in E8
# balances at 64/175 (no positive index balances at 64/75), and 16/39 arises
# in E7 for the index-399 sl(2) (index 389 would give 2074/5057 instead).
# The survey re-derives every level with solve_levels, so a stored value that
# disagrees with the equation fails loudly.
EXCLUDED_CANDIDATES: List[Tuple[str, Tuple[Tuple[str, int], ...], Tuple[QuadraticNumber, ...]]] = [
    ("E8", (("A1", 1240),), (QuadraticNumber(Fraction(64, 175)),)),
    ("E8", (("A1", 760),), (QuadraticNumber(Fraction(8488, 23275)),)),
    ("E8", (("A1", 520),), (QuadraticNumber(Fraction(5788, 15925)),)),
    ("E8", (("A2", 6), ("A1", 16)), (QuadraticNumber(Fraction(-119, 474)),)),
    ("E7", (("A1", 399),), (QuadraticNumber(Fraction(16, 39)),)),
    ("E7", (("A1", 231),), (QuadraticNumber(Fraction(872, 2145)),)),
    ("E7", (("G2", 2), ("A1", 7)), (QuadraticNumber(Fraction(-26, 29)),)),
    (
        "E7",
        (("A1", 24), ("A1", 15)),
        (
            QuadraticNumber(Fraction(479, 1524), Fraction(3, 1524), 46265),
            QuadraticNumber(Fraction(479, 1524), Fraction(-3, 1524), 46265),
        ),
    ),
]


class SurveyRow(NamedTuple):
    ambient: AlgebraType
    description: str
    a1_index: Fraction
    level: QuadraticNumber
    result: A1ExclusionResult


def a1_exclusion_survey() -> List[SurveyRow]:
    """Run the sl(2)-summand test over every stored excluded candidate.

    For each candidate subalgebra the stated non-integrable levels are
    re-derived from the charge-matching equation, then every sl(2) factor is
    tested at every such level under both variants.  The classification
    argument requires every row to come back empty.
    """
    rows: List[SurveyRow] = []
    for ambient_name, factor_data, expected in EXCLUDED_CANDIDATES:
        sub = SubalgebraSpec(
            tuple((AlgebraType.parse(t), Fraction(j)) for t, j in factor_data),
            label="x".join(f"{t}^{j}" for t, j in factor_data),
        )
        solved = solve_levels(ambient_name, sub)
        for lvl in expected:
            if lvl not in solved:
                raise LieError(
                    f"{sub.label} in {ambient_name}: stored level {lvl} is not a "
                    f"charge-matching root (got {[str(s) for s in solved]})"
                )
        for typ, j in factor_data:
            if typ != "A1":
                continue
            for lvl in expected:
                result = a1_exclusion_check(Fraction(j), lvl)
                rows.append(
                    SurveyRow(
                        AlgebraType.parse(ambient_name),
                        sub.label,
                        Fraction(j),
                        lvl,
                        result,
                    )
                )
    return rows


# ---------------------------------------------------------------------------
# the global report


def _family_rows() -> List[Tuple[BranchingCase, Fraction, bool]]:
    """(case, stated level, criticality expected) for the classical families."""
    rows: List[Tuple[BranchingCase, Fraction, bool]] = []
    for n in range(2, 7):
        for m in range(2, 7):
            rows.append((dual_pair_branching("slsl", n, m), Fraction(-1), n == m))
    for n in range(1, 5):
        for m in range(1, 5):
            case = dual_pair_branching("CC", n, m)
            rows.append((case, Fraction(-1, 2), False))
            rows.append((case, Fraction(-2 - (n + m), 2), n == m))
    for n in range(2, 7):
        for m in range(3, 7):
            rows.append((dual_pair_branching("spso", n, m), Fraction(-1, 2), m == 2 * n + 2))
    for n in range(3, 7):
        for m in range(3, 7):
            rows.append((dual_pair_branching("OO", n, m), 2 - Fraction(n + m, 2), n == m))
    # Built-in labels only; an empty catalog spares a read of the shipped one.
    builtin: Dict[str, BranchingCase] = {}
    for label in [f"spsl:{n}" for n in range(2, 7)] + ["G2-in-B3"]:
        case = resolve_case(label, builtin)
        rows.append((case, case.level, False))
    return rows


def table2_rows() -> List[Dict[str, object]]:
    """Candidate levels, and the critical ones, of the tensor-pair and BB
    cells with n, m <= 6, read from each cell's subalgebra alone."""
    rows: List[Dict[str, object]] = []
    for family in ("slsl", "spsp", "soso", "spso", "BB"):
        for n in range(3 if family == "soso" else 2, 7):
            for m in range(3 if family in ("soso", "spso") else 2, 7):
                ambient, sub = resolve_levels(f"{family}:{n},{m}", {})
                sols = solve_levels(ambient, sub)
                crit = [str(s) for s in sols if level_flags(ambient, sub, s).critical]
                levels = [str(s) for s in sols]
                rows.append({"family": family, "n": n, "m": m, "levels": levels, "critical": crit})
    return rows


class Verdict(NamedTuple):
    """The classification's decision on one case at one stated level.

    ``ok`` holds when the stated level is a charge-matching root, its
    criticality is as expected, and the balance criterion holds exactly when
    no criticality is expected.
    """

    levels: List[QuadraticNumber]
    stated_is_root: bool
    ap: APReport
    ok: bool


def verify_case(case: BranchingCase, level: Level, expect_critical: bool = False) -> Verdict:
    """Solve ``case`` for its candidate levels and judge the stated ``level``."""
    levels = solve_levels(case.ambient, case.sub)
    ap = ap_check(case, level)
    stated_is_root = level in levels
    ok = (
        stated_is_root
        and ap.flags.critical == expect_critical
        and ap.all_balanced != expect_critical
    )
    return Verdict(levels, stated_is_root, ap, ok)


def global_report(
    catalog: Optional[Dict[str, BranchingCase]] = None
) -> List[Dict[str, object]]:
    """Re-derive every classified non-integrable case and check it.

    Each row is the :func:`verify_case` verdict at the stated level: either
    balance or, for instances the classification excludes as critical,
    criticality.  Rows are sorted by label and fully deterministic.
    """
    if catalog is None:
        catalog = load_catalog()
    rows = _family_rows()
    rows.extend((case, case.level, False) for case in catalog.values())
    report: List[Dict[str, object]] = []
    for case, stated, expect_critical in rows:
        verdict = verify_case(case, stated, expect_critical)
        report.append(
            {
                "label": f"{case.label}@{stated}",
                "ambient": str(case.ambient),
                "levels": [str(s) for s in verdict.levels],
                "ap": {
                    "level": str(stated),
                    "balanced": verdict.ap.all_balanced,
                    "critical": verdict.ap.flags.critical,
                },
                "status": "ok" if verdict.ok else "fail",
            }
        )
    report.sort(key=lambda row: row["label"])
    return report
