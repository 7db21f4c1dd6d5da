"""Independent reference implementations used to cross-check the package.

Each oracle recomputes a quantity from first principles along a different
algorithmic route than the library: the root-string closure checks the
positive roots found by the simple-reflection walk, root lengths read off
the symmetrized Cartan matrix and a `Fraction` Gauss-Jordan inverse check
the integer invariant form built from the adjugate, alternating Weyl-orbit
sums check character data, a quadratic-time Euler product and the
pentagonal-number expansion check the integer Euler product, the `Fraction`
Weyl-dimension table checks the integer one, a dense product over every
positive root checks the Weyl dimension's product over the roots that meet
the weight's support, a convolve-and-peel decomposition checks the
tensor-product path, `Fraction` Freudenthal over every weight and a
`Fraction`-height peel check the integer, orbit-driven weight systems and
decompositions, adjoint branchings rebuilt on coordinate-tuple weight dicts
check the dominant-weight branching check, `Fraction`-dict direct sums and
series products check the integer sums and eta-quotient recurrences of the
character models and both sides of every identity, `Fraction` evaluation at
every candidate checks the integer rational-root search, a divisor search to
the last rational root plus the quadratic formula checks the level solver's
closed form, perfect squares by `math.isqrt` check the integer roots of the
sl(2)-summand test, a `Fraction` polynomial product checks its integer level
polynomial, and the balance criterion evaluated at the ambient level, with
every factor's Casimir and dual Coxeter number rescaled by its embedding
index, checks the library's evaluation at the factor levels and its
criticality flags. They are deliberately slow and simple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import add
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from lieconf.conformal import APReport, LevelFlags, _deflate, _divisors, _scaled_value
from lieconf.liealg import AlgebraType, LieError, SimpleAlgebra, build_algebra
from lieconf.qseries import CHARACTER_MODELS, IDENTITY_NAMES, PuiseuxSeries, SeriesError
from lieconf.reps import (
    NotACharacter,
    casimir,
    decompose_weight_system,
    freudenthal_weights,
    pair_weights,
    product_weight_system,
    split_coords,
    weyl_dim,
)
from lieconf.surd import QuadraticNumber, squarefree_extract

Coords = Tuple[int, ...]
Rational = Union[int, Fraction]


def alternating_orbit_sum(
    alg: SimpleAlgebra, mu: Coords, point: Sequence[Fraction]
) -> Fraction:
    """Sum of sign(s) * point**s(mu) over the Weyl orbit of mu.

    ``mu`` must be strictly dominant (all coordinates positive), so the orbit
    is free and each element's sign is the parity of any word reaching it.
    ``point**w`` means the product of point[i]**w[i].
    """
    if any(c <= 0 for c in mu):
        raise ValueError("alternating sums need a strictly dominant weight")
    n = alg.rank
    # column i of the Cartan matrix = fundamental-weight coordinates of alpha_i
    cols = [tuple(alg.cartan[t][i] for t in range(n)) for i in range(n)]
    signs: Dict[Coords, int] = {tuple(mu): 1}
    frontier = [tuple(mu)]
    while frontier:
        nxt = []
        for w in frontier:
            sgn = signs[w]
            for i in range(n):
                if w[i] != 0:
                    img = tuple(w[t] - w[i] * cols[i][t] for t in range(n))
                    if img not in signs:
                        signs[img] = -sgn
                        nxt.append(img)
        frontier = nxt
    total = Fraction(0)
    for w, sgn in signs.items():
        value = Fraction(1)
        for x, e in zip(point, w):
            value *= Fraction(x) ** e
        total += sgn * value
    return total


def character_value(alg: SimpleAlgebra, entries: Dict[Coords, int], point) -> Fraction:
    """Evaluate a weight multiset as a character at an exact point."""
    total = Fraction(0)
    for w, mult in entries.items():
        value = Fraction(1)
        for x, e in zip(point, w):
            value *= Fraction(x) ** e
        total += mult * value
    return total


def check_character(alg: SimpleAlgebra, lam: Coords, entries: Dict[Coords, int]) -> None:
    """Assert the Weyl character identity: A_rho * ch_lam == A_(lam+rho).

    Evaluated exactly at two generic points, this pins the full multiset: a
    wrong multiplicity would have to vanish at both to slip through.
    """
    for point in ((Fraction(2), Fraction(3), Fraction(5), Fraction(7)),
                  (Fraction(3, 2), Fraction(5, 3), Fraction(7, 2), Fraction(11, 3))):
        point = point[: alg.rank]
        rho = alg.rho
        lam_rho = tuple(a + b for a, b in zip(lam, rho))
        denom = alternating_orbit_sum(alg, rho, point)
        numer = alternating_orbit_sum(alg, lam_rho, point)
        assert denom != 0, "degenerate evaluation point"
        assert character_value(alg, entries, point) * denom == numer


def naive_euler_product(order: int) -> Dict[int, int]:
    """Coefficients of prod_{n>=1} (1 - q^n) below q^order, term by term."""
    coeffs = {0: 1}
    for n in range(1, order):
        updated = dict(coeffs)
        for e, c in coeffs.items():
            if e + n < order:
                updated[e + n] = updated.get(e + n, 0) - c
        coeffs = {e: c for e, c in updated.items() if c}
    return coeffs


def peel_tensor(alg: SimpleAlgebra, lam: Coords, mu: Coords) -> Dict[Coords, int]:
    """Tensor-product decomposition by convolving weight multisets and
    repeatedly peeling the maximal weight; independent of the Klimyk route."""
    a = freudenthal_weights(alg, lam).entries
    b = freudenthal_weights(alg, mu).entries
    prod: Dict[Coords, int] = {}
    for w1, m1 in a.items():
        for w2, m2 in b.items():
            w = tuple(x + y for x, y in zip(w1, w2))
            prod[w] = prod.get(w, 0) + m1 * m2
    components: Dict[Coords, int] = {}
    while prod:
        top = max(prod, key=lambda t: (alg.inner_product(t, alg.rho), t))
        mult = prod[top]
        assert mult > 0 and alg.is_dominant(top), "not a genuine character"
        components[top] = components.get(top, 0) + mult
        for w, m in freudenthal_weights(alg, top).entries.items():
            rest = prod.get(w, 0) - mult * m
            if rest:
                prod[w] = rest
            else:
                prod.pop(w, None)
    return components


# ---------------------------------------------------------------------------
# root lengths, Cartan inverse and invariant form over Fraction


@lru_cache(maxsize=None)
def fraction_root_halves(alg: SimpleAlgebra) -> tuple[Fraction, ...]:
    """Half squared lengths d_i of the simple roots from the Cartan matrix
    alone: d_i C_ij = d_j C_ji along every bond, and the long roots have d = 1."""
    cartan = alg.cartan
    d = {0: Fraction(1)}
    stack = [0]
    while stack:
        i = stack.pop()
        for j, c in enumerate(cartan[i]):
            if c and j not in d:
                d[j] = d[i] * c / cartan[j][i]
                stack.append(j)
    top = max(d.values())
    return tuple(d[i] / top for i in range(alg.rank))


def string_closure_roots(alg: SimpleAlgebra) -> tuple:
    """Positive roots by closing the simple roots under root addition.

    For a root a and simple root alpha_i, a + alpha_i is a root iff
    p - <a, alpha_i^vee> >= 1 where p is the length of the alpha_i-string
    below a; <a, alpha_i^vee> is the i-th fundamental-weight coordinate.
    Only ``cartan_columns`` is read: theta is the unique root of top height
    and theta_short the highest root shorter than theta, with lengths from
    `fraction_root_halves`.  Returns the same four tables as
    ``SimpleAlgebra._roots``.
    """
    n = alg.rank
    cols = alg.cartan_columns
    omega: Dict[Coords, Coords] = {}
    by_height: List[List[Coords]] = [[]]
    simples = []
    for i in range(n):
        e = tuple(int(i == j) for j in range(n))
        simples.append(e)
        omega[e] = cols[i]
    by_height.append(simples)
    while by_height[-1]:
        nxt: List[Coords] = []
        for a in by_height[-1]:
            w = omega[a]
            for i in range(n):
                p = 0
                probe = list(a)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in omega:
                        break
                    p += 1
                if p - w[i] >= 1:
                    up = list(a)
                    up[i] += 1
                    t = tuple(up)
                    if t not in omega:
                        omega[t] = tuple(x + y for x, y in zip(w, cols[i]))
                        nxt.append(t)
        by_height.append(nxt)
    alphas = [a for level in by_height for a in sorted(level)]
    top = by_height[-2]
    if len(top) != 1:
        raise ValueError(f"highest root not unique for {alg.type}")
    # (a, a) = sum_j d_j a_j <a, alpha_j^vee> < 2, tested on the integers 6 d_j.
    d6 = [int(6 * x) for x in fraction_root_halves(alg)]
    shorts = [a for a in alphas if sum(x * y * z for x, y, z in zip(d6, a, omega[a])) < 12]
    theta_short = shorts[-1] if shorts else top[0]
    return tuple(alphas), tuple(omega[a] for a in alphas), omega[top[0]], omega[theta_short]


@lru_cache(maxsize=None)
def fraction_cartan_inverse(alg: SimpleAlgebra) -> tuple[tuple[Fraction, ...], ...]:
    """C^{-1} by plain Gauss-Jordan elimination over `Fraction`."""
    n = alg.rank
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(alg.cartan)
    ]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][k]
        rows[k] = [x / pivot for x in rows[k]]
        for i in range(n):
            f = rows[i][k]
            if i != k and f:
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[k])]
    return tuple(tuple(row[n:]) for row in rows)


def fraction_form(alg: SimpleAlgebra) -> tuple[tuple[Fraction, ...], ...]:
    """Gram matrix (omega_i, omega_j) = d_i (C^{-1})_ij of the fundamental weights."""
    return tuple(
        tuple(d * x for x in row)
        for d, row in zip(fraction_root_halves(alg), fraction_cartan_inverse(alg))
    )


# ---------------------------------------------------------------------------
# Weyl dimension, weight systems and peel-off decomposition over Fraction


@lru_cache(maxsize=None)
def fraction_weyl_data(alg: SimpleAlgebra) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The Weyl-dimension table with a `Fraction` product per root coordinate:
    the row of root alpha holds 6 d_i a_i, the denominator is the product of
    the rows summed (evaluated at rho)."""
    d = fraction_root_halves(alg)
    rows = []
    denom = 1
    for a in alg.positive_roots_alpha:
        row = tuple(int(6 * d[i] * ai) for i, ai in enumerate(a))
        rows.append(row)
        denom *= sum(row)
    return tuple(rows), denom


def fraction_weyl_dim(alg: SimpleAlgebra, lam: Coords) -> int:
    """prod over positive roots of (lam + rho, alpha) / (rho, alpha), from
    `fraction_weyl_data`."""
    rows, denom = fraction_weyl_data(alg)
    value = Fraction(1, denom)
    for row in rows:
        value *= sum(r * (x + 1) for r, x in zip(row, lam))
    if value.denominator != 1:
        raise ValueError(f"non-integral Weyl dimension for {lam} of {alg.type}")
    return int(value)


def dense_weyl_dim(alg: SimpleAlgebra, lam: Coords) -> int:
    """prod over positive roots of (lam + rho, alpha) / (rho, alpha) from the
    `fraction_weyl_data` rows on integers: every factor a full dot product
    with lam + rho, divided once by the product of all of them at rho."""
    rows, denom = fraction_weyl_data(alg)
    shifted = tuple(x + 1 for x in lam)
    num = 1
    for row in rows:
        num *= sum(r * s for r, s in zip(row, shifted))
    q, r = divmod(num, denom)
    if r:
        raise ValueError(f"non-integral Weyl dimension for {lam} of {alg.type}")
    return q


@lru_cache(maxsize=None)
def fraction_weight_system(alg: SimpleAlgebra, lam: Coords) -> Dict[Coords, int]:
    """Weight multiset of L(lam) by Freudenthal's recursion over `Fraction`,
    collecting every weight and reducing each one to the dominant chamber."""
    n = alg.rank
    cols = alg.cartan_columns
    inv = fraction_cartan_inverse(alg)
    d = fraction_root_halves(alg)

    @lru_cache(maxsize=None)
    def depth_coords(w: Coords) -> tuple[Fraction, ...]:
        diff = tuple(x - y for x, y in zip(lam, w))
        return tuple(sum(inv[i][j] * diff[j] for j in range(n)) for i in range(n))

    def pair_root(w: Coords, alpha_coords: Coords) -> Fraction:
        return sum(d[i] * a * w[i] for i, a in enumerate(alpha_coords) if a)

    # Collect the weight set: walk down by simple roots; a candidate belongs to
    # the module iff its dominant representative mu satisfies lam - mu in the
    # non-negative integer span of the simple roots.
    weights: set[Coords] = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(n):
                w2 = tuple(w[k] - cols[i][k] for k in range(n))
                if w2 in weights:
                    continue
                dom, _ = alg.to_dominant(w2)
                if all(x >= 0 for x in depth_coords(dom)):
                    weights.add(w2)
                    nxt.append(w2)
        frontier = nxt

    dominants = sorted(
        (w for w in weights if alg.is_dominant(w)),
        key=lambda w: sum(depth_coords(w)),
    )

    lam_rho = tuple(x + 1 for x in lam)
    norm_top = alg.inner_product(lam_rho, lam_rho)
    roots = list(zip(alg.positive_roots_alpha, alg.positive_roots_omega))

    mult: Dict[Coords, int] = {}
    for mu in dominants:
        if mu == lam:
            mult[mu] = 1
            continue
        mu_rho = tuple(x + 1 for x in mu)
        denom = norm_top - alg.inner_product(mu_rho, mu_rho)
        acc = Fraction(0)
        for a_coords, a_omega in roots:
            t = 1
            while True:
                nu = tuple(mu[k] + t * a_omega[k] for k in range(n))
                if nu not in weights:
                    break
                dom, _ = alg.to_dominant(nu)
                acc += mult[dom] * pair_root(nu, a_coords)
                t += 1
        m = 2 * acc / denom
        if m.denominator != 1 or m <= 0:
            raise ValueError(f"Freudenthal recursion failed at {mu} for {lam} of {alg.type}")
        mult[mu] = int(m)

    out = {w: mult[alg.to_dominant(w)[0]] for w in weights}
    if sum(out.values()) != weyl_dim(alg, lam):
        raise ValueError(f"weight-multiset size mismatch for {lam} of {alg.type}")
    return out


def fraction_decompose(
    algs: Sequence[SimpleAlgebra], ws: Dict[Coords, int]
) -> Dict[Tuple[Coords, ...], int]:
    """Greedy peel-off of a character multiset over a product of simple
    algebras, with `Fraction` heights (w, 2 rho) recomputed on every step and
    characters from `fraction_weight_system`."""
    form = [2 * sum(row) for a in algs for row in fraction_form(a)]

    def height(w: Coords) -> Fraction:
        return sum((c * t for c, t in zip(w, form)), Fraction(0))

    comps: Dict[Tuple[Coords, ...], int] = {}
    remaining = {k: v for k, v in ws.items() if v}
    while remaining:
        top = max(remaining, key=lambda k: (height(k), k))
        m = remaining[top]
        if m < 0:
            raise NotACharacter(f"negative multiplicity {m} at {top}")
        parts = split_coords(algs, top)
        if not all(a.is_dominant(p) for a, p in zip(algs, parts)):
            raise NotACharacter(f"maximal weight {top} is not dominant")
        comps[parts] = m
        char: Dict[Coords, int] = {(): 1}
        for a, w in zip(algs, parts):
            factor = fraction_weight_system(a, w)
            char = {b + wf: mb * mf for b, mb in char.items() for wf, mf in factor.items()}
        for w, cm in char.items():
            new = remaining.get(w, 0) - m * cm
            if new:
                remaining[w] = new
            else:
                remaining.pop(w, None)
    return comps


# ---------------------------------------------------------------------------
# adjoint branchings on coordinate-tuple weight dicts


def _dual_system(ws: Dict[Coords, int]) -> Dict[Coords, int]:
    return {tuple(-x for x in w): m for w, m in ws.items()}


def _convolve(a: Dict[Coords, int], b: Dict[Coords, int]) -> Dict[Coords, int]:
    out: Dict[Coords, int] = {}
    for w1, m1 in a.items():
        for w2, m2 in b.items():
            key = tuple(map(add, w1, w2))
            out[key] = out.get(key, 0) + m1 * m2
    return {k: v for k, v in out.items() if v}


def tuple_character(
    algs: Sequence[SimpleAlgebra],
    components: Iterable[Tuple[Tuple[Coords, ...], int]],
) -> Dict[Coords, int]:
    """Weight multiset of a sum of product modules, given as (component, multiplicity) pairs."""
    char: Dict[Coords, int] = {}
    for comp, mult in components:
        for w, m in product_weight_system(algs, comp).items():
            char[w] = char.get(w, 0) + mult * m
    return char


def tuple_adjoint_weights(
    algs: Sequence[SimpleAlgebra],
    ambient: AlgebraType,
    module_components: Sequence[Tuple[Coords, ...]],
) -> Dict[Coords, int]:
    """Weight multiset of the ambient adjoint restricted to the subalgebra,
    keyed by coordinate tuples: V (x) V* minus a trivial summand for sl (A),
    the symmetric square for sp (C), the exterior square for so (B, D)."""
    v_ws = tuple_character(algs, ((comp, 1) for comp in module_components))
    if ambient.family == "A":
        adj_ws = _convolve(v_ws, _dual_system(v_ws))
        zero = tuple(0 for _ in next(iter(adj_ws)))
        adj_ws[zero] -= 1
        if not adj_ws[zero]:
            del adj_ws[zero]
        return adj_ws
    return pair_weights(v_ws, "sym" if ambient.family == "C" else "alt")


def tuple_verify_adjoint_branching(
    algs: Sequence[SimpleAlgebra],
    ambient: AlgebraType,
    module_components: Sequence[Tuple[Coords, ...]],
    p_components: Dict[Tuple[Coords, ...], int],
) -> None:
    """`lieconf.embed._verify_adjoint_branching` on coordinate tuples, with no
    size cap: the restricted adjoint must equal the summed characters of
    each adjoint of k once and p with its multiplicities.  Raises the
    library's `LieError` text on a mismatch."""
    adj_ws = tuple_adjoint_weights(algs, ambient, module_components)
    expected: Dict[Tuple[Coords, ...], int] = {}
    for slot, alg in enumerate(algs):
        comp = tuple(alg.theta if j == slot else (0,) * a.rank for j, a in enumerate(algs))
        expected[comp] = expected.get(comp, 0) + 1
    for comp, mult in p_components.items():
        expected[comp] = expected.get(comp, 0) + mult
    if tuple_character(algs, expected.items()) != adj_ws:
        derived = decompose_weight_system(algs, adj_ws)
        raise LieError(
            "stated branching disagrees with the recomputed decomposition: "
            f"derived {derived.components}, stated {expected}"
        )


# ---------------------------------------------------------------------------
# series: direct sums as Fraction dicts, product sides by Fraction-dict
# multiply, inverse and pow


def pentagonal_euler_phi(order: int) -> PuiseuxSeries:
    """prod_{n>=1} (1 - q^n) via the pentagonal-number expansion, to q^order."""
    if order < 1:
        raise SeriesError("order must be >= 1")
    coeffs: Dict[int, Fraction] = {0: Fraction(1)}
    k = 1
    while k * (3 * k - 1) // 2 < order:
        sign = Fraction(-1 if k % 2 else 1)
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < order:
                coeffs[e] = sign
        k += 1
    return PuiseuxSeries(1, coeffs, order)


def fraction_delta(order: int) -> PuiseuxSeries:
    """Triangular-number theta series sum_{n>=0} q^(n(n+1)/2)."""
    coeffs: Dict[int, Fraction] = {}
    n = 0
    while n * (n + 1) // 2 < order:
        coeffs[n * (n + 1) // 2] = Fraction(1)
        n += 1
    return PuiseuxSeries(1, coeffs, order)


def fraction_signed_double_sum(order: int) -> PuiseuxSeries:
    """sum_{l>=0} (l+1) sum_{i=0..l} (-1)^(l-i) (2i+1) q^((l(l+2)-i(i+1))/2).

    The (l, i) term's exponent is minimal at i = l, where it equals l/2, so
    l ranges over l/2 < order; the inner loop runs downward from i = l and
    stops as soon as the exponent reaches the order.
    """
    coeffs: Dict[int, Fraction] = {}
    bound = 2 * order  # scaled by denom 2
    l = 0
    while l < bound:
        base = l * (l + 2)
        for i in range(l, -1, -1):
            e = base - i * (i + 1)  # twice the exponent
            if e >= bound:
                break
            coeffs[e] = coeffs.get(e, Fraction(0)) + (-1) ** (l - i) * (l + 1) * (
                2 * i + 1
            )
        l += 1
    return PuiseuxSeries(2, coeffs, bound)


def fraction_kw_sum(order: int) -> PuiseuxSeries:
    """-(1/8) sum (-1)^((j-1)(k+1)/4) (j^2-k^2) q^((jk-3)/4) over odd j > k >= 1
    with (j-k)/2 odd; the exponent is integral on that index set."""
    coeffs: Dict[int, Fraction] = {}
    k = 1
    while k * (k + 2) - 3 < 4 * order:  # smallest admissible j is k + 2
        j = k + 2
        while (j * k - 3) < 4 * order:
            if ((j - k) // 2) % 2 == 1:
                sign_exp = (j - 1) * (k + 1)
                if sign_exp % 4:
                    raise SeriesError("sign exponent (j-1)(k+1)/4 must be integral")
                e, r = divmod(j * k - 3, 4)
                if r:
                    raise SeriesError("exponent (jk-3)/4 must be integral")
                term = Fraction(-(j * j - k * k), 8) * (-1) ** (sign_exp // 4)
                coeffs[e] = coeffs.get(e, Fraction(0)) + term
            j += 2
        k += 2
    coeffs = {e: c for e, c in coeffs.items() if c}
    return PuiseuxSeries(1, coeffs, order)


def _phi_inverse_power(power: int, order_num: int, denom: int = 1) -> PuiseuxSeries:
    """phi(q)^(-power) known for exponents < order_num/denom."""
    need = order_num // denom + 1
    return (pentagonal_euler_phi(need).inverse() ** power).truncate(Fraction(order_num, denom))


def fraction_character(model: str, ell: int = 0, order: int = 32) -> PuiseuxSeries:
    """The character models of `lieconf.qseries.character`, by series products."""
    if model not in CHARACTER_MODELS:
        raise SeriesError(f"unknown character model {model!r}")
    if order < 1:
        raise SeriesError("order must be >= 1")
    if model == "delta":
        return fraction_delta(order)
    if model == "weyl_M3":
        phi = pentagonal_euler_phi(order)
        phi_half = pentagonal_euler_phi(2 * order).substitute(1, 2)
        ratio = phi * phi_half.inverse()
        series = ratio**6 * PuiseuxSeries.monomial(Fraction(1, 8), 1, order + 1)
        return series.truncate(order)
    if ell < 0:
        raise SeriesError("ell must be >= 0")
    if model == "sl2_m32":
        shift = Fraction(3, 8) + Fraction(ell * (ell + 2), 2)
        body = _phi_inverse_power(3, order) * Fraction(ell + 1)
        series = body * PuiseuxSeries.monomial(shift, 1, order + shift)
        return series.truncate(order)
    # sl2_m4
    drop = ell * (ell + 1) // 2
    poly = PuiseuxSeries.from_terms(
        {
            -Fraction(i * (i + 1), 2): Fraction((-1) ** (ell - i) * (2 * i + 1))
            for i in range(ell + 1)
        },
        order + drop + 1,
    )
    body = _phi_inverse_power(3, order + drop + 1) * poly
    series = body * PuiseuxSeries.monomial(Fraction(-1, 4), 1, order + drop + 1)
    return series.truncate(order)


def fraction_identity_sides(which: str, order: int) -> Tuple[PuiseuxSeries, PuiseuxSeries]:
    """The (left, right) sides of `lieconf.qseries.identity_sides`, by series
    products and the `Fraction`-dict direct sums above."""
    if which not in IDENTITY_NAMES:
        raise SeriesError(f"unknown identity {which!r}")
    if order < 4:
        raise SeriesError("order must be >= 4")
    if which == "delta_eta":
        lhs = fraction_delta(order)
        phi = pentagonal_euler_phi(order)
        rhs = pentagonal_euler_phi(order).substitute(2, 1) ** 2 * phi.inverse()
        return lhs, rhs.truncate(order)
    if which == "eq92":
        phi = pentagonal_euler_phi(order)
        phi_half = pentagonal_euler_phi(2 * order).substitute(1, 2)
        lhs = phi**12 * phi_half.inverse() ** 6
        return lhs.truncate(order), fraction_signed_double_sum(order)
    if which == "kw":
        return fraction_delta(order) ** 6, fraction_kw_sum(order)
    lhs = fraction_character("weyl_M3", 0, order)
    rhs = _phi_inverse_power(6, order) * fraction_signed_double_sum(order)
    rhs = rhs * PuiseuxSeries.monomial(Fraction(1, 8), 1, order + 1)
    return lhs, rhs.truncate(order)


# ---------------------------------------------------------------------------
# rational roots by Fraction evaluation at every candidate


def fraction_rational_roots(coeffs: Sequence[Fraction]) -> List[Fraction]:
    """Sorted rational roots, with multiplicity, of a polynomial given constant first.

    Every +-p/q with p dividing the cleared constant term and q the cleared
    leading coefficient is evaluated in `Fraction`s; each root found is
    divided out and the search starts again.
    """
    coeffs = [Fraction(c) for c in coeffs]
    roots: List[Fraction] = []
    while len(coeffs) > 1:
        scale = lcm(*(c.denominator for c in coeffs))
        first, last = int(coeffs[0] * scale), int(coeffs[-1] * scale)
        candidates = [Fraction(0)] + [
            Fraction(sign * p, q)
            for p in range(1, abs(first) + 1) if first % p == 0
            for q in range(1, abs(last) + 1) if last % q == 0
            for sign in (1, -1)
        ]
        root = next(
            (r for r in candidates if sum(c * r**i for i, c in enumerate(coeffs)) == 0), None
        )
        if root is None:
            break
        roots.append(root)
        quotient, carry = [], Fraction(0)
        for c in reversed(coeffs[1:]):
            carry = carry * root + c
            quotient.append(carry)
        coeffs = quotient[::-1]
    return sorted(roots)


# ---------------------------------------------------------------------------
# real roots by divisor search to the last rational root


def divisor_search_rational_roots(coeffs: List[Rational]) -> List[Fraction]:
    """All rational roots with multiplicity, deflating as found; mutates coeffs.

    The coefficients are cleared to a primitive integer polynomial, which
    deflation keeps primitive (Gauss's lemma).  A root p/q in lowest terms
    has p dividing its constant and q its leading coefficient (the rational
    root theorem).  The search runs at every degree, quadratics included, and
    leaves the rational-root-free remainder in ``coeffs``.
    """
    scale = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    content = gcd(*ints) or 1
    coeffs[:] = [c // content for c in ints]
    roots: List[Fraction] = []
    while len(coeffs) > 1:
        if coeffs[0] == 0:
            roots.append(Fraction(0))
            del coeffs[0]
            continue
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
            return roots
        roots.append(Fraction(*found))
        coeffs[:] = _deflate(coeffs, *found)
    return roots


def quadratic_surds(coeffs: Sequence[int]) -> List[QuadraticNumber]:
    """Roots of a quadratic with integer coefficients, as surds; [] if complex."""
    c, b, a = coeffs
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s, d = squarefree_extract(disc)
    p = Fraction(-b, 2 * a)
    return [QuadraticNumber(p, Fraction(sign * s, 2 * a), d) for sign in (1, -1)]


def divisor_search_real_roots(ints: Sequence[int]) -> List[QuadraticNumber]:
    """Real roots with multiplicity of an integer polynomial, constant first:
    every rational root by `divisor_search_rational_roots`, then
    `quadratic_surds` on a remainder of degree 2.  Raises LieError, as
    `lieconf.conformal._real_roots` does, when a larger remainder is left."""
    coeffs = list(ints)
    roots = [QuadraticNumber(r) for r in divisor_search_rational_roots(coeffs)]
    if len(coeffs) - 1 >= 3:
        raise LieError(
            f"cleared polynomial keeps degree {len(coeffs) - 1} after "
            "rational-root removal; roots are not expressible in quadratic surds"
        )
    if len(coeffs) == 3:
        roots.extend(quadratic_surds(coeffs))
    return roots


# ---------------------------------------------------------------------------
# the sl(2)-summand test by perfect squares


def isqrt_a1_exclusion(d: Fraction, k: Fraction) -> Tuple:
    """The sl(2)-summand test by perfect squares: (l + 1)^2 = 4 d k + 5 and
    l^2 = 4 d k + 9, each with l >= 2, critical at d k = -1 and -2.

    Returns (printed, casimir, printed_critical, casimir_critical) as
    `lieconf.conformal.a1_exclusion_check` does, for rational d k.
    """
    dk = Fraction(d) * Fraction(k)

    def variant(shift: int, offset: int) -> tuple:
        if dk + shift == 0:
            return None, True
        target = 4 * dk + (5 if shift == 1 else 9)
        if target.denominator != 1 or target < 0:
            return None, False
        root = isqrt(int(target))
        if root * root != target:
            return None, False
        ell = root - offset
        return (ell if ell >= 2 else None), False

    (printed, printed_critical), (cas, cas_critical) = variant(1, 1), variant(2, 0)
    return printed, cas, printed_critical, cas_critical


# ---------------------------------------------------------------------------
# the level polynomial by Fraction polynomial products


def fraction_level_polynomial(entries: Sequence[Tuple[Fraction, Fraction, int]]) -> List[int]:
    """Cleared coefficients, constant first, of sum_e w_e prod_{e' != e} (k - pole_e').

    ``entries`` are the (pole, slope, weight) triples of
    `lieconf.conformal._charge_entries`.  Each term is multiplied out in
    `Fraction`s, one linear factor at a time; the sum is trimmed of trailing
    zeros and scaled by the lcm of its denominators.
    """
    total: List[Fraction] = []
    for idx, (_pole, _j, weight) in enumerate(entries):
        term = [Fraction(weight)]
        for idx2, (pole2, _j2, _w2) in enumerate(entries):
            if idx2 != idx:
                shifted = [Fraction(0)] + term
                term = [s - pole2 * t for s, t in zip(shifted, term + [Fraction(0)])]
        total = [
            (total[i] if i < len(total) else 0) + (term[i] if i < len(term) else 0)
            for i in range(max(len(total), len(term)))
        ]
    while total and not total[-1]:
        total.pop()
    scale = lcm(*(c.denominator for c in total))
    return [int(c * scale) for c in total]


# ---------------------------------------------------------------------------
# the balance criterion at the ambient level


def restricted_balance(case, k) -> APReport:
    """The balance criterion of `lieconf.conformal.ap_check`, evaluated at the ambient level.

    Each factor's Casimir eigenvalue and dual Coxeter number are rescaled by
    its embedding index j, so component lambda balances when
    sum_j (C_j(lambda) / j) / (2 (k + h_j / j)) = 1.  This equals the
    library's sum over the factor levels j k term by term.  The flags come
    from the same rescaled denominators and k + h_g, not from `level_flags`.
    """
    algs = case.p_components.algebras
    indices = case.sub.indices
    denoms = []
    critical: List[int] = []
    for i, (alg, j) in enumerate(zip(algs, indices)):
        den = 2 * (k + Fraction(alg.dual_coxeter) / j)
        if den == 0:
            critical.append(i)
            denoms.append(None)
        else:
            denoms.append(den)
    rows = []
    all_balanced = not critical
    for idx, (comp, _mult) in enumerate(case.p_components.sorted_items()):
        if critical:
            rows.append((idx, None, False))
            continue
        lhs = Fraction(0)
        for alg, j, den, w in zip(algs, indices, denoms, comp):
            lhs = lhs + casimir(alg, w) / j / den
        balanced = lhs == 1
        rows.append((idx, lhs, balanced))
        all_balanced = all_balanced and balanced
    ambient_critical = k + build_algebra(case.ambient).dual_coxeter == 0
    return APReport(rows, all_balanced, LevelFlags(tuple(critical), ambient_critical))
