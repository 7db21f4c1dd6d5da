"""Finite-dimensional irreducible representations over exact rationals.

Dimensions via the Weyl formula, weight multiplicities via the Freudenthal
recursion, tensor products via the Klimyk algorithm, exterior/symmetric squares
via pair counting on weight multisets, and a greedy peel-off decomposer for
arbitrary character multisets over products of simple algebras.

Weights of a product algebra are concatenated coordinate tuples; decomposition
components are tuples of per-factor highest weights.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from operator import add, mul
from types import MappingProxyType
from typing import Callable, Dict, Mapping, NamedTuple, Sequence, Tuple

from .liealg import Coords, LieError, Rational, SimpleAlgebra, SizeError

# Largest module (weights counted with multiplicity) any function here builds.
MAX_MODULE_DIM = 100_000


class NotACharacter(LieError):
    """A weight multiset is not the character of a finite-dimensional module."""


# ---------------------------------------------------------------------------
# per-algebra cached tables


class _WeylData(NamedTuple):  # of the positive roots alpha, in positive_roots_alpha order
    rows: Tuple[Tuple[int, ...], ...]  # 6 d_i a_i: row . lam is 6 (lam, alpha)
    at_rho: Tuple[int, ...]  # 6 (rho, alpha)
    norms: Tuple[int, ...]  # 6 (alpha, alpha)
    columns: Tuple[Tuple[Tuple[int, int], ...], ...]  # (root, entry) per non-zero entry


@lru_cache(maxsize=None)
def _weyl_data(alg: SimpleAlgebra) -> _WeylData:
    rows = tuple(tuple(map(mul, alg.d6, a)) for a in alg.positive_roots_alpha)
    norms = tuple(sum(map(mul, a, row)) for a, row in zip(alg.positive_roots_omega, rows))
    columns = tuple(tuple(compress(enumerate(col), col)) for col in zip(*rows))
    return _WeylData(rows, tuple(map(sum, rows)), norms, columns)


@lru_cache(maxsize=None)
def _height_form(alg: SimpleAlgebra) -> tuple[int, ...]:
    """Linear form lam -> (lam, 2 rho) * form_denom, as integer coefficients
    on omega-coordinates."""
    return tuple(2 * sum(row) for row in alg.gram)


def height_form(algs: Sequence[SimpleAlgebra]) -> tuple[int, ...]:
    """Integer coefficients of w -> (w, 2 rho) * L on concatenated product
    coordinates, L the lcm of the factors' form denominators."""
    denom = math.lcm(*(a.form_denom for a in algs))
    return tuple(c * (denom // a.form_denom) for a in algs for c in _height_form(a))


def _check_dominant(alg: SimpleAlgebra, lam: Sequence[Rational]) -> Coords:
    lam = alg.check_weight(lam)
    if any((not isinstance(x, int) and Fraction(x).denominator != 1) or x < 0 for x in lam):
        raise LieError(f"{lam} is not a dominant integral weight of {alg.type}")
    return tuple(int(x) for x in lam)


# ---------------------------------------------------------------------------
# scalar invariants


def weyl_dim(alg: SimpleAlgebra, lam: Sequence[Rational]) -> int:
    """Dimension of the irreducible module with highest weight lam."""
    lam = _check_dominant(alg, lam)
    return _weyl_dim_cached(alg, lam)


@lru_cache(maxsize=None)
def _weyl_dim_cached(alg: SimpleAlgebra, lam: Coords) -> int:
    # Only the roots that meet lam's support move (lam + rho, alpha) off
    # (rho, alpha); every other factor cancels its own denominator.
    table = _weyl_data(alg)
    at_rho = table.at_rho
    shifts: Dict[int, int] = {}
    for column, x in zip(table.columns, lam):
        if x:
            for r, entry in column:
                shifts[r] = shifts.get(r, 0) + entry * x
    num = math.prod(at_rho[r] + shift for r, shift in shifts.items())
    den = math.prod(at_rho[r] for r in shifts)
    q, r = divmod(num, den)
    if r:
        raise LieError(f"non-integral Weyl dimension for {lam} of {alg.type}")
    return q


def casimir(alg: SimpleAlgebra, lam: Sequence[Rational]) -> Fraction:
    """Quadratic Casimir eigenvalue (lam, lam + 2 rho) under the normalized form."""
    lam = alg.check_weight(lam)
    shifted = tuple(x + 2 for x in lam)
    return alg.inner_product(lam, shifted)


def dynkin_index(alg: SimpleAlgebra, lam: Sequence[Rational], convention: str = "normalized") -> Fraction:
    """Index of the module: trace form of the representation against a fixed form.

    'normalized' measures against the form with (theta, theta) = 2; 'killing'
    against the Killing form, which is the dual Coxeter number times smaller.
    """
    if convention not in ("normalized", "killing"):
        raise LieError(f"unknown index convention {convention!r}")
    lam = _check_dominant(alg, lam)
    c2 = casimir(alg, lam)
    scale = 2 * alg.dim * (alg.dual_coxeter if convention == "killing" else 1)
    return Fraction(_weyl_dim_cached(alg, lam) * c2.numerator, scale * c2.denominator)


def dual_weight(alg: SimpleAlgebra, lam: Sequence[Rational]) -> Coords:
    """Highest weight of the dual module: the dominant representative of -lam."""
    lam = _check_dominant(alg, lam)
    dom, _ = alg.to_dominant(tuple(-x for x in lam))
    return dom


# ---------------------------------------------------------------------------
# weight systems


class WeightSystem(NamedTuple):
    """Weight multiset of a module over a (product of) simple algebra(s).

    Keys are concatenated fundamental-weight coordinate tuples; values are
    positive multiplicities.
    """

    algebras: Tuple[SimpleAlgebra, ...]
    entries: Dict[Coords, int]

    def total(self) -> int:
        return sum(self.entries.values())


@lru_cache(maxsize=None)
def _weight_system(alg: SimpleAlgebra, lam: Coords) -> Mapping[Coords, int]:
    """Full weight multiset of the irreducible module with highest weight lam, read-only."""
    # Dominant weights: every dominant mu with lam - mu in the positive root
    # cone is reached from lam by subtracting positive roots while staying
    # dominant (Stembridge), and lam - mu stays in that cone on the way.
    roots = alg.positive_roots_omega
    heights = [sum(a) for a in alg.positive_roots_alpha]
    depth = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for a, ht in zip(roots, heights):
                nu = tuple(x - y for x, y in zip(mu, a))
                if min(nu) >= 0 and nu not in depth:
                    depth[nu] = depth[mu] + ht
                    nxt.append(nu)
        frontier = nxt
    dominants = sorted(depth, key=depth.__getitem__)

    # Each Weyl orbit, spread down from its dominant weight by the simple
    # reflections s_i with w_i > 0, keyed to that dominant weight.
    cols = alg.cartan_columns
    dom_of: Dict[Coords, Coords] = {}
    for mu in dominants:
        dom_of[mu] = mu
        layer = [mu]
        while layer:
            nxt = []
            for w in layer:
                for wi, col in zip(w, cols):
                    if wi > 0:
                        v = tuple(x - wi * c for x, c in zip(w, col))
                        if v not in dom_of:
                            dom_of[v] = mu
                            nxt.append(v)
            layer = nxt

    # Freudenthal over the dominant weights, by increasing depth, on integers:
    # (nu, alpha) = (nu, alpha)_6 / 6 with (nu, alpha)_6 = sum_i nu_i 6 d_i a_i,
    # and |v|^2 = v.gram.v / form_denom.
    gram, denom = alg.gram, alg.form_denom

    def norm(v: Coords) -> int:
        return sum(x * sum(g * y for g, y in zip(row, v)) for x, row in zip(v, gram) if x)

    table = _weyl_data(alg)
    top = norm(tuple(x + 1 for x in lam))
    mult: Dict[Coords, int] = {lam: 1}
    for mu in dominants[1:]:
        acc = 0
        for a, a6, aa in zip(roots, table.rows, table.norms):
            nu = tuple(x + y for x, y in zip(mu, a))
            dom = dom_of.get(nu)
            if dom is None:
                continue
            pair = sum(x * y for x, y in zip(mu, a6)) + aa
            while dom is not None:
                acc += mult[dom] * pair
                pair += aa
                nu = tuple(x + y for x, y in zip(nu, a))
                dom = dom_of.get(nu)
        m, r = divmod(2 * denom * acc, 6 * (top - norm(tuple(x + 1 for x in mu))))
        if r or m <= 0:
            raise LieError(f"Freudenthal recursion failed at {mu} for {lam} of {alg.type}")
        mult[mu] = m

    out = {w: mult[mu] for w, mu in dom_of.items()}
    if sum(out.values()) != _weyl_dim_cached(alg, lam):
        raise LieError(f"weight-multiset size mismatch for {lam} of {alg.type}")
    return MappingProxyType(out)


def _check_dim(what: str, dim: int) -> None:
    if dim > MAX_MODULE_DIM:
        raise SizeError(f"{what} {dim} exceeds the cap MAX_MODULE_DIM = {MAX_MODULE_DIM}")


def freudenthal_weights(alg: SimpleAlgebra, lam: Sequence[Rational]) -> WeightSystem:
    """Weight multiset of the irreducible module with highest weight lam."""
    lam = _check_dominant(alg, lam)
    _check_dim("dim", weyl_dim(alg, lam))
    return WeightSystem((alg,), dict(_weight_system(alg, lam)))


# ---------------------------------------------------------------------------
# product algebras


def split_coords(algs: Sequence[SimpleAlgebra], w: Coords) -> tuple[Coords, ...]:
    parts = []
    pos = 0
    for a in algs:
        parts.append(tuple(w[pos:pos + a.rank]))
        pos += a.rank
    if pos != len(w):
        raise LieError(f"coordinate tuple of length {len(w)} does not match total rank {pos}")
    return tuple(parts)


def product_dim(algs: Sequence[SimpleAlgebra], module: Sequence[Coords]) -> int:
    return math.prod(weyl_dim(a, w) for a, w in zip(algs, module))


def product_weight_system(
    algs: Sequence[SimpleAlgebra], module: Sequence[Coords]
) -> Dict[Coords, int]:
    """Weight multiset of an outer tensor product, keyed by concatenated coordinates."""
    if len(algs) != len(module):
        raise LieError("one highest weight per factor is required")
    _check_dim("product dimension", product_dim(algs, module))
    acc: Dict[Coords, int] = {(): 1}
    for a, w in zip(algs, module):
        factor = _weight_system(a, _check_dominant(a, w))
        acc = {
            base + wf: mb * mf
            for base, mb in acc.items()
            for wf, mf in factor.items()
        }
    return acc


# ---------------------------------------------------------------------------
# decompositions


class Decomposition(NamedTuple):
    """Multiset of irreducible components over a product of simple algebras.

    Keys are tuples of per-factor highest weights; values are multiplicities.
    """

    algebras: Tuple[SimpleAlgebra, ...]
    components: Dict[Tuple[Coords, ...], int]

    def dim(self) -> int:
        return sum(m * product_dim(self.algebras, comp) for comp, m in self.components.items())

    def single(self) -> Dict[Coords, int]:
        if len(self.algebras) != 1:
            raise LieError("single() requires a one-factor decomposition")
        return {comp[0]: m for comp, m in self.components.items()}

    def sorted_items(self) -> list[tuple[Tuple[Coords, ...], int]]:
        form = height_form(self.algebras)

        def height(comp: Tuple[Coords, ...]) -> int:
            return sum(c * t for c, t in zip(chain.from_iterable(comp), form))

        return sorted(self.components.items(), key=lambda kv: (-height(kv[0]), kv[0]))


def tensor_decompose(
    alg: SimpleAlgebra, lam: Sequence[Rational], mu: Sequence[Rational]
) -> Decomposition:
    """Decompose L(lam) (x) L(mu) into irreducibles by the Klimyk algorithm."""
    lam = _check_dominant(alg, lam)
    mu = _check_dominant(alg, mu)
    dl, dm = weyl_dim(alg, lam), weyl_dim(alg, mu)
    _check_dim("tensor dimension", dl * dm)
    if dl < dm:
        lam, mu = mu, lam
    n = alg.rank
    system = _weight_system(alg, mu)
    acc: Dict[Coords, int] = {}
    for nu, m in system.items():
        xi = tuple(lam[k] + 1 + nu[k] for k in range(n))
        dom, sign = alg.to_dominant(xi)
        if 0 in dom:
            continue
        key = tuple(x - 1 for x in dom)
        acc[key] = acc.get(key, 0) + sign * m
    comps = {(k,): v for k, v in acc.items() if v}
    if any(v < 0 for v in comps.values()):
        raise LieError("Klimyk accumulation produced a negative multiplicity")
    result = Decomposition((alg,), comps)
    if result.dim() != dl * dm:
        raise LieError("tensor decomposition does not preserve dimension")
    return result


def pair_weights(ws: Dict[Coords, int], part: str) -> Dict[Coords, int]:
    """Weight multiset of the exterior ('alt') or symmetric ('sym') square.

    Unordered pairs of distinct basis vectors contribute to both; equal pairs
    contribute C(m,2) to the exterior and C(m+1,2) to the symmetric square.
    """
    if part not in ("alt", "sym"):
        raise LieError(f"part must be 'alt' or 'sym', got {part!r}")
    items = sorted(ws.items())
    out: Dict[Coords, int] = {}
    for i, (w1, m1) in enumerate(items):
        diag = m1 * (m1 - 1) // 2 if part == "alt" else m1 * (m1 + 1) // 2
        if diag:
            key = tuple(2 * x for x in w1)
            out[key] = out.get(key, 0) + diag
        for w2, m2 in items[i + 1:]:
            key = tuple(map(add, w1, w2))
            out[key] = out.get(key, 0) + m1 * m2
    return {k: v for k, v in out.items() if v}


def decompose_weight_system(alg_product: Sequence[SimpleAlgebra], ws) -> Decomposition:
    """Greedy peel-off of a character multiset into irreducible components.

    Repeatedly selects the maximal weight (largest (w, 2 rho), ties broken by
    lexicographically largest coordinates), which must be dominant, and
    subtracts the full character of the corresponding irreducible.
    """
    algs = tuple(alg_product)
    entries = dict(ws.entries if isinstance(ws, WeightSystem) else ws)
    _check_dim("multiset size", sum(entries.values()))
    form = height_form(algs)

    # Max-heap on (height, coordinates); each weight's height is computed once.
    def entry(w: Coords) -> tuple:
        return (-sum(c * t for c, t in zip(w, form)), tuple(-x for x in w), w)

    comps: Dict[Tuple[Coords, ...], int] = {}
    remaining = {k: v for k, v in entries.items() if v}
    heap = [entry(w) for w in remaining]
    heapq.heapify(heap)
    while heap:
        top = heapq.heappop(heap)[2]
        m = remaining.get(top)
        if m is None:
            continue
        if m < 0:
            raise NotACharacter(f"negative multiplicity {m} at {top}")
        parts = split_coords(algs, top)
        if not all(a.is_dominant(p) for a, p in zip(algs, parts)):
            raise NotACharacter(f"maximal weight {top} is not dominant")
        comps[parts] = m
        char = product_weight_system(algs, parts)
        for w, cm in char.items():
            old = remaining.get(w)
            new = (old or 0) - m * cm
            if new:
                remaining[w] = new
                if old is None:
                    heapq.heappush(heap, entry(w))
            elif old is not None:
                del remaining[w]
    return Decomposition(algs, comps)


def square_decompose(
    alg_product: Sequence[SimpleAlgebra], module: Sequence[Coords], part: str
) -> Decomposition:
    """Decompose the exterior or symmetric square of an outer-tensor module."""
    algs = tuple(alg_product)
    ws = product_weight_system(algs, module)
    v = sum(ws.values())
    pair_count = v * (v - 1) // 2 if part == "alt" else v * (v + 1) // 2
    _check_dim("square dimension", pair_count)
    result = decompose_weight_system(algs, pair_weights(ws, part))
    if result.dim() != pair_count:
        raise LieError("square decomposition does not preserve dimension")
    return result


def _dominant_scan(alg: SimpleAlgebra, fits: Callable[[Coords], bool], bound: int) -> list[Coords]:
    """The dominant weights with coordinates at most ``bound`` that pass ``fits``,
    sorted (the depth-first scan meets them in lexicographic order).

    ``fits`` must only turn false as a coordinate grows, so the scan stops
    raising a coordinate at its first failure, the later coordinates at zero.
    """
    n = alg.rank
    found: list[Coords] = []

    def rec(prefix: tuple[int, ...]) -> None:
        if len(prefix) == n:
            found.append(prefix)
            return
        tail = (0,) * (n - len(prefix) - 1)
        for c in range(bound + 1):
            if not fits(prefix + (c,) + tail):
                break
            rec(prefix + (c,))

    rec(())
    return found


def irreps_of_dim(alg: SimpleAlgebra, v: int) -> list[Coords]:
    """All dominant weights whose irreducible module has dimension exactly v.

    Complete: the Weyl dimension is strictly increasing in every coordinate,
    and dim L(c omega_i) > c, so no coordinate exceeds v.
    """
    small = _dominant_scan(alg, lambda w: _weyl_dim_cached(alg, w) <= v, v)
    return [lam for lam in small if _weyl_dim_cached(alg, lam) == v]
