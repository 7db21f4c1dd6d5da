"""Truncated Puiseux-series arithmetic and character-identity verification.

Every character model and both sides of every identity are dense `int` lists
on a grid t = q^(1/denom) with a rational shift: index k holds the
coefficient of q^((k + shift)/denom).  Eta quotients come from exact
recurrences (log-derivative for the quotients, J. C. P. Miller's for
powers), the direct sums from their index sets.  `verify_identity` compares
the two lists and turns the first differing index into its exponent.
Orders above `MAX_ORDER` are refused.

`PuiseuxSeries` is the printed result type: `character`, `identity_sides`
and `euler_phi` wrap their lists once, through `_from_grid`.  A series maps
fractional exponents to exact rational coefficients below an explicit
truncation order; at or above it everything is unknown.  Its arithmetic
stays here only because the `Fraction` oracle of the tests and the bench
tracer use it, until the tracer stops binding those names (ROADMAP item 1)
and item 6 moves them to the test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Dict, List, Optional, Tuple, Union

from . import CHARACTER_MODELS, IDENTITY_NAMES

__all__ = [
    "PuiseuxSeries",
    "euler_phi",
    "character",
    "verify_identity",
    "identity_sides",
    "CHARACTER_MODELS",
    "IDENTITY_NAMES",
    "MAX_ORDER",
]

Rational = Union[int, Fraction]

# Largest truncation order accepted by `character` and `identity_sides`; the
# product sides cost O(order^2) big-integer steps.
MAX_ORDER = 2000


class SeriesError(ValueError):
    """Raised for invalid series operations (inverting zero, bad orders)."""


class PuiseuxSeries:
    """sum of coeffs[e] * q^(e/denom) plus O(q^(order/denom)).

    Immutable.  ``coeffs`` holds no zeros and no exponent numerator >= order.
    ``denom`` is kept minimal (common factors of the exponent numerators, the
    order, and the denominator are cancelled).
    """

    __slots__ = ("denom", "coeffs", "order")

    def __init__(self, denom: int, coeffs: Dict[int, Fraction], order: int):
        if denom < 1:
            raise SeriesError("exponent denominator must be positive")
        clean = {e: Fraction(c) for e, c in coeffs.items() if e < order and c != 0}
        g = gcd(*clean, order if order > 0 else 0, denom)
        if g > 1 and order % g == 0 and all(e % g == 0 for e in clean):
            denom //= g
            order //= g
            clean = {e // g: c for e, c in clean.items()}
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, order: Rational, denom: int = 1) -> "PuiseuxSeries":
        scaled = Fraction(order) * denom
        if scaled.denominator != 1:
            raise SeriesError(f"order {order} not representable over denom {denom}")
        return cls(denom, {}, int(scaled))

    @classmethod
    def from_terms(
        cls, terms: Dict[Rational, Rational], order: Rational
    ) -> "PuiseuxSeries":
        """Build from a map of fractional exponents to coefficients."""
        denom = lcm(*(Fraction(e).denominator for e in terms), Fraction(order).denominator)
        coeffs = {int(Fraction(e) * denom): Fraction(c) for e, c in terms.items()}
        return cls(denom, coeffs, int(Fraction(order) * denom))

    @classmethod
    def monomial(
        cls, exponent: Rational, coefficient: Rational, order: Rational
    ) -> "PuiseuxSeries":
        return cls.from_terms({Fraction(exponent): Fraction(coefficient)}, order)

    @classmethod
    def one(cls, order: Rational) -> "PuiseuxSeries":
        return cls.from_terms({0: 1}, order)

    # -- views ----------------------------------------------------------------

    @property
    def order_exponent(self) -> Fraction:
        return Fraction(self.order, self.denom)

    @property
    def min_exponent(self) -> Fraction:
        """Lowest stored exponent; the truncation order when no terms exist."""
        if not self.coeffs:
            return self.order_exponent
        return Fraction(min(self.coeffs), self.denom)

    def coefficient(self, exponent: Rational) -> Fraction:
        e = Fraction(exponent)
        if e >= self.order_exponent:
            raise SeriesError(f"coefficient of q^{e} is beyond the truncation order")
        scaled = e * self.denom
        if scaled.denominator != 1:
            return Fraction(0)
        return self.coeffs.get(int(scaled), Fraction(0))

    def terms(self) -> List[Tuple[Fraction, Fraction]]:
        return [(Fraction(e, self.denom), c) for e, c in sorted(self.coeffs.items())]

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- alignment ------------------------------------------------------------

    def _scaled_to(self, denom: int) -> Tuple[Dict[int, Fraction], int]:
        if denom == self.denom:
            return self.coeffs, self.order
        f = denom // self.denom
        return {e * f: c for e, c in self.coeffs.items()}, self.order * f

    @staticmethod
    def _common_denom(a: "PuiseuxSeries", b: "PuiseuxSeries") -> int:
        return lcm(a.denom, b.denom)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other) -> "PuiseuxSeries":
        other = _coerce(other, self)
        if other is NotImplemented:
            return NotImplemented
        denom = self._common_denom(self, other)
        ca, oa = self._scaled_to(denom)
        cb, ob = other._scaled_to(denom)
        out = dict(ca)
        for e, c in cb.items():
            out[e] = out.get(e, Fraction(0)) + c
        return PuiseuxSeries(denom, out, min(oa, ob))

    __radd__ = __add__

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries(self.denom, {e: -c for e, c in self.coeffs.items()}, self.order)

    def __sub__(self, other):
        other = _coerce(other, self)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "PuiseuxSeries":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return PuiseuxSeries(self.denom, {}, self.order)
            return PuiseuxSeries(
                self.denom, {e: c * other for e, c in self.coeffs.items()}, self.order
            )
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        denom = self._common_denom(self, other)
        ca, oa = self._scaled_to(denom)
        cb, ob = other._scaled_to(denom)
        min_a = min(ca) if ca else oa
        min_b = min(cb) if cb else ob
        order = min(oa + min_b, ob + min_a)
        out: Dict[int, Fraction] = {}
        if len(ca) > len(cb):
            ca, cb = cb, ca
        for ea, va in ca.items():
            for eb, vb in cb.items():
                e = ea + eb
                if e < order:
                    out[e] = out.get(e, Fraction(0)) + va * vb
        return PuiseuxSeries(denom, out, order)

    __rmul__ = __mul__

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse; needs a nonzero lowest-order term."""
        if not self.coeffs:
            raise SeriesError("cannot invert a series with no known terms")
        m = min(self.coeffs)
        lead = self.coeffs[m]
        span = self.order - m  # u below is known for exponents < span
        # self = lead * q^(m/denom) * (1 + u)
        u = {e - m: c / lead for e, c in self.coeffs.items() if e != m}
        inv = [Fraction(0)] * span
        inv[0] = Fraction(1)
        u_items = sorted(u.items())
        for e in range(1, span):
            acc = Fraction(0)
            for f, c in u_items:
                if f > e:
                    break
                if inv[e - f]:
                    acc -= c * inv[e - f]
            inv[e] = acc
        coeffs = {e - m: c / lead for e, c in enumerate(inv) if c}
        return PuiseuxSeries(self.denom, coeffs, span - m)

    def __pow__(self, n: int) -> "PuiseuxSeries":
        if not isinstance(n, int):
            raise SeriesError("series powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        result: Optional[PuiseuxSeries] = None
        base = self
        k = n
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        if result is None:  # n == 0
            return PuiseuxSeries.one(self.order_exponent)
        return result

    def substitute(self, a: int, b: int) -> "PuiseuxSeries":
        """The series in q^(a/b): exponents scale by a/b, order included."""
        if a < 1 or b < 1:
            raise SeriesError("substitution exponent a/b must be positive")
        denom = self.denom * b
        coeffs = {e * a: c for e, c in self.coeffs.items()}
        return PuiseuxSeries(denom, coeffs, self.order * a)

    def truncate(self, order: Rational) -> "PuiseuxSeries":
        target = Fraction(order)
        if target > self.order_exponent:
            raise SeriesError("cannot extend a truncated series")
        denom = lcm(self.denom, target.denominator)
        coeffs, _ = self._scaled_to(denom)
        return PuiseuxSeries(denom, coeffs, int(target * denom))

    # -- comparison --------------------------------------------------------------

    def first_mismatch(self, other: "PuiseuxSeries") -> Optional[Fraction]:
        """Smallest exponent below both orders where coefficients differ."""
        denom = self._common_denom(self, other)
        ca, oa = self._scaled_to(denom)
        cb, ob = other._scaled_to(denom)
        bound = min(oa, ob)
        for e in sorted(set(ca) | set(cb)):
            if e >= bound:
                break
            if ca.get(e, 0) != cb.get(e, 0):
                return Fraction(e, denom)
        return None

    def __eq__(self, other) -> bool:
        """Equality of all coefficients below the smaller truncation order."""
        other = _coerce(other, self)
        if other is NotImplemented:
            return NotImplemented
        return self.first_mismatch(other) is None

    def __hash__(self):
        raise TypeError("truncated series are not hashable")

    def __repr__(self):
        return f"PuiseuxSeries(denom={self.denom}, terms={len(self.coeffs)}, order={self.order_exponent})"

    def __str__(self):
        if not self.coeffs:
            return f"O(q^({self.order_exponent}))"
        parts = []
        for e, c in self.terms():
            if e == 0:
                body = str(c)
            else:
                expo = f"q^({e})" if e != 1 else "q"
                if c == 1:
                    body = expo
                elif c == -1:
                    body = f"-{expo}"
                else:
                    body = f"{c}*{expo}"
            if parts:
                parts.append(f"+ {body}" if not body.startswith("-") else f"- {body[1:]}")
            else:
                parts.append(body)
        parts.append(f"+ O(q^({self.order_exponent}))")
        return " ".join(parts)


def _coerce(value, like: PuiseuxSeries):
    if isinstance(value, PuiseuxSeries):
        return value
    if isinstance(value, (int, Fraction)):
        return PuiseuxSeries.from_terms({0: Fraction(value)}, like.order_exponent)
    return NotImplemented


# ---------------------------------------------------------------------------
# integer series on a grid
#
# Every division in a recurrence or a sum must be exact; a remainder means a
# wrong input, so it raises rather than rounding.

# weyl_M3 starts at q^(1/8): index k of its half-integer grid is q^((k + 1/4)/2).
# A constant, so that verifying thm92 builds no Fraction.
_WEYL_M3_SHIFT = Fraction(1, 4)


def _check_order(order: int, least: int) -> None:
    if order < least:
        raise SeriesError(f"order must be >= {least}")
    if order > MAX_ORDER:
        raise SeriesError(f"order {order} exceeds the bound MAX_ORDER = {MAX_ORDER}")


def _exact_div(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise SeriesError(f"inexact division {num}/{den} in a series recurrence")
    return quot


def _grid_len(denom: int, shift: Rational, order: int) -> int:
    """Number of grid points k >= 0 with (k + shift)/denom < order."""
    num, den = shift.numerator, shift.denominator
    return max(0, -((num - order * denom * den) // den))


def _eta_quotient(exps: Dict[int, int], n: int) -> List[int]:
    """First n coefficients of prod_d prod_{k>=1} (1 - t^(dk))^exps[d].

    Log-derivative recurrence k a_k = -sum_{m=1..k} c_m a_(k-m) with
    c_m = sum_{d | m} e_d d sigma(m/d); for exps = {1: -1} it is Euler's
    k p(k) = sum sigma(m) p(k-m).
    """
    if any(d < 1 for d in exps):
        raise SeriesError("eta-quotient steps d must be >= 1")
    g = gcd(*exps)
    if g > 1:  # a series in t^g: run on the coarse grid, then spread out
        a = [0] * n
        a[::g] = _eta_quotient({d // g: e for d, e in exps.items()}, -(-n // g))
        return a
    sigma = [0] * n
    for j in range(1, n):
        for m in range(j, n, j):
            sigma[m] += j
    c = [0] * n
    for d, e in exps.items():
        for j in range(1, (n - 1) // d + 1):
            c[d * j] += e * d * sigma[j]
    a = [0] * n
    if n:
        a[0] = 1
    for k in range(1, n):
        a[k] = _exact_div(-sum(map(mul, c[1 : k + 1], a[k - 1 :: -1])), k)
    return a


def _power(coeffs: List[int], k: int, n: int) -> List[int]:
    """First n coefficients of P^k, P = sum coeffs[j] t^j with P(0) = 1.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
    m Q_m = sum_{j=1..m} ((k+1) j - m) p_j Q_(m-j).  Only nonzero p_j enter.
    """
    if not coeffs or coeffs[0] != 1:
        raise SeriesError("power recurrence needs P(0) = 1")
    steps = [(j, c) for j, c in enumerate(coeffs) if j and c]
    q = [0] * n
    if n:
        q[0] = 1
    for m in range(1, n):
        acc = 0
        for j, c in steps:
            if j > m:
                break
            acc += ((k + 1) * j - m) * c * q[m - j]
        q[m] = _exact_div(acc, m)
    return q


def _convolve(a: List[int], b: List[int], n: int) -> List[int]:
    """First n coefficients of a * b, looping over the sparser factor's terms."""
    if sum(map(bool, a)) < sum(map(bool, b)):
        a, b = b, a
    out = [0] * n
    for e, c in enumerate(b[:n]):
        if c:
            seg = a[: n - e]
            end = e + len(seg)
            out[e:end] = map(add, out[e:end], [c * x for x in seg])
    return out


def _triangular(n: int) -> List[int]:
    """First n coefficients of the triangular series sum_{m>=0} q^(m(m+1)/2)."""
    coeffs = [0] * n
    m = 0
    while m * (m + 1) // 2 < n:
        coeffs[m * (m + 1) // 2] = 1
        m += 1
    return coeffs


def _from_grid(coeffs: List[int], denom: int, shift: Rational, order: int) -> PuiseuxSeries:
    """sum_k coeffs[k] q^((k + shift)/denom) + O(q^order)."""
    shift = Fraction(shift)
    scale = denom * shift.denominator
    terms = {k * shift.denominator + shift.numerator: c for k, c in enumerate(coeffs) if c}
    return PuiseuxSeries(scale, terms, order * scale)


def euler_phi(order: int) -> PuiseuxSeries:
    """prod_{n>=1} (1 - q^n), to q^order."""
    _check_order(order, 1)
    return _from_grid(_eta_quotient({1: 1}, order), 1, 0, order)


def _model_grid(model: str, ell: int, order: int) -> Tuple[List[int], int, Rational]:
    """(coeffs, denom, shift) of a character model below q^order."""
    if model not in CHARACTER_MODELS:
        raise SeriesError(f"unknown character model {model!r}")
    _check_order(order, 1)
    if model == "delta":
        return _triangular(order), 1, 0
    if model == "weyl_M3":
        n = _grid_len(2, _WEYL_M3_SHIFT, order)
        return _eta_quotient({1: -6, 2: 6}, n), 2, _WEYL_M3_SHIFT
    if ell < 0:
        raise SeriesError("ell must be >= 0")
    if model == "sl2_m32":
        shift, poly = Fraction(3, 8) + Fraction(ell * (ell + 2), 2), [ell + 1]
    else:  # sl2_m4, moved up by q^drop so that the polynomial has grid indices >= 0
        drop = ell * (ell + 1) // 2
        if order + drop > MAX_ORDER:
            raise SeriesError(
                f"sl2_m4 at ell={ell} spans order + {drop}, above MAX_ORDER = {MAX_ORDER}"
            )
        poly = [0] * (drop + 1)
        for i in range(ell + 1):
            poly[drop - i * (i + 1) // 2] = (-1) ** (ell - i) * (2 * i + 1)
        shift = Fraction(-1, 4) - drop
    n = _grid_len(1, shift, order)
    return _convolve(_eta_quotient({1: -3}, n), poly, n), 1, shift


def character(model: str, ell: int = 0, order: int = 32) -> PuiseuxSeries:
    """Closed-form character series, exactly, truncated at q^order.

    sl2_m32: q^(3/8) phi^-3 (ell+1) q^(ell(ell+2)/2) — lowest exponent
        3/8 + ell(ell+2)/2.
    sl2_m4:  q^(-1/4) phi^-3 sum_{i=0..ell} (-1)^(ell-i) (2i+1) q^(-i(i+1)/2);
        it spans order + ell(ell+1)/2 integer steps, which must not exceed
        MAX_ORDER.
    weyl_M3: q^(1/8) (phi(q)/phi(q^(1/2)))^6, the rank-three free-field
        character; ell is ignored.
    delta:   the triangular series sum q^(n(n+1)/2); ell is ignored.
    """
    coeffs, denom, shift = _model_grid(model, ell, order)
    return _from_grid(coeffs, denom, shift, order)


# ---------------------------------------------------------------------------
# identity verification
#
# Each identity is expanded on both sides independently.  Double sums are
# truncated by the exact exponent bound: a summand enters iff its lowest
# emitted exponent lies below the order, never by an index heuristic.


def _signed_double_sum(order: int) -> List[int]:
    """sum_{l>=0} (l+1) sum_{i=0..l} (-1)^(l-i) (2i+1) q^((l(l+2)-i(i+1))/2),
    on the grid q^(1/2).

    The (l, i) term's exponent is minimal at i = l, where it equals l/2, so
    l ranges over l/2 < order; the inner loop runs downward from i = l and
    stops as soon as the exponent reaches the order.
    """
    bound = 2 * order
    coeffs = [0] * bound
    for l in range(bound):
        base = l * (l + 2)
        for i in range(l, -1, -1):
            e = base - i * (i + 1)  # twice the exponent
            if e >= bound:
                break
            coeffs[e] += (-1) ** (l - i) * (l + 1) * (2 * i + 1)
    return coeffs


def _kw_sum(order: int) -> List[int]:
    """-(1/8) sum (-1)^((j-1)(k+1)/4) (j^2-k^2) q^((jk-3)/4) over odd j > k >= 1
    with (j-k)/2 odd; the exponent, the sign exponent and the term
    (j^2-k^2)/8 are integral on that index set."""
    coeffs = [0] * order
    k = 1
    while k * (k + 2) - 3 < 4 * order:  # smallest admissible j is k + 2
        j = k + 2
        while j * k - 3 < 4 * order:
            if (j - k) // 2 % 2:
                sign = (-1) ** _exact_div((j - 1) * (k + 1), 4)
                coeffs[_exact_div(j * k - 3, 4)] -= sign * _exact_div(j * j - k * k, 8)
            j += 2
        k += 2
    return coeffs


def _identity_grid(which: str, order: int) -> Tuple[List[int], List[int], int, Rational]:
    """(lhs, rhs, denom, shift): both sides of a named identity on one grid."""
    if which not in IDENTITY_NAMES:
        raise SeriesError(f"unknown identity {which!r}")
    _check_order(order, 4)
    if which == "delta_eta":
        return _triangular(order), _eta_quotient({1: -1, 2: 2}, order), 1, 0
    if which == "eq92":
        return _eta_quotient({1: -6, 2: 12}, 2 * order), _signed_double_sum(order), 2, 0
    if which == "kw":
        return _power(_triangular(order), 6, order), _kw_sum(order), 1, 0
    # thm92: the free-field character against the sl(2)-character pairing.
    # Each product sl2_m32(l) * sl2_m4(l) equals q^(1/8) phi^-6 times the
    # l-th slice of the signed double sum, so the right side is assembled
    # from that closed form; the slice-by-slice equality with the literal
    # character products is a separate test.
    lhs, denom, shift = _model_grid("weyl_M3", 0, order)
    n = len(lhs)
    return lhs, _convolve(_eta_quotient({2: -6}, n), _signed_double_sum(order), n), denom, shift


def identity_sides(which: str, order: int) -> Tuple[PuiseuxSeries, PuiseuxSeries]:
    """Independently expanded (left, right) sides of a named identity.

    delta_eta: Delta(q) = phi(q^2)^2 / phi(q)            (Delta: triangular series)
    eq92:      phi(q)^12 / phi(q^(1/2))^6 = the signed double character sum
    kw:        Delta(q)^6 = the signed odd-pair sum
    thm92:     weyl_M3 character = sum_l sl2_m32(l) * sl2_m4(l)
    """
    lhs, rhs, denom, shift = _identity_grid(which, order)
    return _from_grid(lhs, denom, shift, order), _from_grid(rhs, denom, shift, order)


def verify_identity(which: str, order: int) -> Tuple[bool, Optional[Fraction]]:
    """Check a named identity coefficientwise below q^order.

    Returns (True, None) when every coefficient below the order agrees,
    otherwise (False, smallest mismatching exponent).
    """
    lhs, rhs, denom, shift = _identity_grid(which, order)
    if lhs == rhs:
        return True, None
    k = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    return False, Fraction(k + shift, denom)
