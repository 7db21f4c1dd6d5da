"""Exact arithmetic in real quadratic fields, and normalized level values.

`QuadraticNumber` is p + q*sqrt(d) with rational p, q and a fixed squarefree
d >= 0; it supports field arithmetic against rationals and same-field numbers,
exact sign determination, and equality.  `LevelSolution` is the normalized
(a + b*sqrt(d))/c presentation used for solver output and reports.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Union

Rat = Union[int, Fraction]


def squarefree_extract(n: int) -> tuple[int, int]:
    """Write n >= 0 as s*s*d with d squarefree; return (s, d).

    Trial division up to the cube root; the remaining cofactor is then 1, a
    prime, a prime square, or a product of two distinct primes, so one integer
    square-root test finishes the job.
    """
    if n < 0:
        raise ValueError("squarefree_extract needs n >= 0")
    if n == 0:
        return 0, 0
    s, d, m = 1, 1, n
    p = 2
    while p * p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = isqrt(m)
    if r * r == m:
        s *= r
    else:
        d *= m
    return s, d


class QuadraticNumber:
    """p + q*sqrt(d), exact.  d is squarefree and >= 0; q == 0 forces d = 0."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p: Rat = 0, q: Rat = 0, d: int = 0):
        p, q = Fraction(p), Fraction(q)
        if d < 0:
            raise ValueError("negative radicand")
        if q != 0 and d > 1:
            s, d0 = squarefree_extract(d)
            q *= s
            d = d0
        if d in (0, 1) and q != 0:
            p += q * (0 if d == 0 else 1)
            q = Fraction(0)
            d = 0
        if q == 0:
            d = 0
        self.p, self.q, self.d = p, q, d

    # -- helpers -------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.p

    def _coerce(self, other) -> "QuadraticNumber":
        if isinstance(other, QuadraticNumber):
            if other.q != 0 and self.q != 0 and other.d != self.d:
                raise ValueError("mixed radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber(other)
        return NotImplemented  # type: ignore[return-value]

    # -- ring/field ops --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.d or o.d
        return QuadraticNumber(self.p + o.p, self.q + o.q, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.p, -self.q, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.d or o.d
        return QuadraticNumber(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticNumber":
        if self.p == 0 and self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        norm = self.p * self.p - self.q * self.q * self.d
        if norm == 0:
            raise ZeroDivisionError("zero field norm")
        return QuadraticNumber(self.p / norm, -self.q / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- comparisons -----------------------------------------------------------

    def sign(self) -> int:
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p*p against q*q*d exactly
        big_rational = p * p > q * q * d
        if p > 0:
            return 1 if big_rational else -1
        return -1 if big_rational else 1

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.p == o.p and self.q == o.q and (self.q == 0 or self.d == o.d)

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        return self == other or self < other

    def __hash__(self):
        if self.q == 0:  # equal to the rational p, so hash like it
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __repr__(self):
        return f"QuadraticNumber({self.p!r}, {self.q!r}, {self.d!r})"

    def __str__(self):
        if self.is_rational:
            return str(self.p)
        return str(LevelSolution.from_quadratic(self))


class LevelSolution:
    """A solved level (a + b*sqrt(d))/c, normalized.

    c > 0, gcd(a, b, c) = 1, d squarefree and >= 0; rational values collapse to
    b = 0, d = 0.  Equality is structural, which equals numeric equality in
    this normal form.  (A sign convention for the pure-surd case a = 0 cannot
    change the value and is therefore not applied.)
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if c == 0:
            raise ValueError("zero denominator")
        if d < 0:
            raise ValueError("negative radicand")
        if b:
            s, d = squarefree_extract(d)
            b *= s
        if d == 1:
            a, b, d = a + b, 0, 0
        elif d == 0 or b == 0:
            b, d = 0, 0
        if c < 0:
            a, b, c = -a, -b, -c
        if b == 0:
            d = 0
        g = gcd(gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def from_rational(cls, x: Rat) -> "LevelSolution":
        x = Fraction(x)
        return cls(x.numerator, 0, x.denominator, 0)

    @classmethod
    def from_quadratic(cls, x: QuadraticNumber) -> "LevelSolution":
        if x.is_rational:
            return cls.from_rational(x.p)
        # common denominator for p and q
        den = x.p.denominator * x.q.denominator // gcd(x.p.denominator, x.q.denominator)
        a = x.p.numerator * (den // x.p.denominator)
        b = x.q.numerator * (den // x.q.denominator)
        return cls(a, b, den, x.d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.a, self.c)

    def as_quadratic(self) -> QuadraticNumber:
        return QuadraticNumber(Fraction(self.a, self.c), Fraction(self.b, self.c), self.d)

    def sort_key(self):
        return (self.d, Fraction(self.a, self.c), Fraction(self.b, self.c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LevelSolution):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"LevelSolution({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        if self.is_rational:
            return str(self.a) if self.c == 1 else f"{self.a}/{self.c}"
        sign = "+" if self.b >= 0 else "-"
        core = f"{self.a}{sign}{abs(self.b)}*sqrt({self.d})"
        return f"({core})/{self.c}" if self.c != 1 else f"({core})"


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from text like '-5/2' or '17'.

    A unicode minus sign is accepted; a zero denominator is a ValueError like
    any other malformed input.
    """
    try:
        return Fraction(text.strip().replace("−", "-"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
