"""Exact arithmetic in real quadratic fields.

`QuadraticNumber` is p + q*sqrt(d) with rational p, q and a fixed squarefree
d >= 0; it supports field arithmetic against rationals and same-field numbers
and exact equality against any number, is immutable, and prints as
(a+b*sqrt(d))/c.  It is the one type for solved levels.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
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
            s, d = squarefree_extract(d)
            q *= s
        if q == 0 or d <= 1:  # rational: q sqrt(d) is q d
            p, q, d = p + q * d, Fraction(0), 0
        for name, value in zip(self.__slots__, (p, q, d)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):  # immutable, so the hash holds
        raise AttributeError("QuadraticNumber is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return QuadraticNumber, (self.p, self.q, self.d)

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
        return self + (-other)

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

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        # d is 0 exactly when q is, so different radicands are different values
        if isinstance(other, QuadraticNumber):
            return (self.p, self.q, self.d) == (other.p, other.q, other.d)
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other
        return NotImplemented

    def __hash__(self):
        if self.q == 0:  # equal to the rational p, so hash like it
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __repr__(self):
        return f"QuadraticNumber({self.p!r}, {self.q!r}, {self.d!r})"

    def __str__(self):
        """(a+b*sqrt(d))/c with integers, c > 0 and gcd(a, b, c) = 1."""
        if self.is_rational:
            return str(self.p)
        c = lcm(self.p.denominator, self.q.denominator)
        a, b = int(self.p * c), int(self.q * c)
        sign = "+" if b >= 0 else "-"
        core = f"{a}{sign}{abs(b)}*sqrt({self.d})"
        return f"({core})/{c}" if c != 1 else f"({core})"


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from text like '-5/2' or '17'.

    A unicode minus sign is accepted; a zero denominator is a ValueError like
    any other malformed input.
    """
    try:
        return Fraction(text.strip().replace("−", "-"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
