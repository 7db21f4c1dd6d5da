"""Root systems and invariant bilinear forms of the finite-dimensional simple Lie algebras.

Everything is exact: Cartan data over integers, the normalized invariant form
(long roots of squared length 2) as an integer Gram matrix over one common
denominator, with `fractions.Fraction` only at the public boundary.  Weights and roots
are plain tuples of coordinates in the fundamental-weight basis; the owning
algebra is always passed explicitly.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence, Union

Coords = tuple
Rational = Union[int, Fraction]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}

_TYPE_RE = re.compile(r"^([A-Ga-g])\s*([0-9]+)$")

# (dim, dual Coxeter number) as functions of the rank.
_CLOSED_FORMS = {
    "A": lambda n: (n * (n + 2), n + 1),
    "B": lambda n: (n * (2 * n + 1), 2 * n - 1),
    "C": lambda n: (n * (2 * n + 1), n + 1),
    "D": lambda n: (n * (2 * n - 1), 2 * n - 2),
    "E": {6: (78, 12), 7: (133, 18), 8: (248, 30)}.get,
    "F": {4: (52, 9)}.get,
    "G": {2: (14, 4)}.get,
}

# Largest rank whose Cartan data, form and root system are built.  The root
# walk grows about as rank^3, and the largest ambient the paper's families
# reach (so(144) = D72) stays below the cap.
MAX_TABLE_RANK = 100


class LieError(ValueError):
    """Domain error: unknown algebra type, malformed weight, or size-bound violation."""


class SizeError(LieError):
    """A computation would exceed a configured size cap."""


class _AlgebraTypeFields(NamedTuple):
    family: str
    rank: int


class AlgebraType(_AlgebraTypeFields):
    """A simple-algebra label: family letter A..G plus rank.

    An immutable (family, rank) tuple, so it sorts by family, then rank.
    """

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> "AlgebraType":
        if family not in _MIN_RANK:
            raise LieError(f"unknown family {family!r} (expected one of A..G)")
        lo, hi = _MIN_RANK[family], _MAX_RANK.get(family)
        if rank < lo or hi is not None and rank > hi:
            allowed = f"{lo} and up" if hi is None else f"{lo}..{hi}"
            raise LieError(f"rank {rank} invalid for family {family} (allowed {allowed})")
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, iterable) -> "AlgebraType":
        # _replace builds through _make: both keep the checks of __new__.
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "AlgebraType":
        m = _TYPE_RE.match(text.strip())
        if not m:
            raise LieError(f"cannot parse algebra type {text!r} (expected e.g. 'B3', 'E8')")
        return cls(m.group(1).upper(), int(m.group(2)))


def _dynkin_data(fam: str, n: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Per-node integers 6 d_i, d_i the half-squared-lengths, and the bond
    list of the Dynkin diagram (0-indexed)."""
    if fam == "A":
        return [6] * n, [(i, i + 1) for i in range(n - 1)]
    if fam == "B":
        return [6] * (n - 1) + [3], [(i, i + 1) for i in range(n - 1)]
    if fam == "C":
        return [3] * (n - 1) + [6], [(i, i + 1) for i in range(n - 1)]
    if fam == "D":
        bonds = [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
        return [6] * n, bonds
    if fam == "E":
        bonds = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        bonds += [(i, i + 1) for i in range(5, n - 1)]
        return [6] * n, bonds
    if fam == "F":
        return [6, 6, 3, 3], [(0, 1), (1, 2), (2, 3)]
    if fam == "G":
        return [2, 6], [(0, 1)]
    raise LieError(f"unknown family {fam!r}")


def _invert_integer(matrix: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Adjugate and determinant of an integer matrix, so inverse = adj / det,
    by fraction-free Gauss-Jordan (Bareiss/Montante) elimination.

    Each elimination step computes ``(pivot * a_ij - a_ik * a_kj) / prev``
    where the division by the previous pivot is exact (Sylvester's identity),
    so intermediate values stay small integers.  The run leaves every diagonal
    entry equal to the determinant and the adjugate in the augmented half.
    Every leading principal minor must be non-zero, as for Cartan matrices.
    """
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev = 1
    for k in range(n):
        pivot = aug[k][k]
        if pivot == 0:
            raise LieError("zero leading principal minor in a Cartan matrix")
        row_k = aug[k]
        for i in range(n):
            if i == k:
                continue
            row_i = aug[i]
            factor = row_i[k]
            for j in range(2 * n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
        prev = pivot
    return tuple(tuple(row[n:]) for row in aug), prev


class SimpleAlgebra:
    """A simple Lie algebra with its root system and normalized invariant form.

    ``dim``, ``dual_coxeter`` and ``num_positive`` come from closed forms, so
    they cost nothing at any rank.  Every table below is built on first use,
    and only up to rank ``MAX_TABLE_RANK``.  The positive roots come from a
    walk up from the simple roots by simple reflections, which is checked
    against the closed forms: the root count and h^vee = (rho, theta) + 1.

    Attributes
    ----------
    d6 : the integers 6 d_i, d_i = (alpha_i, alpha_i)/2 the half squared lengths
        of the simple roots; ``d`` gives the d_i themselves.
    cartan : rows C[i][j] = 2(alpha_i, alpha_j)/(alpha_i, alpha_i), over integers;
        column j holds the fundamental-weight coordinates of the simple root alpha_j.
        ``_adjugate`` holds its inverse as (adj, det) over integers.
    gram / form_denom : the Gram matrix (omega_i, omega_j) = d_i (C^{-1})_ij of the
        fundamental weights, gram / form_denom in lowest terms, from the adjugate.
    positive_roots_omega / positive_roots_alpha : aligned coordinate lists.
    theta / theta_short : highest root and highest short root (equal when simply
        laced), the dominant roots of the two root lengths.
    """

    def __init__(self, typ: AlgebraType):
        self.type = typ
        self.family = typ.family
        self.rank = n = typ.rank
        self.dim, self.dual_coxeter = _CLOSED_FORMS[typ.family](n)
        self.num_positive = (self.dim - n) // 2
        self.iso_note = "isomorphic to A3" if (typ.family, n) == ("D", 3) else None

    # -- tables, built on first use ------------------------------------------

    def _table_rank(self) -> int:
        if self.rank > MAX_TABLE_RANK:
            raise SizeError(
                f"{self.type}: rank {self.rank} exceeds the cap MAX_TABLE_RANK = "
                f"{MAX_TABLE_RANK} on building roots and weight tables")
        return self.rank

    @cached_property
    def d6(self) -> tuple[int, ...]:
        return tuple(_dynkin_data(self.family, self._table_rank())[0])

    @property
    def d(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, 6) for x in self.d6)

    @cached_property
    def rho(self) -> Coords:
        return (1,) * self._table_rank()

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        # Bonded simple roots pair to -max(d_i, d_j), so
        # C[i][j] = 2(alpha_i, alpha_j)/(alpha_i, alpha_i) = -max(6 d_i, 6 d_j) / (6 d_i).
        d6 = self.d6
        n = self.rank
        cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
        for i, j in _dynkin_data(self.family, n)[1]:
            top = max(d6[i], d6[j])
            cartan[i][j], cartan[j][i] = -top // d6[i], -top // d6[j]
        return tuple(map(tuple, cartan))

    @cached_property
    def cartan_columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.cartan))

    @cached_property
    def _adjugate(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        return _invert_integer(self.cartan)

    # (omega_i, omega_j) = d_i (C^{-1})_ij = 6 d_i adj_ij / (6 det), in lowest terms:
    # form_denom = 6 det / g and gram_ij = 6 d_i adj_ij / g, g the gcd of them all.
    @cached_property
    def form_denom(self) -> int:
        adj, det = self._adjugate
        return 6 * det // math.gcd(6 * det, *(x * a for x, row in zip(self.d6, adj) for a in row))

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        adj, det = self._adjugate
        g = 6 * det // self.form_denom
        return tuple(tuple(x * a // g for a in row) for x, row in zip(self.d6, adj))

    @cached_property
    def _roots(self) -> tuple:
        """Walk up from the simple roots by simple reflections and check the result.

        s_i permutes the positive roots other than alpha_i, so every positive
        root is reached from a simple root by steps a -> s_i a = a - w_i alpha_i
        with w_i = <a, alpha_i^vee> < 0, the i-th fundamental-weight coordinate.
        Each root length is one Weyl orbit with exactly one dominant member, so
        the dominant roots are theta_short (lowest) and theta (highest).
        Returns the positive roots in simple-root and in fundamental-weight
        coordinates, theta and theta_short.
        """
        n = self.rank
        cols = self.cartan_columns
        # omega doubles as the root coordinate table and the "seen" set.
        omega = {tuple(int(i == j) for j in range(n)): cols[i] for i in range(n)}
        todo = list(omega)
        while todo:
            a = todo.pop()
            w = omega[a]
            for i, wi in enumerate(w):
                if wi < 0:
                    t = a[:i] + (a[i] - wi,) + a[i + 1:]
                    if t not in omega:
                        omega[t] = tuple(x - wi * c for x, c in zip(w, cols[i]))
                        todo.append(t)

        alphas = sorted(omega, key=lambda a: (sum(a), a))
        if len(alphas) != self.num_positive:
            raise LieError(
                f"{self.type}: the reflection walk gives {len(alphas)} positive roots, "
                f"the closed form {self.num_positive}")
        dominant = [omega[a] for a in alphas if min(omega[a]) >= 0]
        if len(dominant) != len(set(self.d6)):
            raise LieError(
                f"{self.type}: {len(dominant)} dominant roots for {len(set(self.d6))} root lengths")
        theta = dominant[-1]
        hv = self.inner_product(self.rho, theta) + 1
        if hv != self.dual_coxeter:  # also catches a non-integral (rho, theta)
            raise LieError(
                f"{self.type}: (rho, theta) + 1 = {hv}, the closed form gives {self.dual_coxeter}")
        return tuple(alphas), tuple(omega[a] for a in alphas), theta, dominant[0]

    @property
    def positive_roots_alpha(self) -> tuple[Coords, ...]:
        return self._roots[0]

    @property
    def positive_roots_omega(self) -> tuple[Coords, ...]:
        return self._roots[1]

    @property
    def theta(self) -> Coords:
        return self._roots[2]

    @property
    def theta_short(self) -> Coords:
        return self._roots[3]

    # -- basic operations ---------------------------------------------------

    def check_weight(self, lam: Sequence[Rational]) -> Coords:
        if len(lam) != self.rank:
            raise LieError(
                f"weight {tuple(lam)} has {len(lam)} coordinates; {self.type} has rank {self.rank}")
        return tuple(lam)

    def inner_product(self, lam: Sequence[Rational], mu: Sequence[Rational]) -> Fraction:
        """Normalized invariant form (lam, mu), both in fundamental-weight coordinates."""
        self.check_weight(lam)
        self.check_weight(mu)
        total = 0
        for li, row in zip(lam, self.gram):
            if li:
                total += li * sum(g * mj for g, mj in zip(row, mu) if mj)
        return Fraction(total, self.form_denom)

    def to_dominant(self, w: Sequence[Rational]) -> tuple[Coords, int]:
        """Dominant representative of the Weyl orbit of w, with the sign (-1)^length."""
        cur = tuple(w)
        sign = 1
        cols = self.cartan_columns
        n = self.rank
        while True:
            for i in range(n):
                if cur[i] < 0:
                    wi = cur[i]
                    col = cols[i]
                    cur = tuple(cur[k] - wi * col[k] for k in range(n))
                    sign = -sign
                    break
            else:
                return cur, sign

    def is_dominant(self, w: Sequence[Rational]) -> bool:
        return all(x >= 0 for x in w)

    def in_root_lattice(self, lam: Sequence[Rational]) -> bool:
        """Whether lam has integer coordinates in the simple-root basis: adj * lam = 0 mod det."""
        self.check_weight(lam)
        adj, det = self._adjugate
        return all(sum(a * x for a, x in zip(row, lam)) % det == 0 for row in adj)

    # -- identity -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"SimpleAlgebra({self.type})"

    def __str__(self) -> str:
        return str(self.type)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimpleAlgebra) and other.type == self.type

    def __hash__(self) -> int:
        return hash(self.type)


@lru_cache(maxsize=None)
def _build(typ: AlgebraType) -> SimpleAlgebra:
    return SimpleAlgebra(typ)


def build_algebra(typ: Union[str, AlgebraType, SimpleAlgebra]) -> SimpleAlgebra:
    """Construct (and cache) the simple algebra for a type label like 'B3' or AlgebraType('B', 3)."""
    if isinstance(typ, SimpleAlgebra):
        return typ
    if isinstance(typ, str):
        typ = AlgebraType.parse(typ)
    return _build(typ)


def constructible_types(max_rank: int = 8) -> list[AlgebraType]:
    """Every valid (family, rank) combination with rank <= max_rank, sorted."""
    out = []
    for fam, lo in sorted(_MIN_RANK.items()):
        hi = min(_MAX_RANK.get(fam, max_rank), max_rank)
        out.extend(AlgebraType(fam, n) for n in range(lo, hi + 1))
    return out


def fundamental(alg: SimpleAlgebra, i: int) -> Coords:
    """The i-th fundamental weight (1-indexed) as a coordinate tuple."""
    if not 1 <= i <= alg.rank:
        raise LieError(f"fundamental-weight index {i} out of range for {alg.type}")
    return tuple(int(j == i - 1) for j in range(alg.rank))


def zero_weight(alg: SimpleAlgebra) -> Coords:
    return (0,) * alg.rank

