"""Exact arithmetic in Q[sqrt(k)] for a fixed nonnegative integer radicand."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Union

Rational = Union[int, Fraction]


@total_ordering
class QuadSurd:
    """A number a + b*sqrt(k) with rational a, b and a fixed integer k >= 1.

    Values are immutable. When k is a perfect square the irrational part is
    folded into the rational part at construction, so structural equality
    coincides with numeric equality and hashing is safe.
    """

    __slots__ = ("_a", "_b", "_k")

    def __init__(self, a: Rational, b: Rational = 0, k: int = 1) -> None:
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"radicand must be a positive integer, got {k!r}")
        a = Fraction(a)
        b = Fraction(b)
        r = math.isqrt(k)
        if r * r == k:
            a += b * r
            b = Fraction(0)
        self._a = a
        self._b = b
        self._k = k

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def k(self) -> int:
        return self._k

    def _coerce(self, other: object) -> "QuadSurd | None":
        if isinstance(other, QuadSurd):
            if other._k != self._k and other._b != 0 and self._b != 0:
                raise ValueError(
                    f"mixed radicands {self._k} and {other._k} are not supported"
                )
            if other._k != self._k:
                # one side is rational; re-express it over the common radicand
                k = self._k if self._b != 0 else other._k
                return QuadSurd(other._a, other._b, k) if other._b == 0 else other
            return other
        if isinstance(other, (int, Fraction)):
            return QuadSurd(Fraction(other), Fraction(0), self._k)
        return None

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1."""
        a, b, k = self._a, self._b, self._k
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 * k
        lhs = a * a
        rhs = b * b * k
        if lhs == rhs:
            return 0
        bigger_rational = lhs > rhs
        if a > 0:
            return 1 if bigger_rational else -1
        return -1 if bigger_rational else 1

    def __add__(self, other: object) -> QuadSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = self._k if self._b != 0 or o._b == 0 else o._k
        return QuadSurd(self._a + o._a, self._b + o._b, k)

    __radd__ = __add__

    def __sub__(self, other: object) -> QuadSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> QuadSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self) -> QuadSurd:
        return QuadSurd(-self._a, -self._b, self._k)

    def __mul__(self, other: object) -> QuadSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = self._k if self._b != 0 or o._b == 0 else o._k
        return QuadSurd(
            self._a * o._a + self._b * o._b * k,
            self._a * o._b + self._b * o._a,
            k,
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() == 0

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._k))

    def __bool__(self) -> bool:
        return self.sign() != 0

    def __float__(self) -> float:
        return float(self._a) + float(self._b) * math.sqrt(self._k)

    def __repr__(self) -> str:
        if self._b == 0:
            return f"QuadSurd({self._a})"
        return f"QuadSurd({self._a} + {self._b}*sqrt({self._k}))"
