"""Exact arithmetic for real quadratic irrationals ``p + q*sqrt(s)``.

Filtration rates like sqrt(2) must be handled without floating point: the
value ``ceil(n * sqrt(2))`` sits arbitrarily close to an integer and a float
round-off would silently change an exponent.  All comparisons reduce to
integer sign tests and floors to one integer square root, so floors and
ceilings are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import spec_int


def is_squarefree(s: int) -> bool:
    if s < 1:
        return False
    f = 2
    while f * f <= s:
        if s % (f * f) == 0:
            return False
        f += 1
    return True


def floor_sqrt_form(a: int, c: int, b: int, s: int) -> int:
    """Exact ``floor((a + c*sqrt(s)) / b)`` for integers a, c, b > 0, s >= 0.

    This is ``(a + t) // b`` with ``t = floor(c*sqrt(s))``, one integer
    square root: ``isqrt(c^2 s)`` for c >= 0, and ``-isqrt(c^2 s) - 1``
    for c < 0 unless ``c^2 s`` is a square.
    """
    r = math.isqrt(c * c * s)
    if c < 0:
        r = -r if r * r == c * c * s else -r - 1
    return (a + r) // b


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class QuadraticIrrational:
    """The real number ``p + q*sqrt(s)`` with rational p, q and squarefree s."""

    p: Fraction
    q: Fraction
    s: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _as_fraction(self.p))
        object.__setattr__(self, "q", _as_fraction(self.q))
        if self.s == 1 or self.q == 0:
            # collapse to the rational normal form
            object.__setattr__(self, "p", self.p + self.q if self.s == 1 else self.p)
            object.__setattr__(self, "q", Fraction(0))
            object.__setattr__(self, "s", 1)
            return
        if not is_squarefree(self.s):
            raise ValueError(f"radicand {self.s} is not squarefree")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(value) -> "QuadraticIrrational":
        return QuadraticIrrational(_as_fraction(value), Fraction(0), 1)

    @staticmethod
    def sqrt(s: int) -> "QuadraticIrrational":
        """Exact square root of a nonnegative integer, square part extracted."""
        if s < 0:
            raise ValueError("negative radicand")
        square, rest = 1, s
        f = 2
        while f * f <= rest:
            while rest % (f * f) == 0:
                square *= f
                rest //= f * f
            f += 1
        if rest == 1:
            return QuadraticIrrational.rational(square)
        return QuadraticIrrational(Fraction(0), Fraction(square), rest)

    # -- predicates and exact comparisons ----------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.p

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(s)."""
        p, q, s = self.p, self.q, self.s
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p^2 with q^2 s, the larger magnitude wins
        lhs, rhs = p * p, q * q * s
        if lhs == rhs:
            return 0
        bigger_is_p = lhs > rhs
        return (1 if p > 0 else -1) if bigger_is_p else (1 if q > 0 else -1)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "QuadraticIrrational":
        if isinstance(other, QuadraticIrrational):
            return other
        return QuadraticIrrational.rational(other)

    def __add__(self, other) -> "QuadraticIrrational":
        o = self._coerce(other)
        if self.q != 0 and o.q != 0 and self.s != o.s:
            raise ValueError(f"cannot add values from Q(sqrt {self.s}) and Q(sqrt {o.s})")
        s = self.s if self.q != 0 else o.s
        return QuadraticIrrational(self.p + o.p, self.q + o.q, s)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticIrrational":
        return QuadraticIrrational(-self.p, -self.q, self.s)

    def __sub__(self, other) -> "QuadraticIrrational":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "QuadraticIrrational":
        if isinstance(other, QuadraticIrrational):
            if self.q != 0 and other.q != 0:
                if self.s != other.s:
                    raise ValueError("mixed radicands")
                return QuadraticIrrational(
                    self.p * other.p + self.q * other.q * self.s,
                    self.p * other.q + self.q * other.p,
                    self.s,
                )
            s = self.s if self.q != 0 else other.s
            return QuadraticIrrational(
                self.p * other.p, self.p * other.q + self.q * other.p, s
            )
        x = _as_fraction(other)
        return QuadraticIrrational(self.p * x, self.q * x, self.s)

    __rmul__ = __mul__

    def __lt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - self._coerce(other)).sign() >= 0

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(self.s)

    # -- floors and ceilings -------------------------------------------------

    def floor(self) -> int:
        p, q = self.p, self.q
        b = math.lcm(p.denominator, q.denominator)
        a, c = p.numerator * (b // p.denominator), q.numerator * (b // q.denominator)
        return floor_sqrt_form(a, c, b, self.s)

    def ceil(self) -> int:
        if self.is_rational:
            return math.ceil(self.p)
        # irrational values are never integers
        return self.floor() + 1

    def ceil_times(self, n: int) -> int:
        """Exact ``ceil(n * value)`` for an integer n >= 0."""
        return (self * n).ceil() if n else 0

    # -- formatting / serialization -----------------------------------------

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.p)
        return f"{self.p} + {self.q}*sqrt({self.s})"

    def to_json(self) -> dict:
        return {"p": str(self.p), "q": str(self.q), "s": self.s}

    @staticmethod
    def from_json(data: dict) -> "QuadraticIrrational":
        return QuadraticIrrational(
            Fraction(data["p"]), Fraction(data["q"]), spec_int(data["s"], "radicand s", 1)
        )


SQRT2 = QuadraticIrrational.sqrt(2)


def ceil_sqrt(k: int) -> int:
    """Exact ``ceil(sqrt(k))`` for an integer k >= 0."""
    if k < 0:
        raise ValueError("negative radicand")
    r = math.isqrt(k)
    return r if r * r == k else r + 1
