"""Filtrations of monomial ideals: built-in families, truncation, checks.

A filtration is a map n -> I_n with I_0 = R, descending terms and
I_i * I_j contained in I_{i+j}.  Each kind owns its limit body, a
``geometry.Body``.  Instances are logically immutable; the memo cache on
``ideal_at`` is idempotent (a key always maps to the same ideal), so
concurrent reads and fills are safe.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import (
    ArityMismatch,
    DimensionMismatch,
    IndexOutOfTable,
    NotMPrimary,
    NotNoetherian,
    SpecValidationError,
    spec_field,
    spec_int,
    spec_object,
)
from .geometry import Body
from .quadratic import QuadraticIrrational, ceil_sqrt, floor_sqrt_form
from .staircase import (
    MonomialIdeal,
    ideal_sum,
    minimalize,
    power,
    product,
    unit_ideal,
)


class Filtration:
    """Base class; subclasses provide ``_compute(n)`` for n >= 1.

    Every Noetherian fact comes from one hook, ``_limit_body``, which each
    kind proves in closed form or by a complete finite check, or refuses:
    exact limits are covolumes of its body, and its denominator is a proven
    period of the colength quasi-polynomial.  ``limit_body`` builds the body
    once per instance.
    """

    kind = "abstract"

    def __init__(self, dim: int):
        self.dim = dim
        self._cache: dict[int, MonomialIdeal] = {}
        self._body: Body | None = None

    def ideal_at(self, n: int) -> MonomialIdeal:
        if n < 0:
            raise ValueError("filtration index must be >= 0")
        if n == 0:
            return unit_ideal(self.dim)
        found = self._cache.get(n)
        if found is None:
            found = self._compute(n)
            self._cache[n] = found
        return found

    def _compute(self, n: int) -> MonomialIdeal:
        raise NotImplementedError

    def limit_body(self) -> Body:
        """The limit body conv(G/D) + orthant, the closure of the union of
        the (1/m)*Newton(I_m); its covolume is lim lam(R/I_m)/m^d, and its
        denominator D is a period of the colength quasi-polynomial."""
        if self._body is None:
            self._body = self._limit_body()
        return self._body

    def _limit_body(self) -> Body:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind

    def __repr__(self) -> str:
        return f"<Filtration {self.describe()} d={self.dim}>"


class PowerFiltration(Filtration):
    """n -> I^n for a fixed m-primary ideal I."""

    kind = "power"

    def __init__(self, ideal: MonomialIdeal):
        if not ideal.is_m_primary():
            raise NotMPrimary("power filtrations need an m-primary base ideal")
        super().__init__(ideal.dim)
        self.ideal = ideal

    def _compute(self, n: int) -> MonomialIdeal:
        # geometric index schedules hit n/2 first, incremental loops hit n-1;
        # the numeric limit of an all-power family samples the powers of one
        # product ideal here, each the square of the last.  n = 1 is the
        # ideal itself: ``power`` takes no product with the unit ideal
        if n % 2 == 0 and n // 2 in self._cache:
            half = self._cache[n // 2]
            return product(half, half)
        if n - 1 in self._cache:
            return product(self._cache[n - 1], self.ideal)
        return power(self.ideal, n)

    def _limit_body(self) -> Body:
        return Body(self.ideal.gens)

    def to_json(self) -> dict:
        return {"kind": self.kind, "ideal": self.ideal.to_json()}

    def describe(self) -> str:
        return f"power({list(self.ideal.gens)})"


class ShiftedPowerFiltration(Filtration):
    """n -> I^(n+s) for n >= 1 (and R at n = 0)."""

    kind = "shifted_power"

    def __init__(self, ideal: MonomialIdeal, shift: int):
        if shift < 0:
            raise ValueError("shift must be >= 0")
        if not ideal.is_m_primary():
            raise NotMPrimary("shifted power filtrations need an m-primary base ideal")
        super().__init__(ideal.dim)
        self.ideal = ideal
        self.shift = shift

    def _compute(self, n: int) -> MonomialIdeal:
        return power(self.ideal, n + self.shift)

    _limit_body = PowerFiltration._limit_body  # the index shift is invisible in the limit

    def to_json(self) -> dict:
        return {"kind": self.kind, "ideal": self.ideal.to_json(), "shift": self.shift}

    def describe(self) -> str:
        return f"shifted_power({list(self.ideal.gens)}, s={self.shift})"


class DiagonalFiltration(Filtration):
    """n -> (x^ceil(n*theta)) in one variable, theta a quadratic irrational.

    Only d = 1 is admitted: with two or more variables the ideals
    (x_i^ceil(n*theta_i)) violate multiplicativity (already (x^n, y^n) does:
    x*y^n is in I_1*I_n but not in I_{n+1}).
    """

    kind = "diagonal"

    def __init__(self, rates: list[QuadraticIrrational]):
        if len(rates) != 1:
            raise SpecValidationError(
                "diagonal filtrations are only multiplicative in one variable"
            )
        if rates[0].sign() <= 0:
            raise ValueError("diagonal rate must be positive")
        super().__init__(1)
        self.rates = tuple(rates)

    def _compute(self, n: int) -> MonomialIdeal:
        e = self.rates[0].ceil_times(n)
        return MonomialIdeal(1, ((e,),))

    def _limit_body(self) -> Body:
        rate = self.rates[0]
        if not rate.is_rational:
            # theta is a vertex of the body, and a scale a would make the
            # body (1/a)*Newton(I_a), which is rational
            raise NotNoetherian(f"{self.describe()} has the irrational vertex {rate}")
        rate = rate.as_fraction()
        return Body([(rate.numerator,)], rate.denominator)

    def to_json(self) -> dict:
        return {"kind": self.kind, "rates": [r.to_json() for r in self.rates]}

    def describe(self) -> str:
        return f"diagonal({self.rates[0]})"


class MonomialValuationFiltration(Filtration):
    """n -> minimal set of a with sum_i a_i * w_i >= n, weights w_i > 0.

    All weights must lie in one real quadratic field Q(sqrt s), so each is
    stored once as ``(p_i + q_i*sqrt(s)) / b`` over a common integer
    denominator b and every threshold is an exact integer ceiling.
    """

    kind = "valuation"

    def __init__(self, weights: list[QuadraticIrrational]):
        if not weights:
            raise ValueError("need at least one weight")
        radicands = {w.s for w in weights if not w.is_rational}
        if len(radicands) > 1:
            raise SpecValidationError(
                "valuation weights must share a single quadratic radicand"
            )
        for w in weights:
            if w.sign() <= 0:
                raise ValueError("valuation weights must be positive")
        super().__init__(len(weights))
        self.weights = tuple(weights)
        self._s = radicands.pop() if radicands else 1
        self._b = math.lcm(*(f.denominator for w in weights for f in (w.p, w.q)))
        self._forms = tuple((int(w.p * self._b), int(w.q * self._b)) for w in weights)

    def _ceil_over(self, x: int, y: int, i: int) -> int:
        """Exact ``ceil((x + y*sqrt(s)) / (p_i + q_i*sqrt(s)))`` for integers x, y."""
        p, q = self._forms[i]
        s = self._s
        # times the conjugate p - q*sqrt(s); the norm is nonzero as sqrt(s)
        # is irrational or q = 0
        u, v, norm = x * p - y * q * s, y * p - x * q, p * p - q * q * s
        if norm < 0:
            u, v, norm = -u, -v, -norm
        return -floor_sqrt_form(-u, -v, norm, s)

    def _compute(self, n: int) -> MonomialIdeal:
        # walk a_1..a_{d-1} up to ceil(n / w_i), beyond which that coordinate
        # alone clears n; the least a_d that completes the sum is one ceiling
        nb, last = n * self._b, self.dim - 1
        caps = [self._ceil_over(nb, 0, i) for i in range(last)]
        ps, qs = zip(*self._forms[:last]) if last else ((), ())
        points = []
        for a in itertools.product(*(range(c + 1) for c in caps)):
            x = nb - sum(map(operator.mul, a, ps))
            y = -sum(map(operator.mul, a, qs))
            points.append((*a, max(0, self._ceil_over(x, y, last))))
        return minimalize(points, self.dim)

    def _limit_body(self) -> Body:
        if not all(w.is_rational for w in self.weights):
            # as for a diagonal: the irrational intercept 1/w_i is a vertex
            raise NotNoetherian(f"{self.describe()} has an irrational limit body vertex")
        # the body {x >= 0 : sum_i w_i x_i >= 1} is the hull of the axis
        # intercepts 1/w_i plus the orthant
        cuts = [1 / w.as_fraction() for w in self.weights]
        D = math.lcm(*(c.denominator for c in cuts))
        ends = [int(c * D) for c in cuts]
        return Body([tuple(e * (j == i) for j in range(self.dim)) for i, e in enumerate(ends)], D)

    def to_json(self) -> dict:
        return {"kind": self.kind, "weights": [w.to_json() for w in self.weights]}

    def describe(self) -> str:
        return f"valuation({', '.join(str(w) for w in self.weights)})"


class TableFiltration(Filtration):
    """Explicitly stored ideals I_1..I_N; indexing past N is an error.

    Its limits are those of the filtration the entries generate, the
    truncation at N, once the entries pass the filtration axioms.
    """

    kind = "table"

    def __init__(self, ideals: list[MonomialIdeal]):
        if not ideals:
            raise ValueError("table filtration needs at least one ideal")
        dims = {I.dim for I in ideals}
        if len(dims) != 1:
            raise DimensionMismatch("table ideals have mixed dimensions")
        for I in ideals:
            if not I.is_m_primary():
                raise NotMPrimary("table entries must be m-primary")
        super().__init__(ideals[0].dim)
        self.ideals = tuple(ideals)
        self._violation: tuple | None = None

    def _compute(self, n: int) -> MonomialIdeal:
        if n > len(self.ideals):
            raise IndexOutOfTable(f"table holds {len(self.ideals)} ideals, asked for {n}")
        return self.ideals[n - 1]

    def check(self) -> None:
        """Raise ``SpecValidationError`` unless the entries pass the filtration
        axioms; they are verified once per instance."""
        if self._violation is None:
            self._violation = verify_filtration(self, len(self.ideals)).first_violation or ()
        if self._violation:
            axiom, i, j = self._violation
            raise SpecValidationError(f"table is not a filtration: {axiom} fails at ({i}, {j})")

    def _limit_body(self) -> Body:
        # the truncation checks this table first
        return TruncatedFiltration(self, len(self.ideals)).limit_body()

    def to_json(self) -> dict:
        return {"kind": self.kind, "ideals": [I.to_json() for I in self.ideals]}


class TruncatedFiltration(Filtration):
    """Noetherian approximation: agree with the base up to a, generate beyond.

    For n > a the term is the sum over decompositions n = k + (n - k) with
    1 <= k <= min(a, n - 1) of I_k * I_{a, n-k}; parts larger than a never
    contribute anything new because they decompose recursively.
    """

    kind = "truncated"

    def __init__(self, base: Filtration, a: int):
        if a < 1:
            raise ValueError("truncation level must be >= 1")
        super().__init__(base.dim)
        self.base = base
        self.a = a

    def _compute(self, n: int) -> MonomialIdeal:
        if n <= self.a:
            return self.base.ideal_at(n)
        # fill the missing terms below n upwards, so that the recursion on
        # n - k stays one level deep however large n is
        low = n - 1
        while low > self.a and low not in self._cache:
            low -= 1
        for m in range(low + 1, n):
            self.ideal_at(m)
        total: MonomialIdeal | None = None
        for k in range(1, min(self.a, n - 1) + 1):
            part = product(self.base.ideal_at(k), self.ideal_at(n - k))
            total = part if total is None else ideal_sum(total, part)
        assert total is not None
        return total

    def check(self) -> None:
        """Raise ``SpecValidationError`` when a table under this truncation,
        directly or through further truncations, is not a filtration."""
        if isinstance(self.base, (TableFiltration, TruncatedFiltration)):
            self.base.check()

    def _limit_body(self) -> Body:
        # a term past a sums products over parts k_i <= a, and
        # (sum_i g_i) / (sum_i k_i) is a convex combination of the g_i / k_i;
        # a part whose generators all lie in products I_j * I_{k-j} adds no
        # point, so the Rees algebra is generated in the remaining degrees K
        # and lcm(K) is a period (Bruns-Herzog, Cohen-Macaulay Rings, 4.4).
        # A product with j outside K lies in one with a smaller j, by
        # multiplicativity, so only j in K need trying.
        self.check()
        gens = {k: self.base.ideal_at(k).gens for k in range(1, self.a + 1)}
        K: list[int] = []
        for k, G in gens.items():
            for x in G:
                if not _in_lower_products(x, k, K, gens):
                    K.append(k)
                    break
        L = math.lcm(*K)
        return Body([tuple(L // k * e for e in g) for k in K for g in gens[k]], L)

    def to_json(self) -> dict:
        return {"kind": self.kind, "base": self.base.to_json(), "a": self.a}

    def describe(self) -> str:
        return f"truncate({self.base.describe()}, a={self.a})"


def _in_lower_products(x, k: int, K: list[int], gens: dict) -> bool:
    """True when some g + h with g in gens[j], h in gens[k - j] and j in K
    divides x."""
    for j in K:
        for g in gens[j]:
            for h in gens[k - j]:
                if all(map(operator.le, map(operator.add, g, h), x)):
                    return True
    return False


def truncate(base: Filtration, a: int) -> TruncatedFiltration:
    return TruncatedFiltration(base, a)


def product_at(Fs, n) -> MonomialIdeal:
    """I(1)_{n_1} * ... * I(r)_{n_r}; zero indices drop their factor and the
    all-zero index gives the unit ideal."""
    terms = [F.ideal_at(k) for F, k in zip(Fs, n) if k > 0]
    return reduce(product, terms) if terms else unit_ideal(Fs[0].dim)


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checked: int
    first_violation: tuple[str, int, int] | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "first_violation": list(self.first_violation) if self.first_violation else None,
        }


def verify_filtration(F: Filtration, N: int) -> VerificationReport:
    """Check the filtration axioms for all indices up to N.

    Violations are reported, not raised; the first failing pair is recorded
    as (axiom, i, j).
    """
    checked = 0
    try:
        for n in range(N):
            checked += 1
            if not F.ideal_at(n + 1).leq(F.ideal_at(n)):
                return VerificationReport(False, checked, ("descending", n + 1, n))
        for i in range(1, N):
            for j in range(i, N - i + 1):
                checked += 1
                if not product(F.ideal_at(i), F.ideal_at(j)).leq(F.ideal_at(i + j)):
                    return VerificationReport(False, checked, ("multiplicative", i, j))
        for n in range(1, N + 1):
            checked += 1
            if not F.ideal_at(n).is_m_primary():
                return VerificationReport(False, checked, ("m_primary", n, n))
    except IndexOutOfTable:
        pass
    return VerificationReport(True, checked)


# ---------------------------------------------------------------------------
# The multigraded counterexample


class CeilingNormMultiFiltration:
    """(n_1..n_r) -> (x^ceil(sqrt(w_1 n_1^2 + ... + w_r n_r^2))) in d = 1.

    Its limit function sqrt(sum_j w_j n_j^2) is not a polynomial.  Each term
    is one integer square root, so nothing is cached.
    """

    dim = 1

    def __init__(self, arity: int, weights: list[int] | None = None):
        if arity < 1:
            raise ArityMismatch("arity must be >= 1")
        weights = list(weights) if weights is not None else [1] * arity
        if len(weights) != arity:
            raise ArityMismatch("one weight per slot")
        self.arity = arity
        self.weights = tuple(spec_int(w, "weights", 1) for w in weights)

    def ideal_at(self, n: tuple[int, ...]) -> MonomialIdeal:
        if len(n) != self.arity:
            raise ArityMismatch(f"expected {self.arity} indices, got {len(n)}")
        if any(v < 0 for v in n):
            raise ValueError("indices must be >= 0")
        if not any(n):
            return unit_ideal(1)
        return MonomialIdeal(1, ((ceil_sqrt(sum(w * v * v for w, v in zip(self.weights, n))),),))


# ---------------------------------------------------------------------------
# JSON round-trip


def _qi_from_json(data) -> QuadraticIrrational:
    if isinstance(data, dict):
        return QuadraticIrrational.from_json(data)
    return QuadraticIrrational.rational(Fraction(str(data)))


def filtration_from_json(data: dict) -> Filtration:
    kind = spec_object(data, "filtration").get("kind")

    def field(key):
        return spec_field(data, key, f"{kind} filtration")

    if kind == "power":
        return PowerFiltration(MonomialIdeal.from_json(field("ideal")))
    if kind == "shifted_power":
        return ShiftedPowerFiltration(
            MonomialIdeal.from_json(field("ideal")), spec_int(field("shift"), "shift", 0)
        )
    if kind == "diagonal":
        return DiagonalFiltration([_qi_from_json(r) for r in field("rates")])
    if kind == "valuation":
        return MonomialValuationFiltration([_qi_from_json(w) for w in field("weights")])
    if kind == "table":
        return TableFiltration([MonomialIdeal.from_json(e) for e in field("ideals")])
    if kind == "truncated":
        return TruncatedFiltration(filtration_from_json(field("base")), spec_int(field("a"), "a", 1))
    raise SpecValidationError(f"unknown filtration kind {kind!r}")
