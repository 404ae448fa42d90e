"""Multiplicities and mixed multiplicities of filtrations.

The normalized colength function ``P(n_1..n_r) = lim lam(R / I(1)_{m n_1}
... I(r)_{m n_r}) / m^d`` is a homogeneous polynomial of degree d in n.
Exact values are covolumes of Minkowski sums of the filtrations' limit
bodies, the closures of the unions of the (1/m)*Newton(I_m) (Cutkosky,
"Multiplicities associated to graded families of ideals", Algebra & Number
Theory 2013; Kaveh-Khovanskii, Proc. Steklov Inst. 2014), each a
``geometry.Body``; a numeric strategy extrapolates colengths instead.
Mixed multiplicities are the normalized coefficients of that polynomial.
A ``LimitFunction`` memoizes P for one family.  Exact entries are its
finite differences e(t) = Delta^t P(0) (polarization), which need P only
at the primitive points below t; numeric entries are solved for from P at
sample points.  The test suite checks the covolumes against a target-free
finite-difference oracle of its own.
"""

from __future__ import annotations

import copy
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    DimensionMismatch,
    ExhaustedRetries,
    NotNoetherian,
    TopCoefficientDrift,
    spec_int,
)
from .filtrations import Filtration, PowerFiltration, product_at, truncate
from .staircase import colength

Exponent = tuple[int, ...]


# ---------------------------------------------------------------------------
# Strategies

@dataclass(frozen=True)
class ExactStrategy:
    """Evaluate limits exactly through the filtrations' limit bodies, each
    proven in closed form or by a complete finite check: every limit is
    the covolume of the summed body, in every dimension.
    """

    tag = "exact_noetherian"


@dataclass(frozen=True)
class NumericStrategy:
    """Evaluate limits along a geometric index schedule m0 * 2^k <= m_max.

    The reported error bound is the last successive difference; this is a
    heuristic (no convergence rate is asserted), so results are flagged
    inexact.
    """

    m_max: int = 4096
    m0: int = 1

    tag = "numeric"

    def schedule(self) -> list[int]:
        out = []
        m = self.m0
        while m <= self.m_max:
            out.append(m)
            m *= 2
        if len(out) < 2:
            raise BudgetExceeded(f"numeric schedule needs m_max >= 2*m0, got {self.m_max}")
        return out


Strategy = ExactStrategy | NumericStrategy


@dataclass(frozen=True)
class LimitEstimate:
    """A limit value with provenance: exact rational or extrapolated."""

    value: Fraction | float
    error_bound: Fraction | float
    exact: bool
    strategy: str
    samples: tuple[tuple[int, Fraction], ...] = ()

    def to_json(self) -> dict:
        if self.exact:
            return {"value": str(self.value), "exact": True, "strategy": self.strategy}
        return {
            "value": float(self.value),
            "error_bound": float(self.error_bound),
            "exact": False,
            "strategy": self.strategy,
            "samples": [[m, float(v)] for m, v in self.samples],
        }


# ---------------------------------------------------------------------------
# The limit function


def _validate_family(Fs: list[Filtration]) -> int:
    if not Fs:
        raise ValueError("need at least one filtration")
    dims = {F.dim for F in Fs}
    if len(dims) != 1:
        raise DimensionMismatch("filtrations have mixed ambient dimensions")
    return Fs[0].dim


def numeric_limit(term, d: int, strategy: NumericStrategy) -> LimitEstimate:
    """lim term(m) / m^d along the strategy's geometric schedule.

    The error bound is the last successive difference.  This is a heuristic
    (no convergence rate is asserted), so the estimate is flagged inexact.
    """
    samples = tuple((m, Fraction(term(m), m**d)) for m in strategy.schedule())
    error = abs(samples[-1][1] - samples[-2][1])
    return LimitEstimate(samples[-1][1], error, False, strategy.tag, samples)


def limit_normalized_colength(
    Fs: list[Filtration], n, strategy: Strategy | None = None
) -> LimitEstimate:
    """lim_m lam(R / I(1)_{m n_1} ... I(r)_{m n_r}) / m^d.

    Exact strategy: the limit is the covolume of the Minkowski sum of the
    limit bodies, sum_j n_j * Gamma_j.
    Numeric strategy: ``numeric_limit`` of the colengths.  When every active
    factor is a power filtration, the sample ideal prod_j I_j^{m n_j} is
    J^m for J = prod_j I_j^{n_j}, so the samples are taken along the power
    filtration of J, each one square of the last instead of a product of
    r large powers; the ideals, and so the samples, are the same.  Zero
    indices drop their factor; the all-zero index returns 0 exactly.
    """
    strategy = strategy if strategy is not None else ExactStrategy()
    d = _validate_family(Fs)
    n = tuple(spec_int(v, "indices") for v in n)
    if len(n) != len(Fs):
        raise DimensionMismatch(f"{len(Fs)} filtrations but {len(n)} indices")
    if any(v < 0 for v in n):
        raise ValueError("indices must be >= 0")
    active = [(F, v) for F, v in zip(Fs, n) if v > 0]
    if not active:
        return LimitEstimate(Fraction(0), Fraction(0), True, strategy.tag)

    if isinstance(strategy, NumericStrategy):
        if all(isinstance(F, PowerFiltration) for F, _ in active):
            G = PowerFiltration(product_at(Fs, n))
            return numeric_limit(lambda m: colength(G.ideal_at(m)), d, strategy)
        return numeric_limit(lambda m: colength(product_at(Fs, [m * v for v in n])), d, strategy)

    body, *rest = (v * F.limit_body() for F, v in active)
    return LimitEstimate(sum(rest, body).covolume(), Fraction(0), True, strategy.tag)


class LimitFunction:
    """n -> ``limit_normalized_colength(Fs, n, strategy)``, memoized by index.

    Under the exact strategy the limit is homogeneous of degree d, so only
    primitive indices are evaluated: P(n) = g^d * P(n / g) for g = gcd(n).
    ``without(slot)`` is the limit function of the family with that
    filtration left out.  It reads the same memo, since a zero index drops
    its factor.
    """

    def __init__(self, Fs: list[Filtration], strategy: Strategy | None = None):
        self.d = _validate_family(Fs)
        self.Fs = list(Fs)
        self.strategy = strategy if strategy is not None else ExactStrategy()
        self.slots = tuple(range(len(self.Fs)))
        self._memo: dict[Exponent, LimitEstimate] = {}

    @property
    def r(self) -> int:
        return len(self.slots)

    def without(self, slot: int) -> LimitFunction:
        """The limit function of this family without filtration ``slot``
        (counted from 1)."""
        if not 1 <= slot <= self.r:
            raise ValueError(f"slot must be in 1..{self.r}")
        view = copy.copy(self)
        view.slots = self.slots[: slot - 1] + self.slots[slot:]
        return view

    def __call__(self, n) -> LimitEstimate:
        n = tuple(spec_int(v, "indices") for v in n)
        if len(n) != self.r:
            raise DimensionMismatch(f"{self.r} filtrations but {len(n)} indices")
        full = [0] * len(self.Fs)
        for s, v in zip(self.slots, n):
            full[s] = v
        return self._at(tuple(full))

    def _at(self, n: Exponent) -> LimitEstimate:
        est = self._memo.get(n)
        if est is None:
            g = math.gcd(*n) if isinstance(self.strategy, ExactStrategy) else 1
            if g > 1:
                base = self._at(tuple(v // g for v in n))
                est = LimitEstimate(g**self.d * base.value, Fraction(0), True, base.strategy)
            else:
                est = limit_normalized_colength(self.Fs, n, self.strategy)
            self._memo[n] = est
        return est


# ---------------------------------------------------------------------------
# Mixed multiplicities


def degree_monomials(r: int, d: int) -> list[Exponent]:
    """Exponents of all degree-d monomials in r variables, graded-lex order
    starting at (d, 0, ..., 0)."""
    out = [e for e in itertools.product(range(d + 1), repeat=r) if sum(e) == d]
    return sorted(out, reverse=True)


def monomial_matrix(points: list[Exponent], d: int) -> list[list[int]]:
    r = len(points[0])
    cols = degree_monomials(r, d)
    return [[math.prod(p[i] ** e[i] for i in range(r)) for e in cols] for p in points]


def sample_points(r: int, d: int, seed: int = 0, max_attempts: int = 200) -> list[Exponent]:
    """g integer points whose degree-d monomial matrix is nonsingular;
    g = binom(r-1+d, r-1).

    Nonsingularity is generic, so seeded uniform draws from [1, 2g]^r with an
    exact elimination test converge immediately in practice.  Deterministic
    for a fixed seed; r = 1 always returns the canonical point (1).
    """
    if r < 1 or d < 1:
        raise ValueError("need r, d >= 1")
    g = math.comb(r - 1 + d, r - 1)
    if r == 1:
        return [(1,)]
    rng = random.Random(seed)
    for _ in range(max_attempts):
        pts = [tuple(rng.randint(1, 2 * g) for _ in range(r)) for _ in range(g)]
        if len(set(pts)) < g:
            continue
        if linalg.solve(monomial_matrix(pts, d), [0] * g) is not None:
            return pts
    raise ExhaustedRetries(f"no nonsingular sample matrix in {max_attempts} draws")


@dataclass(frozen=True)
class MixedMultiplicityTable:
    """Mixed multiplicities e(type) for all types (d_1..d_r) with sum = d.

    The limit polynomial is G(n) = sum_type entry(type) / prod(d_i!) * n^type.
    Numeric entries are solved for from G at ``points``, the sample points
    of ``sample_points``; exact entries are finite differences of G, drawn
    from no sample points, so an exact table has ``points == ()``.
    """

    d: int
    r: int
    entries: dict
    exact: bool
    points: tuple[Exponent, ...]
    strategy: str

    def entry(self, type_tuple) -> Fraction | float:
        return self.entries[tuple(type_tuple)]

    def polynomial_value(self, n) -> Fraction | float:
        n = tuple(n)
        total = 0
        for t, e in self.entries.items():
            denom = math.prod(math.factorial(i) for i in t)
            total += e * Fraction(math.prod(x**i for x, i in zip(n, t)), denom)
        return total

    def types(self) -> list[Exponent]:
        return sorted(self.entries, reverse=True)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "r": self.r,
            "entries": [
                {
                    "type": list(t),
                    "value": str(v) if self.exact else float(v),
                    "exact": self.exact,
                }
                for t, v in sorted(self.entries.items(), reverse=True)
            ],
            "points": [list(p) for p in self.points],
            "strategy": self.strategy,
        }


def mixed_multiplicity_table(
    Fs: list[Filtration] | LimitFunction, strategy: Strategy | None = None, seed: int = 0
) -> MixedMultiplicityTable:
    """The mixed multiplicities of a family, or of a ``LimitFunction``'s
    family through its memo and strategy (then ``strategy`` must be None).

    Exact strategy: each entry is the finite difference of the homogeneous
    limit polynomial P of degree d at 0,
    e(t) = sum_{0 <= k <= t} (-1)^(d - |k|) prod_i C(t_i, k_i) P(k);
    no sample point is drawn, no system is solved and ``seed`` is not read.
    Numeric strategy: b_j = P(point_j) at ``sample_points(r, d, seed)``; the
    homogeneous coefficients a solve B a = b exactly, and the entry of type
    (d_1..d_r) is the coefficient times d_1! ... d_r!.
    """
    if isinstance(Fs, LimitFunction):
        if strategy is not None:
            raise ValueError("a LimitFunction carries its own strategy")
        P = Fs
    else:
        P = LimitFunction(Fs, strategy)
    d, r = P.d, P.r
    if isinstance(P.strategy, ExactStrategy):
        points = []
        entries = {
            t: sum(
                (-1) ** (d - sum(k)) * math.prod(map(math.comb, t, k)) * P(k).value
                for k in itertools.product(*(range(v + 1) for v in t))
                if any(k)
            )
            for t in degree_monomials(r, d)
        }
        exact = True
    else:
        points = sample_points(r, d, seed)
        estimates = [P(p) for p in points]
        exact = all(est.exact for est in estimates)
        coeffs = linalg.solve(monomial_matrix(points, d), [est.value for est in estimates])
        entries = {
            e: a * math.prod(math.factorial(i) for i in e)
            for e, a in zip(degree_monomials(r, d), coeffs)
        }
    return MixedMultiplicityTable(
        d=d, r=r, entries=entries, exact=exact, points=tuple(points), strategy=P.strategy.tag
    )


def filtration_multiplicity(F: Filtration, strategy: Strategy | None = None) -> Fraction | float:
    """e(F) = d! * lim lam(R/I_m)/m^d."""
    est = limit_normalized_colength([F], (1,), strategy)
    return math.factorial(F.dim) * est.value


# ---------------------------------------------------------------------------
# Truncation convergence


@dataclass(frozen=True)
class TruncationConvergenceReport:
    schedule: tuple[int, ...]
    targets: tuple[Exponent, ...]
    sequences: dict
    deltas: dict
    exact: bool

    def to_json(self) -> dict:
        return {
            "schedule": list(self.schedule),
            "targets": [list(t) for t in self.targets],
            "sequences": {
                " ".join(map(str, t)): [str(v) for v in seq]
                for t, seq in self.sequences.items()
            },
            "deltas": {
                " ".join(map(str, t)): [str(v) for v in seq]
                for t, seq in self.deltas.items()
            },
            "exact": self.exact,
        }


def truncation_convergence(
    Fs: list[Filtration],
    a_schedule,
    targets=None,
    strategy: ExactStrategy | None = None,
) -> TruncationConvergenceReport:
    """Mixed multiplicities of the truncated filtrations along a schedule.

    Truncations are Noetherian, so every value is exact.  The report gives
    the per-target sequences and successive deltas; no convergence rate is
    asserted.
    """
    schedule = [spec_int(a, "schedule entry") for a in a_schedule]
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be nonempty and strictly increasing")
    strategy = strategy if strategy is not None else ExactStrategy()
    d = _validate_family(Fs)
    r = len(Fs)
    if targets is None:
        targets = [tuple(d if i == 0 else 0 for i in range(r))]
    targets = [tuple(spec_int(v, "target entries", 0) for v in t) for t in targets]
    for t in targets:
        if len(t) != r or sum(t) != d:
            raise ValueError(f"target {t} is not a type of total degree {d}")
    sequences = {t: [] for t in targets}
    for a in schedule:
        truncated = [truncate(F, a) for F in Fs]
        table = mixed_multiplicity_table(truncated, strategy)
        for t in targets:
            sequences[t].append(table.entry(t))
    deltas = {t: [y - x for x, y in zip(seq, seq[1:])] for t, seq in sequences.items()}
    return TruncationConvergenceReport(
        schedule=tuple(schedule),
        targets=tuple(targets),
        sequences=sequences,
        deltas=deltas,
        exact=True,
    )


# ---------------------------------------------------------------------------
# Quasi-polynomial fitting


@dataclass(frozen=True)
class QuasiPolynomial:
    """Periodic-coefficient polynomial: one exact polynomial per residue
    class of the period, all of total degree ``degree`` with identical
    top-degree coefficients."""

    arity: int
    period: int
    degree: int
    class_coefficients: dict

    def evaluate(self, n) -> Fraction:
        n = tuple(n)
        residue = tuple(v % self.period for v in n)
        total = Fraction(0)
        for e, c in self.class_coefficients[residue].items():
            total += c * math.prod(Fraction(v) ** k for v, k in zip(n, e))
        return total

    def top_coefficients(self) -> dict:
        first = next(iter(self.class_coefficients.values()))
        return {e: c for e, c in first.items() if sum(e) == self.degree}

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "period": self.period,
            "degree": self.degree,
            "classes": [
                {
                    "residue": list(b),
                    "coefficients": [
                        {"exponent": list(e), "value": str(c)}
                        for e, c in sorted(coeffs.items(), reverse=True)
                        if c != 0
                    ],
                }
                for b, coeffs in sorted(self.class_coefficients.items())
            ],
        }


# start offsets tried per residue class before the fit gives up
_FIT_RETRIES = 6


def fit_quasi_polynomial(Fs: list[Filtration], alpha: int, window: int = 2) -> QuasiPolynomial:
    """Recover the eventual quasi-polynomial of n -> lam(R / prod I(j)_{n_j}).

    The period alpha must be a multiple of each filtration's limit-body
    denominator D, a proven period: 1 for powers, the vertex denominator of
    a rational valuation or diagonal (Ehrhart), and lcm(K) for a truncation
    or a table, whose Rees algebra is generated in the degrees K; otherwise
    NotNoetherian is raised.  For each residue class of alpha the colength
    function is interpolated exactly on a tensor grid of large indices and
    validated at two extra fresh samples; the start offset is pushed out
    until validation holds (the threshold where the quasi-polynomial begins
    is discovered empirically).  Raises DegreeMismatch when an interpolant
    does not have total degree d, TopCoefficientDrift when the top
    coefficients differ across classes; both signal a bug or an invalid
    period input.
    """
    d = _validate_family(Fs)
    r = len(Fs)
    if alpha < 1:
        raise ValueError("period must be >= 1")
    for F in Fs:
        D = F.limit_body().denominator
        if alpha % D != 0:
            raise NotNoetherian(f"{F.describe()}: the period {alpha} is not a multiple of {D}")
    exponents = list(itertools.product(range(d + 1), repeat=r))
    class_coeffs: dict = {}
    for residue in itertools.product(range(alpha), repeat=r):
        k0 = max(window, 1)
        fitted = None
        for _ in range(_FIT_RETRIES):
            grid = list(itertools.product(range(k0, k0 + d + 1), repeat=r))
            nodes = [tuple(alpha * k + b for k, b in zip(ks, residue)) for ks in grid]
            rows = [
                [Fraction(math.prod(nv**e_i for nv, e_i in zip(node, e))) for e in exponents]
                for node in nodes
            ]
            rhs = [Fraction(colength(product_at(Fs, node))) for node in nodes]
            solution = linalg.solve(rows, rhs)
            if solution is not None:
                coeffs = dict(zip(exponents, solution))
                ok = True
                for extra in (d + 1, d + 2):
                    ks = tuple(k0 + extra for _ in range(r))
                    node = tuple(alpha * k + b for k, b in zip(ks, residue))
                    predicted = sum(
                        c * math.prod(Fraction(nv) ** e_i for nv, e_i in zip(node, e))
                        for e, c in coeffs.items()
                    )
                    if predicted != colength(product_at(Fs, node)):
                        ok = False
                        break
                if ok:
                    fitted = coeffs
                    break
            k0 += max(window, 1)
        if fitted is None:
            raise BudgetExceeded(
                f"interpolation did not stabilize for residue class {residue}"
            )
        class_coeffs[residue] = fitted

    for residue, coeffs in class_coeffs.items():
        if any(c != 0 for e, c in coeffs.items() if sum(e) > d):
            raise DegreeMismatch(f"class {residue}: interpolant exceeds total degree {d}")
        if all(c == 0 for e, c in coeffs.items() if sum(e) == d):
            raise DegreeMismatch(f"class {residue}: interpolant has total degree < {d}")
    reference = None
    for residue, coeffs in sorted(class_coeffs.items()):
        top = {e: c for e, c in coeffs.items() if sum(e) == d}
        if reference is None:
            reference = top
        elif top != reference:
            raise TopCoefficientDrift(
                f"top coefficients differ between classes: {reference} vs {top}"
            )
    return QuasiPolynomial(
        arity=r, period=alpha, degree=d, class_coefficients=class_coeffs
    )
