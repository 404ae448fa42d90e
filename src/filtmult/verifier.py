"""Executable property suites: Minkowski inequalities, the Rees identity,
integrality invariance of multiplicities, and the non-polynomiality witness
of the ceiling-norm counterexample, whose limit function is a closed form.

Pass/fail verdicts on exact data are decided in exact arithmetic; the d-th
root comparison of the Minkowski product inequality avoids floating point by
an algebraic equality pre-check plus outward-rounded rational root intervals
that widen until the comparison is decidable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatch, SpecValidationError, spec_int
from .filtrations import (
    CeilingNormMultiFiltration,
    Filtration,
    PowerFiltration,
    ShiftedPowerFiltration,
)
from .multiplicity import (
    ExactStrategy,
    LimitFunction,
    Strategy,
    degree_monomials,
    filtration_multiplicity,
    mixed_multiplicity_table,
    monomial_matrix,
)
from . import linalg
from .quadratic import QuadraticIrrational, ceil_sqrt
from .staircase import (
    MonomialIdeal,
    integral_closure,
    maximal_ideal,
    minimalize,
)


# ---------------------------------------------------------------------------
# Sound d-th root comparison


def _int_nthroot_floor(n: int, d: int) -> int:
    """floor(n**(1/d)) by integer Newton iteration (no floating point)."""
    if n < 0:
        raise ValueError("negative radicand")
    if n < 2 or d == 1:
        return n
    if d == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // d)  # power of two >= n**(1/d)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            break
        x = y
    while x**d > n:
        x -= 1
    while (x + 1) ** d <= n:
        x += 1
    return x


def _rational_dth_root(x: Fraction, d: int) -> Fraction | None:
    rn = _int_nthroot_floor(x.numerator, d)
    rd = _int_nthroot_floor(x.denominator, d)
    if rn**d == x.numerator and rd**d == x.denominator:
        return Fraction(rn, rd)
    return None


def _root_interval(x: Fraction, d: int, bits: int) -> tuple[Fraction, Fraction]:
    """Outward-rounded enclosure of x**(1/d) of width 2^-bits."""
    scale = 1 << (bits * d)
    v = (x.numerator * scale) // x.denominator
    r = _int_nthroot_floor(v, d)
    return Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)


def root_sum_compare(A: Fraction, B: Fraction, C: Fraction, d: int) -> tuple[bool, bool]:
    """Decide ``A**(1/d) <= B**(1/d) + C**(1/d)`` exactly.

    Returns (holds, is_equality).  Equality of radicals forces rational
    ratios, so it is detected algebraically; strict comparisons terminate by
    interval refinement.
    """
    A, B, C = Fraction(A), Fraction(B), Fraction(C)
    if min(A, B, C) < 0:
        raise ValueError("root comparison needs nonnegative values")
    if d == 1:
        return A <= B + C, A == B + C
    t = A - B - C
    if B == 0 or C == 0:
        other = B + C
        return A <= other, A == other
    if t < 0:
        return True, False
    if t == 0:
        # strict: B^(1/d) + C^(1/d) > (B + C)^(1/d) = A^(1/d)
        return True, False
    if d == 2:
        lhs, rhs = t * t, 4 * B * C
        return lhs <= rhs, lhs == rhs
    rho = _rational_dth_root(B / C, d)
    if rho is not None and A == (rho + 1) ** d * C:
        return True, True
    bits = 32
    while True:
        loA, hiA = _root_interval(A, d, bits)
        loB, hiB = _root_interval(B, d, bits)
        loC, hiC = _root_interval(C, d, bits)
        if hiA <= loB + loC:
            return True, False
        if loA > hiB + hiC:
            return False, False
        bits *= 2


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class InequalityRecord:
    name: str
    left: float
    right: float
    slack: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "left": self.left,
            "right": self.right,
            "slack": self.slack,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class InequalityReport:
    records: tuple[InequalityRecord, ...]
    passed: bool
    exact: bool
    context: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "exact": self.exact,
            "records": [r.to_json() for r in self.records],
            "context": self.context,
        }


def _record(name, left, right, passed=None) -> InequalityRecord:
    if passed is None:
        passed = left <= right
    return InequalityRecord(
        name=name,
        left=float(left),
        right=float(right),
        slack=float(right) - float(left),
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# Minkowski inequalities


def minkowski_report(
    F1: Filtration,
    F2: Filtration,
    strategy: Strategy | None = None,
    tolerance: float = 1e-6,
    seed: int = 0,
) -> InequalityReport:
    """Verify the four Minkowski inequality families for a filtration pair.

    e_i denotes the mixed multiplicity of type (i, d-i).  The table and
    e(F1) = d! P(1,0), e(F2) = d! P(0,1) and e(F1 F2) = d! P(1,1) all read
    one memoized limit function P of the pair.  With the exact strategy
    every verdict is an exact rational comparison; the d-th root inequality
    is decided by ``root_sum_compare``.
    """
    if F1.dim != F2.dim:
        raise DimensionMismatch("minkowski report needs equal dimensions")
    d = F1.dim
    P = LimitFunction([F1, F2], strategy)
    table = mixed_multiplicity_table(P, seed=seed)
    e = {i: table.entry((i, d - i)) for i in range(d + 1)}
    e1, e2, eprod = (math.factorial(d) * P(n).value for n in ((1, 0), (0, 1), (1, 1)))
    exact = table.exact
    records = []
    for i in range(1, d):
        records.append(_record(f"log_convexity[i={i}]", e[i] * e[i], e[i + 1] * e[i - 1]))
    for i in range(d + 1):
        records.append(_record(f"pair_product[i={i}]", e[i] * e[d - i], e1 * e2))
    for i in range(d + 1):
        records.append(_record(f"power_bound[i={i}]", e[d - i] ** d, e1 ** (d - i) * e2**i))
    left = float(eprod) ** (1 / d)
    right = float(e1) ** (1 / d) + float(e2) ** (1 / d)
    is_eq = False
    if exact:
        holds, is_eq = root_sum_compare(Fraction(eprod), Fraction(e1), Fraction(e2), d)
        rec = InequalityRecord(
            name="root_subadditivity",
            left=left,
            right=right,
            slack=0.0 if is_eq else right - left,
            passed=holds,
        )
    else:
        rec = _record("root_subadditivity", left, right, passed=left <= right + tolerance)
    records.append(rec)
    passed = all(r.passed for r in records)
    context = {
        "d": d,
        "seed": seed,
        "e": {str(i): str(e[i]) if exact else float(e[i]) for i in range(d + 1)},
        "e_F1": str(e1) if exact else float(e1),
        "e_F2": str(e2) if exact else float(e2),
        "e_product": str(eprod) if exact else float(eprod),
        "root_equality": is_eq,
    }
    return InequalityReport(tuple(records), passed, exact, context)


# ---------------------------------------------------------------------------
# Rees identity


def rees_identity_check(
    Fs: list[Filtration],
    slot: int,
    strategy: Strategy | None = None,
    tolerance: float = 1e-6,
    seed: int = 0,
) -> InequalityReport:
    """Check that concentrating all weight on one slot recovers the plain
    multiplicity, and that zero-weight slots drop out of the table.

    Every value reads one memoized limit function P of the family; the
    reduced family's is P with a zero index in the slot.
    """
    r = len(Fs)
    if not 1 <= slot <= r:
        raise ValueError(f"slot must be in 1..{r}")
    P = LimitFunction(Fs, strategy)
    d = P.d
    unit = tuple(int(j == slot - 1) for j in range(r))
    single = math.factorial(d) * P(unit).value
    if r == 1:
        rec = _record("tautology[r=1]", single, single, passed=True)
        return InequalityReport((rec,), True, isinstance(P.strategy, ExactStrategy), {"d": d})
    table = mixed_multiplicity_table(P, seed=seed)
    exact = table.exact

    def equal(name, left, right):
        same = left == right if exact else abs(float(left) - float(right)) <= tolerance
        return _record(name, left, right, passed=same)

    concentrated = tuple(d * v for v in unit)
    records = [equal(f"concentrated[slot={slot}]", table.entry(concentrated), single)]
    rtable = mixed_multiplicity_table(P.without(slot), seed=seed)
    for t in rtable.types():
        full_type = list(t)
        full_type.insert(slot - 1, 0)
        records.append(equal(f"zero_drop[{t}]", table.entry(tuple(full_type)), rtable.entry(t)))
    passed = all(rec.passed for rec in records)
    return InequalityReport(tuple(records), passed, exact, {"d": d, "slot": slot})


# ---------------------------------------------------------------------------
# Integrality invariance


def integrality_check(Iprime: MonomialIdeal) -> InequalityReport:
    """Passing to the integral closure preserves the multiplicity of the
    power filtration; the converse direction genuinely fails and is reported
    as information, not as a failure.  Every multiplicity is exact."""
    closure = integral_closure(Iprime)
    e_prime = filtration_multiplicity(PowerFiltration(Iprime))
    e_closure = filtration_multiplicity(PowerFiltration(closure))
    passed = e_prime == e_closure
    records = [_record("closure_multiplicity", e_prime, e_closure, passed=passed)]
    # informational converse: equal multiplicities with genuinely different
    # filtrations (powers of m versus shifted powers of m)
    d = Iprime.dim
    Fm = PowerFiltration(maximal_ideal(d))
    Fshift = ShiftedPowerFiltration(maximal_ideal(d), 1)
    e_m = filtration_multiplicity(Fm)
    e_shift = filtration_multiplicity(Fshift)
    context = {
        "closure_gens": [list(g) for g in closure.gens],
        "converse_demo": {
            "e_powers": str(e_m),
            "e_shifted": str(e_shift),
            "equal_multiplicities": e_m == e_shift,
            "filtrations_differ": Fm.ideal_at(1) != Fshift.ideal_at(1),
        },
    }
    return InequalityReport(tuple(records), passed, True, context)


# ---------------------------------------------------------------------------
# Multigraded non-polynomiality witness


@dataclass(frozen=True)
class WitnessPoint:
    point: tuple[int, ...]
    estimate: float
    error_bound: float
    exact: bool
    sqrt_form: float
    ceil_form: int

    def to_json(self) -> dict:
        return {
            "point": list(self.point),
            "estimate": self.estimate,
            "error_bound": self.error_bound,
            "exact": self.exact,
            "closed_form_sqrt": self.sqrt_form,
            "closed_form_ceil": self.ceil_form,
        }


@dataclass(frozen=True)
class WitnessReport:
    points: tuple[WitnessPoint, ...]
    coefficients: tuple[float, ...]
    max_residual: float
    threshold: float
    witnessed: bool
    degree: int

    def to_json(self) -> dict:
        return {
            "points": [p.to_json() for p in self.points],
            "fit_coefficients": list(self.coefficients),
            "max_residual": self.max_residual,
            "threshold": self.threshold,
            "non_polynomiality_witnessed": self.witnessed,
            "degree": self.degree,
        }


def non_polynomial_witness(
    MF: CeilingNormMultiFiltration,
    points: list[tuple[int, ...]],
    degree: int,
    threshold: float = 0.05,
) -> WitnessReport:
    """Least-squares fit of a homogeneous form to the limit function of a
    ceiling-norm filtration.

    The limit at n is exactly sqrt(sum_j w_j n_j^2).  A max residual above
    the threshold witnesses that no homogeneous polynomial of the given
    degree matches it on the sample points.  The report also records both
    closed-form candidates (the norm and its round-up), which agree exactly
    on points whose squared norm is a perfect square.
    """
    pts = [tuple(spec_int(v, "witness point coordinates") for v in p) for p in points]
    if len(set(pts)) != len(pts):
        raise SpecValidationError("witness points must be distinct")
    r = MF.arity
    if any(len(p) != r for p in pts):
        raise SpecValidationError(f"witness points need {r} coordinates")
    g = len(degree_monomials(r, degree))
    if len(pts) < g + 3:
        raise SpecValidationError(f"need at least {g + 3} points, got {len(pts)}")
    rows = monomial_matrix(pts, degree)
    values = []
    witness_points = []
    for p in pts:
        radicand = sum(w * v * v for w, v in zip(MF.weights, p))
        root = QuadraticIrrational.sqrt(radicand)
        est = float(root.as_fraction()) if root.is_rational else float(root)
        witness_points.append(
            WitnessPoint(
                point=p,
                estimate=est,
                error_bound=0.0,
                exact=True,
                sqrt_form=math.sqrt(radicand),
                ceil_form=ceil_sqrt(radicand),
            )
        )
        values.append(Fraction(est))
    # normal equations, solved exactly
    ata = [
        [sum(rows[i][a] * rows[i][b] for i in range(len(rows))) for b in range(g)]
        for a in range(g)
    ]
    aty = [sum(rows[i][a] * values[i] for i in range(len(rows))) for a in range(g)]
    solution = linalg.solve(ata, aty)
    if solution is None:
        raise SpecValidationError("sample points do not determine the form (singular fit)")
    residuals = [
        abs(sum(rows[i][a] * solution[a] for a in range(g)) - values[i])
        for i in range(len(rows))
    ]
    max_residual = float(max(residuals))
    return WitnessReport(
        points=tuple(witness_points),
        coefficients=tuple(float(c) for c in solution),
        max_residual=max_residual,
        threshold=threshold,
        witnessed=max_residual > threshold,
        degree=degree,
    )


STANDARD_WITNESS_POINTS = (
    (1, 0),
    (0, 1),
    (1, 1),
    (2, 1),
    (1, 2),
    (3, 4),
    (2, 3),
    (5, 12),
)


# ---------------------------------------------------------------------------
# Random instances and suites


def random_m_primary_ideal(rng: random.Random, dim: int, max_exp: int) -> MonomialIdeal:
    """A random m-primary monomial ideal with exponents <= max_exp.

    In the plane the generators are sampled as a staircase lattice path
    (strictly increasing x against strictly decreasing y); in higher
    dimension random interior points are added to random pure powers and
    minimalized, which again yields an m-primary antichain.
    """
    if max_exp < 1:
        raise ValueError("max_exp must be >= 1")
    if dim == 1:
        return MonomialIdeal(1, ((rng.randint(1, max_exp),),))
    if dim == 2:
        k = rng.randint(0, min(3, max_exp - 1))
        xs = sorted(rng.sample(range(1, max_exp + 1), k + 1))
        ys = sorted(rng.sample(range(1, max_exp + 1), k + 1), reverse=True)
        gens = [(0, ys[0])] + [(x, y) for x, y in zip(xs[:-1], ys[1:])] + [(xs[-1], 0)]
        return minimalize(gens, 2)
    gens = []
    for axis in range(dim):
        c = rng.randint(1, max_exp)
        gens.append(tuple(c if j == axis else 0 for j in range(dim)))
    for _ in range(rng.randint(1, 3)):
        gens.append(tuple(rng.randint(1, max_exp) for _ in range(dim)))
    return minimalize(gens, dim)


@dataclass(frozen=True)
class SuiteResult:
    case: str
    instances: tuple[dict, ...]
    passed: bool

    def to_json(self) -> dict:
        return {"case": self.case, "pass": self.passed, "instances": list(self.instances)}


def minkowski_suite(
    count_d2: int = 100,
    count_d3: int = 25,
    seed: int = 0,
    max_exp_d2: int = 5,
    max_exp_d3: int = 4,
) -> SuiteResult:
    """Random power-filtration pairs; every inequality must hold exactly."""
    jobs = []
    for i in range(count_d2):
        jobs.append(("minkowski_d2", 2, max_exp_d2, seed + i))
    for i in range(count_d3):
        jobs.append(("minkowski_d3", 3, max_exp_d3, seed + 10_000 + i))

    def run(job):
        case, dim, max_exp, inst_seed = job
        rng = random.Random(inst_seed)
        F1 = PowerFiltration(random_m_primary_ideal(rng, dim, max_exp))
        F2 = PowerFiltration(random_m_primary_ideal(rng, dim, max_exp))
        report = minkowski_report(F1, F2, ExactStrategy())
        return {
            "seed": inst_seed,
            "case": case,
            "pass": report.passed,
            "slacks": [r.slack for r in report.records],
        }

    instances = tuple(map(run, jobs))
    return SuiteResult("minkowski", instances, all(r["pass"] for r in instances))


def integrality_suite(
    count: int = 20, seed: int = 0, max_exp: int = 6
) -> SuiteResult:
    """Random m-primary ideals: the closure has the same multiplicity."""
    jobs = []
    for i in range(count):
        dim = 2 + (i % 2)
        jobs.append((dim, seed + i))

    def run(job):
        dim, inst_seed = job
        rng = random.Random(inst_seed)
        ideal = random_m_primary_ideal(rng, dim, max_exp if dim == 2 else max(3, max_exp - 2))
        report = integrality_check(ideal)
        return {
            "seed": inst_seed,
            "case": f"integrality_d{dim}",
            "pass": report.passed,
            "slacks": [r.slack for r in report.records],
        }

    instances = tuple(map(run, jobs))
    return SuiteResult("integrality", instances, all(r["pass"] for r in instances))
