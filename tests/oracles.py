"""Test oracles that reach the engine's exact values by another route."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from filtmult import linalg
from filtmult.errors import DimensionMismatch
from filtmult.filtrations import Filtration, product_at
from filtmult.geometry import covolume_from_gens, minimal_elements
from filtmult.multiplicity import (
    LimitEstimate,
    degree_monomials,
    limit_normalized_colength,
    monomial_matrix,
    sample_points,
)
from filtmult.quadratic import QuadraticIrrational
from filtmult.staircase import MonomialIdeal, colength, product, unit_ideal

# Powers taken per dimension.  Deep enough for every ideal the tests draw,
# and past the spurious plateau at 58 of the d = 3 ideal (z^3, y^5, x y^2 z,
# x^4), whose d-th differences settle at its multiplicity 59 only later.
# In d = 4 the tests draw ideals with exponents <= 3, whose powers grow
# fast; eight powers leave four 4th differences, the last three compared.
FINITE_DIFFERENCE_DEPTH = {1: 6, 2: 10, 3: 14, 4: 8}


def finite_difference_oracle(I: MonomialIdeal) -> int:
    """e(I) as the d-th difference of colength(I^m) at a fixed depth.

    It has no target to stop at and never computes a covolume.  The last
    three differences must agree; otherwise the depth is too small for I.
    """
    d = I.dim
    values = []
    current = unit_ideal(d)
    for _ in range(FINITE_DIFFERENCE_DEPTH[d]):
        current = product(current, I)
        values.append(colength(current))
    for _ in range(d):
        values = [b - a for a, b in zip(values, values[1:])]
    assert values[-1] == values[-2] == values[-3], f"no plateau of three: {values}"
    return values[-1]


class PointwiseProductFiltration(Filtration):
    """The filtration n -> F(n) * G(n) of two filtrations of the same ring,
    whose limit body is the sum of the factors' bodies."""

    kind = "pointwise_product"

    def __init__(self, left: Filtration, right: Filtration):
        if left.dim != right.dim:
            raise DimensionMismatch("pointwise product needs equal dimensions")
        super().__init__(left.dim)
        self.left = left
        self.right = right

    def _compute(self, n: int) -> MonomialIdeal:
        return product(self.left.ideal_at(n), self.right.ideal_at(n))

    def _limit_body(self):
        return self.left.limit_body() + self.right.limit_body()


def old_construction_error(dim: int, gens) -> tuple[type, str] | None:
    """The error ``MonomialIdeal(dim, gens)`` raised while every dimension
    tested the antichain with ``minimal_elements``; None when it built."""
    if dim < 1:
        return DimensionMismatch, "ambient dimension must be >= 1"
    if not gens:
        return ValueError, "the zero ideal is not representable; gens must be nonempty"
    canonical = tuple(sorted(gens))
    for g in canonical:
        if len(g) != dim:
            return DimensionMismatch, f"exponent {g} has length {len(g)}, expected {dim}"
        if min(g) < 0:
            return ValueError, f"negative exponent in {g}"
    if len(minimal_elements(canonical)) != len(canonical):
        return ValueError, "generators are not an antichain; use minimalize()"
    return None


def old_is_m_primary(I: MonomialIdeal) -> bool:
    """m-primary as a pure power on every axis, whatever the dimension."""
    return all(I.pure_power(i) is not None for i in range(I.dim))


def generic_numeric_limit(Fs, n, strategy) -> LimitEstimate:
    """The numeric limit with every sample taken as colength(product_at(Fs, m*n)),
    whatever kind each filtration is."""
    if not any(n):
        return LimitEstimate(Fraction(0), Fraction(0), True, strategy.tag)
    d = Fs[0].dim
    samples = tuple(
        (m, Fraction(colength(product_at(Fs, [m * v for v in n])), m**d))
        for m in strategy.schedule()
    )
    error = abs(samples[-1][1] - samples[-2][1])
    return LimitEstimate(samples[-1][1], error, False, strategy.tag, samples)


def minkowski_points(bodies, weights) -> tuple[list[tuple[int, ...]], int]:
    """The body sum_j v_j * conv(G_j/D_j) as integer points over
    D = lcm(D_j), for bodies given as (G_j, D_j) pairs: the Minkowski sum of
    the v_j * (D/D_j) * G_j, reduced to minimal elements before each summand
    but not after the last."""
    D = math.lcm(*(Dj for _, Dj in bodies))
    total = [(0,) * len(bodies[0][0][0])]
    for (G, Dj), v in zip(bodies, weights):
        c = v * (D // Dj)
        total = [tuple(x + c * y for x, y in zip(p, g)) for p in minimal_elements(total) for g in G]
    return total, D


def minkowski_covolume(bodies, weights) -> Fraction:
    """covol(sum_j v_j * conv(G_j/D_j) + orthant) as covol(G) / D^d for the
    summed points G of ``minkowski_points``."""
    G, D = minkowski_points(bodies, weights)
    d = len(G[0])
    return covolume_from_gens(G, d) / D**d


def solved_table(Fs, strategy=None, seed: int = 0) -> dict:
    """Mixed multiplicities solved for from the limit at sample points: the
    values b_j = P(point_j) give the coefficients a of B a = b, and the
    entry of type t is a_t * t!.  It calls ``limit_normalized_colength``
    directly, so it shares no memo with ``LimitFunction``."""
    d, r = Fs[0].dim, len(Fs)
    points = sample_points(r, d, seed)
    values = [limit_normalized_colength(Fs, p, strategy).value for p in points]
    coeffs = linalg.solve(monomial_matrix(points, d), values)
    return {
        t: a * math.prod(math.factorial(i) for i in t)
        for t, a in zip(degree_monomials(r, d), coeffs)
    }


def triple_scan_inequalities_3d(gens) -> list[tuple[tuple[int, ...], int]]:
    """The d = 3 inequality family for ``conv(gens) + orthant`` from point
    triples: the positive axis bounds, and every plane through three
    minimal generators, or through two and a coordinate ray from one of
    them, whose normal is nonnegative, whose offset is positive and which
    no generator violates.  It may hold planes that support the polyhedron
    only along an edge.  Quartic in the generator count."""
    pts = minimal_elements(gens)
    ineqs = set()
    for i in range(3):
        low = min(g[i] for g in pts)
        if low > 0:
            ineqs.add((tuple(int(i == j) for j in range(3)), low))

    def consider(a, b, c):
        u = [b[t] - a[t] for t in range(3)]
        v = [c[t] - a[t] for t in range(3)]
        normal = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if normal < (0, 0, 0):
            normal = tuple(-x for x in normal)
        if normal == (0, 0, 0) or min(normal) < 0:
            return
        offset = sum(n * x for n, x in zip(normal, a))
        if offset > 0 and all(sum(n * x for n, x in zip(normal, g)) >= offset for g in pts):
            g = math.gcd(*normal, offset)
            ineqs.add((tuple(n // g for n in normal), offset // g))

    for a, b, c in itertools.combinations(pts, 3):
        consider(a, b, c)
    for a, b in itertools.combinations(pts, 2):
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            consider(a, b, tuple(x + y for x, y in zip(a, e)))
    return sorted(ineqs)


def compare_fraction(theta: QuadraticIrrational, x) -> int:
    """The exact sign of theta - x for a rational x."""
    return (theta - QuadraticIrrational.rational(x)).sign()


@dataclass(frozen=True)
class SemigroupSample:
    """The level-m fiber of the value semigroup of a filtration."""

    dim: int
    m: int
    beta: Fraction
    points: frozenset

    def count(self) -> int:
        return len(self.points)


def semigroup_points(F: Filtration, m: int, beta) -> SemigroupSample:
    """All lattice points of the staircase of I_m inside |a| <= beta*m."""
    beta = Fraction(beta)
    if m < 1:
        raise ValueError("level must be >= 1")
    bound = math.floor(beta * m)
    ideal = F.ideal_at(m)
    pts = [a for a in _simplex_points(F.dim, bound) if ideal.contains(a)]
    return SemigroupSample(F.dim, m, beta, frozenset(pts))


def ambient_points(dim: int, m: int, beta) -> SemigroupSample:
    """The companion fiber with the ring in place of the ideal."""
    beta = Fraction(beta)
    bound = math.floor(beta * m)
    return SemigroupSample(dim, m, beta, frozenset(_simplex_points(dim, bound)))


def ambient_count(dim: int, m: int, beta) -> int:
    bound = math.floor(Fraction(beta) * m)
    return math.comb(bound + dim, dim)


def _simplex_points(dim: int, bound: int):
    if dim == 1:
        for x in range(bound + 1):
            yield (x,)
        return
    for head in itertools.product(range(bound + 1), repeat=dim - 1):
        rest = bound - sum(head)
        if rest < 0:
            continue
        for x in range(rest + 1):
            yield head + (x,)


def fiber_count_identity(F: Filtration, m: int, beta) -> tuple[int, int, int]:
    """(ambient count, fiber count, colength of I_m): the counting identity
    ambient - fiber = colength holds whenever beta is admissible."""
    sample = semigroup_points(F, m, beta)
    hat = ambient_count(F.dim, m, beta)
    return hat, sample.count(), colength(F.ideal_at(m))


def column_extreme_fiber_points(F: Filtration, m: int, bound: int) -> list[tuple[int, ...]]:
    """The lowest and highest fiber point of every lattice column: over each
    (d-1)-dimensional base point, the least last coordinate that I_m allows
    and the most that |a| <= bound allows."""
    ideal = F.ideal_at(m)
    d = F.dim
    pts = []
    for head in _simplex_points(d - 1, bound) if d > 1 else [()]:
        lows = [g[-1] for g in ideal.gens if all(x <= h for x, h in zip(g, head))]
        if not lows:
            continue
        bottom, top = min(lows), bound - sum(head)
        if bottom <= top:
            pts += [head + (bottom,), head + (top,)]
    return pts


def box_scan_containment_exponent(I: MonomialIdeal) -> int:
    """One plus the largest total degree of a standard monomial, found by
    scanning the whole staircase box of an m-primary ideal."""
    best = -1
    for point in itertools.product(*(range(I.pure_power(i)) for i in range(I.dim))):
        if not I.contains(point):
            best = max(best, sum(point))
    return best + 1
