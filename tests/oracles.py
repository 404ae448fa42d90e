"""Test oracles that reach the engine's exact values by another route."""

import math
from fractions import Fraction

from filtmult import linalg
from filtmult.errors import DimensionMismatch
from filtmult.filtrations import product_at
from filtmult.geometry import covolume_from_gens, minimal_elements
from filtmult.multiplicity import (
    LimitEstimate,
    degree_monomials,
    limit_normalized_colength,
    monomial_matrix,
    sample_points,
)
from filtmult.staircase import MonomialIdeal, colength, product, unit_ideal

# Powers taken per dimension.  Deep enough for every ideal the tests draw,
# and past the spurious plateau at 58 of the d = 3 ideal (z^3, y^5, x y^2 z,
# x^4), whose d-th differences settle at its multiplicity 59 only later.
FINITE_DIFFERENCE_DEPTH = {1: 6, 2: 10, 3: 14}


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
