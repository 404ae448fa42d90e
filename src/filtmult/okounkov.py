"""Semigroup fibers and body volumes for colength limits.

For a filtration F of monomial ideals the graded semigroup
``{(a, m) : x^a in I_m, |a| <= beta*m}`` and its ambient companion
``{(a, m) : |a| <= beta*m}`` have cone slices at level one whose volume
difference equals ``lim lam(R/I_m)/m^d``.  Here every graded piece is a
single monomial, so the semigroups are pure lattice objects and the slice
volumes are computed exactly from convex hulls of scaled fibers.

The bound beta = 2c, with c minimal such that m^c lies in I_1, guarantees
that every standard monomial of I_m stays inside the simplex |a| <= beta*m,
which makes the counting identity exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import geometry
from .errors import NotMPrimary, NotNoetherian
from .filtrations import Filtration
from .multiplicity import (
    ExactStrategy,
    LimitEstimate,
    NumericStrategy,
    limit_normalized_colength,
)
from .staircase import MonomialIdeal

Exponent = tuple[int, ...]


def containment_exponent(I: MonomialIdeal) -> int:
    """Minimal c with m^c contained in I (I m-primary).

    Equals one plus the largest total degree of a standard monomial.  A
    maximal standard monomial a has a + e_i in I for every i, so some
    generator g has g_i = a_i + 1; only points with every a_i in
    ``{g_i - 1 : g_i >= 1}`` are tried.
    """
    if not I.is_m_primary():
        raise NotMPrimary("containment exponent needs an m-primary ideal")
    if I.is_unit:
        return 0
    axes = [sorted({g[i] - 1 for g in I.gens if g[i]}) for i in range(I.dim)]
    return 1 + max(sum(a) for a in itertools.product(*axes) if not I.contains(a))


def admissible_beta(F: Filtration) -> Fraction:
    """The simplex bound beta = 2*c for the semigroup construction."""
    return Fraction(2 * containment_exponent(F.ideal_at(1)))


@dataclass(frozen=True)
class BodyApproximation:
    """Exact hull volume of a scaled fiber conv(fiber_m / m).

    These polytopes sit inside the limit body and their volumes are
    nondecreasing along doubling levels, so each value is a certified inner
    approximation.
    """

    m: int
    volume: Fraction


def _fiber_hull_points(F: Filtration, m: int, bound: int) -> list[Exponent]:
    """Points whose hull is the fiber hull: each generator g of I_m with
    |g| <= bound, and g + (bound - |g|)*e_i for every axis i.

    A fiber point a lies above some such g, and a - g lies in the simplex
    (bound - |g|)*conv(0, e_1, ..., e_d), so a is in the hull of g and the
    points g + (bound - |g|)*e_i, which are fiber points themselves.
    """
    pts = []
    for g in F.ideal_at(m).gens:
        slack = bound - sum(g)
        if slack >= 0:
            pts.append(g)
            pts += (g[:i] + (g[i] + slack,) + g[i + 1 :] for i in range(len(g)))
    return pts


def body_volume(F: Filtration, m: int, beta) -> BodyApproximation:
    """Exact volume of the scaled fiber hull conv(fiber_m / m)."""
    beta = Fraction(beta)
    pts = _fiber_hull_points(F, m, math.floor(beta * m))
    return BodyApproximation(m, geometry.hull_volume(pts, F.dim) / Fraction(m) ** F.dim)


def ambient_body_volume(dim: int, m: int, beta) -> Fraction:
    """Volume of the scaled ambient fiber hull: a simplex of side floor(beta*m)/m."""
    bound = math.floor(Fraction(beta) * m)
    return (Fraction(bound, m)) ** dim / math.factorial(dim)


@dataclass(frozen=True)
class OkounkovReport:
    beta: Fraction
    m: int
    vol_hat: Fraction
    vol_body: Fraction
    difference: Fraction
    limit: LimitEstimate
    gap_abs: float
    gap_rel: float

    def to_json(self) -> dict:
        return {
            "beta": str(self.beta),
            "m": self.m,
            "vol_hat": str(self.vol_hat),
            "vol_body": str(self.vol_body),
            "difference": str(self.difference),
            "limit": self.limit.to_json(),
            "gap": {"absolute": self.gap_abs, "relative": self.gap_rel},
        }


def volume_limit_check(F: Filtration, m_max: int) -> OkounkovReport:
    """Compare the body-volume difference at level m_max with the colength limit.

    The difference Vol(ambient body) - Vol(fiber body) approximates
    ``lim lam(R/I_m)/m^d`` from above (the fiber hull approximates its body
    from inside); the report records the absolute and relative gap and makes
    no rate claim.  The limit is exact when the limit body is rational and
    numeric (schedule up to max(1024, m_max)) when it raises NotNoetherian.
    """
    beta = admissible_beta(F)
    m = m_max
    vol_hat = ambient_body_volume(F.dim, m, beta)
    body = body_volume(F, m, beta)
    difference = vol_hat - body.volume
    try:
        limit = limit_normalized_colength([F], (1,), ExactStrategy())
    except NotNoetherian:
        limit = limit_normalized_colength([F], (1,), NumericStrategy(m_max=max(1024, m_max)))
    gap_abs = abs(float(difference) - float(limit.value))
    denom = float(limit.value) if limit.value else 1.0
    gap_rel = gap_abs / abs(denom)
    return OkounkovReport(
        beta=beta,
        m=m,
        vol_hat=vol_hat,
        vol_body=body.volume,
        difference=difference,
        limit=limit,
        gap_abs=gap_abs,
        gap_rel=gap_rel,
    )
