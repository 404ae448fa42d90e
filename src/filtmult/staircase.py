"""Exact monomial-ideal arithmetic in a power-series ring k[[x_1,...,x_d]].

A monomial ideal is stored as the antichain of its minimal generator
exponents.  Lengths of quotients become lattice-point counts under the
staircase, which makes every multiplicity in this package exactly
computable.  The unit ideal (single generator 0) represents the whole ring;
the zero ideal is not representable.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import geometry
from .geometry import minimal_elements
from .errors import DimensionMismatch, DimensionUnsupported, NotMPrimary, spec_int

Exponent = tuple[int, ...]


def dominates(a: Exponent, b: Exponent) -> bool:
    """True when ``a >= b`` componentwise (x^a is divisible by x^b)."""
    return all(x >= y for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators (an antichain).

    Every construction is fully checked.  The generators form an antichain
    without duplicates exactly when ``minimal_elements`` keeps all of them.
    """

    dim: int
    gens: tuple[Exponent, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionMismatch("ambient dimension must be >= 1")
        if not self.gens:
            raise ValueError("the zero ideal is not representable; gens must be nonempty")
        canonical = tuple(sorted(self.gens))
        object.__setattr__(self, "gens", canonical)
        for g in canonical:
            if len(g) != self.dim:
                raise DimensionMismatch(
                    f"exponent {g} has length {len(g)}, expected {self.dim}"
                )
            if min(g) < 0:
                raise ValueError(f"negative exponent in {g}")
        if len(minimal_elements(canonical)) != len(canonical):
            raise ValueError("generators are not an antichain; use minimalize()")

    # -- basic structure ----------------------------------------------------

    @property
    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.dim,)

    def contains(self, exponent: Exponent) -> bool:
        if len(exponent) != self.dim:
            raise DimensionMismatch(
                f"point has length {len(exponent)}, ideal lives in dimension {self.dim}"
            )
        return any(dominates(exponent, g) for g in self.gens)

    def pure_power(self, axis: int) -> int | None:
        """Smallest e with x_axis^e in the ideal, or None if there is none."""
        # exponents are >= 0, so the sum equals g[axis] exactly when every
        # other coordinate is 0
        return min((g[axis] for g in self.gens if sum(g) == g[axis]), default=None)

    def is_m_primary(self) -> bool:
        return all(self.pure_power(i) is not None for i in range(self.dim))

    def box(self) -> tuple[int, ...]:
        """Per-axis staircase bounds c_i (minimal pure-power exponents)."""
        caps = tuple(self.pure_power(i) for i in range(self.dim))
        if None in caps:
            raise NotMPrimary(f"no pure power on axis {caps.index(None)}; complement is infinite")
        return caps

    def leq(self, other: "MonomialIdeal") -> bool:
        """Ideal containment self <= other (every generator of self in other)."""
        _check_same_dim(self, other)
        return all(other.contains(g) for g in self.gens)

    # -- arithmetic sugar -----------------------------------------------------

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return product(self, other)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return ideal_sum(self, other)

    def __pow__(self, k: int) -> "MonomialIdeal":
        return power(self, k)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"dim": self.dim, "gens": [list(g) for g in self.gens]}

    @staticmethod
    def from_json(data: dict) -> "MonomialIdeal":
        gens = [tuple(g) for g in data["gens"]]
        for v in itertools.chain([data["dim"]], *gens):
            spec_int(v, "ideal dim and exponents")
        return minimalize(gens, data["dim"])

    def __repr__(self) -> str:
        return f"MonomialIdeal(d={self.dim}, gens={list(self.gens)})"


def unit_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, ((0,) * dim,))


def maximal_ideal(dim: int) -> MonomialIdeal:
    gens = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return MonomialIdeal(dim, gens)


def _check_same_dim(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def minimalize(raw_gens, dim: int) -> MonomialIdeal:
    """Build the ideal generated by ``raw_gens``, reduced to minimal generators."""
    pts = [tuple(g) for g in raw_gens]
    if not pts:
        raise ValueError("raw generator set must be nonempty")
    for g in pts:
        if len(g) != dim:
            raise DimensionMismatch(f"exponent {g} has length {len(g)}, expected {dim}")
    return MonomialIdeal(dim, tuple(minimal_elements(pts)))


def product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_dim(I, J)
    if I.dim == 2:
        return MonomialIdeal(2, _product_2d(I.gens, J.gens))
    sums = [tuple(map(operator.add, g, h)) for g in I.gens for h in J.gens]
    return MonomialIdeal(I.dim, tuple(minimal_elements(sums)))


def _product_2d(A: tuple[Exponent, ...], B: tuple[Exponent, ...]) -> tuple[Exponent, ...]:
    """Minimal generators of the d=2 product, swept over packed integer keys.

    Gens run x ascending and y strictly descending, so no sum has a y above
    ``A[0][1] + B[0][1]``, and with M one more than that the packing
    ``(x, y) -> x*M + y`` is additive on sums.  Each generator of B shifts the
    ascending keys of A into an ascending run, so the sort merges runs; a
    self-product needs only the sums ``g_i + g_j`` with ``i <= j``.  In key
    order (x, then y) a sum is minimal exactly when its y is below every
    earlier y.
    """
    if len(A) < len(B):
        A, B = B, A
    M = A[0][1] + B[0][1] + 1
    ka = [x * M + y for x, y in A]
    if A == B:
        keys = [k + kj for j, kj in enumerate(ka) for k in ka[j:]]
    else:
        keys = [k + x * M + y for x, y in B for k in ka]
    keys.sort()
    kept = []
    best = M
    for k in keys:
        y = k % M
        if y < best:
            kept.append(divmod(k, M))
            best = y
    return tuple(kept)


def power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    if k < 0:
        raise ValueError("negative power")
    result = unit_ideal(I.dim)
    base = I
    while k:
        if k & 1:
            result = product(result, base)
        k >>= 1
        if k:
            base = product(base, base)
    return result


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_dim(I, J)
    return minimalize(list(I.gens) + list(J.gens), I.dim)


def contains(I: MonomialIdeal, exponent: Exponent) -> bool:
    return I.contains(tuple(exponent))


def is_m_primary(I: MonomialIdeal) -> bool:
    return I.is_m_primary()


# ---------------------------------------------------------------------------
# Colength (number of standard monomials)


def colength(I: MonomialIdeal) -> int:
    """Number of monomials not in I, in time governed by the generator count.

    In dimension two the complement is a union of columns under the sorted
    antichain, so the count is ``sum (x_{i+1} - x_i) * y_i``.  For d >= 3 it
    is sliced along the last axis; slices only change at generator
    exponents, and each slice recurses down to the 2D sum.
    """
    if not I.is_m_primary():
        raise NotMPrimary(f"{I!r} is not m-primary")
    if I.is_unit:
        return 0
    return _colength_rec(list(I.gens), I.dim)


def _colength_rec(gens: list[Exponent], dim: int) -> int:
    if dim == 1:
        return min(g[0] for g in gens)
    if dim == 2:
        return sum((b[0] - a[0]) * a[1] for a, b in itertools.pairwise(gens))
    cap = min(g[-1] for g in gens if all(e == 0 for e in g[:-1]))
    levels = sorted({g[-1] for g in gens if g[-1] < cap})
    total = 0
    for idx, z in enumerate(levels):
        upper = levels[idx + 1] if idx + 1 < len(levels) else cap
        slice_gens = minimal_elements([g[:-1] for g in gens if g[-1] <= z])
        if slice_gens == [(0,) * (dim - 1)]:
            continue
        total += (upper - z) * _colength_rec(slice_gens, dim - 1)
    return total


# ---------------------------------------------------------------------------
# Newton region, covolume, integral closure


@dataclass(frozen=True)
class NewtonRegion:
    """The polyhedron conv(gens) + orthant, with a facet description for d <= 3.

    ``vertices`` (the extreme generators) determine the region uniquely, so
    equality and hashing use them.  ``inequalities`` is a complete family of
    the form <n, y> >= b in which every member supports the region at some
    generator (see ``geometry.newton_inequalities``; members that are not
    facets may remain); it is None when dim > 3.
    """

    dim: int
    generators: tuple[Exponent, ...]
    vertices: tuple[Exponent, ...]
    inequalities: tuple[tuple[tuple[int, ...], int], ...] | None

    def member(self, point) -> bool:
        if self.inequalities is None:
            raise DimensionUnsupported("membership test needs d <= 3")
        if any(x < 0 for x in point):
            return False
        return geometry.satisfies_inequalities(point, self.inequalities)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NewtonRegion):
            return NotImplemented
        return self.dim == other.dim and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash((self.dim, self.vertices))


def newton_region(I: MonomialIdeal) -> NewtonRegion:
    gens = list(I.gens)
    if I.dim > 3:
        return NewtonRegion(I.dim, tuple(gens), tuple(gens), None)
    ineqs = tuple(geometry.newton_inequalities(gens, I.dim))
    verts = []
    for g in gens:
        if len(gens) == 1:
            verts.append(g)
            continue
        others = [h for h in gens if h != g]
        other_ineqs = geometry.newton_inequalities(others, I.dim)
        if not geometry.satisfies_inequalities(g, other_ineqs):
            verts.append(g)
    return NewtonRegion(I.dim, tuple(gens), tuple(sorted(verts)), ineqs)


def covolume(region: NewtonRegion) -> Fraction:
    """Exact volume of (orthant \\ region); requires a bounded complement."""
    if region.dim > 3:
        raise DimensionUnsupported(
            f"covolume needs d <= 3, got d = {region.dim}; use the Hilbert-Samuel route"
        )
    gens = list(region.generators)
    for i in range(region.dim):
        if not any(all(g[j] == 0 for j in range(region.dim) if j != i) for g in gens):
            raise NotMPrimary(f"no pure power on axis {i}; covolume is infinite")
    return geometry.covolume_from_gens(gens, region.dim)


def integral_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Monomial integral closure: all lattice points of the Newton region.

    A bounded search over the staircase box suffices because every minimal
    generator of the closure is dominated by the per-axis caps of I when I is
    m-primary; for non-primary ideals the box is padded by the generator
    support bounds.
    """
    if I.dim > 3:
        raise DimensionUnsupported("integral closure uses Newton facets, needs d <= 3")
    if I.is_unit:
        return I
    ineqs = geometry.newton_inequalities(list(I.gens), I.dim)
    caps = []
    for i in range(I.dim):
        pure = I.pure_power(i)
        caps.append(pure if pure is not None else max(g[i] for g in I.gens))
    points = [
        p
        for p in itertools.product(*(range(c + 1) for c in caps))
        if geometry.satisfies_inequalities(p, ineqs)
    ]
    points.extend(I.gens)
    return minimalize(points, I.dim)
