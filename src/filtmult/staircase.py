"""Exact monomial-ideal arithmetic in a power-series ring k[[x_1,...,x_d]].

A monomial ideal is stored as the antichain of its minimal generator
exponents.  Lengths of quotients become lattice-point counts under the
staircase, which makes every multiplicity in this package exactly
computable.  The unit ideal (single generator 0) represents the whole ring;
the zero ideal is not representable.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import geometry
from .geometry import Body, minimal_elements
from .errors import DimensionMismatch, NotMPrimary, spec_field, spec_int, spec_list, spec_object

Exponent = tuple[int, ...]


def dominates(a: Exponent, b: Exponent) -> bool:
    """True when ``a >= b`` componentwise (x^a is divisible by x^b)."""
    return all(x >= y for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators (an antichain).

    Every construction is fully checked.  The generators form an antichain
    without duplicates exactly when ``minimal_elements`` keeps all of them;
    in d = 2, exactly when y falls strictly along the sorted tuple.
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
        if self.dim == 2 and _is_staircase_2d(canonical):
            return
        for g in canonical:
            if len(g) != self.dim:
                raise DimensionMismatch(
                    f"exponent {g} has length {len(g)}, expected {self.dim}"
                )
            if min(g) < 0:
                raise ValueError(f"negative exponent in {g}")
        # valid d=2 exponents get here only by failing the antichain test
        if self.dim == 2 or len(minimal_elements(canonical)) != len(canonical):
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
        if self.dim == 2:
            # x rises and y falls along the gens, so (0, b) must come first
            # and (a, 0) last
            return self.gens[0][0] == 0 and self.gens[-1][1] == 0
        return all(self.pure_power(i) is not None for i in range(self.dim))

    def leq(self, other: "MonomialIdeal") -> bool:
        """Ideal containment self <= other (every generator of self in other)."""
        _check_same_dim(self, other)
        return all(other.contains(g) for g in self.gens)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"dim": self.dim, "gens": [list(g) for g in self.gens]}

    @staticmethod
    def from_json(data: dict) -> "MonomialIdeal":
        data = spec_object(data, "ideal")
        dim = spec_field(data, "dim", "ideal")
        gens = spec_list(spec_field(data, "gens", "ideal"), "ideal gens")
        gens = [tuple(spec_list(g, "ideal generator")) for g in gens]
        for v in itertools.chain([dim], *gens):
            spec_int(v, "ideal dim and exponents")
        return minimalize(gens, dim)

    def __repr__(self) -> str:
        return f"MonomialIdeal(d={self.dim}, gens={list(self.gens)})"


def _is_staircase_2d(gens: tuple[Exponent, ...]) -> bool:
    """True when sorted d=2 exponents form a nonnegative antichain.

    x rises along the sorted tuple, so a y that does not fall strictly marks
    a duplicate or a generator divisible by its predecessor.
    """
    y = math.inf
    for g in gens:
        if len(g) != 2 or g[1] >= y:
            return False
        y = g[1]
    return gens[0][0] >= 0 and y >= 0


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
    """Minimal generators of the d=2 product.

    When both factors are integrally closed the product is read off their
    Newton polygons: in a 2-dimensional regular local ring a product of
    integrally closed ideals is integrally closed (Zariski; Huneke-Swanson,
    *Integral Closure of Ideals, Rings, and Modules*, Thm 14.4.4), and the
    closure of a monomial ideal is the set of lattice points of its Newton
    polyhedron, so ``A*B`` is the closure walk over the lower-left chain of
    ``Newton(A) + Newton(B)``, the slope merge of the two chains.  Every loop
    of this path is bounded by generators or hull edges: the closedness test
    runs over the generators of each factor, the merge over the edges of
    both chains, and the walk emits each generator of ``A*B`` once, which
    are ``|A| + |B| - 1`` (each edge gives ``min(dx, dy)``, additive over
    the merge).  It builds no sum.  Every other pair goes to the packed-key
    kernel ``_key_product``.
    """
    P = _closed_chain(A)
    Q = P if A == B or P is None else _closed_chain(B)
    if Q is None:
        return _key_product(A, B)
    return _closure_walk(_minkowski_chain(P, Q))


def _key_product(A: tuple[Exponent, ...], B: tuple[Exponent, ...]) -> tuple[Exponent, ...]:
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


def _closure_walk(chain: list[Exponent]) -> tuple[Exponent, ...]:
    """Minimal lattice points on or above a d=2 lower-left chain, edge by edge.

    On an edge ``(x0, y0) -> (x1, y1)`` with ``dx = x1 - x0`` and
    ``dy = y0 - y1``, the lowest lattice point of column x is
    ``y0 - floor(dy (x - x0) / dx)`` and the leftmost of row ``y0 - k`` is
    ``x0 + ceil(k dx / dy)``.  When ``dy >= dx`` each column's point is
    minimal, otherwise each row's, so the edge gives ``min(dx, dy)``
    generators before its end vertex, and the walk ``1 + sum min(dx, dy)``.
    """
    out = []
    for (x0, y0), (x1, y1) in itertools.pairwise(chain):
        dx, dy = x1 - x0, y0 - y1
        if dy >= dx:
            out.extend((x0 + t, y0 - dy * t // dx) for t in range(dx))
        else:
            out.extend((x0 - (-k * dx // dy), y0 - k) for k in range(dy))
    out.append(chain[-1])
    return tuple(out)


def _closed_chain(gens: tuple[Exponent, ...]) -> list[Exponent] | None:
    """The lower-left chain of the d=2 antichain ``gens`` when it is
    integrally closed, that is when the closure walk over that chain gives
    ``gens`` back; None otherwise.

    Consecutive generators of a closure step by 1 in x or in y, and the walk
    has ``1 + sum min(dx, dy)`` points; both are checked first, so the walk
    runs only when its length is ``len(gens)``.
    """
    for (xa, ya), (xb, yb) in itertools.pairwise(gens):
        if xb - xa > 1 and ya - yb > 1:
            return None
    chain = geometry._monotone_chain(gens)
    size = 1 + sum(min(x1 - x0, y0 - y1) for (x0, y0), (x1, y1) in itertools.pairwise(chain))
    return chain if size == len(gens) and _closure_walk(chain) == gens else None


def _minkowski_chain(P: list[Exponent], Q: list[Exponent]) -> list[Exponent]:
    """The lower-left chain of ``Newton(P) + Newton(Q)`` for two such chains:
    from ``P[0] + Q[0]``, the edges of both in order of slope, steepest
    first."""
    edges = sorted(
        ((b[0] - a[0], a[1] - b[1]) for C in (P, Q) for a, b in itertools.pairwise(C)),
        key=lambda e: Fraction(e[0], e[1]),
    )
    x, y = P[0][0] + Q[0][0], P[0][1] + Q[0][1]
    chain = [(x, y)]
    for dx, dy in edges:
        x, y = x + dx, y - dy
        chain.append((x, y))
    return chain


def power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    if k < 0:
        raise ValueError("negative power")
    result = None
    base = I
    while k:
        if k & 1:
            result = base if result is None else product(result, base)
        k >>= 1
        if k:
            base = product(base, base)
    return unit_ideal(I.dim) if result is None else result


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_dim(I, J)
    return minimalize(list(I.gens) + list(J.gens), I.dim)


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


def newton_region(I: MonomialIdeal) -> Body:
    """The Newton polyhedron conv(gens) + orthant of I."""
    return Body(I.gens)


def covolume(region: Body) -> Fraction:
    """Exact volume of (orthant \\ region); requires a bounded complement."""
    return region.covolume()


def integral_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Monomial integral closure: all lattice points of the Newton region
    (the closure of a monomial ideal is generated by the monomials whose
    exponents lie in ``conv(gens) + orthant``; Huneke-Swanson, Prop. 1.4.6).

    In d = 2 the closure's minimal generators are the closure walk over the
    lower-left chain of I: the chain is one pass over the generators, and
    the walk runs once per hull edge and once per output generator, never
    over the exponent box.
    In d >= 3 the points of the staircase box are tested against the facets
    (``geometry.newton_inequalities``): a bounded search over the box
    suffices because every minimal generator of the closure is dominated by
    the per-axis caps of I when I is m-primary; for non-primary ideals the
    box is padded by the generator support bounds.
    """
    if I.dim == 2:
        return MonomialIdeal(2, _closure_walk(geometry._monotone_chain(I.gens)))
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
