"""Exact rational convex geometry in ambient dimension <= 3.

Everything here works over integers / ``Fraction``; there is no floating
point anywhere on a decision path.  The polyhedra that occur are the
bodies ``conv(G/D) + R^d_{>=0}`` of integer points G over a denominator D
(a ``Body``: limit bodies of filtrations, and Newton polyhedra of monomial
ideals when D = 1), and convex hulls of semigroup fibers.  Bodies are
described by their supporting planes through generators.  Covolumes and 3D
hull volumes are both sums of origin cones over facets found among planes
through point triples, so no vertex enumeration is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import DimensionUnsupported, NotMPrimary

Point = tuple  # tuple of int or Fraction coordinates


def minimal_elements(points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Sorted antichain of the componentwise-minimal elements of a point set.

    Duplicates collapse, so the result is as long as the input exactly when
    the input is already a duplicate-free antichain.  Dimension two keeps
    the lowest y per x in one pass, then sweeps the sorted distinct x values
    keeping strictly falling y: O(n + k log k) for k distinct x values.
    Other dimensions use the quadratic scan over a degree-sorted list.
    """
    first = next(iter(points), ())
    if len(first) == 1:
        return [min(points)]
    if len(first) == 2:
        lowest: dict = {}
        for x, y in points:
            old = lowest.get(x)
            if old is None or y < old:
                lowest[x] = y
        best = None
        kept2: list = []
        for x in sorted(lowest):
            y = lowest[x]
            if best is None or y < best:
                kept2.append((x, y))
                best = y
        return kept2
    ordered = sorted(set(points), key=lambda p: (sum(p), p))
    kept: list = []
    for p in ordered:
        if not any(all(x >= y for x, y in zip(p, q)) for q in kept):
            kept.append(p)
    return sorted(kept)


# ---------------------------------------------------------------------------
# 2D hulls and areas


def _cross2(o: Point, a: Point, b: Point):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _monotone_chain(pts) -> list[Point]:
    """The chain through points in sorted order that turns strictly left at
    every inner vertex (Andrew's monotone chain)."""
    chain: list[Point] = []
    for p in pts:
        while len(chain) >= 2 and _cross2(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def lower_left_chain(points: list[Point]) -> list[Point]:
    """Convex chain bounding ``conv(points) + orthant`` toward the origin.

    The input is reduced to an antichain first; the chain is returned sorted
    by increasing first coordinate (second coordinate strictly decreasing).
    """
    return _monotone_chain(minimal_elements(points))


def convex_hull_2d(points: list[Point]) -> list[Point]:
    """Full convex hull (counterclockwise, no repeated endpoint)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    return _monotone_chain(pts)[:-1] + _monotone_chain(reversed(pts))[:-1]


def polygon_area(vertices: list[Point]) -> Fraction:
    """Area of the polygon with the given vertex cycle (either orientation)."""
    twice = sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(vertices, [*vertices[1:], *vertices[:1]]))
    return abs(Fraction(twice)) / 2


# ---------------------------------------------------------------------------
# Newton polyhedron inequality descriptions

# An inequality is a pair (normal, offset) with integer entries, meaning
# <normal, y> >= offset.  Together with y >= 0 these cut out the polyhedron.


def _normalize_ineq(normal: tuple[int, ...], offset: int):
    g = 0
    for v in normal:
        g = gcd(g, abs(v))
    g = gcd(g, abs(offset))
    if g > 1:
        normal = tuple(v // g for v in normal)
        offset = offset // g
    return normal, offset


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _plane_through(a, b, c):
    """Normal of the plane through three 3D points, or (0, 0, 0) if collinear.

    The sign is chosen so the first nonzero component is positive; a normal
    with no positive component thus comes out nonnegative.
    """
    normal = _cross3(
        (b[0] - a[0], b[1] - a[1], b[2] - a[2]),
        (c[0] - a[0], c[1] - a[1], c[2] - a[2]),
    )
    if normal < (0, 0, 0):
        return (-normal[0], -normal[1], -normal[2])
    return normal


def _supports(normal, offset: int, pts) -> bool:
    """True when ``<normal, g> >= offset`` for every point g.

    For an ``offset`` attained at one of the points, this says the plane
    ``<normal, y> = offset`` supports ``conv(pts)`` there; with a
    nonnegative normal it also supports ``conv(pts) + orthant``.
    """
    n0, n1, n2 = normal
    return all(n0 * g[0] + n1 * g[1] + n2 * g[2] >= offset for g in pts)


def newton_inequalities(gens: list[tuple[int, ...]], dim: int) -> list[tuple[tuple[int, ...], int]]:
    """Complete list of valid inequalities for ``conv(gens) + orthant``.

    The family contains every facet not implied by ``y >= 0`` plus the
    per-axis bounds ``y_i >= min g_i``.  In d = 3 the facets are spanned by
    three generators, or by two generators and a coordinate ray; such a
    plane is kept only when it supports the polyhedron at its own
    generators, so every member is tight at some generator.  Planes that
    support the polyhedron only along an edge may remain; they are
    redundant but harmless for membership tests.  Supported for dim <= 3.
    """
    if dim > 3:
        raise DimensionUnsupported(f"Newton facets are only computed for d <= 3, got d = {dim}")
    pts = minimal_elements(gens)
    ineqs: set[tuple[tuple[int, ...], int]] = set()
    for i in range(dim):
        low = min(g[i] for g in pts)
        if low > 0:
            normal = tuple(int(i == j) for j in range(dim))
            ineqs.add((normal, low))
    if dim == 1:
        return sorted(ineqs)
    if dim == 2:
        chain = lower_left_chain(pts)
        for a, b in zip(chain, chain[1:]):
            normal = (a[1] - b[1], b[0] - a[0])
            if normal[0] < 0 or normal[1] < 0:
                continue
            offset = normal[0] * a[0] + normal[1] * a[1]
            ineqs.add(_normalize_ineq(normal, offset))
        return sorted(ineqs)

    # dim == 3: keep orthant-compatible normals of planes that are tight at
    # the points spanning them and valid for every generator.
    def consider(normal, a):
        if normal == (0, 0, 0) or any(v < 0 for v in normal):
            return
        offset = normal[0] * a[0] + normal[1] * a[1] + normal[2] * a[2]
        if offset > 0 and _supports(normal, offset, pts):
            ineqs.add(_normalize_ineq(normal, offset))

    for a, b, c in itertools.combinations(pts, 3):
        consider(_plane_through(a, b, c), a)
    for a, b in itertools.combinations(pts, 2):
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            # the plane through a and b that contains the ray from a along e
            consider(_plane_through(a, b, (a[0] + e[0], a[1] + e[1], a[2] + e[2])), a)
    return sorted(ineqs)


def satisfies_inequalities(point, ineqs) -> bool:
    for normal, offset in ineqs:
        if sum(n * x for n, x in zip(normal, point)) < offset:
            return False
    return True


# ---------------------------------------------------------------------------
# Volumes and covolumes: sums of origin cones over facets


def _cone_sum_3d(pts: list[tuple[int, int, int]], compact: bool) -> Fraction:
    """Sum of ``b * T / (6 |n_k|)`` over the facets ``<n, y> >= b`` of ``conv(pts)``.

    ``T`` is twice the area of the facet projected along an axis k with
    ``n_k != 0``, so each term is the signed volume of the cone from the
    origin over the facet.  By the divergence theorem the sum over all
    facets is minus the volume of ``conv(pts)``; a flat cloud is tight on
    both sides of its plane, and its two terms cancel.  With ``compact``
    only strictly positive normals count, and the sum is the covolume of
    ``conv(pts) + orthant`` (see ``covolume_from_gens``).  ``pts`` are
    distinct integer points; each plane through three of them is taken
    once, with a primitive normal whose first nonzero entry is positive,
    before any support scan.
    """
    total = Fraction(0)
    seen: set = set()
    for a, b, c in itertools.combinations(pts, 3):
        normal = _plane_through(a, b, c)
        if compact:
            if normal[0] <= 0 or normal[1] <= 0 or normal[2] <= 0:
                continue
        elif normal == (0, 0, 0):
            continue
        offset = normal[0] * a[0] + normal[1] * a[1] + normal[2] * a[2]
        normal, offset = _normalize_ineq(normal, offset)
        if (normal, offset) in seen:
            continue
        seen.add((normal, offset))
        n0, n1, n2 = normal
        side = _supports(normal, offset, pts)
        if not compact:
            side -= _supports((-n0, -n1, -n2), -offset, pts)
        if not side:
            continue
        k = 2 if n2 else 1 if n1 else 0
        # the two coordinates other than k, in cyclic order
        tight = [(g[k - 2], g[k - 1]) for g in pts if n0 * g[0] + n1 * g[1] + n2 * g[2] == offset]
        hull = convex_hull_2d(tight)
        twice_area = sum(_cross2(hull[0], p, q) for p, q in zip(hull[1:], hull[2:]))
        total += Fraction(side * offset * twice_area, 6 * abs(normal[k]))
    return total


def hull_volume_3d(points: list[tuple[int, int, int]]) -> Fraction:
    """Exact volume of the convex hull of a 3D integer point cloud."""
    return -_cone_sum_3d(sorted(set(points)), False)


def hull_volume(points: list[tuple[int, ...]], dim: int) -> Fraction:
    """Exact volume of conv(points) for integer points and dim <= 3."""
    if dim == 1:
        vals = [p[0] for p in points]
        return Fraction(max(vals) - min(vals) if vals else 0)
    if dim == 2:
        return polygon_area(convex_hull_2d(points))
    if dim == 3:
        return hull_volume_3d(points)
    raise DimensionUnsupported(f"exact hull volume needs d <= 3, got d = {dim}")


def covolume_from_gens(gens: list[tuple[int, ...]], dim: int) -> Fraction:
    """Exact volume of the orthant complement of ``conv(gens) + orthant``.

    Requires a generator set whose complement is bounded (a pure power on
    every axis), and raises ``NotMPrimary`` otherwise; ``gens`` need not be
    minimal.

    In d = 3 the covolume is a sum of cones with apex at the origin.  Every
    ray from the origin into the orthant leaves the complement through a
    facet ``<n, y> = b`` of the Newton polyhedron with ``b > 0``.  Because
    the ideal is m-primary, a facet whose normal has a zero component
    contains the pure power on that axis, so its ``b`` is 0.  Hence only the
    compact facets, whose normals are strictly positive, bound the
    complement, and

        covol = sum over compact facets F of  b_F * T_F / (6 * n_z),

    where ``T_F`` is twice the area of F projected to the (x, y) plane
    (Kouchnirenko, "Polyedres de Newton et nombres de Milnor", Invent.
    Math. 32, 1976).  Each compact facet is spanned by three minimal
    generators, so it is found among generator triples whose plane has a
    positive normal and supports the polyhedron at the triple.
    """
    if dim > 3:
        raise DimensionUnsupported(f"covolume needs d <= 3, got d = {dim}")
    pts = minimal_elements(gens)
    caps = []
    for i in range(dim):
        pures = [g[i] for g in pts if sum(g) == g[i]]
        if not pures:
            raise NotMPrimary(f"no pure power on axis {i}; the covolume is infinite")
        caps.append(min(pures))
    if all(c == 0 for c in caps):
        return Fraction(0)
    if dim == 1:
        return Fraction(caps[0])
    if dim == 2:
        return polygon_area([(0, 0)] + _monotone_chain(pts))
    return _cone_sum_3d(pts, True)


# ---------------------------------------------------------------------------
# Bodies


@dataclass(frozen=True, eq=False)
class Body:
    """The body ``conv(points / denominator) + orthant``, with its integer
    points reduced to their minimal elements when it is built.

    ``A + B`` is the Minkowski sum over the lcm of the two denominators, and
    ``k * A`` scales by an integer k.  Bodies are equal when their
    denominators and vertices are.  ``inequalities`` and ``vertices`` are
    computed on first use, for d <= 3, and describe ``conv(points) +
    orthant``, the body scaled by its denominator.
    """

    points: tuple[tuple[int, ...], ...]
    denominator: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(minimal_elements(list(self.points))))

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __add__(self, other: "Body") -> "Body":
        D = lcm(self.denominator, other.denominator)
        a, b = D // self.denominator, D // other.denominator
        sums = [tuple(a * x + b * y for x, y in zip(p, q)) for p in self.points for q in other.points]
        return Body(sums, D)

    def __rmul__(self, k: int) -> "Body":
        if k == 1:
            return self
        return Body([tuple(k * x for x in p) for p in self.points], self.denominator)

    def covolume(self) -> Fraction:
        """Exact covolume (d <= 3); ``NotMPrimary`` when it is infinite."""
        return covolume_from_gens(self.points, self.dim) / self.denominator**self.dim

    @cached_property
    def inequalities(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """A complete family as in ``newton_inequalities``."""
        return tuple(newton_inequalities(self.points, self.dim))

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """The points outside the body of the other points."""
        pts = self.points
        return tuple(
            g for g in pts
            if len(pts) == 1
            or not satisfies_inequalities(g, newton_inequalities([h for h in pts if h != g], self.dim))
        )

    def member(self, point) -> bool:
        """True when the (rational) point lies in the body."""
        scaled = [self.denominator * x for x in point]
        return min(scaled) >= 0 and satisfies_inequalities(scaled, self.inequalities)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Body):
            return NotImplemented
        return self.denominator == other.denominator and self.vertices == other.vertices
