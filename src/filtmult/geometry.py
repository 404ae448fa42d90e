"""Exact rational convex geometry.

Everything here works over integers / ``Fraction``; there is no floating
point anywhere on a decision path.  The polyhedra that occur are the
bodies ``conv(G/D) + R^d_{>=0}`` of integer points G over a denominator D
(a ``Body``: limit bodies of filtrations, and Newton polyhedra of monomial
ideals when D = 1), and convex hulls of semigroup fibers.  Dimensions one
and two have closed forms.  In every d >= 3 one exact incremental hull
gives the outward simplices behind hull volumes, covolumes and the
compact facets of a body; each volume is a sum of origin cones over those
simplices.  The same hull, over the generators and points raised on each
axis, gives every facet of a body, and so body membership and equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, islice
from math import factorial, gcd, lcm
from operator import mul, neg, not_, sub

from .errors import NotMPrimary

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


def newton_inequalities(gens: list[tuple[int, ...]], dim: int) -> list[tuple[tuple[int, ...], int]]:
    """The facets ``<normal, y> >= offset`` of ``conv(gens) + orthant`` with
    ``offset > 0``, sorted; with ``y >= 0`` they cut out the polyhedron.

    Each normal is nonnegative and each facet is tight at some generator.
    They include the axis bounds ``y_i >= min g_i`` when positive.  In d = 2
    the others are the edges of the lower-left chain.  In d >= 3 they are
    the planes of one ``_hull`` whose outward normal is <= 0 and whose
    offset is < 0, negated.  Its points are the minimal generators; for each
    axis k the minimal elements of the projection that forgets k, with
    coordinate k set back in as X, one above every coordinate; and
    q = (X, ..., X).  All of them lie in the polyhedron.  A hull plane with
    a nonnegative inner normal holds on the generators and so on the
    polyhedron, and the hull touches it in d - 1 dimensions, so it is a
    facet.  Conversely a facet whose normal is zero on the axes J contains
    a generator g and, for each k in J, a raised point ``h + X e_k`` with
    h below the projection of g; these span it, so the hull has it too.
    """
    pts = minimal_elements(gens)
    if dim == 1:
        low = pts[0][0]
        return [((1,), low)] if low > 0 else []
    if dim == 2:
        ineqs = set()
        for i in range(2):
            low = min(g[i] for g in pts)
            if low > 0:
                ineqs.add(((int(i == 0), int(i == 1)), low))
        chain = _monotone_chain(pts)
        for a, b in zip(chain, chain[1:]):
            normal = (a[1] - b[1], b[0] - a[0])
            ineqs.add(_normalize_ineq(normal, normal[0] * a[0] + normal[1] * a[1]))
        return sorted(ineqs)
    X = max(max(g) for g in pts) + 1
    raised = [
        (*h[:k], X, *h[k:])
        for k in range(dim)
        for h in minimal_elements([g[:k] + g[k + 1 :] for g in pts])
    ]
    planes = _hull([*pts, *raised, (X,) * dim])
    return sorted(
        {_normalize_ineq(tuple(map(neg, n)), -offset) for n, offset in planes if max(n) <= 0 and offset < 0}
    )


def satisfies_inequalities(point, ineqs) -> bool:
    for normal, offset in ineqs:
        if sum(n * x for n, x in zip(normal, point)) < offset:
            return False
    return True


# ---------------------------------------------------------------------------
# Hulls in d >= 3: volumes, covolumes and compact facets


def _det(rows) -> int:
    """Determinant of a small square integer matrix, expanded along its first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * v * _det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j, v in enumerate(rows[0]) if v
    )


def _plane(pts):
    """``(normal, offset)`` of the hyperplane through d points a, b, ... of
    R^d: the signed cofactor minors of ``b - a, ...``, which is ``(b - a) x
    (c - a)`` in d = 3, and ``<normal, a>``."""
    a = pts[0]
    if len(a) == 3:
        b, c = pts[1], pts[2]
        u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
        v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
        normal = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        return normal, normal[0] * a[0] + normal[1] * a[1] + normal[2] * a[2]
    rows = [tuple(x - y for x, y in zip(p, a)) for p in pts[1:]]
    normal = tuple((-1) ** i * _det([r[:i] + r[i + 1 :] for r in rows]) for i in range(len(a)))
    return normal, sum(map(mul, normal, a))


def _start_simplex(pts) -> list | None:
    """d + 1 affinely independent points of the sorted ``pts``, each the
    first to raise the rank of the differences ``p - pts[0]`` under a
    fraction-free echelon reduction; None when they span less than R^d."""
    p0 = pts[0]
    simplex, rows = [p0], []
    for p in islice(pts, 1, None):
        v = list(map(sub, p, p0))
        for c, row in rows:
            f = v[c]
            if f:
                r = row[c]
                v = [r * x - f * y for x, y in zip(v, row)]
        for c, x in enumerate(v):
            if x:
                rows.append((c, v))
                simplex.append(p)
                if len(rows) == len(p0):
                    return simplex
                break
    return None


def _hull(points) -> list[tuple[tuple[int, ...], int]]:
    """The boundary of ``conv(points)`` in R^d, d >= 3, as outward
    simplices, each given by its ``_plane``, or ``[]`` when the distinct
    points span less than R^d.

    Beneath-beyond (de Berg et al., *Computational Geometry*, ch. 11): the
    start simplex of ``_start_simplex``, then every point in sorted order.
    The facets a point sees strictly are dropped, and the cone from the
    point over their horizon, the ridges that lie in exactly one of them,
    takes their place; a point that sees none is inside or on the hull.
    A facet faces away from ``z``, d + 1 times the centroid of the start
    simplex, which stays interior.  Only signs of integer determinants
    decide anything, so the result depends on the point set alone.
    """
    pts = sorted(set(points))
    simplex = _start_simplex(pts) if pts else None
    if simplex is None:
        return []
    d = len(pts[0])
    z = tuple(map(sum, zip(*simplex)))

    def facet(vertices):
        normal, offset = _plane(vertices)
        if sum(map(mul, normal, z)) > (d + 1) * offset:
            normal, offset = tuple(map(neg, normal)), -offset
        return normal, offset, vertices

    faces = [facet(simplex[:i] + simplex[i + 1 :]) for i in range(d + 1)]
    for p in pts:
        if d == 3:
            x, y, w = p
            seen = [n[0] * x + n[1] * y + n[2] * w > offset for n, offset, _ in faces]
        else:
            seen = [sum(map(mul, n, p)) > offset for n, offset, _ in faces]
        if True not in seen:
            continue
        horizon = set()
        for *_, t in compress(faces, seen):
            horizon.symmetric_difference_update(map(frozenset, combinations(t, d - 1)))
        faces = [*compress(faces, map(not_, seen)), *(facet((*r, p)) for r in horizon)]
    return [(normal, offset) for normal, offset, _ in faces]


def hull_volume(points: list[tuple[int, ...]], dim: int) -> Fraction:
    """Exact volume of conv(points) for integer points: in d >= 3 the sum
    of ``offset / d!`` over the outward simplices of ``_hull``, each the
    signed volume of the cone from the origin over it."""
    if dim == 1:
        vals = [p[0] for p in points]
        return Fraction(max(vals) - min(vals) if vals else 0)
    if dim == 2:
        return polygon_area(convex_hull_2d(points))
    return Fraction(sum(offset for _, offset in _hull(points)), factorial(dim))


def _compact_facets(pts) -> list[tuple[tuple[int, ...], int]]:
    """The simplices, as ``_plane``s, that tile the compact facets of
    ``conv(pts) + orthant`` for points ``pts`` in R^d, d >= 3.

    They are the simplices of ``conv(pts + [q])``, q = (X, ..., X) with X
    above every coordinate, whose outward normal is strictly negative.  q
    lies in the polyhedron but on no plane with a positive normal that
    supports it, so it adds no such facet and removes none; it also makes
    the set full-dimensional when the points lie on one hyperplane.  Points
    that are not minimal lie in the polyhedron and change nothing either.
    """
    X = max(max(g) for g in pts) + 1
    return [(normal, offset) for normal, offset in _hull([*pts, (X,) * len(pts[0])]) if max(normal) < 0]


def covolume_from_gens(gens: list[tuple[int, ...]], dim: int) -> Fraction:
    """Exact volume of the orthant complement of ``conv(gens) + orthant``.

    Requires a generator set whose complement is bounded (a pure power on
    every axis), and raises ``NotMPrimary`` otherwise; ``gens`` need not be
    minimal.  Only d = 2 reduces them, to walk the lower-left chain; the
    hull of d >= 3 takes them as they are.

    In d >= 3 the covolume is a sum of cones with apex at the origin.
    Every ray from the origin into the orthant leaves the complement
    through a facet ``<n, y> = b`` of the Newton polyhedron with ``b > 0``.
    Because the ideal is m-primary, a facet whose normal has a zero
    component contains the pure power on that axis, so its ``b`` is 0.
    Hence only the compact facets bound the complement (Kouchnirenko,
    "Polyedres de Newton et nombres de Milnor", Invent. Math. 32, 1976),
    and the covolume is ``-offset / d!`` summed over the outward simplices
    of ``_compact_facets``.
    """
    caps = []
    for i in range(dim):
        pures = [g[i] for g in gens if sum(g) == g[i]]
        if not pures:
            raise NotMPrimary(f"no pure power on axis {i}; the covolume is infinite")
        caps.append(min(pures))
    if all(c == 0 for c in caps):
        return Fraction(0)
    if dim == 1:
        return Fraction(caps[0])
    if dim == 2:
        return polygon_area([(0, 0)] + lower_left_chain(gens))
    return Fraction(-sum(offset for _, offset in _compact_facets(gens)), factorial(dim))


# ---------------------------------------------------------------------------
# Bodies


@dataclass(frozen=True, eq=False)
class Body:
    """The body ``conv(points / denominator) + orthant``, with its integer
    points reduced to their minimal elements when it is built.

    ``A + B`` is the Minkowski sum over the lcm of the two denominators, and
    ``k * A`` scales by an integer k.  ``inequalities`` is computed on first
    use and describes ``conv(points) + orthant``, the body scaled by its
    denominator.  Bodies are equal when they are the same set: the body is
    the orthant cut by its facets with a positive offset, and a facet
    ``<n, y> >= b`` of the scaled body is ``<n / g, y> >= b / (g D)`` on the
    body, g = gcd(n), one form per facet.
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
        """Exact covolume; ``NotMPrimary`` when it is infinite."""
        return covolume_from_gens(self.points, self.dim) / self.denominator**self.dim

    @cached_property
    def inequalities(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """A complete family as in ``newton_inequalities``."""
        return tuple(newton_inequalities(self.points, self.dim))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Body):
            return NotImplemented
        return self._facets() == other._facets()

    def _facets(self) -> set[tuple[tuple[int, ...], Fraction]]:
        facets = set()
        for normal, offset in self.inequalities:
            g = gcd(*normal)
            facets.add((tuple(n // g for n in normal), Fraction(offset, g * self.denominator)))
        return facets
