"""Exact rational convex geometry in ambient dimension <= 3.

Everything here works over integers / ``Fraction``; there is no floating
point anywhere on a decision path.  The polyhedra that occur are Newton
polyhedra ``conv(G) + R^d_{>=0}`` of monomial ideals and convex hulls of
semigroup fibers.  Newton polyhedra are described by their supporting
planes through generators, and their covolumes are sums of origin cones
over compact facets, so no vertex enumeration is needed; only the hulls of
small fiber point clouds use a brute-force facet scan.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .errors import DimensionUnsupported

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


def lower_left_chain(points: list[Point]) -> list[Point]:
    """Convex chain bounding ``conv(points) + orthant`` toward the origin.

    The input is reduced to an antichain first; the chain is returned sorted
    by increasing first coordinate (second coordinate strictly decreasing).
    """
    pts = minimal_elements(points)
    chain: list[Point] = []
    for p in pts:
        while len(chain) >= 2 and _cross2(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def convex_hull_2d(points: list[Point]) -> list[Point]:
    """Full convex hull (counterclockwise, no repeated endpoint)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polygon_area(vertices: list[Point]) -> Fraction:
    """Area of the polygon with the given vertex cycle (either orientation)."""
    twice = sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(vertices, [*vertices[1:], *vertices[:1]]))
    return abs(Fraction(twice)) / 2


def hull_area(points: list[Point]) -> Fraction:
    hull = convex_hull_2d(points)
    if len(hull) < 3:
        return Fraction(0)
    return polygon_area(hull)


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

    The sign is flipped so a normal with no positive component comes out
    nonnegative.
    """
    normal = _cross3(
        (b[0] - a[0], b[1] - a[1], b[2] - a[2]),
        (c[0] - a[0], c[1] - a[1], c[2] - a[2]),
    )
    if all(v <= 0 for v in normal):
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
# Exact 3D hull volumes


def _ordered_face_cycle(face: list[Point]) -> list[Point]:
    """Boundary cycle of a coplanar 3D point set (interior points dropped).

    The set is projected onto the two coordinates complementary to the
    largest normal component; the 2D convex hull there gives the cyclic
    order exactly.
    """
    a = face[0]
    normal = (0, 0, 0)
    for b, c in itertools.combinations(face[1:], 2):
        u = tuple(Fraction(b[t]) - Fraction(a[t]) for t in range(3))
        v = tuple(Fraction(c[t]) - Fraction(a[t]) for t in range(3))
        normal = _cross3(u, v)
        if any(x != 0 for x in normal):
            break
    if all(x == 0 for x in normal):
        return []
    drop = max(range(3), key=lambda t: abs(normal[t]))
    keep = [t for t in range(3) if t != drop]
    projected = {}
    for p in face:
        projected[(Fraction(p[keep[0]]), Fraction(p[keep[1]]))] = p
    cycle2d = convex_hull_2d(list(projected))
    if len(cycle2d) < 3:
        return []
    return [projected[q] for q in cycle2d]


def _volume_from_faces(verts: list[Point], faces: list[list[Point]]) -> Fraction:
    """Sum of tetrahedra over fan-triangulated faces, apex at the centroid."""
    if len(verts) < 4:
        return Fraction(0)
    interior = tuple(sum(Fraction(p[t]) for p in verts) / len(verts) for t in range(3))
    seen: set[tuple] = set()
    volume = Fraction(0)
    for face in faces:
        if len(face) < 3:
            continue
        cycle = _ordered_face_cycle(face)
        if len(cycle) < 3:
            continue
        key = tuple(sorted(cycle))
        if key in seen:
            continue
        seen.add(key)
        anchor = cycle[0]
        for p, q in zip(cycle[1:], cycle[2:]):
            e1 = tuple(Fraction(p[t]) - interior[t] for t in range(3))
            e2 = tuple(Fraction(q[t]) - interior[t] for t in range(3))
            e3 = tuple(Fraction(anchor[t]) - interior[t] for t in range(3))
            det = (
                e1[0] * (e2[1] * e3[2] - e2[2] * e3[1])
                - e1[1] * (e2[0] * e3[2] - e2[2] * e3[0])
                + e1[2] * (e2[0] * e3[1] - e2[1] * e3[0])
            )
            volume += abs(det)
    return volume / 6


def hull_volume_3d(points: list[Point]) -> Fraction:
    """Exact volume of the convex hull of a 3D rational point cloud.

    Brute-force facet scan, meant for small clouds (tens of points).
    """
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    if len(pts) < 4:
        return Fraction(0)
    faces: dict[tuple, set[Point]] = {}
    for a, b, c in itertools.combinations(pts, 3):
        u = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
        v = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
        normal = _cross3(u, v)
        if normal == (0, 0, 0):
            continue
        offset = sum(x * y for x, y in zip(normal, a))
        above = below = False
        for p in pts:
            val = sum(x * y for x, y in zip(normal, p))
            if val > offset:
                above = True
            elif val < offset:
                below = True
            if above and below:
                break
        if above and below:
            continue
        if above:
            normal = tuple(-x for x in normal)
            offset = -offset
        denom = 1
        for x in (*normal, offset):
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in (*normal, offset)]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        key = tuple(x // g for x in ints)
        if key not in faces:
            faces[key] = {
                p for p in pts if sum(x * y for x, y in zip(normal, p)) == offset
            }
    return _volume_from_faces(pts, [sorted(f) for f in faces.values()])


def hull_volume(points: list[Point], dim: int) -> Fraction:
    """Exact volume of conv(points) for dim <= 3."""
    if dim == 1:
        vals = [Fraction(p[0]) for p in points]
        return max(vals) - min(vals) if vals else Fraction(0)
    if dim == 2:
        return hull_area(points)
    if dim == 3:
        return hull_volume_3d(points)
    raise DimensionUnsupported(f"exact hull volume needs d <= 3, got d = {dim}")


# ---------------------------------------------------------------------------
# Covolume: volume of (orthant \ Newton polyhedron)


def _covolume_3d(pts: list[tuple[int, int, int]]) -> Fraction:
    """Sum of the origin cones over the compact facets of ``conv(pts) + orthant``."""
    total = Fraction(0)
    seen: set = set()
    for a, b, c in itertools.combinations(pts, 3):
        normal = _plane_through(a, b, c)
        if normal[0] <= 0 or normal[1] <= 0 or normal[2] <= 0:
            continue
        offset = normal[0] * a[0] + normal[1] * a[1] + normal[2] * a[2]
        normal, offset = _normalize_ineq(normal, offset)
        if (normal, offset) in seen:
            continue
        seen.add((normal, offset))
        if not _supports(normal, offset, pts):
            continue
        n0, n1, n2 = normal
        tight = [(g[0], g[1]) for g in pts if n0 * g[0] + n1 * g[1] + n2 * g[2] == offset]
        hull = convex_hull_2d(tight)
        twice_area = sum(_cross2(hull[0], p, q) for p, q in zip(hull[1:], hull[2:]))
        total += Fraction(offset * twice_area, 6 * n2)
    return total


def covolume_from_gens(gens: list[tuple[int, ...]], dim: int) -> Fraction:
    """Exact volume of the orthant complement of ``conv(gens) + orthant``.

    Requires a generator set whose complement is bounded (a pure power on
    every axis); ``gens`` need not be minimal.

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
            raise ValueError("complement region is unbounded (no pure power on an axis)")
        caps.append(min(pures))
    if all(c == 0 for c in caps):
        return Fraction(0)
    if dim == 1:
        return Fraction(caps[0])
    if dim == 2:
        polygon = [(0, 0)] + lower_left_chain(pts)
        return polygon_area(polygon)
    return _covolume_3d(pts)
