import itertools
import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from filtmult.geometry import (
    Body,
    convex_hull_2d,
    covolume_from_gens,
    hull_volume,
    lower_left_chain,
    minimal_elements,
    newton_inequalities,
    polygon_area,
    satisfies_inequalities,
)
from oracles import triple_scan_inequalities_3d


def test_lower_left_chain_filters_non_extreme():
    chain = lower_left_chain([(0, 4), (2, 3), (3, 0)])
    assert chain == [(0, 4), (3, 0)]
    chain = lower_left_chain([(0, 4), (1, 1), (3, 0)])
    assert chain == [(0, 4), (1, 1), (3, 0)]


def test_hull_area_square_with_interior_noise():
    pts = [(0, 0), (4, 0), (0, 4), (4, 4)] + [(1, 2), (2, 2), (3, 1)]
    assert hull_volume(pts, 2) == 16


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _ordered_face_cycle(face):
    """Boundary cycle of a coplanar 3D point set, from its 2D hull in the
    projection along the largest normal component."""
    a = face[0]
    normal = (0, 0, 0)
    for b, c in itertools.combinations(face[1:], 2):
        normal = _cross3([b[t] - a[t] for t in range(3)], [c[t] - a[t] for t in range(3)])
        if any(normal):
            break
    if not any(normal):
        return []
    drop = max(range(3), key=lambda t: abs(normal[t]))
    keep = [t for t in range(3) if t != drop]
    projected = {(p[keep[0]], p[keep[1]]): p for p in face}
    cycle2d = convex_hull_2d(list(projected))
    return [projected[q] for q in cycle2d] if len(cycle2d) >= 3 else []


def hull_volume_oracle(points):
    """Volume of a 3D hull by a Fraction facet scan: classify every point
    triple against every point, then fan-triangulate each face cycle from the
    centroid.  Quartic, and independent of the origin-cone kernel."""
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    if len(pts) < 4:
        return Fraction(0)
    faces = {}
    for a, b, c in itertools.combinations(pts, 3):
        normal = _cross3([b[t] - a[t] for t in range(3)], [c[t] - a[t] for t in range(3)])
        if not any(normal):
            continue
        offset = sum(x * y for x, y in zip(normal, a))
        vals = [sum(x * y for x, y in zip(normal, p)) for p in pts]
        if min(vals) < offset < max(vals):
            continue
        if max(vals) > offset:
            normal, offset = tuple(-x for x in normal), -offset
        ints = [int(x) for x in (*normal, offset)]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        key = tuple(x // g for x in ints)
        if key not in faces:
            faces[key] = sorted(p for p in pts if sum(x * y for x, y in zip(normal, p)) == offset)
    interior = tuple(sum(p[t] for p in pts) / len(pts) for t in range(3))
    seen = set()
    volume = Fraction(0)
    for face in faces.values():
        cycle = _ordered_face_cycle(face)
        key = tuple(sorted(cycle))
        if len(cycle) < 3 or key in seen:
            continue
        seen.add(key)
        e3 = [cycle[0][t] - interior[t] for t in range(3)]
        for p, q in zip(cycle[1:], cycle[2:]):
            e1 = [p[t] - interior[t] for t in range(3)]
            e2 = [q[t] - interior[t] for t in range(3)]
            volume += abs(sum(x * y for x, y in zip(e1, _cross3(e2, e3))))
    return volume / 6


def test_hull_volume_3d_reference_shapes():
    cube = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    assert hull_volume(cube, 3) == 8
    simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert hull_volume(simplex, 3) == Fraction(1, 6)
    # shell between two simplices, with many boundary lattice points
    pts = []
    for x in range(5):
        for y in range(5 - x):
            bottom = max(0, 2 - x - y)
            top = 4 - x - y
            if bottom <= top:
                pts += [(x, y, bottom), (x, y, top)]
    assert hull_volume(pts, 3) == Fraction(28, 3)


def test_hull_volume_3d_degenerate():
    assert hull_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0)], 3) == 0
    coplanar = [(x, y, x + y) for x in range(3) for y in range(3)]
    assert hull_volume(coplanar, 3) == 0
    assert hull_volume([], 3) == hull_volume([(1, 2, 3)], 3) == 0
    assert hull_volume([(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)], 3) == 0


def _unit_simplex(d):
    return [(0,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)]


def test_hull_volume_d4_closed_forms():
    assert hull_volume(list(itertools.product((0, 1), repeat=4)), 4) == 1
    assert hull_volume(_unit_simplex(4), 4) == Fraction(1, 24)
    assert hull_volume(_unit_simplex(5), 5) == Fraction(1, 120)
    rng = random.Random(4)
    for _ in range(10):
        cloud = [tuple(rng.randint(0, 5) for _ in range(4)) for _ in range(rng.randint(5, 30))]
        volume = hull_volume(cloud, 4)
        for k in (2, 3):
            assert hull_volume([tuple(k * x for x in p) for p in cloud], 4) == k**4 * volume
        # a unimodular shear and a translation keep the volume
        sheared = [(a + 2 * b - c, b + d, c + 3, d - a) for a, b, c, d in cloud]
        assert hull_volume(sheared, 4) == volume
    # points of the grid {0, 1, 2}^4 lie in the cube [0, 2]^4 and add nothing to its corners
    box = list(itertools.product(range(3), repeat=4))
    assert hull_volume(rng.sample(box, 60) + list(itertools.product((0, 2), repeat=4)), 4) == 16


def test_hull_volume_d4_degenerate():
    # on the hyperplane x + y + z + w = 4, and on a 2-plane
    flat = [p for p in itertools.product(range(5), repeat=4) if sum(p) == 4]
    assert hull_volume(flat, 4) == 0
    assert hull_volume([(x, y, x + y, x - y) for x in range(4) for y in range(4)], 4) == 0
    assert hull_volume(_unit_simplex(4)[:4], 4) == hull_volume([], 4) == 0


COORD8 = st.integers(0, 8)


@st.composite
def clouds_3d(draw):
    """Integer clouds of up to 25 points: general, coplanar, collinear, with
    duplicates, or a sheared box whose facets hold many points and have
    normals of mixed sign; fewer than four points included."""
    shape = draw(st.sampled_from(["general", "coplanar", "collinear", "duplicates", "box"]))
    if shape == "general":
        return draw(st.lists(st.tuples(COORD8, COORD8, COORD8), max_size=25))
    if shape == "box":
        p, q, r = draw(st.tuples(*[st.integers(1, 4)] * 3))
        box = [(x, y, z) for x in (0, p) for y in (0, q) for z in (0, r)]
        box += draw(st.lists(st.tuples(st.integers(0, p), st.integers(0, q), st.integers(0, r)), max_size=17))
        a, b, c = draw(st.tuples(*[st.integers(-2, 2)] * 3))
        return [(x, y + a * x, z + b * x + c * y) for x, y, z in box]
    if shape == "duplicates":
        base = draw(st.lists(st.tuples(COORD8, COORD8, COORD8), min_size=1, max_size=8))
        picks = draw(st.lists(st.integers(0, len(base) - 1), max_size=17))
        return base + [base[i] for i in picks]
    if shape == "collinear":
        start = draw(st.tuples(COORD8, COORD8, COORD8))
        step = draw(st.tuples(*[st.integers(-2, 2)] * 3))
        ts = draw(st.lists(st.integers(0, 4), max_size=25))
        return [tuple(x + t * s for x, s in zip(start, step)) for t in ts]
    # a plane z = a x + b y + c, with the axes permuted
    a, b, c = draw(st.integers(-2, 2)), draw(st.integers(-2, 2)), draw(COORD8)
    perm = draw(st.permutations(range(3)))
    flat = [(x, y, a * x + b * y + c) for x, y in draw(st.lists(st.tuples(COORD8, COORD8), max_size=25))]
    return [tuple(p[perm[t]] for t in range(3)) for p in flat]


@given(clouds_3d())
@settings(max_examples=200, deadline=None)
def test_hull_volume_3d_matches_face_cycle_oracle(points):
    volume = hull_volume(points, 3)
    assert volume == hull_volume_oracle(points)
    assert type(volume) is Fraction


def _covolume_oracle(gens):
    """Box volume minus the hull of the generators pushed out to the caps.

    ``(conv G + R^3_+) & [0, caps] = conv{g with any subset of coordinates
    set to its cap}`` for minimal G, so this needs only a hull volume, taken
    from the oracle so that the covolume kernel never checks itself.
    """
    pts = minimal_elements(gens)
    caps = [min(g[i] for g in pts if all(g[j] == 0 for j in range(3) if j != i)) for i in range(3)]
    lifted = {
        tuple(c if up else x for x, c, up in zip(g, caps, mask))
        for g in pts
        for mask in itertools.product((False, True), repeat=3)
    }
    return caps[0] * caps[1] * caps[2] - hull_volume_oracle(list(lifted))


def _random_primary_3d(rng, max_exp, extra):
    gens = [tuple(rng.randint(1, max_exp) if i == j else 0 for j in range(3)) for i in range(3)]
    return gens + [tuple(rng.randint(0, max_exp) for _ in range(3)) for _ in range(extra)]


def _det3(a, b, c):
    return sum(x * y for x, y in zip(a, _cross3(b, c)))


def _facet_cone_covolume_oracle(gens):
    """Covolume as the origin cones over the compact facets that the
    triple-scan family finds, each fanned from its face cycle.  Cubic in
    the generators, so it reaches sets too large for ``_covolume_oracle``."""
    pts = minimal_elements(gens)
    total = Fraction(0)
    for normal, offset in triple_scan_inequalities_3d(pts):
        if min(normal) > 0:
            cycle = _ordered_face_cycle([g for g in pts if sum(n * x for n, x in zip(normal, g)) == offset])
            total += abs(sum(_det3(cycle[0], p, q) for p, q in zip(cycle[1:], cycle[2:])))
    return total / 6


def test_covolume_3d_matches_hull_oracle():
    rng = random.Random(11)
    for _ in range(10):
        gens = _random_primary_3d(rng, 6, rng.randint(0, 3))
        assert covolume_from_gens(gens, 3) == _covolume_oracle(gens) == _facet_cone_covolume_oracle(gens)
    # raw Minkowski-sum candidate sets: non-minimal, with interior points
    for _ in range(4):
        left = _random_primary_3d(rng, 3, 1)
        right = _random_primary_3d(rng, 2, 1)
        sums = [tuple(x + y for x, y in zip(g, h)) for g in left for h in right]
        assert len(minimal_elements(sums)) < len(sums)
        assert covolume_from_gens(sums, 3) == _covolume_oracle(sums)
    # every minimal generator a vertex: (i^2, j^2, k^2) with i + j + k = s
    for s in (5, 6, 7):
        gens = [(i * i, j * j, (s - i - j) ** 2) for i in range(s + 1) for j in range(s + 1 - i)]
        assert len(gens) >= 21
        for g in gens:
            assert not satisfies_inequalities(g, newton_inequalities([h for h in gens if h != g], 3))
        assert covolume_from_gens(gens, 3) == _facet_cone_covolume_oracle(gens)


def test_covolume_3d_interior_generators_and_unit():
    # (1,1,1) is a minimal generator strictly inside the Newton polyhedron
    # of (x^2, y^2, z^2), so the region is the simplex-complement alone
    assert covolume_from_gens([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], 3) == Fraction(8, 6)
    gens = [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 1), (1, 2, 2), (2, 1, 2)]
    assert covolume_from_gens(gens, 3) == _covolume_oracle(gens)
    assert covolume_from_gens([(0, 0, 0), (1, 0, 0), (0, 2, 3)], 3) == 0


def test_covolume_3d_hilbert_samuel_docstring_ideal():
    # (z^3, y^5, x y^2 z, x^4): e = 59, where finite differences plateau at 58
    assert 6 * covolume_from_gens([(0, 0, 3), (0, 5, 0), (1, 2, 1), (4, 0, 0)], 3) == 59


def test_covolume_d4_d5_matches_capped_hull():
    """In d >= 4, ``(conv G + orthant) & [0, caps]`` is the hull of G with
    any subset of coordinates raised to its cap, so the covolume is the box
    minus that hull's volume: the compact facets against the whole hull."""
    rng = random.Random(45)
    for d in (4, 4, 4, 4, 5):
        caps = [rng.randint(1, 4) for _ in range(d)]
        gens = [tuple(c * (i == j) for j in range(d)) for i, c in enumerate(caps)]
        gens += [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(1, 4))]
        pts = minimal_elements(gens)
        caps = [min(g[i] for g in pts if sum(g) == g[i]) for i in range(d)]
        lifted = {
            tuple(c if up else x for x, c, up in zip(g, caps, mask))
            for g in pts
            for mask in itertools.product((False, True), repeat=d)
        }
        box = 1
        for c in caps:
            box *= c
        assert covolume_from_gens(gens, d) == box - hull_volume(list(lifted), d)
    squares = [tuple(2 * (i == j) for j in range(5)) for i in range(5)]
    assert 120 * covolume_from_gens([*squares, (1, 1, 0, 0, 1)], 5) == 32


def test_newton_inequalities_complete_for_membership():
    rng = random.Random(5)
    for _ in range(20):
        gens = [(rng.randint(1, 5), 0, 0), (0, rng.randint(1, 5), 0),
                (0, 0, rng.randint(1, 5))]
        gens += [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(2)]
        ineqs = newton_inequalities(gens, 3)
        # every member supports the region: tight at some generator
        for normal, offset in ineqs:
            assert min(sum(n * x for n, x in zip(normal, g)) for g in gens) == offset
        # every generator plus orthant shifts stays inside
        for g in gens:
            assert satisfies_inequalities(g, ineqs)
            assert satisfies_inequalities(tuple(x + 1 for x in g), ineqs)
        # midpoints of generator pairs are inside (convexity)
        for a in gens:
            for b in gens:
                mid = tuple(Fraction(x + y, 2) for x, y in zip(a, b))
                assert satisfies_inequalities(mid, ineqs)


@st.composite
def exponent_sets_3d(draw):
    """Nonnegative 3D exponent sets: m-primary, arbitrary, on one plane, on
    one line, or a single point."""
    shape = draw(st.sampled_from(["primary", "general", "coplanar", "collinear", "single"]))
    coord = st.integers(0, 6)
    if shape == "primary":
        caps = draw(st.tuples(*[st.integers(1, 6)] * 3))
        pures = [tuple(c if i == j else 0 for j in range(3)) for i, c in enumerate(caps)]
        return pures + draw(st.lists(st.tuples(coord, coord, coord), max_size=8))
    if shape == "general":
        return draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=10))
    if shape == "single":
        return [draw(st.tuples(coord, coord, coord))]
    if shape == "collinear":
        start = draw(st.tuples(coord, coord, coord))
        step = draw(st.tuples(*[st.integers(-2, 2)] * 3))
        line = [tuple(x + t * s for x, s in zip(start, step)) for t in range(draw(st.integers(1, 5)))]
        return [p for p in line if min(p) >= 0]
    a, b, c = draw(st.integers(-2, 2)), draw(st.integers(-2, 2)), draw(coord)
    perm = draw(st.permutations(range(3)))
    flat = [(x, y, a * x + b * y + c) for x, y in draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=10))]
    return [tuple(p[perm[t]] for t in range(3)) for p in flat if p[2] >= 0] or [(c, c, c)]


RATIONAL_PROBE = st.tuples(*[st.fractions(min_value=0, max_value=8, max_denominator=4)] * 3)


@given(exponent_sets_3d(), st.lists(RATIONAL_PROBE, max_size=60))
@settings(max_examples=300, deadline=None)
def test_newton_inequalities_3d_match_triple_scan_oracle(gens, probes):
    ineqs = newton_inequalities(gens, 3)
    reference = triple_scan_inequalities_3d(gens)
    assert set(ineqs) <= set(reference)
    for normal, offset in ineqs:
        assert min(sum(n * x for n, x in zip(normal, g)) for g in gens) == offset
    half = Fraction(1, 2)
    probes = probes + [tuple(Fraction(x + y, 2) for x, y in zip(g, h)) for g in gens for h in gens]
    probes += [tuple(x - half * (i == t) for i, x in enumerate(g)) for g in gens for t in range(3)]
    for p in probes:
        assert satisfies_inequalities(p, ineqs) == satisfies_inequalities(p, reference), p


@st.composite
def primary_sets(draw, d, max_cap, max_extra):
    """An m-primary exponent set in dimension d: a pure power on every axis,
    plus arbitrary points of the box below the caps."""
    caps = draw(st.tuples(*[st.integers(1, max_cap)] * d))
    pures = [tuple(c * (i == j) for j in range(d)) for i, c in enumerate(caps)]
    extra = st.tuples(*[st.integers(0, c) for c in caps])
    return pures + draw(st.lists(extra, max_size=max_extra))


def assert_membership_matches_covolume(gens, d):
    """Each lattice point p of the box lies in the Newton polyhedron exactly
    when adding it to the generators leaves the covolume unchanged."""
    ineqs = newton_inequalities(gens, d)
    base = covolume_from_gens(gens, d)
    caps = [min(g[i] for g in gens if sum(g) == g[i]) for i in range(d)]
    for p in itertools.product(*(range(c + 1) for c in caps)):
        assert satisfies_inequalities(p, ineqs) == (covolume_from_gens([*gens, p], d) == base), p


@given(primary_sets(4, 3, 4))
@settings(max_examples=40, deadline=None)
def test_newton_inequalities_d4_match_covolume_membership(gens):
    assert_membership_matches_covolume(gens, 4)


@given(exponent_sets_3d(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_newton_inequalities_d4_of_a_cylinder(gens, k):
    """With a zero coordinate set in at axis k, the Newton polyhedron of a
    d = 3 set is its product with a ray, so its d = 4 facets are the d = 3
    facets with a zero set in at k: this reaches sets that are not
    m-primary, whose facets off the compact ones bound the polyhedron."""
    lifted = [(*g[:k], 0, *g[k:]) for g in gens]
    expected = sorted(((*n[:k], 0, *n[k:]), b) for n, b in newton_inequalities(gens, 3))
    assert newton_inequalities(lifted, 4) == expected


def test_newton_inequalities_d5_match_covolume_membership():
    rng = random.Random(55)
    squares = [tuple(2 * (i == j) for j in range(5)) for i in range(5)]
    assert_membership_matches_covolume([*squares, (1, 1, 0, 0, 1)], 5)
    for _ in range(3):
        caps = [rng.randint(1, 2) for _ in range(5)]
        gens = [tuple(c * (i == j) for j in range(5)) for i, c in enumerate(caps)]
        gens += [tuple(rng.randint(0, c) for c in caps) for _ in range(rng.randint(1, 3))]
        assert_membership_matches_covolume(gens, 5)


def test_body_equality_is_set_equality():
    assert Body([(2,)], 2) == Body([(1,)], 1)
    assert Body([(3,)], 2) != Body([(1,)], 1)
    P = [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1), (2, 2, 2)]
    assert 2 * Body(P, 2) == Body(P, 1)
    assert Body([tuple(3 * x for x in p) for p in P], 3) == Body(P)
    # (2, 2, 2) is no vertex, so dropping it leaves the same body
    assert Body(P[:4], 1) == Body(P, 1) != Body(P[:3], 1)
    # in d = 4, (1, 1, 0, 0) is a vertex and (1, 1, 1, 1) is not
    Q = [tuple(3 * (i == j) for j in range(4)) for i in range(4)] + [(1, 1, 0, 0), (1, 1, 1, 1)]
    assert 3 * Body(Q, 3) == Body(Q) == Body(Q[:5]) != Body(Q[:4])


def test_covolume_1d_2d():
    assert covolume_from_gens([(3,)], 1) == 3
    assert covolume_from_gens([(1, 0), (0, 1)], 2) == Fraction(1, 2)
    # raw generating set with dominated members gives the same region
    assert covolume_from_gens([(1, 0), (0, 1), (2, 2), (1, 3)], 2) == Fraction(1, 2)


def test_hull_volume_dispatch():
    assert hull_volume([(1,), (4,)], 1) == 3
    assert hull_volume([(0, 0), (1, 0), (0, 1)], 2) == Fraction(1, 2)


def test_convex_hull_2d_collinear():
    assert convex_hull_2d([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]


def brute_minimal(points):
    """Distinct points with no other point of the set below them."""
    pts = set(points)
    return sorted(
        p for p in pts if not any(q != p and all(a >= b for a, b in zip(p, q)) for q in pts)
    )


@st.composite
def point_lists(draw, min_size=1):
    d = draw(st.integers(1, 4))
    coord = st.integers(0, 4)
    return draw(st.lists(st.tuples(*[coord] * d), min_size=min_size, max_size=12))


@given(point_lists(min_size=0))
@settings(max_examples=300, deadline=None)
def test_minimal_elements_matches_bruteforce(points):
    assert minimal_elements(points) == brute_minimal(points)


def test_minimal_elements_2d_repeated_x():
    points = [(2, 5), (2, 1), (0, 7), (2, 3), (0, 7), (4, 1), (5, 0), (3, 1)]
    assert minimal_elements(points) == [(0, 7), (2, 1), (5, 0)]


def fraction_shoelace(vertices):
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        (x1, y1), (x2, y2) = vertices[i], vertices[(i + 1) % n]
        total += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(total) / 2


COORDS = st.one_of(
    st.integers(-(2**66), 2**66),
    st.integers(-6, 6),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)


@given(st.lists(st.tuples(COORDS, COORDS), max_size=9))
@settings(max_examples=250, deadline=None)
def test_polygon_area_matches_fraction_shoelace(vertices):
    area = polygon_area(vertices)
    assert area == fraction_shoelace(vertices) == polygon_area(vertices[::-1])
    assert type(area) is Fraction
    hull = convex_hull_2d(vertices)
    assert polygon_area(hull) == polygon_area(hull[::-1]) == fraction_shoelace(hull)


def test_polygon_area_degenerate_and_oriented():
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert polygon_area(square) == polygon_area(square[::-1]) == 4
    assert polygon_area([(Fraction(1, 2), 0), (1, 0), (1, Fraction(1, 3))]) == Fraction(1, 12)
    assert polygon_area([(0, 0), (1, 1), (3, 3)]) == 0
    assert polygon_area([(1, 1), (1, 1)]) == polygon_area([(5, 2)]) == polygon_area([]) == 0
