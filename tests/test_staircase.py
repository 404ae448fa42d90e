import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filtmult import staircase
from filtmult.errors import DimensionMismatch, NotMPrimary, SpecValidationError
from filtmult.filtrations import PowerFiltration
from filtmult.geometry import newton_inequalities, satisfies_inequalities
from filtmult.staircase import (
    MonomialIdeal,
    colength,
    covolume,
    ideal_sum,
    integral_closure,
    maximal_ideal,
    minimalize,
    newton_region,
    power,
    product,
    unit_ideal,
)

from oracles import old_construction_error, old_is_m_primary


def I2(*gens):
    return minimalize(list(gens), 2)


def colength_bruteforce(ideal: MonomialIdeal) -> int:
    """Reference colength: scan the staircase box point by point."""
    assert ideal.is_m_primary()
    points = itertools.product(*(range(ideal.pure_power(i)) for i in range(ideal.dim)))
    return sum(1 for p in points if not any(all(x >= y for x, y in zip(p, g)) for g in ideal.gens))


def oracle_colength(ideal: MonomialIdeal) -> int:
    """Third, fully independent counting route (no shared code paths)."""
    caps = []
    for axis in range(ideal.dim):
        pures = [
            g[axis]
            for g in ideal.gens
            if all(g[j] == 0 for j in range(ideal.dim) if j != axis)
        ]
        caps.append(min(pures))
    count = 0
    for pt in itertools.product(*(range(c) for c in caps)):
        if not any(all(p >= g for p, g in zip(pt, gen)) for gen in ideal.gens):
            count += 1
    return count


# -- minimalize --------------------------------------------------------------


def test_minimalize_drops_dominated():
    assert I2((2, 0), (3, 0), (0, 1)).gens == ((0, 1), (2, 0))


def test_minimalize_unit():
    assert I2((0, 0), (5, 5)).gens == ((0, 0),)
    assert I2((0, 0), (5, 5)).is_unit


def test_minimalize_pairwise_scan():
    assert I2((3, 0), (1, 1), (2, 3), (0, 4)).gens == ((0, 4), (1, 1), (3, 0))


def test_minimalize_rejects_bad_input():
    with pytest.raises(ValueError):
        minimalize([], 2)
    with pytest.raises(DimensionMismatch):
        minimalize([(1, 2, 3)], 2)
    with pytest.raises(ValueError):
        MonomialIdeal(2, ((1, 0), (2, 0)))  # not an antichain


def brute_minimal(points):
    pts = set(points)
    return tuple(sorted(
        p for p in pts if not any(q != p and all(a >= b for a, b in zip(p, q)) for q in pts)
    ))


def brute_is_antichain(gens) -> bool:
    """Pairwise oracle: no duplicate and no generator dividing another."""
    return not any(
        all(a >= b for a, b in zip(g, h)) or all(a <= b for a, b in zip(g, h))
        for g, h in itertools.combinations(gens, 2)
    )


@st.composite
def exponent_lists(draw, d=None, min_size=1, max_size=8, top=3):
    d = draw(st.integers(1, 4)) if d is None else d
    coord = st.integers(0, top)
    return draw(st.lists(st.tuples(*[coord] * d), min_size=min_size, max_size=max_size))


@given(
    exponent_lists(min_size=3, max_size=12, top=5),
    st.lists(st.integers(0, 11), max_size=2),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_construction_rejects_exactly_non_antichains(raw, extra, as_drawn):
    # either the raw draw, or its minimal set (an antichain) plus up to two
    # raw points again, each a duplicate of a generator or a multiple of one
    gens = raw if as_drawn else list(brute_minimal(raw)) + [raw[i % len(raw)] for i in extra]
    d = len(gens[0])
    if brute_is_antichain(gens):
        assert MonomialIdeal(d, tuple(gens)).gens == tuple(sorted(gens))
    else:
        with pytest.raises(ValueError, match="antichain"):
            MonomialIdeal(d, tuple(gens))


@pytest.mark.parametrize(
    "gens, ok",
    [
        (((1, 3), (1, 2)), False),  # same x, one divides the other
        (((1, 2), (1, 2)), False),  # duplicate
        (((0, 3), (1, 2), (1, 0)), False),  # repeated x further along
        (((0, 3), (1, 2), (2, 0)), True),
        (((2,), (2,)), False),
        (((1, 0, 2), (1, 0, 2)), False),
    ],
)
def test_construction_repeated_coordinates(gens, ok):
    if ok:
        MonomialIdeal(len(gens[0]), gens)
    else:
        with pytest.raises(ValueError):
            MonomialIdeal(len(gens[0]), gens)


def test_construction_keeps_other_checks():
    with pytest.raises(ValueError, match="negative"):
        MonomialIdeal(2, ((-1, 2), (1, 0)))
    with pytest.raises(ValueError, match="negative"):
        minimalize([(3, 0), (-1, 5), (0, 1)], 2)
    with pytest.raises(DimensionMismatch):
        MonomialIdeal(2, ((1, 0), (0, 1, 0)))
    with pytest.raises(DimensionMismatch):
        MonomialIdeal(0, ((),))
    with pytest.raises(ValueError):
        MonomialIdeal(2, ())


@st.composite
def construction_cases_2d(draw):
    """Shuffled d=2 generator lists: antichains, m-primary or not, with
    duplicates, equal x, multiples, negative or wrong-length exponents
    mixed in."""
    coord = st.integers(0, 6)
    raw = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
    if draw(st.booleans()):  # close the staircase on both axes
        raw += [(draw(coord), 0), (0, draw(coord))]
    base = brute_minimal(raw) if draw(st.booleans()) else tuple(raw)
    gens = base
    top_x, top_y = (max(g[i] for g in base) for i in (0, 1))
    for kind in draw(st.lists(st.sampled_from(["dup", "same_x", "raw", "neg", "len"]), max_size=2)):
        x, y = draw(st.sampled_from(base))
        extra = {
            "dup": (x, y),
            "same_x": (x, draw(coord)),
            "raw": draw(st.tuples(coord, coord)),
            # beyond either end of the staircase, so y may still fall strictly
            "neg": draw(st.sampled_from([(-1, top_y + 1), (top_x + 1, -1)])),
            "len": draw(st.sampled_from([(x,), (x, y, 0)])),
        }[kind]
        gens += (extra,)
    return draw(st.permutations(gens))


@given(construction_cases_2d())
@settings(max_examples=500, deadline=None)
def test_d2_construction_matches_the_minimal_elements_checks(gens):
    expected = old_construction_error(2, gens)
    try:
        I = MonomialIdeal(2, tuple(gens))
    except (ValueError, DimensionMismatch) as exc:
        assert (type(exc), str(exc)) == expected
    else:
        assert expected is None
        assert I.gens == tuple(sorted(gens))
        assert I.is_m_primary() == old_is_m_primary(I)


def test_power_filtration_first_term_is_its_ideal(monkeypatch):
    def no_product(I, J):
        raise AssertionError("multiplied by the unit ideal")

    monkeypatch.setattr(staircase, "product", no_product)
    I = I2((3, 0), (1, 1), (0, 4))
    assert PowerFiltration(I).ideal_at(1) is I
    assert power(I, 1) is I


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(exponent_lists(d), exponent_lists(d))))
@settings(max_examples=200, deadline=None)
def test_product_matches_bruteforce_and_commutes(pair):
    raw_i, raw_j = pair
    I, J = minimalize(raw_i, len(raw_i[0])), minimalize(raw_j, len(raw_j[0]))
    sums = [tuple(a + b for a, b in zip(g, h)) for g in I.gens for h in J.gens]
    assert product(I, J).gens == brute_minimal(sums)
    assert product(I, J) == product(J, I)


def brute_product(I, J):
    return brute_minimal([tuple(a + b for a, b in zip(g, h)) for g in I.gens for h in J.gens])


# exponents past 2**64, so packed d=2 keys x*M + y need more than 64 bits
BIG = 2**70
big_coord = st.one_of(st.integers(0, 6), st.integers(0, BIG), st.sampled_from([BIG, BIG - 1]))


def box_scan_closure_2d(I):
    """The lattice points of the Newton region of I in the box of its largest
    exponents, tested against its facets, reduced to minimal elements."""
    ineqs = newton_inequalities(list(I.gens), 2)
    box = itertools.product(*(range(max(g[i] for g in I.gens) + 1) for i in range(2)))
    return minimalize([p for p in box if satisfies_inequalities(p, ineqs)], 2)


@st.composite
def small_ideals_2d(draw):
    """d=2 ideals with exponents below 10, m-primary or not."""
    coord = st.integers(0, 9)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    if draw(st.booleans()):  # close the staircase on both axes
        pts += [(draw(coord), 0), (0, draw(coord))]
    return I2(*pts)


@st.composite
def closed_ideals_2d(draw):
    """Integrally closed d=2 ideals: box-scan closures of small staircases,
    m-primary or not, the unit ideal, single generators up to 2**70, and
    powers of the maximal ideal."""
    shape = draw(st.sampled_from(["closure", "unit", "single", "maximal_power"]))
    if shape == "unit":
        return unit_ideal(2)
    if shape == "single":
        return I2(draw(st.tuples(big_coord, big_coord)))
    if shape == "maximal_power":
        k = draw(st.integers(1, 12))
        return I2(*[(i, k - i) for i in range(k + 1)])
    return box_scan_closure_2d(draw(small_ideals_2d()))


@st.composite
def ideals_2d(draw):
    """d=2 ideals: unit, single generators, m-primary or not, small or huge
    exponents, small staircases scaled past 64 bits, and integrally closed
    ideals."""
    shape = draw(st.sampled_from(["unit", "single", "small", "big", "scaled", "closed"]))
    if shape == "closed":
        return draw(closed_ideals_2d())
    if shape == "unit":
        return unit_ideal(2)
    if shape == "single":
        return I2(draw(st.tuples(big_coord, big_coord)))
    coord = st.integers(0, 6) if shape != "big" else big_coord
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
    if shape == "scaled":
        c = draw(st.sampled_from([2**64 + 3, BIG]))
        pts = [(c * x, c * y) for x, y in pts]
    if draw(st.booleans()):  # close the staircase on both axes
        pts += [(draw(coord), 0), (0, draw(coord))]
    return I2(*pts)


BIG_SQUARES = I2((BIG, 0), (0, BIG))


@given(ideals_2d(), ideals_2d(), st.booleans())
@example(BIG_SQUARES, BIG_SQUARES, True)
@example(BIG_SQUARES, maximal_ideal(2), False)
@settings(max_examples=500, deadline=None)
def test_product_2d_matches_bruteforce(I, J, square):
    J = I if square else J
    assert product(I, J).gens == brute_product(I, J)
    assert product(J, I) == product(I, J)


@given(ideals_2d(), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_power_2d_matches_iterated_bruteforce(I, k):
    expected = unit_ideal(2)
    for _ in range(k):
        expected = MonomialIdeal(2, brute_product(expected, I))
    assert power(I, k) == expected


@given(closed_ideals_2d(), closed_ideals_2d(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_closed_products_match_bruteforce(I, J, square):
    J = I if square else J
    assert product(I, J).gens == brute_product(I, J)
    assert product(J, I) == product(I, J)


@given(st.one_of(closed_ideals_2d(), small_ideals_2d()))
@settings(max_examples=100, deadline=None)
def test_closedness_test_matches_integral_closure(I):
    assert (staircase._closed_chain(I.gens) is not None) == (integral_closure(I) == I)


@given(small_ideals_2d())
@settings(max_examples=100, deadline=None)
def test_integral_closure_2d_matches_box_scan(I):
    assert integral_closure(I) == box_scan_closure_2d(I)


def test_closed_factors_skip_the_key_kernel(monkeypatch):
    calls = []
    key_product = staircase._key_product

    def spy(A, B):
        calls.append((A, B))
        return key_product(A, B)

    monkeypatch.setattr(staircase, "_key_product", spy)
    closed = I2((0, 3), (1, 1), (3, 0))
    assert product(closed, closed).gens == brute_product(closed, closed)
    assert product(closed, maximal_ideal(2)).gens == brute_product(closed, maximal_ideal(2))
    assert calls == []
    squares = I2((2, 0), (0, 2))
    assert product(squares, squares).gens == ((0, 4), (2, 2), (4, 0))
    assert calls == [(squares.gens, squares.gens)]


def old_pure_power(gens, dim, axis):
    """The per-coordinate definition the one-pass sum test replaced."""
    best = None
    for g in gens:
        if all(g[j] == 0 for j in range(dim) if j != axis):
            best = g[axis] if best is None else min(best, g[axis])
    return best


@st.composite
def pure_power_cases(draw):
    d = draw(st.integers(1, 4))
    coord = st.integers(0, 4)
    raw = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8))
    # pure powers on some axes, possibly several on one axis
    for axis in draw(st.lists(st.integers(0, d - 1), max_size=4)):
        raw.append(tuple(draw(st.integers(0, 6)) if j == axis else 0 for j in range(d)))
    if draw(st.booleans()):
        raw.append((0,) * d)
    return d, raw


@given(pure_power_cases())
@settings(max_examples=400, deadline=None)
def test_pure_power_matches_coordinatewise_definition(case):
    d, raw = case
    # an antichain holds at most one pure power per axis, so the raw draw
    # (duplicates and several powers on one axis included) goes in as well
    loose = SimpleNamespace(dim=d, gens=tuple(raw))
    assert [MonomialIdeal.pure_power(loose, i) for i in range(d)] == [
        old_pure_power(raw, d, i) for i in range(d)
    ]
    I = minimalize(raw, d)
    caps = tuple(old_pure_power(I.gens, d, i) for i in range(d))
    assert tuple(I.pure_power(i) for i in range(d)) == caps
    assert I.is_m_primary() == (None not in caps)
    assert [unit_ideal(d).pure_power(i) for i in range(d)] == [0] * d


# -- product / sum / contains -------------------------------------------------


def test_product_example():
    I = I2((2, 0), (0, 1))
    J = I2((1, 0), (0, 3))
    assert product(I, J).gens == ((0, 4), (1, 1), (3, 0))


def test_product_unit_identity():
    I = I2((2, 0), (0, 1))
    assert product(I, unit_ideal(2)) == I


def test_power_of_maximal_ideal():
    assert power(maximal_ideal(2), 2).gens == ((0, 2), (1, 1), (2, 0))
    assert power(maximal_ideal(2), 0) == unit_ideal(2)


def test_sum_examples():
    assert ideal_sum(I2((2, 0)), I2((0, 1))).gens == ((0, 1), (2, 0))
    I = I2((2, 0), (0, 1))
    assert ideal_sum(I, I) == I
    assert ideal_sum(I2((3, 0), (1, 1)), I2((0, 2))).gens == ((0, 2), (1, 1), (3, 0))


def test_contains():
    I = I2((2, 0), (0, 1))
    assert not I.contains((1, 0))
    assert I.contains((2, 0))
    assert I2((3, 0), (1, 1), (0, 4)).contains((2, 3))


def test_is_m_primary():
    assert I2((2, 0), (0, 1)).is_m_primary()
    assert not I2((1, 1)).is_m_primary()
    assert I2((3, 0), (1, 1), (0, 4)).is_m_primary()
    assert unit_ideal(2).is_m_primary()


# -- colength ------------------------------------------------------------------


def test_colength_examples():
    assert colength(maximal_ideal(2)) == 1
    staircase = I2((3, 0), (1, 1), (0, 4))
    assert colength(staircase) == 6
    assert colength(staircase) == colength_bruteforce(staircase)
    assert colength(staircase) == oracle_colength(staircase)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_colength_powers_of_maximal_ideal(d, n):
    assert colength(power(maximal_ideal(d), n)) == math.comb(n + d - 1, d)


def test_colength_not_primary_raises():
    with pytest.raises(NotMPrimary):
        colength(I2((1, 1)))


def test_colength_random_against_bruteforce():
    rng = random.Random(42)
    for _ in range(60):
        d = rng.choice([1, 2, 3])
        gens = []
        for axis in range(d):
            c = rng.randint(1, 12)
            gens.append(tuple(c if j == axis else 0 for j in range(d)))
        for _ in range(rng.randint(0, 4)):
            gens.append(tuple(rng.randint(0, 12) for _ in range(d)))
        ideal = minimalize(gens, d)
        assert colength(ideal) == colength_bruteforce(ideal) == oracle_colength(ideal)


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=6
    ),
    st.integers(1, 9),
    st.integers(1, 9),
)
@settings(max_examples=120, deadline=None)
def test_colength_hypothesis_2d(extra, cx, cy):
    ideal = minimalize([(cx, 0), (0, cy)] + extra, 2)
    assert colength(ideal) == oracle_colength(ideal)


@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    st.lists(st.tuples(*[st.integers(0, 6)] * 3), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_colength_hypothesis_3d(caps, extra):
    axes = [tuple(c if j == i else 0 for j in range(3)) for i, c in enumerate(caps)]
    ideal = minimalize(axes + extra, 3)
    assert colength(ideal) == colength_bruteforce(ideal)


def test_colength_monotone_under_containment():
    rng = random.Random(7)
    for _ in range(40):
        gens1 = [(rng.randint(1, 8), 0), (0, rng.randint(1, 8)),
                 (rng.randint(0, 8), rng.randint(0, 8))]
        gens2 = [(rng.randint(1, 8), 0), (0, rng.randint(1, 8)),
                 (rng.randint(0, 8), rng.randint(0, 8))]
        I = minimalize(gens1, 2)
        J = ideal_sum(I, minimalize(gens2, 2))  # I subset J by construction
        assert colength(I) >= colength(J)


def test_product_commutative_associative():
    rng = random.Random(3)
    for _ in range(20):
        ideals = [
            minimalize(
                [(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                 (rng.randint(0, 5), rng.randint(0, 5))],
                2,
            )
            for _ in range(3)
        ]
        A, B, C = ideals
        assert product(A, B) == product(B, A)
        assert product(product(A, B), C) == product(A, product(B, C))


# -- Newton region, covolume, integral closure ---------------------------------


def test_newton_region_single_facet():
    region = newton_region(I2((2, 0), (0, 1)))
    assert region.inequalities == (((1, 2), 2),)


def member(ineqs, point) -> bool:
    """Membership in the Newton polyhedron cut out by ``ineqs`` and y >= 0."""
    return min(point) >= 0 and satisfies_inequalities(point, ineqs)


def test_newton_region_unit_is_orthant():
    ineqs = newton_inequalities([(0, 0)], 2)
    assert ineqs == list(newton_region(unit_ideal(2)).inequalities) == []
    assert member(ineqs, (5, 7))


def test_newton_region_two_bounded_facets():
    gens = [(3, 0), (1, 1), (0, 4)]
    assert set(newton_inequalities(gens, 2)) == {((1, 2), 3), ((3, 1), 4)}
    assert newton_region(I2(*gens)).inequalities == tuple(newton_inequalities(gens, 2))
    # each generator is a vertex: the facets of the other two leave it out
    for g in gens:
        assert not member(newton_inequalities([h for h in gens if h != g], 2), g)


def fraction_member(ineqs, point):
    """The membership test with every coordinate and term made a Fraction."""
    if any(Fraction(x) < 0 for x in point):
        return False
    return all(
        sum(Fraction(n) * Fraction(x) for n, x in zip(normal, point)) >= offset
        for normal, offset in ineqs
    )


@st.composite
def regions_with_points(draw):
    d = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 5)] * d), min_size=1, max_size=5))
    gens = list(minimalize(gens, d).gens)
    coord = st.one_of(st.integers(-2, 8), st.fractions(min_value=-2, max_value=8, max_denominator=12))
    point = draw(st.tuples(*[coord] * d))
    weights = draw(st.lists(st.integers(0, 6), min_size=len(gens), max_size=len(gens)).filter(any))
    shift = draw(st.tuples(*[st.fractions(min_value=0, max_value=3, max_denominator=7)] * d))
    return gens, point, weights, shift


@given(regions_with_points())
@settings(max_examples=200, deadline=None)
def test_newton_region_member_on_rational_points(case):
    gens, point, weights, shift = case
    d = len(gens[0])
    ineqs = newton_inequalities(gens, d)
    assert member(ineqs, point) == fraction_member(ineqs, point)
    # a convex combination of generators plus an orthant vector lies inside
    total = sum(weights)
    combo = tuple(
        sum(Fraction(w * g[i], total) for w, g in zip(weights, gens)) + shift[i]
        for i in range(d)
    )
    assert member(ineqs, combo)
    # every facet is tight at a generator, and its nonzero normal >= 0
    # leaves that generator minus 1/97 on every axis outside
    for normal, offset in ineqs:
        tight = [g for g in gens if sum(n * x for n, x in zip(normal, g)) == offset]
        assert tight and min(normal) >= 0 < max(normal)
        for g in tight:
            assert not member(ineqs, tuple(x - Fraction(1, 97) for x in g))
    # completeness: a generator that the facets of the others leave out is a
    # vertex, and the family must cut off that vertex minus 1/97 on every axis
    for g in gens:
        others = [h for h in gens if h != g]
        if not others or not member(newton_inequalities(others, d), g):
            assert not member(ineqs, tuple(x - Fraction(1, 97) for x in g))


def test_covolume_examples():
    assert covolume(newton_region(I2((2, 0), (0, 1)))) == 1
    assert covolume(newton_region(maximal_ideal(2))) == Fraction(1, 2)
    assert covolume(newton_region(I2((3, 0), (1, 1), (0, 4)))) == Fraction(7, 2)


def test_covolume_not_primary_raises():
    with pytest.raises(NotMPrimary):
        covolume(newton_region(I2((1, 1))))


def test_integral_closure_examples():
    assert integral_closure(I2((2, 0), (0, 2))).gens == ((0, 2), (1, 1), (2, 0))
    assert integral_closure(maximal_ideal(2)) == maximal_ideal(2)
    closure = integral_closure(I2((3, 0), (0, 3)))
    assert closure.contains((2, 1)) and closure.contains((1, 2))


def test_integral_closure_idempotent_and_growing():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.choice([2, 3])
        gens = [tuple(rng.randint(1, 5) if j == axis else 0 for j in range(d)) for axis in range(d)]
        gens += [tuple(rng.randint(0, 5) for _ in range(d)) for _ in range(2)]
        I = minimalize(gens, d)
        closure = integral_closure(I)
        assert I.leq(closure)
        assert integral_closure(closure) == closure
        assert newton_region(I) == newton_region(closure)


def test_integral_closure_d4_d5():
    # (x_1^2, ..., x_4^2, x_1 x_2 x_3 x_4) has the Newton polyhedron of m^2
    squares = [tuple(2 * (i == j) for j in range(4)) for i in range(4)]
    closure = integral_closure(minimalize([*squares, (1, 1, 1, 1)], 4))
    assert closure == power(maximal_ideal(4), 2)
    rng = random.Random(29)
    for d in (4, 4, 4, 5):
        gens = [tuple(rng.randint(1, 3) if j == axis else 0 for j in range(d)) for axis in range(d)]
        gens += [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(2)]
        I = minimalize(gens, d)
        closure = integral_closure(I)
        assert I.leq(closure)
        assert integral_closure(closure) == closure
        assert newton_region(I) == newton_region(closure)
        assert covolume(newton_region(I)) == covolume(newton_region(closure))


def test_integral_closure_non_primary():
    assert integral_closure(I2((1, 1))) == I2((1, 1))
    got = integral_closure(I2((3, 0), (1, 1)))
    assert got == I2((3, 0), (1, 1))


def test_json_round_trip():
    I = I2((3, 0), (1, 1), (0, 4))
    assert MonomialIdeal.from_json(I.to_json()) == I


@pytest.mark.parametrize(
    "data",
    [
        {"dim": 2, "gens": [[1.7, 0], [0, 2]]},
        {"dim": 2.9, "gens": [[1, 0], [0, 2]]},
        {"dim": 2, "gens": [[2.0, 0], [0, 2]]},
        {"dim": 2, "gens": [["1", 0], [0, 2]]},
        {"dim": "2", "gens": [[1, 0], [0, 2]]},
        {"dim": 2, "gens": [[True, 0], [0, 2]]},
        {"dim": True, "gens": [[1], [2]]},
    ],
)
def test_from_json_rejects_non_integers(data):
    with pytest.raises(SpecValidationError, match="integers"):
        MonomialIdeal.from_json(data)
