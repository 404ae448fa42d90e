import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtmult.filtrations import (
    DiagonalFiltration,
    MonomialValuationFiltration,
    PowerFiltration,
    truncate,
)
from filtmult.geometry import hull_volume
from filtmult.okounkov import (
    _fiber_hull_points,
    admissible_beta,
    ambient_body_volume,
    body_volume,
    containment_exponent,
    volume_limit_check,
)
from filtmult.quadratic import SQRT2, QuadraticIrrational
from filtmult.staircase import colength, maximal_ideal, minimalize, power

from oracles import (
    ambient_count,
    ambient_points,
    box_scan_containment_exponent,
    column_extreme_fiber_points,
    fiber_count_identity,
    semigroup_points,
)


def I2(*gens):
    return minimalize(list(gens), 2)


def test_containment_exponent():
    assert containment_exponent(maximal_ideal(2)) == 1
    assert containment_exponent(I2((2, 0), (0, 1))) == 2
    # m^2 is not inside (x^2, y^2) because of xy, so the exponent is 3
    assert containment_exponent(I2((2, 0), (0, 2))) == 3
    assert containment_exponent(minimalize([(0, 0)], 2)) == 0


def test_admissible_beta_values():
    assert admissible_beta(PowerFiltration(maximal_ideal(2))) == 2
    assert admissible_beta(PowerFiltration(I2((2, 0), (0, 1)))) == 4
    assert admissible_beta(DiagonalFiltration([SQRT2])) == 4


def test_semigroup_fiber_power_maximal():
    F = PowerFiltration(maximal_ideal(2))
    sample = semigroup_points(F, 1, 2)
    assert sample.points == frozenset({(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)})
    assert all(sum(a) <= 2 for a in sample.points)


def test_semigroup_fiber_staircase():
    F = PowerFiltration(I2((2, 0), (0, 1)))
    sample = semigroup_points(F, 1, 2)
    assert sample.points == frozenset({(2, 0), (0, 1), (1, 1), (0, 2)})


def test_ambient_count_binomial():
    for d in (1, 2, 3):
        for m in (1, 2, 5):
            beta = Fraction(2)
            assert ambient_count(d, m, beta) == math.comb(2 * m + d, d)
            assert len(ambient_points(d, m, beta).points) == ambient_count(d, m, beta)


def test_superadditivity_spot_check():
    F = PowerFiltration(I2((2, 0), (0, 1)))
    beta = admissible_beta(F)
    fibers = {m: semigroup_points(F, m, beta).points for m in (1, 2, 3)}
    for m1, m2 in [(1, 1), (1, 2)]:
        target = fibers[m1 + m2]
        for a in fibers[m1]:
            for b in fibers[m2]:
                assert tuple(x + y for x, y in zip(a, b)) in target


def test_body_volume_trapezoid():
    F = PowerFiltration(maximal_ideal(2))
    for m in (1, 2, 4, 8):
        assert body_volume(F, m, 2).volume == Fraction(3, 2)


def test_ambient_body_is_simplex():
    assert ambient_body_volume(2, 7, 2) == 2
    assert ambient_body_volume(3, 3, 2) == Fraction(8, 6)
    assert ambient_body_volume(1, 5, 4) == 4


def test_body_volume_power_staircase_exact_at_all_levels():
    F = PowerFiltration(I2((2, 0), (0, 1)))
    for m in (1, 2, 4, 256):
        assert body_volume(F, m, 4).volume == 7


def test_body_volume_monotone_for_truncation():
    T = truncate(DiagonalFiltration([SQRT2]), 3)
    beta = admissible_beta(T)
    volumes = [body_volume(T, m, beta).volume for m in (1, 2, 4, 8)]
    assert all(x <= y for x, y in zip(volumes, volumes[1:]))


def test_body_volume_3d():
    F = PowerFiltration(maximal_ideal(3))
    for m in (1, 2):
        assert body_volume(F, m, 2).volume == Fraction(7, 6)


def test_volume_limit_check_d4():
    # beta = 2: the ambient simplex of side 2 minus the fiber hull, which is
    # that simplex without the unit corner simplex at the origin
    report = volume_limit_check(PowerFiltration(maximal_ideal(4)), 2)
    assert report.vol_hat == Fraction(2**4, 24) and report.vol_body == Fraction(15, 24)
    assert report.difference == report.limit.value == Fraction(1, 24)
    assert report.limit.exact


def test_counting_identity():
    rng = random.Random(12)
    for _ in range(10):
        gens = [(rng.randint(1, 4), 0), (0, rng.randint(1, 4)),
                (rng.randint(0, 4), rng.randint(0, 4))]
        F = PowerFiltration(minimalize(gens, 2))
        beta = admissible_beta(F)
        for m in (1, 2, 3):
            hat, fiber, lam = fiber_count_identity(F, m, beta)
            assert hat - fiber == lam


def test_volume_limit_check_power_maximal():
    report = volume_limit_check(PowerFiltration(maximal_ideal(2)), 8)
    assert report.beta == 2
    assert report.vol_hat == 2
    assert report.vol_body == Fraction(3, 2)
    assert report.difference == Fraction(1, 2) == report.limit.value
    assert report.gap_abs == 0


def test_volume_limit_check_1d():
    report = volume_limit_check(PowerFiltration(minimalize([(1,)], 1)), 16)
    assert report.difference == 1 == report.limit.value


def test_volume_limit_check_diag_sqrt2():
    report = volume_limit_check(DiagonalFiltration([SQRT2]), 1000)
    # difference = ceil(1000*sqrt(2))/1000, limit numeric near sqrt(2)
    assert float(report.difference) == pytest.approx(math.sqrt(2), abs=2e-3)
    assert report.gap_abs < 2e-3
    assert not report.limit.exact


def test_volume_difference_counts_standard_monomials():
    # at admissible beta the scaled fiber hull volume difference reproduces
    # the normalized colength in the large-m limit; spot-check the count form
    F = PowerFiltration(I2((3, 0), (1, 1), (0, 4)))
    beta = admissible_beta(F)
    m = 2
    hat, fiber, lam = fiber_count_identity(F, m, beta)
    assert hat - fiber == lam == colength(power(I2((3, 0), (1, 1), (0, 4)), 2))


def test_volume_limit_check_valuation_filtration():
    F = MonomialValuationFiltration([QuadraticIrrational.rational(2)] * 2)
    report = volume_limit_check(F, 64)
    assert report.beta == 2
    assert report.vol_body == Fraction(15, 8)
    assert report.difference == Fraction(1, 8) == report.limit.value
    assert report.limit.exact and report.gap_abs == 0


@st.composite
def fibers(draw):
    """A power filtration, a truncated sqrt(s) diagonal, or a rational or
    Q(sqrt s) valuation in d <= 3, with a level m and a bound factor beta."""
    kind = draw(st.sampled_from(["power", "diagonal", "valuation"]))
    s = draw(st.sampled_from([2, 3, 5, 7]))
    if kind == "power":
        d = draw(st.integers(1, 3))
        caps = [draw(st.integers(1, 4)) for _ in range(d)]
        gens = [tuple(c if j == i else 0 for j in range(d)) for i, c in enumerate(caps)]
        gens += draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), max_size=3))
        F = PowerFiltration(minimalize(gens, d))
    elif kind == "diagonal":
        F = truncate(DiagonalFiltration([QuadraticIrrational.sqrt(s)]), draw(st.integers(1, 8)))
    else:
        d = draw(st.integers(1, 3))
        rational = st.builds(
            QuadraticIrrational.rational, st.builds(Fraction, st.integers(1, 4), st.integers(1, 2))
        )
        irrational = st.builds(
            lambda p, q: QuadraticIrrational(p, q, s), st.integers(0, 2), st.sampled_from([1, Fraction(1, 2)])
        )
        F = MonomialValuationFiltration(draw(st.lists(st.one_of(rational, irrational), min_size=d, max_size=d)))
    m = draw(st.integers(1, 4))
    # the d=3 column oracle and its hull grow with (m * beta)^2
    beta = draw(st.integers(1, 3 if F.dim < 3 or m < 4 else 2))
    return F, m, beta


@given(fibers())
@settings(max_examples=80, deadline=None)
def test_body_volume_is_the_fiber_hull(case):
    F, m, beta = case
    d = F.dim
    oracle = column_extreme_fiber_points(F, m, beta * m)
    assert body_volume(F, m, beta).volume == hull_volume(oracle, d) / Fraction(m) ** d


@given(fibers())
@settings(max_examples=80, deadline=None)
def test_fiber_hull_points_are_fiber_points(case):
    F, m, beta = case
    ideal = F.ideal_at(m)
    for a in _fiber_hull_points(F, m, beta * m):
        assert ideal.contains(a) and sum(a) <= beta * m


@st.composite
def m_primary_ideals(draw):
    d = draw(st.integers(1, 4))
    caps = [draw(st.integers(1, 4)) for _ in range(d)]
    gens = [tuple(c if j == i else 0 for j in range(d)) for i, c in enumerate(caps)]
    gens += draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), max_size=4))
    return minimalize(gens, d)


@given(m_primary_ideals())
@settings(max_examples=150, deadline=None)
def test_containment_exponent_matches_the_box_scan(I):
    assert containment_exponent(I) == box_scan_containment_exponent(I)
