import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filtmult import filtrations
from filtmult.errors import ArityMismatch, IndexOutOfTable, NotMPrimary, NotNoetherian, SpecValidationError
from filtmult.filtrations import (
    CeilingNormMultiFiltration,
    DiagonalFiltration,
    MonomialValuationFiltration,
    PowerFiltration,
    ShiftedPowerFiltration,
    TableFiltration,
    filtration_from_json,
    product_at,
    truncate,
    verify_filtration,
)
from filtmult.geometry import Body, covolume_from_gens, minimal_elements
from filtmult.multiplicity import fit_quasi_polynomial, limit_normalized_colength
from filtmult.quadratic import SQRT2, QuadraticIrrational
from filtmult.staircase import maximal_ideal, minimalize, power, product, unit_ideal

from oracles import PointwiseProductFiltration, compare_fraction, minkowski_covolume, minkowski_points


def I2(*gens):
    return minimalize(list(gens), 2)


def diag_sqrt2():
    return DiagonalFiltration([SQRT2])


def truncation_cost_oracle(base_exponents: dict[int, int], a: int, n: int) -> int:
    """Min-plus DP over partitions of n into parts <= a (independent oracle)."""
    INF = 10**9
    best = [INF] * (n + 1)
    best[0] = 0
    for total in range(1, n + 1):
        for part in range(1, min(a, total) + 1):
            cand = best[total - part] + base_exponents[part]
            if cand < best[total]:
                best[total] = cand
    return best[n]


# -- ideal_at -------------------------------------------------------------------


def test_diagonal_sqrt2_values():
    F = diag_sqrt2()
    assert F.ideal_at(5).gens == ((8,),)
    assert F.ideal_at(0) == unit_ideal(1)
    assert F.ideal_at(1).gens == ((2,),)


def test_power_at_zero_is_unit():
    F = PowerFiltration(maximal_ideal(2))
    assert F.ideal_at(0) == unit_ideal(2)
    assert F.ideal_at(3) == power(maximal_ideal(2), 3)


def test_valuation_example():
    F = MonomialValuationFiltration(
        [QuadraticIrrational.rational(1), QuadraticIrrational.rational(Fraction(3, 2))]
    )
    assert F.ideal_at(3).gens == ((0, 2), (2, 1), (3, 0))


def test_valuation_half_power_family():
    # weights (2, 2): the ideal at n is the ceil(n/2)-th power of the maximal ideal
    F = MonomialValuationFiltration([QuadraticIrrational.rational(2)] * 2)
    for n in range(1, 9):
        assert F.ideal_at(n) == power(maximal_ideal(2), -(-n // 2))


def test_shifted_power():
    F = ShiftedPowerFiltration(maximal_ideal(2), 1)
    assert F.ideal_at(0) == unit_ideal(2)
    assert F.ideal_at(2) == power(maximal_ideal(2), 3)


def test_table_bounds():
    F = TableFiltration([I2((1, 0), (0, 1)), I2((2, 0), (1, 1), (0, 2))])
    assert F.ideal_at(2).gens == ((0, 2), (1, 1), (2, 0))
    with pytest.raises(IndexOutOfTable):
        F.ideal_at(3)


def test_diagonal_needs_one_variable():
    with pytest.raises(SpecValidationError):
        DiagonalFiltration([SQRT2, SQRT2])


def test_power_requires_m_primary():
    with pytest.raises(NotMPrimary):
        PowerFiltration(I2((1, 1)))


# -- truncation -------------------------------------------------------------------


def test_truncate_power_is_identity():
    F = PowerFiltration(I2((2, 0), (0, 1)))
    T = truncate(F, 3)
    for n in range(0, 12):
        assert T.ideal_at(n) == F.ideal_at(n)


def test_truncate_agrees_up_to_level():
    F = diag_sqrt2()
    T = truncate(F, 4)
    for n in range(0, 5):
        assert T.ideal_at(n) == F.ideal_at(n)


def test_truncate_diag_sqrt2_dp_values():
    F = diag_sqrt2()
    base = {p: F.ideal_at(p).gens[0][0] for p in range(1, 30)}
    for a in (2, 3, 5, 12):
        T = truncate(F, a)
        for n in range(1, 25):
            assert T.ideal_at(n).gens[0][0] == truncation_cost_oracle(base, a, n)
    # the level-2 truncation doubles in steps of 3: words of 1s and 2s
    assert truncate(F, 2).ideal_at(4).gens == ((6,),)


def test_truncated_term_far_past_the_level_on_a_cold_cache():
    # a fit at the period 420 puts quasi-polynomial nodes past n = 3000
    F = diag_sqrt2()
    base = {p: F.ideal_at(p).gens[0][0] for p in range(1, 8)}
    assert truncate(F, 7).ideal_at(5000).gens == ((truncation_cost_oracle(base, 7, 5000),),)


def test_truncation_chain_containments():
    F = diag_sqrt2()
    T2, T5 = truncate(F, 2), truncate(F, 5)
    for n in range(1, 15):
        assert T2.ideal_at(n).leq(T5.ideal_at(n))
        assert T5.ideal_at(n).leq(F.ideal_at(n))


def test_truncation_multiplicativity_to_three_a():
    F = diag_sqrt2()
    for a in (2, 3):
        T = truncate(F, a)
        for i in range(1, 3 * a):
            for j in range(1, 3 * a - i + 1):
                assert product(T.ideal_at(i), T.ideal_at(j)).leq(T.ideal_at(i + j))


# -- verify_filtration ------------------------------------------------------------


def test_verify_power_passes():
    assert verify_filtration(PowerFiltration(maximal_ideal(2)), 10).ok


def test_verify_diag_sqrt2_passes():
    assert verify_filtration(diag_sqrt2(), 20).ok


def test_verify_builtins_pass_to_30():
    filtrations = [
        PowerFiltration(I2((2, 0), (1, 1), (0, 3))),
        ShiftedPowerFiltration(maximal_ideal(2), 2),
        MonomialValuationFiltration(
            [QuadraticIrrational.rational(1), QuadraticIrrational.sqrt(2)]
        ),
        truncate(diag_sqrt2(), 3),
    ]
    for F in filtrations:
        report = verify_filtration(F, 30)
        assert report.ok, (F.describe(), report)
    F3 = PowerFiltration(
        minimalize([(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)], 3)
    )
    assert verify_filtration(F3, 12).ok


def test_verify_table_violation():
    F = TableFiltration([minimalize([(1,)], 1), minimalize([(3,)], 1)])
    report = verify_filtration(F, 2)
    assert not report.ok
    assert report.first_violation == ("multiplicative", 1, 1)


# -- Noetherian scale detection (a test oracle) ---------------------------------------


def detect_noetherian_scale(F, bound: int, depth: int = 4) -> int | None:
    """Smallest a <= bound with I_{a*i} = I_a^i for 2 <= i <= depth.

    This is evidence, not proof, of Noetherianity: a genuinely non-Noetherian
    filtration has no such a, but a spuriously small a can pass a finite
    depth check.  The oracle below calls it at a depth past every truncation
    level it meets.
    """
    for a in range(1, bound + 1):
        base = F.ideal_at(a)
        ok = True
        for i in range(2, depth + 1):
            try:
                if F.ideal_at(a * i) != power(base, i):
                    ok = False
                    break
            except IndexOutOfTable:
                ok = False
                break
        if ok:
            return a
    return None


def test_detect_scale_power():
    assert detect_noetherian_scale(PowerFiltration(maximal_ideal(2)), 5) == 1


def test_detect_scale_truncated_diag():
    assert detect_noetherian_scale(truncate(diag_sqrt2(), 2), 5) == 2


def test_detect_scale_absent_for_irrational():
    # Under the shallow depth-6 check, a = 7 is a false positive:
    # ceil(7*i*sqrt(2)) equals 10*i for every i <= 9 and first deviates at
    # i = 10.  The detector is a semi-decision procedure, so it must report
    # exactly that; a deeper check rules every a <= 10 out.
    assert detect_noetherian_scale(diag_sqrt2(), 10, depth=6) == 7
    assert detect_noetherian_scale(diag_sqrt2(), 10, depth=12) is None


def test_detect_scale_valuation():
    F = MonomialValuationFiltration([QuadraticIrrational.rational(2)] * 2)
    assert detect_noetherian_scale(F, 6) == 2


def test_diagonal_rational_periodicity():
    F = DiagonalFiltration([QuadraticIrrational.rational(Fraction(5, 3))])
    I3 = F.ideal_at(3)
    for k in range(1, 6):
        assert F.ideal_at(3 * k) == power(I3, k)
    assert detect_noetherian_scale(F, 6) == 3


# -- multigraded ----------------------------------------------------------------------


def test_ceiling_norm_values():
    MF = CeilingNormMultiFiltration(2)
    assert MF.ideal_at((3, 4)).gens == ((5,),)
    assert MF.ideal_at((1, 1)).gens == ((2,),)
    assert MF.ideal_at((0, 0)) == unit_ideal(1)


def test_ceiling_norm_guards():
    MF = CeilingNormMultiFiltration(2, [1, 3])
    with pytest.raises(ArityMismatch):
        MF.ideal_at((1,))
    with pytest.raises(ValueError):
        MF.ideal_at((-1, 0))
    assert MF.ideal_at((0, 0)) == unit_ideal(1)
    with pytest.raises(ArityMismatch):
        CeilingNormMultiFiltration(2, [1, 2, 3])


def test_multigraded_axioms_ceiling_norm():
    MF = CeilingNormMultiFiltration(2)
    pairs = list(itertools.product(range(4), repeat=2))
    for a in pairs:
        for b in pairs:
            left = product(MF.ideal_at(a), MF.ideal_at(b))
            right = MF.ideal_at(tuple(x + y for x, y in zip(a, b)))
            assert left.leq(right)


# -- serialization ----------------------------------------------------------------------


def test_filtration_json_round_trips():
    examples = [
        PowerFiltration(I2((2, 0), (0, 1))),
        ShiftedPowerFiltration(maximal_ideal(2), 1),
        diag_sqrt2(),
        MonomialValuationFiltration(
            [QuadraticIrrational.rational(1), QuadraticIrrational.sqrt(2)]
        ),
        truncate(diag_sqrt2(), 3),
        TableFiltration([I2((1, 0), (0, 1))]),
    ]
    for F in examples:
        G = filtration_from_json(F.to_json())
        for n in range(0, 4):
            try:
                assert F.ideal_at(n) == G.ideal_at(n)
            except IndexOutOfTable:
                break


# -- exact-evaluation hooks ----------------------------------------------------


def rational_diagonal(value: Fraction) -> DiagonalFiltration:
    return DiagonalFiltration([QuadraticIrrational.rational(value)])


m2, one = maximal_ideal(2), QuadraticIrrational.rational(1)


def half_table(N: int) -> TableFiltration:
    """The N entries of x^ceil(n/2), generated in the degrees 1 and 2."""
    return TableFiltration([minimalize([(-(-n // 2),)], 1) for n in range(1, N + 1)])


def test_limit_body_per_kind():
    I = I2((3, 0), (1, 1), (0, 2))
    assert PowerFiltration(I).limit_body() == Body(list(I.gens), 1)
    assert rational_diagonal(Fraction(3, 2)).limit_body() == Body([(3,)], 2)
    half = MonomialValuationFiltration([one, QuadraticIrrational.rational(Fraction(1, 2))])
    assert half.limit_body().denominator == 1
    for F in (diag_sqrt2(), MonomialValuationFiltration([one, SQRT2])):
        with pytest.raises(NotNoetherian):
            F.limit_body()
    # a table takes the body of the filtration it generates: here (x) in
    # both degrees K = {1, 2}, so D = 2, and a short table is enough
    assert half_table(16).limit_body() == Body([(2,), (1,)], 2)
    assert half_table(2).limit_body() == Body([(2,), (1,)], 2)
    assert TableFiltration([minimalize([(1,)], 1), minimalize([(2,)], 1)]).limit_body() == Body([(1,)], 1)
    # x * x is not in (x^3): no filtration, so no body
    with pytest.raises(SpecValidationError, match="multiplicative"):
        TableFiltration([minimalize([(1,)], 1), minimalize([(3,)], 1)]).limit_body()


def test_table_body_is_computed_once(monkeypatch):
    table = half_table(6)
    body = table.limit_body()
    monkeypatch.setattr(filtrations, "verify_filtration", None)
    assert table.limit_body() is body


def test_limit_bodies_are_built_once():
    product = PointwiseProductFiltration(PowerFiltration(m2), ShiftedPowerFiltration(m2, 1))
    for F in (PowerFiltration(m2), truncate(diag_sqrt2(), 5), product):
        assert F.limit_body() is F.limit_body()


def test_truncated_table_takes_the_table_verdict_once(monkeypatch):
    # x * x is not in (x^3)
    table = TableFiltration([minimalize([(1,)], 1), minimalize([(3,)], 1)])
    calls = []
    verify = filtrations.verify_filtration
    monkeypatch.setattr(filtrations, "verify_filtration", lambda F, N: calls.append(N) or verify(F, N))
    for F in (truncate(table, 1), truncate(truncate(table, 2), 3), table):
        with pytest.raises(SpecValidationError, match=r"multiplicative fails at \(1, 1\)"):
            F.limit_body()
    assert calls == [2]
    assert truncate(half_table(4), 2).limit_body() == Body([(2,), (1,)], 2)


def test_irrational_bodies_raise_without_detection():
    three_halves = QuadraticIrrational.rational(Fraction(3, 2))
    weights = [[one, QuadraticIrrational.sqrt(5)], [one, SQRT2, three_halves]]
    for F in [diag_sqrt2()] + [MonomialValuationFiltration(w) for w in weights]:
        with pytest.raises(NotNoetherian):
            F.limit_body()


def diagonal_generating_degrees(exponents: dict[int, int]) -> list[int]:
    """The parts k whose exponent e_k beats every split e_j + e_{k-j}: in
    d = 1 these are the degrees that generate the truncation's Rees algebra."""
    return [k for k in exponents if all(exponents[j] + exponents[k - j] > exponents[k] for j in range(1, k))]


@pytest.mark.parametrize("a", [1, 2, 5, 7, 12])
def test_power_scale_truncated_d1_is_density_argmin(a):
    F = truncate(diag_sqrt2(), a)
    # ceil(p*sqrt2) = isqrt(2p^2) + 1, since 2p^2 is never a square
    exponents = {p: math.isqrt(2 * p * p) + 1 for p in range(1, a + 1)}
    density = {p: Fraction(e, p) for p, e in exponents.items()}
    s = min(density, key=density.get)
    assert all(F.ideal_at(s * i) == power(F.ideal_at(s), i) for i in range(2, 6))
    # the body's period is the lcm of the generating degrees
    L = math.lcm(*diagonal_generating_degrees(exponents))
    assert F.limit_body().denominator == L
    assert fit_quasi_polynomial([F], L).top_coefficients() == {(1,): density[s]}


def test_sqrt2_truncated_at_12_fits_at_period_84():
    # a fit at lcm(1..12) = 27,720 takes half a minute; the generating
    # degrees {1, 2, 7, 12} give 84, and so do all levels up to 20
    exponents = {p: math.isqrt(2 * p * p) + 1 for p in range(1, 21)}
    assert diagonal_generating_degrees({p: exponents[p] for p in range(1, 13)}) == [1, 2, 7, 12]
    F = truncate(diag_sqrt2(), 12)
    assert F.limit_body().denominator == 84
    assert truncate(diag_sqrt2(), 20).limit_body().denominator == 84
    assert fit_quasi_polynomial([F], 84).top_coefficients() == {(1,): Fraction(17, 12)}


def full_truncation_body(F) -> Body:
    """The union over every part k <= a of (1/k) * gens(I_k), over lcm(1..a):
    the truncation's body before the generating degrees are picked out."""
    L = math.lcm(*range(1, F.a + 1))
    return Body([tuple(L // k * e for e in g) for k in range(1, F.a + 1) for g in F.base.ideal_at(k).gens], L)


@st.composite
def truncations(draw):
    """A truncation at a <= 8 of a sqrt(s) diagonal or of a rational or
    Q(sqrt s) valuation in d <= 3."""
    s = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        base = DiagonalFiltration([QuadraticIrrational.sqrt(s)])
    else:
        d = draw(st.integers(1, 3))
        rational = st.builds(QuadraticIrrational.rational, small_fractions(1, 4, 2))
        irrational = st.builds(
            lambda p, q: QuadraticIrrational(p, q, s), small_fractions(0, 2, 2), st.sampled_from([1, Fraction(1, 2)])
        )
        base = MonomialValuationFiltration(draw(st.lists(st.one_of(rational, irrational), min_size=d, max_size=d)))
    return truncate(base, draw(st.integers(1, 8 if base.dim < 3 else 4)))


@given(truncations())
@settings(max_examples=30, deadline=None)
def test_truncation_body_keeps_the_full_covolume_at_a_period_of_lcm_k(F):
    body = F.limit_body()
    full = full_truncation_body(F)
    d, D = F.dim, body.denominator
    assert full.denominator % D == 0
    volume = body.covolume()
    assert volume == full.covolume()
    # in d = 2 a period in the hundreds (a = 8 reaches 280) makes the fit
    # take seconds, and in d = 3 every fit does
    if d == 1 or (d == 2 and F.a <= 4):
        assert fit_quasi_polynomial([F], D).top_coefficients() == {(d,): volume}


@st.composite
def m_primary_ideals(draw, d, cap=4):
    caps = draw(st.lists(st.integers(1, cap), min_size=d, max_size=d))
    gens = [tuple(c if j == i else 0 for j in range(d)) for i, c in enumerate(caps)]
    extra = st.tuples(*[st.integers(0, cap - 1)] * d).filter(any)
    gens += draw(st.lists(extra, max_size=3))
    return minimalize(gens, d)


@st.composite
def body_filtrations(draw, d, products=True):
    """A d-dimensional filtration of a kind with a closed-form limit body,
    kept small in d = 3, where the oracle's scale detection takes powers."""
    kinds = ["power", "shifted", "valuation", "truncated"] + ["product"] * products
    kind = draw(st.sampled_from(kinds))
    ideals = m_primary_ideals(d, 4 if d == 2 else 2)
    if kind == "power":
        return PowerFiltration(draw(ideals))
    if kind == "shifted":
        return ShiftedPowerFiltration(draw(ideals), draw(st.integers(1, 3)))
    if kind == "valuation":
        if d == 2:
            weight = st.builds(Fraction, st.integers(1, 4), st.integers(1, 2))
        else:
            weight = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)])
        weights = draw(st.lists(weight, min_size=d, max_size=d))
        return MonomialValuationFiltration([QuadraticIrrational.rational(w) for w in weights])
    if kind == "truncated":
        s = draw(st.sampled_from([2, 3, 5]))
        shift = draw(st.sampled_from([0, Fraction(1, 2), 1]))
        weights = [QuadraticIrrational.rational(1), QuadraticIrrational(shift, 1, s)]
        weights += [QuadraticIrrational(Fraction(3, 2), Fraction(1, 2), s)] * (d - 2)
        a = draw(st.integers(1, 4 if d == 2 else 2))
        return truncate(MonomialValuationFiltration(draw(st.permutations(weights))), a)
    left, right = (draw(body_filtrations(d, products=False)) for _ in range(2))
    return PointwiseProductFiltration(left, right)


@st.composite
def body_families(draw):
    d = draw(st.integers(2, 3))
    Fs = draw(st.lists(body_filtrations(d), min_size=1, max_size=2))
    n = draw(st.lists(st.integers(0, 4 - d), min_size=len(Fs), max_size=len(Fs)).filter(any))
    return Fs, n


def limit_twin(F):
    """A filtration with the limits of F whose terms are powers of one term:
    lam(R/I^(m+s))/m^d and lam(R/I^m)/m^d have the same limit."""
    if isinstance(F, ShiftedPowerFiltration):
        return PowerFiltration(F.ideal)
    if isinstance(F, PointwiseProductFiltration):
        return PointwiseProductFiltration(limit_twin(F.left), limit_twin(F.right))
    return F


def detected_scale(F) -> int:
    """A power-stability scale of F, detected at a depth past any truncation
    level; a pointwise product takes the lcm of its factors' scales."""
    if isinstance(F, PointwiseProductFiltration):
        return math.lcm(detected_scale(F.left), detected_scale(F.right))
    a = detect_noetherian_scale(F, 12, depth=2 * getattr(F, "a", 2) + 1)
    assert a is not None
    return a


def scale_oracle_limit(Fs, n) -> Fraction:
    """covol(prod_j I(j)_{a n_j}) / a^d for a common detected scale a:
    independent of the limit bodies."""
    twins = [limit_twin(F) for F in Fs]
    a = math.lcm(*(detected_scale(F) for F, v in zip(twins, n) if v))
    d = Fs[0].dim
    scaled = product_at(twins, [a * v for v in n])
    return covolume_from_gens(list(scaled.gens), d) / a**d


# the last example's limit is wrong from its level-3 points alone
@given(body_families())
@example(([PointwiseProductFiltration(PowerFiltration(m2), ShiftedPowerFiltration(m2, 1))], [1]))
@example(([MonomialValuationFiltration([one, one])], [2]))
@example(([truncate(MonomialValuationFiltration([one, QuadraticIrrational.sqrt(5)]), 3)], [1]))
@settings(max_examples=60, deadline=None)
def test_limit_body_matches_detected_scale_oracle(family):
    Fs, n = family
    expected = scale_oracle_limit(Fs, n)
    assert limit_normalized_colength(Fs, n).value == expected


@st.composite
def summands(draw, d, kinds=("power", "valuation", "diagonal", "truncated", "table", "product")):
    """A d-dimensional filtration of a kind with an exact limit body: a
    power, a rational valuation or diagonal (d = 1), a truncation, a table
    of a power's or valuation's first terms, or a pointwise product."""
    kind = draw(st.sampled_from([k for k in kinds if k != "diagonal" or d == 1]))
    ratio = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3))
    if kind == "power":
        return PowerFiltration(draw(m_primary_ideals(d, 4 if d < 3 else 2)))
    if kind == "valuation":
        return MonomialValuationFiltration([QuadraticIrrational.rational(w) for w in draw(st.lists(ratio, min_size=d, max_size=d))])
    if kind == "diagonal":
        return rational_diagonal(draw(ratio))
    if kind == "truncated":
        rate = QuadraticIrrational.sqrt(draw(st.sampled_from([2, 3, 5])))
        if d == 1:
            return truncate(DiagonalFiltration([rate]), draw(st.integers(1, 4)))
        weights = [one, rate] + [QuadraticIrrational(Fraction(3, 2), Fraction(1, 2), rate.s)] * (d - 2)
        return truncate(MonomialValuationFiltration(draw(st.permutations(weights))), draw(st.integers(1, 3 if d < 3 else 2)))
    if kind == "table":
        base = draw(summands(d, ("power", "valuation")))
        return TableFiltration([base.ideal_at(n) for n in range(1, draw(st.integers(1, 3)) + 1)])
    left, right = (draw(summands(d, ("power", "valuation", "diagonal", "truncated"))) for _ in range(2))
    return PointwiseProductFiltration(left, right)


@st.composite
def weighted_summands(draw):
    d = draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    return [draw(summands(d)) for _ in range(r)], draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))


def tuple_body(F) -> tuple[list[tuple[int, ...]], int]:
    """The limit body of F as (points, denominator), with a pointwise
    product summed by ``minkowski_points`` instead of by ``Body``."""
    if isinstance(F, PointwiseProductFiltration):
        return minkowski_points([tuple_body(F.left), tuple_body(F.right)], (1, 1))
    body = F.limit_body()
    return list(body.points), body.denominator


@given(weighted_summands())
@settings(max_examples=60, deadline=None)
def test_minkowski_sums_of_bodies_match_the_tuple_route(family):
    Fs, weights = family
    bodies = [tuple_body(F) for F in Fs]
    first, *rest = (v * F.limit_body() for F, v in zip(Fs, weights))
    total = sum(rest, first)
    points, D = minkowski_points(bodies, weights)
    assert (total.points, total.denominator) == (tuple(minimal_elements(points)), D)
    expected = minkowski_covolume(bodies, weights)
    assert total.covolume() == expected
    assert limit_normalized_colength(Fs, weights).value == expected


@st.composite
def periodic_filtrations(draw):
    """A filtration in d <= 2 whose body denominator is a proven period,
    kept small so that a fit at twice that period stays cheap."""
    kinds = ["power", "valuation", "diagonal", "truncated", "truncated_valuation"]
    kind = draw(st.sampled_from(kinds))
    ratio = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))
    if kind == "power":
        return PowerFiltration(draw(m_primary_ideals(draw(st.integers(1, 2)), 3)))
    if kind == "diagonal":
        return rational_diagonal(draw(ratio))
    if kind == "truncated":
        rate = QuadraticIrrational.sqrt(draw(st.sampled_from([2, 3, 5])))
        return truncate(DiagonalFiltration([rate]), draw(st.integers(1, 4)))
    d = 2 if kind == "truncated_valuation" else draw(st.integers(1, 2))
    weights = draw(st.lists(ratio, min_size=d, max_size=d))
    F = MonomialValuationFiltration([QuadraticIrrational.rational(w) for w in weights])
    return truncate(F, draw(st.integers(1, 3))) if kind == "truncated_valuation" else F


@given(periodic_filtrations())
@settings(max_examples=40, deadline=None)
def test_quasi_polynomial_fits_at_the_body_period(F):
    D = F.limit_body().denominator
    top = {(F.dim,): limit_normalized_colength([F], (1,)).value}
    for alpha in (D, 2 * D):
        assert fit_quasi_polynomial([F], alpha).top_coefficients() == top


def valuation_box_scan(weights: list[QuadraticIrrational], n: int):
    """The valuation ideal from a scan of the whole box [0, ceil(n/w_i)]:
    independent oracle for the (d-1)-coordinate walk."""
    caps = []
    for w in weights:
        cap = 0
        while compare_fraction(w * cap, n) < 0:
            cap += 1
        caps.append(cap)
    members = []
    for a in itertools.product(*(range(c + 1) for c in caps)):
        total = QuadraticIrrational.rational(0)
        for coeff, w in zip(a, weights):
            total = total + w * coeff
        if compare_fraction(total, n) >= 0:
            members.append(a)
    return minimalize(members, len(weights))


def small_fractions(lo, hi, max_den=3):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, max_den))


@st.composite
def valuation_weights(draw):
    """1-3 weights in [1/2, 6], each rational or p + q*sqrt(s) with signed
    rational p, q, all over one radicand s."""
    s = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]))
    irrational = st.builds(
        lambda p, q: QuadraticIrrational(p, q, s),
        small_fractions(-6, 6),
        small_fractions(-3, 3).filter(bool),
    )
    weight = st.one_of(st.builds(QuadraticIrrational.rational, small_fractions(1, 12, 4)), irrational)
    d = draw(st.integers(1, 3))
    return draw(st.lists(weight.filter(lambda w: 0.5 <= float(w) <= 6), min_size=d, max_size=d))


@given(valuation_weights(), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_valuation_walk_matches_box_scan(weights, n):
    assert MonomialValuationFiltration(weights).ideal_at(n) == valuation_box_scan(weights, n)
