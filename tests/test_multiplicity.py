import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtmult.errors import NotMPrimary, NotNoetherian, SpecValidationError
from filtmult import cli, geometry, linalg, multiplicity
from filtmult.filtrations import (
    DiagonalFiltration,
    MonomialValuationFiltration,
    PowerFiltration,
    ShiftedPowerFiltration,
    TableFiltration,
    truncate,
)
from filtmult.multiplicity import (
    ExactStrategy,
    LimitFunction,
    NumericStrategy,
    degree_monomials,
    filtration_multiplicity,
    fit_quasi_polynomial,
    limit_normalized_colength,
    mixed_multiplicity_table,
    monomial_matrix,
    numeric_limit,
    sample_points,
    truncation_convergence,
)
from filtmult.quadratic import SQRT2, QuadraticIrrational
from filtmult.staircase import colength, maximal_ideal, minimalize, power, product
from filtmult.verifier import random_m_primary_ideal

from oracles import PointwiseProductFiltration, finite_difference_oracle, generic_numeric_limit, solved_table


def I2(*gens):
    return minimalize(list(gens), 2)


def I4(*gens):
    return minimalize(list(gens), 4)


def bhattacharya_pair():
    return PowerFiltration(I2((2, 0), (0, 1))), PowerFiltration(I2((1, 0), (0, 3)))


def oracle_best_density(a: int) -> Fraction:
    """Independent oracle for the multiplicity of the a-th truncation of the
    sqrt(2) diagonal filtration: the best cost density of a part size <= a."""

    def ceil_k_sqrt2(k: int) -> int:
        r = math.isqrt(2 * k * k)
        return r if r * r == 2 * k * k else r + 1

    return min(Fraction(ceil_k_sqrt2(k), k) for k in range(1, a + 1))


# -- Hilbert-Samuel multiplicities, by the finite-difference oracle --------------


def test_hs_multiplicity_examples():
    assert finite_difference_oracle(maximal_ideal(2)) == 1
    assert finite_difference_oracle(I2((2, 0), (0, 1))) == 2
    assert finite_difference_oracle(I2((3, 0), (1, 1), (0, 4))) == 7


def test_hs_second_difference_pattern():
    # colength((x^2, y)^m) = m^2 + m, so the second difference is exactly 2
    I = I2((2, 0), (0, 1))
    values = [colength(power(I, m)) for m in range(1, 7)]
    assert values == [m * m + m for m in range(1, 7)]


def test_hs_not_primary():
    with pytest.raises(NotMPrimary):
        finite_difference_oracle(I2((1, 1)))
    with pytest.raises(NotMPrimary):
        filtration_multiplicity(PowerFiltration(I2((1, 1))))


def test_hs_multiplicity_computes_no_covolume(monkeypatch):
    def no_covolume(*args):
        raise AssertionError("covolume_from_gens called")

    monkeypatch.setattr(geometry, "covolume_from_gens", no_covolume)
    assert finite_difference_oracle(minimalize([(2, 0, 0), (0, 3, 0), (0, 0, 1)], 3)) == 6
    assert finite_difference_oracle(I4((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 3))) == 6


def test_multiplicity_engines_agree_on_random_ideals():
    rng = random.Random(2024)
    for _ in range(30):
        d = rng.choice([1, 2, 3])
        ideal = random_m_primary_ideal(rng, d, 5 if d == 3 else 8)
        assert filtration_multiplicity(PowerFiltration(ideal)) == finite_difference_oracle(ideal)


def test_covolume_matches_finite_differences_d4():
    # pure powers of degree 2 or 3 and one or two monomials x_i x_j, which
    # cut into the simplex of the pure powers unless both powers are squares
    rng = random.Random(2026)
    pairs = [g for g in itertools.product((0, 1), repeat=4) if sum(g) == 2]
    for _ in range(10):
        gens = [tuple(rng.randint(2, 3) * (j == i) for j in range(4)) for i in range(4)]
        ideal = I4(*gens, *rng.sample(pairs, rng.randint(1, 2)))
        assert filtration_multiplicity(PowerFiltration(ideal)) == finite_difference_oracle(ideal)


def test_dimension_alone_picks_the_exact_engine():
    for method in cli.MULTIPLICITY_METHODS:
        strategy = cli._strategy_from_json({"kind": "exact", "multiplicity_method": method}, None)
        assert strategy == ExactStrategy()
        for d in (1, 2, 3, 4, 5):
            est = limit_normalized_colength([PowerFiltration(maximal_ideal(d))], (1,), strategy)
            assert est.exact and est.value == Fraction(1, math.factorial(d))


# -- exact multiplicities in d >= 4, through the covolume ---------------------------


@pytest.mark.parametrize(
    "F, expected",
    [
        (PowerFiltration(maximal_ideal(4)), 1),
        (PowerFiltration(I4((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 3))), 6),
        (
            PowerFiltration(
                I4((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 1, 1))
            ),
            16,
        ),
        (
            MonomialValuationFiltration(
                [QuadraticIrrational.rational(w) for w in (1, 2, 1, 1)]
            ),
            Fraction(1, 2),
        ),
    ],
    ids=["maximal", "x2-y-z-w3", "squares-xyzw", "valuation-1-2-1-1"],
)
def test_exact_multiplicity_d4(F, expected):
    assert filtration_multiplicity(F) == expected


# -- limit_normalized_colength -----------------------------------------------------


def test_limit_diag_sqrt2_numeric():
    est = limit_normalized_colength(
        [DiagonalFiltration([SQRT2])], (1,), NumericStrategy(m_max=10**4)
    )
    assert not est.exact
    assert abs(float(est.value) - math.sqrt(2)) < 1e-3
    ms = [m for m, _ in est.samples]
    assert ms == sorted(ms) and len(set(ms)) == len(ms)


def test_limit_power_maximal_exact():
    est = limit_normalized_colength([PowerFiltration(maximal_ideal(2))], (1,))
    assert est.exact and est.value == Fraction(1, 2) and est.error_bound == 0


def test_limit_product_pair_exact():
    F1, F2 = bhattacharya_pair()
    est = limit_normalized_colength([F1, F2], (1, 1))
    assert est.exact and est.value == Fraction(7, 2)


def test_limit_zero_vector():
    F1, F2 = bhattacharya_pair()
    est = limit_normalized_colength([F1, F2], (0, 0))
    assert est.exact and est.value == 0


def test_limit_zero_coordinate_drops_factor():
    F1, F2 = bhattacharya_pair()
    est = limit_normalized_colength([F1, F2], (1, 0))
    single = limit_normalized_colength([F1], (1,))
    assert est.value == single.value == 1  # e((x^2,y))/2! = 1


def test_limit_exact_requires_noetherian():
    with pytest.raises(NotNoetherian):
        limit_normalized_colength([DiagonalFiltration([SQRT2])], (1,), ExactStrategy())


def test_numeric_limit_last_difference_bound():
    est = numeric_limit(lambda m: m * m + m, 2, NumericStrategy(m_max=8))
    assert [m for m, _ in est.samples] == [1, 2, 4, 8]
    assert est.value == Fraction(9, 8) and est.error_bound == Fraction(1, 8)
    assert est.exact is False


def test_numeric_agrees_with_exact_within_error():
    F1, F2 = bhattacharya_pair()
    F3 = PowerFiltration(minimalize([(3,)], 1))
    cases = [
        ([F3], (1,), 4096),
        ([F1], (1,), 512),
        ([F2], (1,), 512),
        ([F1, F2], (1, 1), 128),
        ([F1, F2], (2, 1), 64),
    ]
    for Fs, n, m_max in cases:
        exact = limit_normalized_colength(Fs, n, ExactStrategy())
        numeric = limit_normalized_colength(Fs, n, NumericStrategy(m_max=m_max))
        assert abs(float(numeric.value) - float(exact.value)) <= 2 * float(
            numeric.error_bound
        ) + 1e-9


@st.composite
def numeric_power_families(draw):
    """All-power families with their indices and a numeric strategy: d = 1-3,
    r = 1-3, zero indices, odd m0 > 1 in d <= 2; d = 3 stays at max exponent
    2 and m_max 2."""
    d = draw(st.integers(1, 3))
    top = 2 if d == 3 else 4
    coord = st.integers(0, top)
    Fs = []
    for _ in range(draw(st.integers(1, 3))):
        raw = [tuple(draw(st.integers(1, top)) if j == i else 0 for j in range(d)) for i in range(d)]
        raw += draw(st.lists(st.tuples(*[coord] * d), max_size=3))
        Fs.append(PowerFiltration(minimalize(raw, d)))
    n = tuple(draw(st.lists(st.integers(0, 3), min_size=len(Fs), max_size=len(Fs))))
    if d == 3:
        strategy = NumericStrategy(m_max=2)
    else:
        m0 = draw(st.sampled_from([1, 3, 5]))
        strategy = NumericStrategy(m_max=draw(st.integers(2 * m0, 8 * m0)), m0=m0)
    return Fs, n, strategy


@given(numeric_power_families())
@settings(max_examples=80, deadline=None)
def test_numeric_power_family_matches_generic_samples(case):
    Fs, n, strategy = case
    # the generic oracle runs first on fresh filtrations, so neither route
    # reads ideals the other has cached
    expected = generic_numeric_limit([PowerFiltration(F.ideal) for F in Fs], n, strategy)
    assert limit_normalized_colength(Fs, n, strategy) == expected


def spy_indices(monkeypatch, F):
    asked = []
    ideal_at = F.ideal_at

    def spy(k):
        asked.append(k)
        return ideal_at(k)

    monkeypatch.setattr(F, "ideal_at", spy)
    return asked


def test_numeric_power_family_takes_powers_of_one_product(monkeypatch):
    F1, F2 = bhattacharya_pair()
    F3 = PowerFiltration(I2((4, 0), (2, 1), (0, 3)))
    asked = [spy_indices(monkeypatch, F) for F in (F1, F2, F3)]
    limit_normalized_colength([F1, F2, F3], (3, 0, 2), NumericStrategy(m_max=64))
    assert asked == [[3], [], [2]]


def test_numeric_family_with_a_valuation_samples_every_factor(monkeypatch):
    V = MonomialValuationFiltration([QuadraticIrrational.rational(w) for w in (1, Fraction(3, 2))])
    F = PowerFiltration(I2((3, 0), (1, 1), (0, 2)))
    asked = [spy_indices(monkeypatch, G) for G in (V, F)]
    strategy = NumericStrategy(m_max=16)
    est = limit_normalized_colength([V, F], (2, 3), strategy)
    assert asked == [[2, 4, 8, 16, 32], [3, 6, 12, 24, 48]]
    assert est == generic_numeric_limit([V, F], (2, 3), strategy)


def test_limit_homogeneity_exact():
    F1, F2 = bhattacharya_pair()
    base = limit_normalized_colength([F1, F2], (1, 2)).value
    for c in (2, 3):
        scaled = limit_normalized_colength([F1, F2], (c, 2 * c)).value
        assert scaled == c**2 * base


# -- sample points -------------------------------------------------------------------


def test_sample_points_r1():
    assert sample_points(1, 3) == [(1,)]


@pytest.mark.parametrize("r,d", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_sample_points_invertible(r, d):
    points = sample_points(r, d, seed=5)
    g = math.comb(r - 1 + d, r - 1)
    assert len(points) == g and len(set(points)) == g
    B = monomial_matrix(points, d)
    # nonsingular: every right-hand side has a unique exact solution
    for j in range(g):
        unit = [Fraction(int(i == j)) for i in range(g)]
        x = linalg.solve(B, unit)
        assert x is not None
        assert [sum(B[i][k] * x[k] for k in range(g)) for i in range(g)] == unit


def test_sample_points_deterministic():
    assert sample_points(2, 2, seed=9) == sample_points(2, 2, seed=9)


def test_degree_monomials_order():
    assert degree_monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert degree_monomials(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


# -- mixed multiplicity tables ----------------------------------------------------------


def test_bhattacharya_table():
    F1, F2 = bhattacharya_pair()
    table = mixed_multiplicity_table([F1, F2])
    assert table.exact
    assert table.entry((2, 0)) == 2
    assert table.entry((1, 1)) == 1
    assert table.entry((0, 2)) == 3
    assert table.polynomial_value((1, 1)) == Fraction(7, 2)
    assert len(table.entries) == math.comb(2 - 1 + 2, 2 - 1)


def test_table_r1_matches_multiplicity():
    F = PowerFiltration(I2((2, 0), (0, 1)))
    table = mixed_multiplicity_table([F])
    assert list(table.entries) == [(2,)]
    assert table.entry((2,)) == 2 == filtration_multiplicity(F)


def test_table_power_and_shifted_power():
    m = maximal_ideal(2)
    table = mixed_multiplicity_table([PowerFiltration(m), ShiftedPowerFiltration(m, 1)])
    assert table.exact
    assert all(v == 1 for v in table.entries.values())


def test_table_permutation_equivariance():
    F1, F2 = bhattacharya_pair()
    t12 = mixed_multiplicity_table([F1, F2])
    t21 = mixed_multiplicity_table([F2, F1])
    for (a, b), v in t12.entries.items():
        assert t21.entry((b, a)) == v


def test_table_diagonal_consistency():
    F1, F2 = bhattacharya_pair()
    table = mixed_multiplicity_table([F1, F2])
    limit = limit_normalized_colength([F1, F2], (1, 1))
    assert table.polynomial_value((1, 1)) == limit.value


def test_table_rees_specialization():
    F1, F2 = bhattacharya_pair()
    table = mixed_multiplicity_table([F1, F2])
    assert table.entry((2, 0)) == 2 * limit_normalized_colength([F1], (1,)).value
    assert table.entry((0, 2)) == 2 * limit_normalized_colength([F2], (1,)).value


def test_table_three_filtrations_d2():
    m = maximal_ideal(2)
    F1, F2 = bhattacharya_pair()
    table = mixed_multiplicity_table([F1, F2, PowerFiltration(m)])
    assert len(table.entries) == math.comb(3 - 1 + 2, 3 - 1)
    # slots concentrated on one filtration recover plain multiplicities
    assert table.entry((2, 0, 0)) == 2
    assert table.entry((0, 2, 0)) == 3
    assert table.entry((0, 0, 2)) == 1


def test_pointwise_product_multiplicity():
    m = maximal_ideal(2)
    F = PointwiseProductFiltration(PowerFiltration(m), ShiftedPowerFiltration(m, 1))
    assert F.ideal_at(2) == power(m, 5)
    assert filtration_multiplicity(F) == 4  # e({m^{2j+1}}) = 2^d


# -- truncation convergence ---------------------------------------------------------------


def test_truncation_convergence_diag_sqrt2():
    report = truncation_convergence([DiagonalFiltration([SQRT2])], [1, 2, 5, 12, 29])
    seq = report.sequences[(1,)]
    assert seq == [oracle_best_density(a) for a in (1, 2, 5, 12, 29)]
    assert seq == [
        Fraction(2),
        Fraction(3, 2),
        Fraction(3, 2),
        Fraction(17, 12),
        Fraction(17, 12),
    ]
    # truncation multiplicities approach sqrt(2) from above, nonincreasing
    assert all(float(v) >= math.sqrt(2) for v in seq)
    assert all(x >= y for x, y in zip(seq, seq[1:]))


def test_truncation_convergence_reaches_tolerance_with_larger_levels():
    report = truncation_convergence(
        [DiagonalFiltration([SQRT2])], [1, 2, 5, 12, 29, 41, 70]
    )
    seq = report.sequences[(1,)]
    assert seq[-2:] == [Fraction(58, 41), Fraction(99, 70)]
    assert abs(float(seq[-1]) - math.sqrt(2)) < 1e-3


def test_truncation_convergence_power_constant():
    F = PowerFiltration(I2((2, 0), (0, 1)))
    report = truncation_convergence([F], [1, 3, 6])
    assert report.sequences[(2,)] == [Fraction(2)] * 3
    assert all(v == 0 for v in report.deltas[(2,)])


def test_truncation_convergence_validates_schedule():
    with pytest.raises(ValueError):
        truncation_convergence([PowerFiltration(maximal_ideal(2))], [3, 2])


# -- quasi-polynomial fitting ----------------------------------------------------------------


def test_quasipoly_half_powers_d1():
    F = MonomialValuationFiltration([QuadraticIrrational.rational(2)])
    qp = fit_quasi_polynomial([F], alpha=2)
    assert qp.degree == 1 and qp.period == 2
    assert qp.top_coefficients() == {(1,): Fraction(1, 2)}
    assert qp.class_coefficients[(0,)][(0,)] == 0
    assert qp.class_coefficients[(1,)][(0,)] == Fraction(1, 2)
    for n in range(6, 30):
        assert qp.evaluate((n,)) == -(-n // 2)


def test_quasipoly_power_d2_single_class():
    F = PowerFiltration(maximal_ideal(2))
    qp = fit_quasi_polynomial([F], alpha=1)
    assert qp.period == 1 and qp.degree == 2
    assert qp.top_coefficients() == {(2,): Fraction(1, 2)}
    for n in range(4, 20):
        assert qp.evaluate((n,)) == math.comb(n + 1, 2)


def test_quasipoly_half_powers_d2():
    F = MonomialValuationFiltration([QuadraticIrrational.rational(2)] * 2)
    qp = fit_quasi_polynomial([F], alpha=2)
    assert qp.degree == 2
    assert qp.top_coefficients() == {(2,): Fraction(1, 8)}
    for n in range(6, 26):
        k = -(-n // 2)
        assert qp.evaluate((n,)) == math.comb(k + 1, 2)


def test_quasipoly_reproduces_fresh_points_per_class():
    F = MonomialValuationFiltration([QuadraticIrrational.rational(2)] * 2)
    qp = fit_quasi_polynomial([F], alpha=2, window=2)
    for residue in ((0,), (1,)):
        fresh = [40 + 2 * i + residue[0] for i in range(5)]
        for n in fresh:
            k = -(-n // 2)
            assert qp.evaluate((n,)) == math.comb(k + 1, 2)


def test_quasipoly_two_filtrations():
    F1, F2 = bhattacharya_pair()
    qp = fit_quasi_polynomial([F1, F2], alpha=1)
    assert qp.degree == 2
    tops = qp.top_coefficients()
    assert tops[(2, 0)] == 1 and tops[(1, 1)] == 1 and tops[(0, 2)] == Fraction(3, 2)
    for n1 in range(5, 9):
        for n2 in range(5, 9):
            assert qp.evaluate((n1, n2)) == colength(
                product(F1.ideal_at(n1), F2.ideal_at(n2))
            )


def test_quasipoly_rejects_bad_period():
    F = MonomialValuationFiltration([QuadraticIrrational.rational(2)])
    with pytest.raises(NotNoetherian):
        fit_quasi_polynomial([F], alpha=1)
    with pytest.raises(NotNoetherian):
        fit_quasi_polynomial([DiagonalFiltration([SQRT2])], alpha=2)


def test_quasipoly_truncation_period_is_lcm_of_parts():
    # the exponents 2, 3, 5 of the parts 1..3 have 5 = 2 + 3, so the part 3
    # adds no generator to the Rees algebra: K = {1, 2} and the proven
    # period is lcm(K) = 2, while 3 is not a multiple of it
    F = truncate(DiagonalFiltration([SQRT2]), 3)
    assert F.limit_body().denominator == 2
    with pytest.raises(NotNoetherian):
        fit_quasi_polynomial([F], alpha=3)
    for alpha in (2, 6, 12):
        assert fit_quasi_polynomial([F], alpha).top_coefficients() == {(1,): Fraction(3, 2)}


# -- cross-checks on non-power Noetherian inputs -------------------------------


def test_table_entries_independent_of_sample_seed():
    F1, F2 = bhattacharya_pair()
    reference = mixed_multiplicity_table([F1, F2], seed=0).entries
    for seed in (1, 2, 3, 17):
        assert mixed_multiplicity_table([F1, F2], seed=seed).entries == reference


def test_table_matches_single_ideal_decomposition_2d():
    # for power pairs in the plane: e(IJ) = e(I) + 2 e(I,J) + e(J), with all
    # single-ideal values from the finite-difference oracle
    rng = random.Random(31)
    for _ in range(10):
        I = random_m_primary_ideal(rng, 2, 6)
        J = random_m_primary_ideal(rng, 2, 6)
        table = mixed_multiplicity_table([PowerFiltration(I), PowerFiltration(J)])
        eI = finite_difference_oracle(I)
        eJ = finite_difference_oracle(J)
        eIJ = finite_difference_oracle(product(I, J))
        assert table.entry((2, 0)) == eI
        assert table.entry((0, 2)) == eJ
        assert table.entry((1, 1)) == Fraction(eIJ - eI - eJ, 2)


def test_valuation_filtration_multiplicity_closed_form():
    # I_n = {2a + 3b >= 2n}: the complement of the limit body is the triangle
    # with legs 1 and 2/3, so the limit is 1/3 and e = 2/3
    F = MonomialValuationFiltration(
        [QuadraticIrrational.rational(1), QuadraticIrrational.rational(Fraction(3, 2))]
    )
    assert filtration_multiplicity(F) == Fraction(2, 3)


def test_truncation_convergence_2d_valuation():
    F = MonomialValuationFiltration(
        [QuadraticIrrational.rational(1), QuadraticIrrational.rational(Fraction(3, 2))]
    )
    report = truncation_convergence([F], [1, 2, 3, 6])
    seq = report.sequences[(2,)]
    assert seq == [Fraction(1), Fraction(1), Fraction(2, 3), Fraction(2, 3)]
    assert report.exact


def test_quasipoly_period_three_diagonal():
    F = DiagonalFiltration([QuadraticIrrational.rational(Fraction(5, 3))])
    qp = fit_quasi_polynomial([F], alpha=3)
    assert qp.period == 3 and qp.degree == 1
    assert qp.top_coefficients() == {(1,): Fraction(5, 3)}
    constants = {
        b[0]: qp.class_coefficients[b][(0,)] for b in qp.class_coefficients
    }
    assert constants == {0: 0, 1: Fraction(1, 3), 2: Fraction(2, 3)}
    for n in range(9, 40):
        assert qp.evaluate((n,)) == -(-5 * n // 3)


def test_mixed_table_numeric_strategy():
    F1, F2 = bhattacharya_pair()
    table = mixed_multiplicity_table([F1, F2], NumericStrategy(m_max=64))
    assert not table.exact
    assert abs(float(table.entry((2, 0))) - 2) < 0.1
    assert abs(float(table.entry((1, 1))) - 1) < 0.1
    assert abs(float(table.entry((0, 2))) - 3) < 0.1


def test_truncation_convergence_rejects_non_integer_levels():
    with pytest.raises(SpecValidationError):
        truncation_convergence([DiagonalFiltration([SQRT2])], [1.5, 3.9])


def test_limit_rejects_non_integer_indices():
    F = PowerFiltration(I2((0, 2), (1, 1), (3, 0)))
    assert limit_normalized_colength([F, F], (1, 0)).value == Fraction(5, 2)
    with pytest.raises(SpecValidationError):
        limit_normalized_colength([F, F], (1.7, 0.4))


# -- polarization over one memoized limit function ----------------------------


@st.composite
def exact_summands(draw, d, kinds=("power", "shifted", "valuation", "diagonal", "truncated", "table", "product")):
    """A d-dimensional filtration with an exact limit: a power or shifted
    power, a rational valuation or (d = 1) diagonal, a truncation of a
    Q(sqrt s) valuation or diagonal, a table of a power's first terms, or a
    pointwise product; small in d = 3."""
    kind = draw(st.sampled_from([k for k in kinds if k != "diagonal" or d == 1]))
    cap = 4 if d < 3 else 2
    caps = draw(st.lists(st.integers(1, cap), min_size=d, max_size=d))
    gens = [tuple(c if j == i else 0 for j in range(d)) for i, c in enumerate(caps)]
    gens += draw(st.lists(st.tuples(*[st.integers(0, cap - 1)] * d).filter(any), max_size=2))
    ideal = minimalize(gens, d)
    ratio = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3))
    if kind == "power":
        return PowerFiltration(ideal)
    if kind == "shifted":
        return ShiftedPowerFiltration(ideal, draw(st.integers(1, 2)))
    if kind == "valuation":
        return MonomialValuationFiltration([QuadraticIrrational.rational(w) for w in draw(st.lists(ratio, min_size=d, max_size=d))])
    if kind == "diagonal":
        return DiagonalFiltration([QuadraticIrrational.rational(draw(ratio))])
    if kind == "truncated":
        rate = QuadraticIrrational.sqrt(draw(st.sampled_from([2, 3, 5])))
        if d == 1:
            return truncate(DiagonalFiltration([rate]), draw(st.integers(1, 4)))
        one = QuadraticIrrational.rational(1)
        weights = [one, rate] + [QuadraticIrrational(Fraction(3, 2), Fraction(1, 2), rate.s)] * (d - 2)
        return truncate(MonomialValuationFiltration(draw(st.permutations(weights))), draw(st.integers(1, 3 if d < 3 else 2)))
    if kind == "table":
        return TableFiltration([power(ideal, n) for n in range(1, draw(st.integers(1, 3)) + 1)])
    left, right = (draw(exact_summands(d, ("power", "shifted", "valuation", "diagonal"))) for _ in range(2))
    return PointwiseProductFiltration(left, right)


@st.composite
def exact_families(draw):
    d = draw(st.integers(1, 3))
    return [draw(exact_summands(d)) for _ in range(draw(st.integers(1, 3)))]


@given(exact_families(), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_polarized_tables_match_the_sample_point_solve(Fs, seed):
    table = mixed_multiplicity_table(Fs, seed=seed)
    assert table.exact
    assert table.entries == solved_table(Fs, ExactStrategy(), seed)
    assert table.points == ()


@given(exact_families().filter(lambda Fs: len(Fs) > 1))
@settings(max_examples=25, deadline=None)
def test_a_zero_index_drops_its_factor_from_the_limit_function(Fs):
    P = LimitFunction(Fs)
    d, r = P.d, P.r
    for slot in range(1, r + 1):
        reduced = Fs[: slot - 1] + Fs[slot:]
        for t in degree_monomials(r - 1, d):
            assert P.without(slot)(t) == limit_normalized_colength(reduced, t)
        assert mixed_multiplicity_table(P.without(slot)).entries == mixed_multiplicity_table(reduced).entries


@given(exact_families().filter(lambda Fs: len(Fs) == 2))
@settings(max_examples=25, deadline=None)
def test_pointwise_product_multiplicity_is_the_limit_at_one_one(Fs):
    F1, F2 = Fs
    P = LimitFunction([F1, F2])
    assert filtration_multiplicity(PointwiseProductFiltration(F1, F2)) == math.factorial(P.d) * P((1, 1)).value


def test_limit_function_evaluates_primitive_indices_once(monkeypatch):
    calls = []

    def spy(Fs, n, strategy=None):
        calls.append(n)
        return limit_normalized_colength(Fs, n, strategy)

    monkeypatch.setattr(multiplicity, "limit_normalized_colength", spy)
    F1, F2 = bhattacharya_pair()
    P = LimitFunction([F1, F2])
    base = P((1, 2)).value
    assert P((3, 6)).value == 9 * base and P((1, 2)).value == base
    assert calls == [(1, 2)]
    # a numeric limit is not homogeneous in its samples, so every index is its own
    Q = LimitFunction([F1, F2], NumericStrategy(m_max=8))
    Q((1, 2)), Q((2, 4)), Q((2, 4))
    assert calls == [(1, 2), (1, 2), (2, 4)]


def test_limit_function_checks_its_indices():
    P = LimitFunction(list(bhattacharya_pair()))
    with pytest.raises(SpecValidationError):
        P((1.0, 1))
    with pytest.raises(multiplicity.DimensionMismatch):
        P((1, 1, 1))
    with pytest.raises(ValueError):
        P((-2, -2))
    with pytest.raises(ValueError):
        P.without(3)


def test_exact_tables_solve_nothing(monkeypatch):
    F1, F2 = bhattacharya_pair()

    def no_solve(*args):
        raise AssertionError("an exact table solved a system")

    def no_draw(*args):
        raise AssertionError("an exact table drew sample points")

    monkeypatch.setattr(linalg, "solve", no_solve)
    monkeypatch.setattr(multiplicity, "sample_points", no_draw)
    table = mixed_multiplicity_table([F1, F2, PowerFiltration(maximal_ideal(2))], seed=11)
    assert table.entry((1, 1, 0)) == 1
    assert mixed_multiplicity_table([F1, F2], seed=11).points == ()
    assert mixed_multiplicity_table([F1, F2], seed=11) == mixed_multiplicity_table([F1, F2], seed=5)


def test_a_limit_function_table_takes_no_second_strategy():
    P = LimitFunction(list(bhattacharya_pair()))
    with pytest.raises(ValueError):
        mixed_multiplicity_table(P, NumericStrategy())
    assert mixed_multiplicity_table(P) == mixed_multiplicity_table(list(bhattacharya_pair()))
