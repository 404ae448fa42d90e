import math
import random
from fractions import Fraction

import pytest

from filtmult.errors import SpecValidationError
from filtmult.filtrations import (
    CeilingNormMultiFiltration,
    DiagonalFiltration,
    PowerFiltration,
    ShiftedPowerFiltration,
)
from filtmult import multiplicity, verifier
from filtmult.multiplicity import NumericStrategy
from filtmult.quadratic import SQRT2
from filtmult.staircase import maximal_ideal, minimalize
from filtmult.verifier import (
    STANDARD_WITNESS_POINTS,
    integrality_check,
    integrality_suite,
    minkowski_report,
    minkowski_suite,
    non_polynomial_witness,
    random_m_primary_ideal,
    rees_identity_check,
    root_sum_compare,
)


def I2(*gens):
    return minimalize(list(gens), 2)


def bhattacharya_pair():
    return PowerFiltration(I2((2, 0), (0, 1))), PowerFiltration(I2((1, 0), (0, 3)))


# -- root comparisons -----------------------------------------------------------


def test_root_compare_d2():
    assert root_sum_compare(Fraction(4), Fraction(1), Fraction(1), 2) == (True, True)
    assert root_sum_compare(Fraction(7), Fraction(2), Fraction(3), 2) == (True, False)
    assert root_sum_compare(Fraction(5), Fraction(1), Fraction(1), 2) == (False, False)


def test_root_compare_d3():
    assert root_sum_compare(Fraction(8), Fraction(1), Fraction(1), 3) == (True, True)
    assert root_sum_compare(Fraction(9), Fraction(1), Fraction(1), 3) == (False, False)
    assert root_sum_compare(Fraction(7), Fraction(1), Fraction(1), 3) == (True, False)
    # rational-ratio equality: B = 8, C = 1, A = (2+1)^3 = 27
    assert root_sum_compare(Fraction(27), Fraction(8), Fraction(1), 3) == (True, True)
    assert root_sum_compare(Fraction(26), Fraction(8), Fraction(1), 3) == (True, False)
    assert root_sum_compare(Fraction(28), Fraction(8), Fraction(1), 3) == (False, False)


def test_root_compare_matches_floats_randomly():
    rng = random.Random(0)
    for _ in range(200):
        A = Fraction(rng.randint(1, 400), rng.randint(1, 20))
        B = Fraction(rng.randint(1, 200), rng.randint(1, 20))
        C = Fraction(rng.randint(1, 200), rng.randint(1, 20))
        d = rng.choice([2, 3, 4])
        holds, _ = root_sum_compare(A, B, C, d)
        gap = float(B) ** (1 / d) + float(C) ** (1 / d) - float(A) ** (1 / d)
        if abs(gap) > 1e-9:
            assert holds == (gap > 0)


# -- Minkowski ------------------------------------------------------------------


def test_minkowski_bhattacharya_pair():
    report = minkowski_report(*bhattacharya_pair())
    assert report.passed and report.exact
    assert report.context["e"] == {"0": "3", "1": "1", "2": "2"}
    assert all(r.slack >= 0 for r in report.records)


def test_minkowski_identical_pair_is_tight():
    F1, _ = bhattacharya_pair()
    report = minkowski_report(F1, F1)
    assert report.passed
    assert all(r.slack == 0 for r in report.records)
    assert report.context["root_equality"]


def test_minkowski_equality_demo_shifted_powers():
    m = maximal_ideal(2)
    report = minkowski_report(PowerFiltration(m), ShiftedPowerFiltration(m, 1))
    assert report.passed and report.exact
    root = [r for r in report.records if r.name == "root_subadditivity"][0]
    assert root.left == root.right == 2.0 and root.slack == 0
    assert report.context["root_equality"]


def test_minkowski_equality_demo_d3():
    m = maximal_ideal(3)
    report = minkowski_report(PowerFiltration(m), ShiftedPowerFiltration(m, 1))
    assert report.passed
    root = [r for r in report.records if r.name == "root_subadditivity"][0]
    assert root.slack == 0 and report.context["root_equality"]


def test_root_equality_is_the_exact_verdict_not_a_float_tie(monkeypatch):
    # e(m) = 1 and e(m*m) = 4 in d = 2, so both float sides are 2.0; a
    # comparator that calls the inequality strict must be believed
    F = PowerFiltration(maximal_ideal(2))
    monkeypatch.setattr(verifier, "root_sum_compare", lambda A, B, C, d: (True, False))
    report = minkowski_report(F, F)
    root = [r for r in report.records if r.name == "root_subadditivity"][0]
    assert root.left == root.right == 2.0 and root.passed
    assert report.context["root_equality"] is False


def test_minkowski_small_suite():
    result = minkowski_suite(count_d2=8, count_d3=4, seed=123)
    assert result.passed
    for record in result.instances:
        assert record["pass"]
        assert all(s >= -1e-12 for s in record["slacks"])


# -- Rees identity -----------------------------------------------------------------


def test_rees_bhattacharya():
    F1, F2 = bhattacharya_pair()
    for slot, expected in ((1, 2), (2, 3)):
        report = rees_identity_check([F1, F2], slot)
        assert report.passed and report.exact
        record = report.records[0]
        assert record.left == expected == record.right


def test_rees_r1_tautology():
    report = rees_identity_check([bhattacharya_pair()[0]], 1)
    assert report.passed


def test_rees_shifted_pair():
    m = maximal_ideal(2)
    report = rees_identity_check([PowerFiltration(m), ShiftedPowerFiltration(m, 1)], 2)
    assert report.passed
    assert report.records[0].left == 1.0


def test_rees_numeric_diagonal_pair():
    Fs = [DiagonalFiltration([SQRT2]), DiagonalFiltration([SQRT2])]
    report = rees_identity_check(
        Fs, 1, NumericStrategy(m_max=2048), tolerance=5e-3
    )
    assert report.passed and not report.exact
    assert report.records[0].right == pytest.approx(math.sqrt(2), abs=5e-3)


def test_rees_three_slots():
    F1, F2 = bhattacharya_pair()
    F3 = PowerFiltration(maximal_ideal(2))
    for slot in (1, 2, 3):
        assert rees_identity_check([F1, F2, F3], slot).passed


# -- limit evaluations per report -----------------------------------------------------


@pytest.mark.parametrize(
    "check, evaluations",
    [
        # P(1,0), P(0,1) and P(1,1); a sample-point solve took 6
        ("minkowski_d2", 3),
        # also P(2,1) and P(1,2); a sample-point solve took 7
        ("minkowski_d3", 5),
        # the units and their pairwise sums; a sample-point solve took 10
        ("rees_r3", 6),
    ],
)
def test_reports_evaluate_each_primitive_limit_once(monkeypatch, check, evaluations):
    calls = []
    original = multiplicity.limit_normalized_colength

    def spy(Fs, n, strategy=None):
        calls.append(tuple(n))
        return original(Fs, n, strategy)

    monkeypatch.setattr(multiplicity, "limit_normalized_colength", spy)
    F1, F2 = bhattacharya_pair()
    if check == "minkowski_d2":
        report = minkowski_report(F1, F2)
    elif check == "minkowski_d3":
        J = minimalize([(2, 0, 0), (0, 1, 0), (0, 0, 3)], 3)
        report = minkowski_report(PowerFiltration(maximal_ideal(3)), PowerFiltration(J))
    else:
        report = rees_identity_check([F1, F2, PowerFiltration(maximal_ideal(2))], 2)
    assert report.passed and report.exact
    assert len(calls) == len(set(calls)) == evaluations


# -- integrality ---------------------------------------------------------------------


def test_integrality_example():
    report = integrality_check(I2((2, 0), (0, 2)))
    assert report.passed
    assert report.records[0].left == 4.0 == report.records[0].right
    assert report.context["closure_gens"] == [[0, 2], [1, 1], [2, 0]]
    demo = report.context["converse_demo"]
    assert demo["equal_multiplicities"] and demo["filtrations_differ"]


def test_integrality_closed_ideal_trivial():
    report = integrality_check(maximal_ideal(2))
    assert report.passed and report.records[0].slack == 0


def test_integrality_suite():
    result = integrality_suite(count=10, seed=3)
    assert result.passed


# -- non-polynomiality witness ----------------------------------------------------------


def test_witness_standard_points():
    MF = CeilingNormMultiFiltration(2)
    report = non_polynomial_witness(MF, list(STANDARD_WITNESS_POINTS), 1)
    assert report.witnessed
    assert report.max_residual > 0.05
    by_point = {p.point: p for p in report.points}
    assert by_point[(3, 4)].estimate == 5.0 and by_point[(3, 4)].exact
    assert by_point[(1, 0)].estimate == 1.0
    assert by_point[(3, 4)].ceil_form == 5
    assert by_point[(1, 1)].ceil_form == 2
    assert by_point[(1, 1)].sqrt_form == pytest.approx(math.sqrt(2))


def test_witness_scaling_homogeneity():
    MF = CeilingNormMultiFiltration(2)
    pts = [(1, 1), (2, 2), (3, 4), (6, 8), (5, 12), (10, 24), (2, 1), (4, 2)]
    report = non_polynomial_witness(MF, pts, 1)
    by_point = {p.point: p.estimate for p in report.points}
    assert by_point[(2, 2)] == pytest.approx(2 * by_point[(1, 1)])
    assert by_point[(6, 8)] == pytest.approx(2 * by_point[(3, 4)])
    assert by_point[(10, 24)] == pytest.approx(2 * by_point[(5, 12)])


def test_witness_requires_enough_points():
    MF = CeilingNormMultiFiltration(2)
    with pytest.raises(SpecValidationError):
        non_polynomial_witness(MF, [(1, 0), (0, 1), (1, 1)], 1)
    with pytest.raises(SpecValidationError):
        non_polynomial_witness(MF, [(1, 0)] * 8, 1)
    with pytest.raises(SpecValidationError):
        non_polynomial_witness(MF, [(a, b, 5) for a in range(1, 3) for b in range(4)], 1)


def test_witness_rejects_non_integer_points():
    MF = CeilingNormMultiFiltration(2)
    pts = list(STANDARD_WITNESS_POINTS)
    pts[0] = (pts[0][0] + 0.5, pts[0][1])
    with pytest.raises(SpecValidationError):
        non_polynomial_witness(MF, pts, 1)


def test_witness_linear_filtration_fits_perfectly():
    # with one slot and weight 4 the limit is exactly 2n, so the residual
    # does not witness anything
    MF = CeilingNormMultiFiltration(1, [4])
    report = non_polynomial_witness(MF, [(1,), (2,), (3,), (5,), (8,)], 1)
    assert report.max_residual < 0.05
    assert not report.witnessed


# -- random instances ---------------------------------------------------------------------


def test_random_ideals_are_m_primary_antichains():
    rng = random.Random(99)
    for _ in range(50):
        for d in (1, 2, 3):
            ideal = random_m_primary_ideal(rng, d, 6)
            assert ideal.is_m_primary()
            gens = ideal.gens
            for i, a in enumerate(gens):
                for j, b in enumerate(gens):
                    if i != j:
                        assert not all(x >= y for x, y in zip(a, b))


def test_minkowski_mixed_kinds():
    # valuation-kind against power-kind: exact strategy goes through the
    # lcm of the detected scales (2 and 1)
    from filtmult.filtrations import MonomialValuationFiltration
    from filtmult.quadratic import QuadraticIrrational

    Fv = MonomialValuationFiltration([QuadraticIrrational.rational(2)] * 2)
    Fp, _ = bhattacharya_pair()
    report = minkowski_report(Fv, Fp)
    assert report.passed and report.exact
    assert all(r.slack >= 0 for r in report.records)


def test_root_compare_interval_path_near_equality():
    # forces the interval loop: no rational-ratio equality, tiny strict gaps
    just_below = Fraction(27) - Fraction(1, 10**9)
    just_above = Fraction(27) + Fraction(1, 10**9)
    assert root_sum_compare(just_below, Fraction(8), Fraction(1), 3) == (True, False)
    assert root_sum_compare(just_above, Fraction(8), Fraction(1), 3) == (False, False)


def test_minkowski_truncated_pair():
    # exact strategy on truncated diagonal filtrations (Noetherian by
    # construction); entries stay within the inequalities
    from filtmult.filtrations import DiagonalFiltration, truncate
    from filtmult.quadratic import SQRT2

    T1 = truncate(DiagonalFiltration([SQRT2]), 2)
    T2 = truncate(DiagonalFiltration([SQRT2]), 5)
    report = minkowski_report(T1, T2)
    assert report.passed and report.exact
