"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its runtime.  Expected values tagged as derived were computed with
the independent oracles in this module (finite differences of brute-force
colengths, the min-plus truncation density, closed-form volumes) before being
frozen here."""

import math
import time
from fractions import Fraction

from filtmult.filtrations import (
    DiagonalFiltration,
    MonomialValuationFiltration,
    PowerFiltration,
    ShiftedPowerFiltration,
)
from filtmult.multiplicity import (
    NumericStrategy,
    fit_quasi_polynomial,
    limit_normalized_colength,
    mixed_multiplicity_table,
    truncation_convergence,
)
from filtmult.okounkov import body_volume, ambient_body_volume, volume_limit_check
from filtmult.quadratic import SQRT2, QuadraticIrrational
from filtmult.staircase import (
    colength,
    covolume,
    maximal_ideal,
    minimalize,
    newton_region,
    power,
    product,
)
from filtmult.verifier import (
    STANDARD_WITNESS_POINTS,
    CeilingNormMultiFiltration,
    integrality_suite,
    minkowski_report,
    minkowski_suite,
    non_polynomial_witness,
    random_m_primary_ideal,
)

from oracles import finite_difference_oracle


class Criterion:
    def __init__(self, number: int, name: str, time_limit: float):
        self.number = number
        self.name = name
        self.time_limit = time_limit
        self.checks: list[tuple[bool, str]] = []
        self.started = time.perf_counter()

    def expect(self, condition: bool, description: str) -> None:
        self.checks.append((bool(condition), description))

    def conclude(self) -> None:
        elapsed = time.perf_counter() - self.started
        ok = all(c for c, _ in self.checks) and elapsed < self.time_limit
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {verdict} ({elapsed:.2f}s)")
        for condition, description in self.checks:
            assert condition, f"criterion {self.number}: {description}"
        assert elapsed < self.time_limit, (
            f"criterion {self.number}: took {elapsed:.2f}s, limit {self.time_limit}s"
        )


def bhattacharya_pair():
    I = minimalize([(2, 0), (0, 1)], 2)
    J = minimalize([(1, 0), (0, 3)], 2)
    return I, J


def test_criterion_01_irrational_multiplicity():
    crit = Criterion(1, "irrational multiplicity sqrt(2)", 1.0)
    est = limit_normalized_colength(
        [DiagonalFiltration([SQRT2])], (1,), NumericStrategy(m_max=10**4)
    )
    crit.expect(not est.exact, "numeric strategy is flagged inexact")
    crit.expect(
        abs(float(est.value) - math.sqrt(2)) < 1e-3,
        f"value {float(est.value)} within 1e-3 of sqrt(2)",
    )
    crit.conclude()


def test_criterion_02_bhattacharya_table_exact():
    crit = Criterion(2, "exact mixed multiplicity table", 5.0)
    I, J = bhattacharya_pair()
    # independent oracle: brute-force colengths of (IJ)^m for m <= 30, then
    # second finite differences, which stabilize at e(IJ)
    IJ = product(I, J)
    values = [colength(power(IJ, m)) for m in range(1, 31)]
    diffs = values
    for _ in range(2):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    crit.expect(diffs[-5:] == [7] * 5, "oracle second differences stabilize at 7")
    table = mixed_multiplicity_table([PowerFiltration(I), PowerFiltration(J)])
    crit.expect(table.exact, "table is exact")
    crit.expect(table.entry((2, 0)) == 2, "entry (2,0) = 2")
    crit.expect(table.entry((1, 1)) == 1, "entry (1,1) = 1")
    crit.expect(table.entry((0, 2)) == 3, "entry (0,2) = 3")
    crit.expect(table.polynomial_value((1, 1)) == Fraction(7, 2), "G(1,1) = 7/2")
    crit.conclude()


def test_criterion_03_minkowski_suite():
    crit = Criterion(3, "minkowski suite 100x d2 + 25x d3", 120.0)
    result = minkowski_suite(count_d2=100, count_d3=25, seed=0)
    crit.expect(result.passed, "no inequality violations")
    crit.expect(len(result.instances) == 125, "all instances ran")
    crit.expect(
        all(min(rec["slacks"]) >= 0 for rec in result.instances),
        "slacks are nonnegative",
    )
    crit.conclude()


def test_criterion_04_minkowski_equality_demo():
    crit = Criterion(4, "minkowski equality for shifted powers", 1.0)
    m = maximal_ideal(2)
    report = minkowski_report(PowerFiltration(m), ShiftedPowerFiltration(m, 1))
    crit.expect(report.passed and report.exact, "report passes exactly")
    root = [r for r in report.records if r.name == "root_subadditivity"][0]
    crit.expect(root.left == 2.0 and root.right == 2.0, "2 = 1 + 1")
    crit.expect(report.context["root_equality"], "equality is detected exactly")
    crit.conclude()


def test_criterion_05_truncation_convergence():
    """Truncated multiplicities of the sqrt(2) diagonal filtration.

    The oracle value for level a is the best density min_{k<=a} ceil(k
    sqrt(2))/k, so the sequence on the schedule (1, 2, 5, 12, 29) is
    (2, 3/2, 3/2, 17/12, 17/12); every term is >= sqrt(2).  The closest
    approach on this schedule is |17/12 - sqrt(2)| ~ 2.45e-3, so the final
    1e-3 tolerance demanded here is not attainable until the schedule
    reaches level 41 (see the convergence tests for the passing schedule).
    """
    crit = Criterion(5, "truncation convergence on (1,2,5,12,29)", 5.0)

    def oracle(a: int) -> Fraction:
        def ceil_k_sqrt2(k: int) -> int:
            r = math.isqrt(2 * k * k)
            return r if r * r == 2 * k * k else r + 1

        return min(Fraction(ceil_k_sqrt2(k), k) for k in range(1, a + 1))

    schedule = (1, 2, 5, 12, 29)
    report = truncation_convergence([DiagonalFiltration([SQRT2])], schedule)
    seq = report.sequences[(1,)]
    crit.expect(
        seq == [oracle(a) for a in schedule],
        f"sequence {seq} matches the truncation density oracle",
    )
    crit.expect(
        seq
        == [Fraction(2), Fraction(3, 2), Fraction(3, 2), Fraction(17, 12), Fraction(17, 12)],
        "oracle-frozen sequence values",
    )
    crit.expect(
        abs(float(seq[-1]) - math.sqrt(2)) < 1e-3,
        f"final gap {abs(float(seq[-1]) - math.sqrt(2)):.2e} < 1e-3",
    )
    crit.conclude()


def test_criterion_06_rees_identity():
    crit = Criterion(6, "rees identity on noetherian pairs", 30.0)
    from filtmult.verifier import rees_identity_check

    I, J = bhattacharya_pair()
    m2 = maximal_ideal(2)
    m3 = maximal_ideal(3)
    K = minimalize([(2, 0, 0), (0, 1, 0), (0, 0, 2), (1, 1, 1)], 3)
    pairs = [
        ([PowerFiltration(I), PowerFiltration(J)], (1, 2)),
        ([PowerFiltration(m2), ShiftedPowerFiltration(m2, 1)], (1, 2)),
        ([PowerFiltration(K), PowerFiltration(m3)], (1, 2)),
        (
            [
                MonomialValuationFiltration([QuadraticIrrational.rational(2)] * 2),
                PowerFiltration(m2),
            ],
            (1, 2),
        ),
        ([PowerFiltration(I), PowerFiltration(J), PowerFiltration(m2)], (1, 2, 3)),
    ]
    for Fs, slots in pairs:
        for slot in slots:
            report = rees_identity_check(Fs, slot)
            crit.expect(
                report.passed and report.exact,
                f"exact equality for {[F.describe() for F in Fs]} slot {slot}",
            )
    crit.conclude()


def test_criterion_07_quasi_polynomial():
    crit = Criterion(7, "period-2 quasi-polynomials", 10.0)
    F1 = MonomialValuationFiltration([QuadraticIrrational.rational(2)])
    qp1 = fit_quasi_polynomial([F1], alpha=2)
    crit.expect(qp1.period == 2 and qp1.degree == 1, "d=1 fit structure")
    crit.expect(
        qp1.top_coefficients() == {(1,): Fraction(1, 2)}, "top coefficient 1/2"
    )
    F2 = MonomialValuationFiltration([QuadraticIrrational.rational(2)] * 2)
    qp2 = fit_quasi_polynomial([F2], alpha=2)
    crit.expect(qp2.period == 2 and qp2.degree == 2, "d=2 fit structure")
    crit.expect(
        qp2.top_coefficients() == {(2,): Fraction(1, 8)}, "top coefficient 1/8"
    )
    # the fits above raise DegreeMismatch/TopCoefficientDrift if triggered;
    # reaching this point means they were not
    crit.expect(True, "no degree or drift errors raised")
    crit.conclude()


def test_criterion_08_okounkov_identity():
    crit = Criterion(8, "body volume difference vs colength limit", 60.0)
    Fm = PowerFiltration(maximal_ideal(2))
    for m in (1, 2, 3, 7, 16):
        diff = ambient_body_volume(2, m, 2) - body_volume(Fm, m, 2).volume
        crit.expect(diff == Fraction(1, 2), f"difference 1/2 at level {m}")
    report = volume_limit_check(Fm, 64)
    crit.expect(report.limit.value == Fraction(1, 2), "limit equals 1/2")
    crit.expect(report.gap_abs == 0, "identity exact for the maximal ideal")
    FI = PowerFiltration(minimalize([(2, 0), (0, 1)], 2))
    report2 = volume_limit_check(FI, 256)
    crit.expect(report2.m == 256, "level 256 reached")
    crit.expect(report2.gap_rel < 0.02, f"relative gap {report2.gap_rel} < 2%")
    crit.conclude()


def test_criterion_09_integrality_invariance():
    crit = Criterion(9, "integral closure preserves multiplicity", 60.0)
    result = integrality_suite(count=20, seed=0)
    crit.expect(result.passed, "all 20 instances pass exactly")
    crit.expect(len(result.instances) == 20, "20 instances ran")
    crit.conclude()


def test_criterion_10_multigraded_counterexample():
    crit = Criterion(10, "ceiling-norm non-polynomiality witness", 30.0)
    MF = CeilingNormMultiFiltration(2)
    report = non_polynomial_witness(MF, list(STANDARD_WITNESS_POINTS), 1)
    by_point = {p.point: p for p in report.points}
    crit.expect(by_point[(3, 4)].estimate == 5.0, "P(3,4) = 5 exactly")
    crit.expect(by_point[(1, 0)].estimate == 1.0, "P(1,0) = 1 exactly")
    crit.expect(report.max_residual > 0.05, f"residual {report.max_residual:.3f} > 0.05")
    crit.expect(
        all(p.ceil_form >= p.sqrt_form for p in report.points),
        "both closed-form candidates recorded",
    )
    crit.conclude()


def test_criterion_11_cross_oracle():
    crit = Criterion(11, "finite differences vs newton covolume", 60.0)
    import random

    rng = random.Random(2718)
    agreements = 0
    for _ in range(50):
        d = rng.choice([1, 2, 3])
        ideal = random_m_primary_ideal(rng, d, 5 if d == 3 else 9)
        hs = finite_difference_oracle(ideal)
        cov = math.factorial(d) * covolume(newton_region(ideal))
        if hs == cov:
            agreements += 1
    crit.expect(agreements == 50, f"{agreements}/50 exact agreements")
    crit.conclude()
