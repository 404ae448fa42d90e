import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtmult.quadratic import (
    SQRT2,
    QuadraticIrrational,
    ceil_sqrt,
    floor_sqrt_form,
    is_squarefree,
)

from oracles import compare_fraction


def oracle_ceil_n_sqrt_s(n: int, s: int) -> int:
    """Independent integer-only oracle for ceil(n * sqrt(s))."""
    r = math.isqrt(s * n * n)
    return r if r * r == s * n * n else r + 1


def test_ceil_times_sqrt2_against_oracle():
    for n in range(0, 2000):
        assert SQRT2.ceil_times(n) == oracle_ceil_n_sqrt_s(n, 2)


def test_ceil_times_known_values():
    assert SQRT2.ceil_times(5) == 8
    assert SQRT2.ceil_times(12) == 17
    assert SQRT2.ceil_times(29) == 42
    assert SQRT2.ceil_times(70) == 99


def test_rational_floor_ceil():
    x = QuadraticIrrational.rational(Fraction(3, 2))
    assert x.floor() == 1
    assert x.ceil() == 2
    assert x.ceil_times(4) == 6
    y = QuadraticIrrational.rational(Fraction(-1, 2))
    assert y.floor() == -1
    assert y.ceil() == 0


def test_sign_mixed_terms():
    # 3 - 2*sqrt(2) > 0 since 9 > 8
    assert QuadraticIrrational(Fraction(3), Fraction(-2), 2).sign() == 1
    # 1 - sqrt(2) < 0
    assert QuadraticIrrational(Fraction(1), Fraction(-1), 2).sign() == -1
    assert QuadraticIrrational(Fraction(0), Fraction(0), 2).sign() == 0
    # 2*sqrt(2) - 3 + (3 - 2*sqrt(2)) = 0 exactly
    a = QuadraticIrrational(Fraction(-3), Fraction(2), 2)
    b = QuadraticIrrational(Fraction(3), Fraction(-2), 2)
    assert (a + b).sign() == 0


def test_arithmetic_in_field():
    golden = QuadraticIrrational(Fraction(1), Fraction(1), 2)
    sq = golden * golden
    assert sq.p == 3 and sq.q == 2 and sq.s == 2
    assert (golden - golden).sign() == 0
    assert compare_fraction(golden, Fraction(12, 5)) > 0  # 1 + 1.414 > 2.4
    assert compare_fraction(golden, Fraction(5, 2)) < 0


def test_comparisons_match_floats():
    values = [
        QuadraticIrrational(Fraction(p), Fraction(q), 2)
        for p in range(-3, 4)
        for q in range(-3, 4)
    ]
    for x in values:
        for y in values:
            assert (x < y) == (float(x) < float(y) - 1e-12 or (float(x) < float(y)))


def test_mixed_radicands_rejected():
    a = QuadraticIrrational.sqrt(2)
    b = QuadraticIrrational.sqrt(3)
    with pytest.raises(ValueError):
        _ = a + b
    # rational values combine with anything
    assert (a + QuadraticIrrational.rational(1)).s == 2


def test_squarefree_enforced():
    assert is_squarefree(10)
    assert not is_squarefree(12)
    with pytest.raises(ValueError):
        QuadraticIrrational(Fraction(0), Fraction(1), 12)
    # perfect squares collapse to rationals via the sqrt constructor
    assert QuadraticIrrational.sqrt(9).as_fraction() == 3


def test_json_round_trip():
    x = QuadraticIrrational(Fraction(1, 3), Fraction(-2, 7), 5)
    assert QuadraticIrrational.from_json(x.to_json()) == x


def test_ceil_sqrt():
    for k in range(0, 500):
        assert ceil_sqrt(k) == oracle_ceil_n_sqrt_s(1, k) if k else ceil_sqrt(k) == 0
    assert ceil_sqrt(25) == 5
    assert ceil_sqrt(2) == 2


def oracle_floor(p: Fraction, q: Fraction, s: int) -> int:
    """floor(p + q*sqrt(s)) from a 2^-100-accurate guess, settled by exact
    Fraction comparisons of k - p against q*sqrt(s) (independent oracle)."""

    def at_most(k: int) -> bool:  # k <= p + q*sqrt(s)
        x = k - p
        if q >= 0:
            return x <= 0 or x * x <= q * q * s
        return x <= 0 and x * x >= q * q * s

    k = math.floor(p + q * Fraction(math.isqrt(s << 200), 1 << 100))
    while not at_most(k):
        k -= 1
    while at_most(k + 1):
        k += 1
    return k


def sqrt_convergent(s: int, min_den: int) -> tuple[int, int]:
    """First continued-fraction convergent h/k of sqrt(s) with k >= min_den,
    so |h - k*sqrt(s)| < 1/k."""
    a0 = math.isqrt(s)
    m, d, a = 0, 1, a0
    h, h_prev, k, k_prev = a0, 1, 1, 0
    while k < min_den:
        m = d * a - m
        d = (s - m * m) // d
        a = (a0 + m) // d
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return h, k


radicands = st.integers(2, 10**6).filter(lambda s: math.isqrt(s) ** 2 != s)
denominators = st.integers(1, 10**3)


@st.composite
def generic_values(draw):
    p = Fraction(draw(st.integers(-(10**6), 10**6)), draw(denominators))
    q = Fraction(draw(st.integers(-(10**4), 10**4)), draw(denominators))
    return p, q, draw(radicands)


@st.composite
def near_integer_values(draw):
    """n + sign*(h - k*sqrt(s))/b with h/k a convergent: within 1e-12 of n."""
    s = draw(radicands)
    h, k = sqrt_convergent(s, 10**12)
    n, b = draw(st.integers(-50, 50)), draw(denominators)
    sign = draw(st.sampled_from([1, -1]))
    return Fraction(n * b + sign * h, b), Fraction(-sign * k, b), s


@given(st.one_of(generic_values(), near_integer_values()), st.integers(0, 40))
@settings(max_examples=400, deadline=None)
def test_floor_ceil_match_isqrt_oracle(value, n):
    p, q, s = value
    # sqrt() extracts the square part of s, so the radicand needs no filter
    x = QuadraticIrrational.rational(p) + QuadraticIrrational.sqrt(s) * q
    assert x.floor() == oracle_floor(p, q, s)
    assert x.ceil() == -oracle_floor(-p, -q, s)
    assert x.ceil_times(n) == -oracle_floor(-n * p, -n * q, s)


def test_floor_near_integer_examples():
    # 99 - 70*sqrt(2) = 1/(99 + 70*sqrt(2)) is about 7.1e-3 above 0
    x = QuadraticIrrational(Fraction(99), Fraction(-70), 2)
    assert (x.floor(), x.ceil(), (-x).floor(), (-x).ceil()) == (0, 1, -1, 0)
    # |h - k*sqrt(2)| < 1/k <= 1e-12, far below the float error of h and k
    h, k = sqrt_convergent(2, 10**12)
    y = QuadraticIrrational(Fraction(h), Fraction(-k), 2)
    expected = 0 if y.sign() > 0 else -1
    assert (y.floor(), y.ceil()) == (expected, expected + 1)
    assert (y + 7).floor() == expected + 7 and (-y).ceil() == -expected


def test_floor_sqrt_form_square_radicands():
    # sqrt(s) rational: c*sqrt(s) is an integer, so no -1 correction applies
    for s in (0, 1, 4, 9):
        for a in range(-7, 8):
            for c in range(-5, 6):
                for b in range(1, 5):
                    expected = math.floor(Fraction(a + c * math.isqrt(s), b))
                    assert floor_sqrt_form(a, c, b, s) == expected
