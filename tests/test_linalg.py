from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from filtmult.linalg import solve
from filtmult.multiplicity import monomial_matrix


def gauss_jordan_oracle(matrix, rhs):
    """Fraction Gauss-Jordan with the first nonzero pivot in each column."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


ENTRIES = {
    "small": st.integers(-4, 4),
    "wide": st.integers(-(2**70), 2**70),
    "fraction": st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=97),
    # the witness solves normal equations built from float estimates
    "float": st.floats(-1e6, 1e6, allow_nan=False).map(Fraction),
    "mixed": st.one_of(
        st.integers(-(10**6), 10**6),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    ),
}


@st.composite
def systems(draw):
    n = draw(st.integers(0, 7))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    matrix = [[draw(entry) for _ in range(n)] for _ in range(n)]
    rhs = [draw(entry) for _ in range(n)]
    shape = draw(st.sampled_from(["generic", "dependent", "zero_column", "swap"]))
    if n >= 2 and shape == "dependent":
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        c = draw(ENTRIES["fraction"])
        if i not in (j, k):
            matrix[i] = [c * x + y for x, y in zip(matrix[j], matrix[k])]
    elif n and shape == "zero_column":
        col = draw(st.integers(0, n - 1))
        for row in matrix:
            row[col] = 0
    elif n and shape == "swap":
        # a zero leading entry forces a row swap on the first column
        k = draw(st.integers(0, n - 1))
        matrix[0][k] = 0
        matrix[k][k] = 0
    return matrix, rhs


@given(systems())
@settings(max_examples=300, deadline=None)
def test_solve_matches_gauss_jordan(system):
    matrix, rhs = system
    expected = gauss_jordan_oracle(matrix, rhs)
    got = solve(matrix, rhs)
    assert got == expected
    if got is not None:
        assert all(type(x) is Fraction for x in got)
        assert [sum(a * x for a, x in zip(row, got)) for row in matrix] == rhs


def test_solve_swaps_and_detects_singular():
    assert solve([], []) == []
    assert solve([[0, 1], [1, 0]], [3, Fraction(1, 2)]) == [Fraction(1, 2), 3]
    assert solve([[0, 0, 1], [0, 2, 0], [5, 0, 0]], [1, 1, 1]) == [Fraction(1, 5), Fraction(1, 2), 1]
    assert solve([[1, 2], [2, 4]], [1, 2]) is None
    assert solve([[0, 1], [0, 3]], [1, 2]) is None
    assert solve([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 5), 1]], [1, 1]) == [
        Fraction(15, 7),
        Fraction(4, 7),
    ]


def test_monomial_matrix_is_integral():
    rows = monomial_matrix([(1, 2), (3, 1), (2, 5)], 2)
    assert rows == [[1, 2, 4], [9, 3, 1], [4, 10, 25]]
    assert all(type(x) is int for row in rows for x in row)
