"""Small exact linear algebra by fraction-free integer elimination.

Matrices are lists of lists of ints or ``Fraction``s.  Sizes here are tiny
(at most ~10x10).  Each row is scaled to integers once, elimination stays in
integers (Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968), and each result is a single
``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _integer_row(row: list) -> list[int]:
    """``row`` times the lcm of its denominators: the same equation in ints."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def solve(
    matrix: list[list[int | Fraction]], rhs: list[int | Fraction]
) -> list[Fraction] | None:
    """Solve ``matrix @ x = rhs`` exactly; return None if singular.

    Every entry left below the pivots is a minor of the row-swapped integer
    system (Sylvester's identity), so dividing by the previous pivot is
    exact, and the last pivot ``det`` is its determinant.  By Cramer's rule
    ``det * x`` is integral, so back-substitution divides exactly as well.
    """
    n = len(matrix)
    a = [_integer_row([*row, rhs[i]]) for i, row in enumerate(matrix)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        top = a[k]
        akk = top[k]
        for r in range(k + 1, n):
            row = a[r]
            ark = row[k]
            row[k + 1 :] = [(akk * x - ark * y) // prev for x, y in zip(row[k + 1 :], top[k + 1 :])]
        prev = akk
    det = prev
    nums = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        acc = det * row[n] - sum(row[j] * nums[j] for j in range(i + 1, n))
        nums[i] = acc // row[i]
    return [Fraction(v, det) for v in nums]
