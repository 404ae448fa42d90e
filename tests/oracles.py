"""Test oracles that reach the engine's exact values by another route."""

from filtmult.staircase import MonomialIdeal, colength, product, unit_ideal

# Powers taken per dimension.  Deep enough for every ideal the tests draw,
# and past the spurious plateau at 58 of the d = 3 ideal (z^3, y^5, x y^2 z,
# x^4), whose d-th differences settle at its multiplicity 59 only later.
FINITE_DIFFERENCE_DEPTH = {1: 6, 2: 10, 3: 14}


def finite_difference_oracle(I: MonomialIdeal) -> int:
    """e(I) as the d-th difference of colength(I^m) at a fixed depth.

    It has no target to stop at and never computes a covolume.  The last
    three differences must agree; otherwise the depth is too small for I.
    """
    d = I.dim
    values = []
    current = unit_ideal(d)
    for _ in range(FINITE_DIFFERENCE_DEPTH[d]):
        current = product(current, I)
        values.append(colength(current))
    for _ in range(d):
        values = [b - a for a, b in zip(values, values[1:])]
    assert values[-1] == values[-2] == values[-3], f"no plateau of three: {values}"
    return values[-1]
