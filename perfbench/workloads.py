"""Seeded request generators for the three benchmark workloads.

The benchmark owns its inputs: ideals are drawn here, in the shape of the
package's random m-primary generator (a staircase lattice path in d = 2,
pure powers plus interior points in d = 3), without calling the package.
Sizes are fixed constants; only the seed varies.

A workload is a list of request kinds, each with a count per *block*.  One
block holds every kind, shuffled by the seed; a *mix* is ``blocks_per_mix``
blocks and a *pool* is ``mixes_per_pool`` mixes.  The timed run cycles
through the pool, so any prefix of it has about the workload's proportions.
The traced run processes exactly the first mix.

A request kind is a function ``kind(rng, i)`` of the seeded generator and
the running index ``i`` of that kind in the pool.  It returns a ``Request``:
the CLI task, the JSON spec and what the benchmark expects of the report.
Every request runs with the CLI's default ``--seed``: it only picks the
sample points of mixed tables, and their size sets a table's cost, so a
drawn value would add spread without adding coverage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

RADICANDS = (2, 3, 5, 6, 7)


@dataclass
class Request:
    kind: str
    task: str
    spec: dict
    # generators whose colength (or d = 2 multiplicity) the report must show;
    # the benchmark's own oracle is evaluated when the report is checked
    colength_of: list | None = None
    multiplicity_of: list | None = None
    path: str = field(default="", compare=False)


# ---------------------------------------------------------------------------
# Ideal generation and a small independent staircase oracle


def random_ideal(rng: random.Random, dim: int, max_exp: int, corners: int | None = None) -> list[tuple[int, ...]]:
    """Generators of a random m-primary monomial ideal (not minimalized in d = 3).

    In d = 2, ``corners`` (0..3) fixes the number of inner corners of the
    staircase instead of drawing it; request kinds whose cost grows with it
    cycle through its values so that every run sees them in equal shares.
    """
    if dim == 2:
        k = rng.randint(0, min(3, max_exp - 1)) if corners is None else corners
        xs = sorted(rng.sample(range(1, max_exp + 1), k + 1))
        ys = sorted(rng.sample(range(1, max_exp + 1), k + 1), reverse=True)
        return [(0, ys[0])] + list(zip(xs[:-1], ys[1:])) + [(xs[-1], 0)]
    gens = [tuple(rng.randint(1, max_exp) if j == axis else 0 for j in range(dim)) for axis in range(dim)]
    for _ in range(rng.randint(1, 3)):
        gens.append(tuple(rng.randint(1, max_exp) for _ in range(dim)))
    return gens


def _dominates(a, b) -> bool:
    return all(x >= y for x, y in zip(a, b))


def minimal(points) -> list[tuple[int, ...]]:
    """Componentwise-minimal elements, sorted (a staircase sweep in d = 2)."""
    pts = sorted(set(map(tuple, points)))
    if len(pts[0]) == 2:
        stair = []
        for x, y in pts:
            if not stair or y < stair[-1][1]:
                stair.append((x, y))
        return stair
    pts.sort(key=sum)
    kept: list[tuple[int, ...]] = []
    for p in pts:
        if not any(_dominates(p, q) for q in kept):
            kept.append(p)
    return sorted(kept)


def _product(A, B) -> list[tuple[int, ...]]:
    if len(A[0]) != 2:
        return minimal(tuple(a + b for a, b in zip(g, h)) for g in A for h in B)
    lowest: dict[int, int] = {}  # x -> least y among the sums
    for ax, ay in A:
        for bx, by in B:
            x, y = ax + bx, ay + by
            if y < lowest.get(x, y + 1):
                lowest[x] = y
    return minimal(lowest.items())


def ideal_power(gens, k: int) -> list[tuple[int, ...]]:
    """Minimal generators of I^k (k >= 1), by binary powering."""
    base, result = minimal(gens), None
    while k:
        if k & 1:
            result = base if result is None else _product(result, base)
        k >>= 1
        if k:
            base = _product(base, base)
    return result


def _colength_2d(gens) -> int:
    """Standard monomials of an m-primary d = 2 staircase."""
    stair = minimal(gens)  # sorted by x ascending, so y descending
    return sum((b[0] - a[0]) * a[1] for a, b in zip(stair, stair[1:]))


def colength(gens) -> int:
    """Standard monomials of an m-primary ideal in d = 2 or 3 (slab sweep)."""
    gens = minimal(gens)
    if len(gens[0]) == 2:
        return _colength_2d(gens)
    cap = min(g[2] for g in gens if g[0] == 0 and g[1] == 0)
    return sum(_colength_2d([g[:2] for g in gens if g[2] <= z]) for z in range(cap))


def multiplicity_2d(gens) -> Fraction:
    """e(I) = 2 * area under the lower convex hull of the staircase, d = 2."""
    pts = minimal(gens)
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    # twice the area of the trapezoids under the hull
    return Fraction(sum((b[0] - a[0]) * (a[1] + b[1]) for a, b in zip(hull, hull[1:])))


# ---------------------------------------------------------------------------
# Spec helpers


def _ideal(gens) -> dict:
    return {"dim": len(gens[0]), "gens": [list(g) for g in gens]}


def _power(gens) -> dict:
    return {"kind": "power", "ideal": _ideal(gens)}


def _qi(p, q, s) -> dict:
    return {"p": str(p), "q": str(q), "s": s}


# ---------------------------------------------------------------------------
# exact-verify: the paper's Minkowski suite as single requests


def minkowski_d2(rng, i):
    pair = [_power(random_ideal(rng, 2, 5)), _power(random_ideal(rng, 2, 5))]
    return Request("minkowski_d2", "minkowski", {"pair": pair})


def minkowski_d3(rng, i):
    """A d = 3 pair whose ideals both reduce to their three pure powers, with
    exponent vectors of three distinct ratios.

    Pairs in which an interior generator survives are out of the time budget
    at this size, and pairs with fewer distinct ratios cost about a quarter
    as much, which splits the latency distribution in two around p90; both
    are redrawn (see README.md).
    """
    while True:
        pair = [minimal(random_ideal(rng, 3, 4)), minimal(random_ideal(rng, 3, 4))]
        if any(len(gens) != 3 for gens in pair):
            continue
        a, b = ([max(g) for g in sorted(gens, reverse=True)] for gens in pair)
        if len({Fraction(x, y) for x, y in zip(a, b)}) == 3:
            return Request("minkowski_d3", "minkowski", {"pair": [_power(g) for g in pair]})


def integrality_d2(rng, i):
    return Request("integrality_d2", "integrality", {"ideal": _ideal(random_ideal(rng, 2, 6))})


def integrality_d3(rng, i):
    return Request("integrality_d3", "integrality", {"ideal": _ideal(random_ideal(rng, 3, 4))})


def rees_r3(rng, i):
    fs = [_power(random_ideal(rng, 2, 5)) for _ in range(3)]
    spec = {"filtrations": fs, "slot": rng.randint(1, 3)}
    return Request("rees_r3_d2", "rees", spec)


# ---------------------------------------------------------------------------
# numeric-2d: staircase products under the numeric strategy


def numeric_multiplicity(rng, i):
    gens = random_ideal(rng, 2, 6, corners=i % 4)
    # m0 in 5..8 ends the schedule m0 * 2^k <= 64 at 40..64; cost grows with
    # that index, which fills the gaps between the corner counts' costs
    strategy = {"kind": "numeric", "m_max": 64, "m0": rng.randint(5, 8)}
    spec = {"filtration": _power(gens), "strategy": strategy}
    return Request("multiplicity_numeric_d2", "multiplicity", spec, multiplicity_of=gens)


def numeric_mixed(rng, i):
    # at max exponent 6 a few tables build product sets large enough to move
    # the process's peak RSS by 4 MB, so that metric depended on the seed;
    # smaller tables also put more of them, and a steadier p90, in a run
    fs = [_power(random_ideal(rng, 2, 4, corners=c)) for c in (i % 4, i // 4 % 4)]
    spec = {"filtrations": fs, "strategy": {"kind": "numeric", "m_max": 8}}
    return Request("mixed_numeric_d2", "mixed", spec)


def colength_power_d2(rng, i):
    gens = ideal_power(random_ideal(rng, 2, 5, corners=i % 4), rng.randint(30, 50))
    return Request("colength_power_d2", "colength", {"ideal": _ideal(gens)}, colength_of=gens)


# ---------------------------------------------------------------------------
# irrational-3d: quadratic weights, truncations, 3D slabs, Okounkov bodies


def _weights(rng, dim):
    s = rng.choice(RADICANDS)
    ws = [_qi(1, 0, s), _qi(0, 1, s)]
    if dim == 3:
        ws.append(_qi(rng.randint(1, 2), Fraction(1, rng.randint(1, 2)), s))
    return ws


def valuation_d2(rng, i):
    spec = {"filtration": {"kind": "valuation", "weights": _weights(rng, 2)},
            "strategy": {"kind": "numeric", "m_max": 32}}
    return Request("valuation_numeric_d2", "multiplicity", spec)


def valuation_d3(rng, i):
    spec = {"filtration": {"kind": "valuation", "weights": _weights(rng, 3)},
            "strategy": {"kind": "numeric", "m_max": 8}}
    return Request("valuation_numeric_d3", "multiplicity", spec)


def truncate_valuation_d2(rng, i):
    spec = {"filtrations": [{"kind": "valuation", "weights": _weights(rng, 2)}],
            "schedule": [1, 2, 3, 4, 6]}
    return Request("truncate_valuation_d2", "truncate-converge", spec)


def truncate_diagonal_d1(rng, i):
    s = rng.choice(RADICANDS)
    levels = sorted(rng.sample(range(1, 70), 5)) + [70]
    spec = {"filtrations": [{"kind": "diagonal", "rates": [_qi(0, 1, s)]}], "schedule": levels}
    return Request("truncate_diagonal_d1", "truncate-converge", spec)


def hilbert_samuel_d3(rng, i):
    spec = {"filtration": _power(random_ideal(rng, 3, 4)),
            "strategy": {"kind": "exact", "multiplicity_method": "hilbert_samuel"}}
    return Request("hilbert_samuel_d3", "multiplicity", spec)


def colength_power_d3(rng, i):
    gens = ideal_power(random_ideal(rng, 3, 4), rng.randint(4, 8))
    return Request("colength_power_d3", "colength", {"ideal": _ideal(gens)}, colength_of=gens)


def okounkov_d2(rng, i):
    # without inner corners the body is a triangle and the request costs a
    # tenth of the others, splitting the top of the latency distribution
    spec = {"filtration": _power(random_ideal(rng, 2, 5, corners=1 + i % 3)), "m_max": 64}
    return Request("okounkov_d2", "okounkov", spec)


def quasipoly_power_d2(rng, i):
    spec = {"filtrations": [_power(random_ideal(rng, 2, 4))], "period": rng.randint(1, 2)}
    return Request("quasipoly_power_d2", "quasipoly", spec)


def quasipoly_valuation_d2(rng, i):
    """Rational weights, so a power-stability scale is detected: 1 for
    weights (1, 1/2) and 2 for weights (1, 2); the period is that scale."""
    weight, period = rng.choice((("1/2", 1), ("2", 2)))
    spec = {"filtrations": [{"kind": "valuation", "weights": ["1", weight]}], "period": period}
    return Request("quasipoly_valuation_d2", "quasipoly", spec)


# ---------------------------------------------------------------------------
# Workload table


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    block: tuple  # (generator, count per block)
    blocks_per_mix: int
    mixes_per_pool: int

    def mix_counts(self) -> dict[str, int]:
        return {gen.__name__: n * self.blocks_per_mix for gen, n in self.block}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-verify",
            "exact Noetherian path: Minkowski pairs, integrality and Rees checks; 3D covolume dominates",
            ((minkowski_d2, 20), (minkowski_d3, 5),
             (integrality_d2, 2), (integrality_d3, 2), (rees_r3, 4)),
            blocks_per_mix=5,
            mixes_per_pool=20,
        ),
        Workload(
            "numeric-2d",
            "numeric strategy on d=2 power filtrations: staircase products and antichain checks",
            # four colength requests per block put p50 inside their cost
            # range rather than in the gap between the cheap and costly kinds
            ((numeric_multiplicity, 2), (numeric_mixed, 2), (colength_power_d2, 4)),
            blocks_per_mix=20,
            mixes_per_pool=4,
        ),
        Workload(
            "irrational-3d",
            "quadratic weights, truncations, 3D slab colength, Hilbert-Samuel and Okounkov fibers",
            ((valuation_d2, 1), (valuation_d3, 1), (truncate_valuation_d2, 1),
             (truncate_diagonal_d1, 1), (hilbert_samuel_d3, 1), (colength_power_d3, 1),
             (okounkov_d2, 1), (quasipoly_power_d2, 1), (quasipoly_valuation_d2, 1)),
            blocks_per_mix=15,
            mixes_per_pool=20,
        ),
    )
}


def generate(workload: Workload, seed: int) -> list[Request]:
    """The workload's request pool for ``seed``, in run order."""
    rng = random.Random(f"{workload.name}:{seed}")
    pool: list[Request] = []
    for b in range(workload.blocks_per_mix * workload.mixes_per_pool):
        block = [gen(rng, b * n + j) for gen, n in workload.block for j in range(n)]
        rng.shuffle(block)
        pool.extend(block)
    return pool


def mix_size(workload: Workload) -> int:
    return sum(n for _, n in workload.block) * workload.blocks_per_mix
