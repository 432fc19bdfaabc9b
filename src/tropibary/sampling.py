"""Seeded random instance generators shared by the test suite and the
verify runner.

Everything is lattice-snapped: weights and coordinates land on the 1/8
grid, so distinct case values differ by at least 1/8 and perturbations
below 1/16 can never flip a strict comparison.  All randomness flows
through `spawn`, which derives an independent stream per label from one
root seed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .core import NEG_INF, ZERO, ConvexParams, Scalar, TropVector
from .geometry import Box
from .measures import FiniteSpace, FunctionTable, IdemMeasure, SpaceMap

LATTICE_STEP = Fraction(1, 8)
# Perturbations stay strictly below the lattice gap.
SAFE_DELTA = Fraction(1, 16)


def spawn(seed: int, tag: str) -> random.Random:
    """Independent deterministic stream for one suite or test."""
    return random.Random(f"{seed}:{tag}")


def dyadic_delta(j: int) -> Fraction:
    return Fraction(1, 2**j)


def random_lattice(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """Uniform pick from the 1/8 grid between lo and hi inclusive."""
    steps = int((hi - lo) / LATTICE_STEP)
    return lo + LATTICE_STEP * rng.randint(0, steps)


def random_weight(rng: random.Random, bottom_rate: float = 0.15) -> Scalar:
    if rng.random() < bottom_rate:
        return NEG_INF
    return random_lattice(rng, Fraction(-2), Fraction(0))


def random_weights(rng: random.Random, n: int, bottom_rate: float = 0.15) -> list[Scalar]:
    """Normalized weight vector: lattice values with a forced zero."""
    weights = [random_weight(rng, bottom_rate) for _ in range(n)]
    weights[rng.randrange(n)] = ZERO
    return weights


def random_space(rng: random.Random, n_max: int = 6) -> FiniteSpace:
    return FiniteSpace(rng.randint(1, n_max))


def random_measure_on_space(rng: random.Random, space: FiniteSpace) -> IdemMeasure:
    return IdemMeasure.from_weights(space, random_weights(rng, space.n))


def random_map(rng: random.Random, source: FiniteSpace, target: FiniteSpace, surjective: bool = False) -> SpaceMap:
    if surjective:
        if source.n < target.n:
            raise ValueError("cannot build a surjection onto a larger space")
        table = list(range(target.n))
        table += [rng.randrange(target.n) for _ in range(source.n - target.n)]
        rng.shuffle(table)
    else:
        table = [rng.randrange(target.n) for _ in range(source.n)]
    return SpaceMap(source, target, table)


def random_params(rng: random.Random, bottom_rate: float = 0.1) -> ConvexParams:
    if rng.random() < bottom_rate:
        tau = NEG_INF
    else:
        tau = random_lattice(rng, Fraction(-2), Fraction(0))
    if rng.random() < 0.5:
        return ConvexParams(tau, 0)
    return ConvexParams(0, tau)


def standard_box(dim: int) -> Box:
    return Box(TropVector([-2] * dim), TropVector([0] * dim))


def random_box(rng: random.Random, dim: int) -> Box:
    """Lattice-aligned box inside [-2, 0]^dim with side at least 1/2."""
    lows, highs = [], []
    for _ in range(dim):
        lo = random_lattice(rng, Fraction(-2), Fraction(-1, 2))
        hi = random_lattice(rng, lo + Fraction(1, 2), Fraction(0))
        lows.append(lo)
        highs.append(hi)
    return Box(TropVector(lows), TropVector(highs))


def random_point(rng: random.Random, box: Box) -> TropVector:
    coords = []
    for j in range(box.dim):
        lo, hi = box.interval(j)
        coords.append(random_lattice(rng, lo, hi))
    return TropVector(coords)


def random_point_measure(rng: random.Random, box: Box, k_max: int = 4) -> IdemMeasure:
    k = rng.randint(1, k_max)
    points = []
    while len(points) < k:
        p = random_point(rng, box)
        if p not in points:
            points.append(p)
    weights = random_weights(rng, k, bottom_rate=0.0)
    return IdemMeasure(list(zip(points, weights)))


def random_function_table(rng: random.Random, space: FiniteSpace) -> FunctionTable:
    """Finite-valued test function on the 1/8 grid; tables model
    continuous functions, so no bottoms here."""
    vals = [random_lattice(rng, Fraction(-2), Fraction(2)) for _ in range(space.n)]
    return FunctionTable(space, vals)


def perturb_weights_toward_zero(
    rng: random.Random, mu: IdemMeasure, delta: Fraction
) -> IdemMeasure:
    """Nudge some strictly negative weights up by dyadic shares of delta.

    Zeros and bottoms stay put, and the nudge is capped by SAFE_DELTA so
    lattice-separated comparisons keep their direction.  The result is a
    valid target for the combination lifts at distance O(delta).
    """
    cap = min(delta, SAFE_DELTA)
    pairs = []
    for atom, w in mu.atoms:
        if w is not NEG_INF and w < ZERO and rng.random() < 0.5:
            amount = cap * rng.randint(1, 8) / 8
            pairs.append((atom, w + amount))
        else:
            pairs.append((atom, w))
    return IdemMeasure(pairs, space=mu.space)


def weight_grid(lo: Fraction = Fraction(-1)) -> list[Scalar]:
    """The exhaustive grid used by the fiber sweep: -inf, then 1/8 steps
    from lo to 0."""
    steps = int(-lo / LATTICE_STEP)
    return [NEG_INF] + [lo + LATTICE_STEP * k for k in range(steps + 1)]


def normalized_pairs(grid: list[Scalar]) -> list[tuple[Scalar, Scalar]]:
    """All weight pairs from the grid with max equal to 0."""
    out = []
    for a in grid:
        for b in grid:
            if max(a, b) == ZERO:
                out.append((a, b))
    return out


def lattice_targets_near(point: TropVector, box: Box, delta: Fraction) -> list[TropVector]:
    """Candidate targets near an image point, most-moved first.

    Per coordinate the candidates step by delta toward the center of the
    box, away from it (when in bounds), or stay put.  The caller keeps
    the first candidate its lift accepts; the unmoved point comes last,
    so an exact fallback is always available.
    """
    moves: list[list[Scalar]] = []
    for j in range(box.dim):
        lo, hi = box.interval(j)
        c = point[j]
        center = (lo + hi) / 2
        inward = delta if c <= center else -delta
        options = []
        for step in (inward, -inward):
            if lo <= c + step <= hi and c + step != c:
                options.append(c + step)
        options.append(point[j])
        moves.append(options)
    seen = set()
    picks: list[TropVector] = []
    for combo in itertools.product(*moves):
        cand = TropVector(combo)
        if cand not in seen:
            seen.add(cand)
            picks.append(cand)
    picks.sort(
        key=lambda v: sum(v[j] != point[j] for j in range(box.dim)),
        reverse=True,
    )
    return picks
