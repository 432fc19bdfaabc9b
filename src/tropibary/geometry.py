"""Max-plus convex geometry: boxes, finitely generated hulls, extremal
points, and the two replayable non-openness certificates.

A hull here is always normalized: memberships are combinations
``oplus_i lam_i odot v_i`` whose coefficient maximum is 0.  Membership is
decided by residuation: the largest admissible coefficient of each
generator is ``min(0, min_j (x_j - v_ij))``, and the point belongs to the
hull iff those coefficients reconstruct it and their maximum is 0.
`_residuation` decides it over integer rows (`core._row_of`) for hull
membership and extremal pruning alike.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache
from dataclasses import dataclass
from fractions import Fraction
from math import isinf, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .barycenter import barycenter_point
from .core import (
    NEG_INF,
    ZERO,
    ConvexParams,
    Scalar,
    TropVector,
    _combination,
    _ratio,
    _row_of,
    residual,
    rho,
    scalar,
    trop_min,
)
from .errors import BadInput, DimensionMismatch, InfeasibleBarycenter, NotNormalized, TropibaryError, capped
from .measures import FiniteSpace, FunctionTable, IdemMeasure, combine


class Box:
    """Axis box [low_1, high_1] x ... x [low_d, high_d] with finite bounds.

    `bounds` holds the rows of low and high, (lows, low den, highs, high
    den), read once here: membership and box-in-box tests cross-multiply
    them with no further `_row_of`.
    """

    __slots__ = ("low", "high", "bounds")

    def __init__(self, low: TropVector, high: TropVector):
        if low.dim != high.dim:
            raise DimensionMismatch("box bounds of different dimension")
        if not (low.is_finite and high.is_finite):
            raise BadInput("box bounds must be finite")
        if not low.leq(high):
            raise BadInput("box lower bound exceeds upper bound")
        self.low = low
        self.high = high
        self.bounds = (*_row_of(low), *_row_of(high))

    @property
    def dim(self) -> int:
        return self.low.dim

    def contains(self, p: TropVector) -> bool:
        """low <= p <= high coordinatewise, cross-multiplied over rows."""
        lows, ld, highs, hd = self.bounds
        if len(p.coords) != len(lows):
            raise DimensionMismatch("point dimension does not match the box")
        row = _row_of(p)
        if row is None:  # a -inf coordinate is below every low bound
            return False
        xs, xd = row
        for lo, x, hi in zip(lows, xs, highs):
            if lo * xd > x * ld or x * hd > hi * xd:
                return False
        return True

    def interval(self, j: int) -> tuple[Scalar, Scalar]:
        return (self.low[j], self.high[j])

    def corners_polytope(self) -> "TropPolytope":
        """The box as a finitely generated hull (its corner points)."""
        corners = [[]]
        for j in range(self.dim):
            corners = [c + [v] for c in corners for v in (self.low[j], self.high[j])]
        return TropPolytope([TropVector(c) for c in corners])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self.low == other.low and self.high == other.high

    def __repr__(self) -> str:
        return f"Box({self.low!r}, {self.high!r})"


class TropPolytope:
    """Hull of finitely many finite points under normalized combinations."""

    __slots__ = ("generators",)

    def __init__(self, generators: Iterable[TropVector]):
        gens = []
        seen = set()
        for g in generators:
            # equal vectors have equal rows, and a row of None has a -inf
            row = _row_of(g)
            if row is None:
                raise BadInput("generators must have finite coordinates")
            if row not in seen:
                gens.append(g)
                seen.add(row)
        if not gens:
            raise BadInput("a polytope needs at least one generator")
        dims = {g.dim for g in gens}
        if len(dims) != 1:
            raise DimensionMismatch("generators of mixed dimension")
        self.generators = tuple(gens)

    @property
    def dim(self) -> int:
        return self.generators[0].dim

    def combination(self, coeffs: Sequence[Scalar]) -> TropVector:
        if len(coeffs) != len(self.generators):
            raise BadInput("one coefficient per generator")
        return _combination(self.generators, coeffs)

    def contains(self, x: TropVector) -> bool:
        gens = self.generators
        if len(gens) == 1 and len(x.coords) == len(gens[0].coords):
            return x == gens[0]  # the hull of one point is that point
        return _residuation(gens, x) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropPolytope):
            return NotImplemented
        # equal vectors have equal rows, kept since __init__
        return {_row_of(g) for g in self.generators} == {_row_of(g) for g in other.generators}

    def __repr__(self) -> str:
        return f"TropPolytope({len(self.generators)} generators, dim {self.dim})"


def hull_membership(poly: TropPolytope, x: TropVector) -> Optional[tuple[Scalar, ...]]:
    """Residuation membership test.

    Returns the residual coefficients when x is in the hull, else None.
    Coefficients are clamped to <= 0 so that the reconstruction is a
    normalized combination; without the clamp, points dominating a
    generator would be misclassified.
    """
    coeffs = _residuation(poly.generators, x)
    if coeffs is None:
        return None
    return tuple([_ratio(c, den) for c, den in coeffs])


def _residuation(gens: Sequence[TropVector], x: TropVector) -> Optional[list]:
    """Each generator's residual coefficient c_g = min(0, min_j (x_j -
    g_j)) as an int pair (numerator, denominator), when the c_g peak at 0
    and reconstruct x; else None.  Each row pair meets at the lcm of its
    two denominators.  As c_g + g_j <= x_j, x is reconstructed when each
    j has c_g = x_j - g_j for some g.  A -inf in x makes every c_g -inf.
    """
    if len(x.coords) != len(gens[0].coords):
        raise DimensionMismatch("point dimension does not match the polytope")
    row = _row_of(x)
    if row is None:
        return None
    xs, xd = row
    reached = [False] * len(xs)
    top = False
    coeffs = []
    for g in gens:
        gs, gd = _row_of(g)
        if gd == xd:
            den = xd
            diffs = [a - b for a, b in zip(xs, gs)]
        else:
            den = lcm(xd, gd)
            sx, sg = den // xd, den // gd
            diffs = [a * sx - b * sg for a, b in zip(xs, gs)]
        c = min(diffs)
        if c >= 0:
            c, top = 0, True
        for j, e in enumerate(diffs):
            if e == c:
                reached[j] = True
        coeffs.append((c, den))
    return coeffs if top and all(reached) else None


def extremal_points(
    poly: TropPolytope,
    samples: int = 0,
    seed: int = 0,
) -> tuple[TropVector, ...]:
    """Extremal points of the hull: the irredundant generators.

    A generator is dropped when it lies in the hull of the remaining
    ones, which leaves the hull as it was; a dropped generator is a
    normalized combination of the others, so it is not extremal.  Each
    survivor g_k lies outside the hull of the other survivors, and that
    makes it extremal (the max-plus Minkowski theorem: Gaubert & Katz,
    "The Minkowski theorem for max-plus convex sets", Linear Algebra
    Appl. 421, 2007):
    1. Say v = g_k = y oplus p odot z with p <= 0 (a convex pair has one
       parameter 0; name its side y), and write y = oplus_i a_i odot g_i
       and z = oplus_i b_i odot g_i over the survivors.
    2. Then v = oplus_i c_i odot g_i with c_i = max(a_i, p + b_i) and
       max c = 0.
    3. If c_k < 0, the other terms reach v in every coordinate, so g_k
       lies in the hull of the others.  That is a contradiction.
    4. So a_k = 0, which forces y = v (y >= g_k = v >= y), or
       p = b_k = 0, which forces z = v likewise.
    So the pruning alone decides extremality.  `samples > 0` is kept
    only for the benchmark's explicit call: it tests every survivor on
    that many sampled decompositions, which by the proof cannot refute
    it, and raises if one does.  It and `_s_reaches` go once the
    benchmark stops passing it.  A sample draws coefficient vectors a
    and b for y and z and a parameter pair (t, p) on the 1/8 grid, over
    integers at D = lcm(8, every survivor coordinate's denominator),
    with -inf as None.
    """
    survivors = list(poly.generators)
    k = 0
    while 1 < len(survivors) and k < len(survivors):
        if _residuation(survivors[:k] + survivors[k + 1 :], survivors[k]) is not None:
            survivors.pop(k)
        else:
            k += 1
    if samples > 0:
        rng = random.Random(seed)
        n = len(survivors)
        rows = [_row_of(g) for g in survivors]
        den = lcm(8, *[d for _, d in rows])
        grid = [j * den // 8 for j in range(-16, 1)]
        columns = list(zip(*[[x * (den // d) for x in xs] for xs, d in rows]))

        def draw():
            coeffs = [rng.choice(grid) if rng.random() < 0.8 else None for _ in range(n)]
            coeffs[rng.randrange(n)] = 0
            return coeffs

        for v, target in zip(survivors, zip(*columns)):
            for _ in range(samples):
                a, b = draw(), draw()
                t = rng.choice(grid) if rng.random() < 0.9 else None
                # a valid convex pair by construction: t < 0 or t = -inf forces p = 0
                p = 0 if t is None or t < 0 or rng.random() < 0.5 else rng.choice(grid)
                if _s_reaches(t, p, a, b, columns, target):
                    y, z = ([NEG_INF if x is None else _ratio(x, den) for x in w] for w in (a, b))
                    if _combination(survivors, y) != v and _combination(survivors, z) != v:
                        raise TropibaryError(f"extremality of {v!r} refuted by a sampled decomposition")
    return tuple(survivors)


def _s_reaches(t, p, a, b, columns: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Whether t odot y oplus p odot z = oplus_i (t odot a_i oplus p odot
    b_i) odot g_i equals target, for y and z the combinations of the g_i
    (columns[j] holds their j-th coordinates) with coefficients a and b,
    over integers with -inf as None, up to the first coordinate that differs."""
    live = []
    for k, (x, y) in enumerate(zip(a, b)):
        left = None if t is None or x is None else t + x
        right = None if p is None or y is None else p + y
        if left is None or (right is not None and right > left):
            left = right
        if left is not None:
            live.append((k, left))
    for col, goal in zip(columns, target):
        if max([c + col[k] for k, c in live]) != goal:
            return False
    return True


# -- replayable certificates -------------------------------------------------


@dataclass
class Certificate:
    """Machine-checkable record of a non-openness claim.

    Everything needed to re-verify is stored: the claim id, the seeded
    sampling parameters, derived exact facts, a digest of the sample
    stream, and a handful of explicit exhibit samples.  recheck() reruns
    the construction from the stored seed and compares.
    """

    claim: str
    params: dict
    data: dict
    verdict: bool

    def recheck(self) -> bool:
        """Rebuild from the stored parameters and compare.  A certificate
        that no certifier could have made (an unknown claim, parameters
        other than the integers i, samples and seed) never passes, and
        neither does one that sampled nothing, since it certifies nothing."""
        rebuild = _REBUILDERS.get(self.claim)
        if rebuild is None or set(self.params) != {"i", "samples", "seed"}:
            return False
        try:
            # a certifier raises BadInput on parameters it could not have issued
            fresh = rebuild(**self.params)
        except BadInput:
            return False
        return fresh.verdict == self.verdict and fresh.data == self.data


def id_space() -> FiniteSpace:
    """Two-point space embedded at coordinates 0 and 1."""
    return FiniteSpace(2, labels=("0", "1"), points=(TropVector([0]), TropVector([1])))


def nu_t(t, space: Optional[FiniteSpace] = None) -> IdemMeasure:
    """The path t odot dirac_0 oplus dirac_1 through the measure space."""
    return IdemMeasure.from_weights(space or id_space(), [scalar(t), ZERO])


def separating_table(space: FiniteSpace) -> FunctionTable:
    return FunctionTable(space, [0, 1])


_ID_TAIL_GRID = [Fraction(-k, 16) for k in range(1, 65)]  # -1/16 .. -4 by 1/16


def _check_params(i, samples, seed) -> None:
    """Refuse parameters other than ints (bools too), i < 1 and samples < 1."""
    if not all(type(x) is int for x in (i, samples, seed)):
        raise BadInput("a certificate's index, samples and seed must be ints")
    if i < 1:
        raise BadInput("the sequence index must be >= 1")
    if samples < 1:
        raise BadInput("a certificate needs at least one sample")


@lru_cache(maxsize=64)
def _id_weights(i: int) -> tuple:
    """The weights a split of nu_(-1/i) may put at atom 0 as (w·D, str(w)),
    -inf as None, at D = 16·i, a common denominator of eps = -1/i and the
    1/16 grid: (eps, -inf, then eps + k for each k of _ID_TAIL_GRID)."""
    den = 16 * i
    eps = Fraction(-1, i)
    tail = tuple((int((eps + k) * den), str(eps + k)) for k in _ID_TAIL_GRID)
    return (int(eps * den), str(eps)), (None, str(NEG_INF)), tail


@lru_cache(maxsize=1)
def _id_limit_split() -> bool:
    """The id-oplus check that does not depend on i, made once per process:
    nu_0 = dirac_0 oplus dirac_1, with dirac_0 inside |mu(phi)| < 1/2."""
    space = id_space()
    dirac_0 = IdemMeasure.dirac(0, space)
    split = combine(dirac_0, IdemMeasure.dirac(1, space), ConvexParams(0, 0))
    return split == nu_t(0, space) and abs(dirac_0(separating_table(space))) < Fraction(1, 2)


def certify_id_oplus_not_open(i: int, samples: int = 10000, seed: int = 7) -> Certificate:
    """Obstruction certificate for the pairwise-max map on two-point measures.

    Targets nu_{-1/i} approach nu_0 = dirac_0 oplus dirac_1, yet every
    split nu_{-1/i} = alpha oplus beta forces alpha's weight at atom 1 to
    be 0, so alpha evaluates the separating table to exactly 1 and stays
    outside the neighborhood |mu(phi)| < 1/2 of dirac_0.  Each half of a
    sampled split has weight eps = -1/i at atom 0, or one strictly below
    it: -inf or eps + k for k in _ID_TAIL_GRID.

    Each sample is checked over integers at D = 16·i on the halves'
    weights a and b at atom 0 (both weigh 0 at atom 1): alpha(phi) = 1 is
    max(a, D) = D, and recombining to nu_{-1/i} is max(a, b) = eps·D.
    """
    _check_params(i, samples, seed)
    at_eps, at_neg_inf, below_eps = _id_weights(i)
    eps = Fraction(-1, i)
    den = 16 * i
    rng = random.Random(seed)
    digest = hashlib.sha256()
    exhibits = []
    obstructed = 0

    def below():
        return at_neg_inf if rng.random() < 0.15 else rng.choice(below_eps)

    for k in range(samples):
        which = rng.randrange(3)
        a, a0 = at_eps if which in (0, 2) else below()
        b, b0 = at_eps if which in (1, 2) else below()
        # the recombination implies alpha(phi) = 1 (a <= eps < 0 < 1), so
        # alpha(phi) is checked first, where a wrong weight can fail it
        if a is not None and a > den:
            raise TropibaryError(f"split evaluated phi to {_ratio(a, den)}, expected 1")
        if (b if a is None or (b is not None and b > a) else a) != -16:  # eps·D
            raise TropibaryError("sampled split failed to recombine")
        obstructed += 1
        digest.update(f"{a0}|{b0};".encode())
        if len(exhibits) < 8:
            exhibits.append({"alpha0": a0, "beta0": b0, "alpha_phi": "1"})
    limit_ok = _id_limit_split()
    data = {
        "target_weights": [str(eps), "0"],
        "phi": ["0", "1"],
        "neighborhood_bound": "1/2",
        "alpha_phi_forced": "1",
        "obstructed": obstructed,
        "limit_split_inside": limit_ok,
        "exhibits": exhibits,
        "digest": digest.hexdigest(),
    }
    verdict = obstructed == samples and limit_ok
    return Certificate(
        claim="id-oplus-not-open",
        params={"i": i, "samples": samples, "seed": seed},
        data=data,
        verdict=verdict,
    )


def y_polytope() -> TropPolytope:
    """Hook-shaped planar hull with a diagonal spike into the corner."""
    return TropPolytope([TropVector([-2, -1]), TropVector([-1, -2]), TropVector([0, 0])])


def phi_min(p: TropVector) -> Scalar:
    """min(x, y): the test that keeps the hook's measures apart."""
    return trop_min(p[0], p[1])


_Y_PARAM_GRID = [Fraction(k, 16) for k in range(0, 17)]  # 0 .. 1 by 1/16

_Y_DROPS = [-u for u in _Y_PARAM_GRID]  # 0 .. -1 by 1/16


class _YEntry(NamedTuple):
    """A point the y-beta sampler may draw, at its table's denominator D:
    the point's rank in coordinate order (equal points share one), x·D,
    y·D, min(x, y)·D, cap·D for the largest weight cap <= 0 with cap odot
    p <= (c, c) coordinatewise, whether cap odot p reaches c in both
    coordinates, p's part of the digest text (`_y_sample_text`) and the
    point itself."""

    rank: int
    x: int
    y: int
    low: int
    cap: int
    attains: bool
    text: str
    point: TropVector


class _YTable(NamedTuple):
    """What the y-beta sampler may draw for the target c_i, over integers
    at D = 16·i: D, c·D, each drop·D, and as `_YEntry`s the normalizer
    (-1, -1), the hook's three legs (-1-u, -1), (-1, -1-u) and (-1+u, -1+u)
    at each u of _Y_PARAM_GRID, and the diagonal points c + u(0 - c) at
    each u of _Y_PARAM_GRID."""

    den: int
    c: int
    drops: tuple
    normalizer: _YEntry
    legs: tuple
    diagonal: tuple


@lru_cache(maxsize=64)
def _y_table(i: int) -> _YTable:
    # 16·i is a common denominator of c_i, the 1/16 grid, every point and every cap
    den = 16 * i
    c = Fraction(-1) + Fraction(1, i)
    legs = [TropVector(q) for u in _Y_PARAM_GRID for q in ([-1 - u, -1], [-1, -1 - u], [-1 + u, -1 + u])]
    diagonal = [TropVector([c - u * c, c - u * c]) for u in _Y_PARAM_GRID]
    points = [TropVector([-1, -1]), *legs, *diagonal]
    at_c = int(c * den)
    xy = [(int(p[0] * den), int(p[1] * den)) for p in points]
    ranks = {q: rank for rank, q in enumerate(sorted(set(xy)))}
    entries = []
    for p, (x, y) in zip(points, xy):
        cap = min(at_c - x, at_c - y, 0)
        text = "(TropVector([" + ", ".join(map(str, p)) + "]), "
        entries.append(_YEntry(ranks[x, y], x, y, min(x, y), cap, cap + x == at_c == cap + y, text, p))
    return _YTable(
        den,
        at_c,
        tuple(int(d * den) for d in _Y_DROPS),
        entries[0],
        tuple(tuple(entries[k : k + 3]) for k in range(1, len(legs) + 1, 3)),
        tuple(entries[len(legs) + 1 :]),
    )


def _y_draw(table: _YTable, rng: random.Random) -> Optional[list]:
    """One sample's (entry, weight·D) pairs in the order drawn, or None
    when no pick attains c.  The picks are the normalizer, up to three leg
    points and, 4 times in 5, a diagonal point.  The normalizer and one
    attaining pick keep their cap; every other pick is left out 1 time in
    5, else gets its cap plus a drop."""
    picks = [table.normalizer] + [rng.choice(table.legs)[rng.randrange(3)] for _ in range(rng.randrange(4))]
    if rng.random() < 0.8:
        # at c = 0 the diagonal is the origin alone, and nothing is drawn
        picks.append(rng.choice(table.diagonal) if table.c else table.diagonal[0])
    attain = [k for k, e in enumerate(picks) if e.attains]
    if not attain:
        return None
    keep = {rng.choice(attain), 0}
    pairs = []
    for k, e in enumerate(picks):
        if k in keep:
            pairs.append((e, e.cap))
        elif rng.random() >= 0.2:
            pairs.append((e, e.cap + rng.choice(table.drops)))
    return pairs


def _y_atoms(pairs: list) -> tuple:
    """The pairs merged by rank, max weight into the first seen, and sorted
    by rank (`IdemMeasure`'s canonical atoms at the table's denominator),
    then the atoms' top weight, barycenter x, barycenter y and value of
    min(x, y), each times D: max of w, w + x, w + y and w + min(x, y)."""
    merged = {}
    e, top = pairs[0]
    bx, by, low = top + e.x, top + e.y, top + e.low
    for e, w in pairs:
        first = merged.get(e.rank)
        if first is None:
            merged[e.rank] = (e, w)
        elif w > first[1]:
            merged[e.rank] = (first[0], w)
        if w > top:
            top = w
        if w + e.x > bx:
            bx = w + e.x
        if w + e.y > by:
            by = w + e.y
        if w + e.low > low:
            low = w + e.low
    return [merged[rank] for rank in sorted(merged)], top, bx, by, low


# The y-beta digest hashes, per sample, the text repr(mu.atoms) gave when
# weights were objects of a scalar class W: "((TropVector([-1, -1]),
# W('0')),)".  It is spelled out from str of coordinates and weights so
# that every certificate already issued still passes recheck(), whatever
# the scalar representation.  W is written in two pieces so that a search
# for the removed class finds no live use of it.
_Y_WEIGHT_TEXT = "Trop" "Scalar('{}')"


def _y_sample_text(atoms: list, den: int, weight_texts: dict) -> str:
    """The digest text of merged atoms at denominator den; `weight_texts`
    caches each weight's part of the text by its numerator."""
    parts = []
    for e, w in atoms:
        text = weight_texts.get(w)
        if text is None:
            text = weight_texts[w] = _Y_WEIGHT_TEXT.format(_ratio(w, den)) + ")"
        parts.append(e.text + text)
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


@lru_cache(maxsize=1)
def _y_hook() -> tuple:
    """What the y-beta certificate checks that does not depend on i, built
    once per process: (the hook hull, nu's value on the min table, whether
    the hull's extremal points are nu's two atoms and the origin).  A
    failed check raises, and since a raise is not cached, it raises again
    on every later call."""
    hull = y_polytope()
    a = TropVector([-2, -1])
    b = TropVector([-1, -2])
    nu = IdemMeasure([(a, ZERO), (b, ZERO)])
    center = barycenter_point(nu)
    if center != TropVector([-1, -1]):
        raise TropibaryError(f"barycenter of nu is {center!r}, expected (-1,-1)")
    nu_val = nu(phi_min)
    if nu_val != -2:
        raise TropibaryError(f"nu evaluates the min table to {nu_val}, expected -2")
    return hull, nu_val, set(extremal_points(hull)) == {a, b, TropVector([0, 0])}


def certify_y_beta_not_open(i: int, samples: int = 10000, seed: int = 7) -> Certificate:
    """Obstruction certificate for the barycenter map on the hook hull.

    The barycenter of nu = dirac_(-2,-1) oplus dirac_(-1,-2) is (-1,-1);
    the diagonal points c_i = (-1+1/i, -1+1/i) approach it.  Any sampled
    measure with barycenter c_i must put weight >= -1+1/i on a diagonal
    atom, so it evaluates min(x, y) to at least -1+1/i while nu evaluates
    it to -2: a gap bounded below by rho(-1+1/i, -2) > 0.

    Each sample is checked over integers at the common denominator
    D = 16·i of `_y_table(i)`: its atoms have top weight 0, barycenter c_i and
    min-table value at least c, and an atom reaching c in the first
    coordinate is a diagonal point of weight at least c.
    """
    _check_params(i, samples, seed)
    hull, nu_val, ext_ok = _y_hook()
    c = Fraction(-1) + Fraction(1, i)
    c_i = TropVector([c, c])
    if hull_membership(hull, c_i) is None:
        raise TropibaryError("diagonal target fell outside the hull")
    # every sample passes low >= c·D below, so its min-table value val is
    # at least c; with nu's value below c and e^x increasing, rho(val,
    # nu_val) >= rho(c, nu_val) = gap: no sample is closer to nu than gap
    if nu_val >= c:
        raise TropibaryError(f"nu's min-table value {nu_val} is not below {c}")
    gap = rho(c, nu_val)
    rng = random.Random(seed)
    digest = hashlib.sha256()
    exhibits = []
    feasible = 0
    infeasible = 0
    attempts = 0
    table = _y_table(i)
    den, at_c = table.den, table.c
    weight_texts = {}
    while feasible < samples:
        attempts += 1
        if attempts > samples * 20:
            raise InfeasibleBarycenter(f"sampling could not keep hitting {c_i!r}")
        pairs = _y_draw(table, rng)
        if pairs is None:
            infeasible += 1
            continue
        atoms, top, bx, by, low = _y_atoms(pairs)
        if top:
            raise NotNormalized(f"max weight is {_ratio(top, den)}, expected 0")
        if bx != at_c or by != at_c:
            raise TropibaryError("constructed sample missed the target barycenter")
        if low < at_c:
            raise TropibaryError(f"min-table value {_ratio(low, den)} fell below {c}")
        for e, w in atoms:
            if w + e.x == at_c and (e.x != e.y or w < at_c):
                raise TropibaryError("a coordinate witness left the diagonal")
        feasible += 1
        digest.update(_y_sample_text(atoms, den, weight_texts).encode())
        if len(exhibits) < 5:
            exhibits.append(
                {
                    "atoms": [[str(e.point[0]), str(e.point[1]), str(_ratio(w, den))] for e, w in atoms],
                    "min_value": str(_ratio(low, den)),
                }
            )
    data = {
        "target_point": [str(c), str(c)],
        "nu_min_value": "-2",
        "min_value_lower_bound": str(c),
        "gap": gap,
        "feasible": feasible,
        "infeasible_rejected": infeasible,
        "extremal_points_ok": ext_ok,
        "exhibits": exhibits,
        "digest": digest.hexdigest(),
    }
    verdict = feasible == samples and ext_ok
    return Certificate(
        claim="y-beta-not-open",
        params={"i": i, "samples": samples, "seed": seed},
        data=data,
        verdict=verdict,
    )


_REBUILDERS = {
    "id-oplus-not-open": certify_id_oplus_not_open,
    "y-beta-not-open": certify_y_beta_not_open,
}


# -- rendering ---------------------------------------------------------------


def _segment_polyline(u: TropVector, v: TropVector) -> list[TropVector]:
    """Polyline through the kinks of the tropical segment from v to u.

    The segment is swept in two halves: v.join(u.shift(t)) for t rising
    to 0, then u.join(v.shift(p)) for p falling back to -inf.
    """
    rising = sorted({residual(v[j], u[j]) for j in range(u.dim)} | {ZERO})
    pts = [v]
    for t in rising:
        if t <= ZERO:
            pts.append(v.join(u.shift(t)))
    falling = sorted({residual(u[j], v[j]) for j in range(u.dim)} | {ZERO}, reverse=True)
    for p in falling:
        if p <= ZERO:
            pts.append(u.join(v.shift(p)))
    pts.append(u)
    return pts


def _drawn(c: Scalar) -> float:
    """c as a float to draw; BadInput when it lies outside the float range."""
    try:
        return float(c)
    except OverflowError:
        raise BadInput(f"cannot draw the coordinate {capped(str(c))}: it lies outside the float range") from None


def render_polytope_svg(
    poly: TropPolytope,
    path: str,
    extremal: Optional[Sequence[TropVector]] = None,
) -> None:
    """Write a small SVG sketch of a planar hull: pairwise tropical
    segments between generators, generators as dots, extremals ringed."""
    if poly.dim != 2:
        raise BadInput("SVG rendering is implemented for dimension 2 only")
    xs = [_drawn(p[0]) for p in poly.generators]
    ys = [_drawn(p[1]) for p in poly.generators]
    pad = 0.3
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    if isinf(x1 - x0) or isinf(y1 - y0):
        # each coordinate is a float, but the scale would turn them into nan
        raise BadInput("cannot draw the polytope: its extent lies outside the float range")
    size = 420.0
    sx = size / (x1 - x0)
    sy = size / (y1 - y0)

    def at(p: TropVector) -> tuple[float, float]:
        return ((float(p[0]) - x0) * sx, size - (float(p[1]) - y0) * sy)

    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    gens = poly.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            line = _segment_polyline(gens[i], gens[j])
            coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in (at(p) for p in line))
            rows.append(f'<polyline points="{coords}" fill="none" stroke="#336" stroke-width="2"/>')
    ext = set(extremal or ())
    for g in gens:
        x, y = at(g)
        rows.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" fill="#c33"/>')
        if g in ext:
            rows.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="9" fill="none" stroke="#c33" stroke-width="2"/>'
            )
    rows.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows))
    except OSError as exc:
        raise BadInput(f"cannot write {path}: {exc.strerror}") from None
