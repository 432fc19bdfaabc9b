"""Max-plus convex geometry: boxes, finitely generated hulls, extremal
points, and the two replayable non-openness certificates.

A hull here is always normalized: memberships are combinations
``oplus_i lam_i odot v_i`` whose coefficient maximum is 0.  Membership is
decided by residuation: the largest admissible coefficient of each
generator is ``min(0, min_j (x_j - v_ij))``, and the point belongs to the
hull iff those coefficients reconstruct it and their maximum is 0.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache, reduce
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .barycenter import barycenter_point
from .core import (
    NEG_INF,
    ZERO,
    ConvexParams,
    Scalar,
    TropVector,
    _cmp,
    _combination,
    _dot,
    _ratio,
    odot,
    oplus,
    oplus_all,
    residual,
    rho,
    scalar,
    trop_min,
)
from .errors import BadInput, DimensionMismatch, InfeasibleBarycenter, NotNormalized, TropibaryError
from .measures import FiniteSpace, FunctionTable, IdemMeasure, combine


class Box:
    """Axis box [low_1, high_1] x ... x [low_d, high_d] with finite bounds."""

    __slots__ = ("low", "high")

    def __init__(self, low: TropVector, high: TropVector):
        if low.dim != high.dim:
            raise DimensionMismatch("box bounds of different dimension")
        if not (low.is_finite and high.is_finite):
            raise BadInput("box bounds must be finite")
        if not low.leq(high):
            raise BadInput("box lower bound exceeds upper bound")
        self.low = low
        self.high = high

    @property
    def dim(self) -> int:
        return self.low.dim

    def contains(self, p: TropVector) -> bool:
        if p.dim != self.dim:
            raise DimensionMismatch("point dimension does not match the box")
        return self.low.leq(p) and p.leq(self.high)

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
            if not g.is_finite:
                raise BadInput("generators must have finite coordinates")
            if g not in seen:
                gens.append(g)
                seen.add(g)
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
        return hull_membership(self, x) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropPolytope):
            return NotImplemented
        return set(self.generators) == set(other.generators)

    def __repr__(self) -> str:
        return f"TropPolytope({len(self.generators)} generators, dim {self.dim})"


def hull_membership(poly: TropPolytope, x: TropVector) -> Optional[tuple[Scalar, ...]]:
    """Residuation membership test.

    Returns the residual coefficients when x is in the hull, else None.
    Coefficients are clamped to <= 0 so that the reconstruction is a
    normalized combination; without the clamp, points dominating a
    generator would be misclassified.
    """
    if x.dim != poly.dim:
        raise DimensionMismatch("point dimension does not match the polytope")
    coeffs = [reduce(trop_min, map(residual, x.coords, g.coords), ZERO) for g in poly.generators]
    if _cmp(oplus_all(coeffs), ZERO):
        return None
    if poly.combination(coeffs) != x:
        return None
    return tuple(coeffs)


def extremal_points(
    poly: TropPolytope,
    samples: int = 0,
    seed: int = 0,
) -> tuple[TropVector, ...]:
    """Extremal points of the hull: the irredundant generators.

    A generator is dropped when it lies in the hull of the remaining
    ones.  With samples > 0, every survivor is additionally tested
    against the decomposition definition on sampled combinations; a
    refutation would indicate an internal inconsistency and raises.
    A sample draws coefficient vectors a and b for y and z and a
    parameter pair (t, p); since odot distributes over oplus,
    s(y, z) = t odot y oplus p odot z is the one combination
    oplus_i (t odot a_i oplus p odot b_i) odot g_i of the generators g_i.
    That combination is compared with the survivor a coordinate at a
    time, and y and z are built only when it equals the survivor.
    """
    survivors = list(poly.generators)
    k = 0
    while k < len(survivors):
        if len(survivors) == 1:
            break
        rest = survivors[:k] + survivors[k + 1 :]
        if hull_membership(TropPolytope(rest), survivors[k]) is not None:
            survivors.pop(k)
        else:
            k += 1
    if samples > 0:
        rng = random.Random(seed)
        grid = [Fraction(n, 8) for n in range(-16, 1)]
        sub = TropPolytope(survivors)
        for v in survivors:
            for _ in range(samples):
                a = _random_coeffs(sub, rng, grid)
                b = _random_coeffs(sub, rng, grid)
                t = rng.choice(grid) if rng.random() < 0.9 else NEG_INF
                p = ZERO if t < ZERO or rng.random() < 0.5 else rng.choice(grid)
                params = ConvexParams(t, p)
                coeffs = [oplus(odot(params.t, x), odot(params.p, y)) for x, y in zip(a, b)]
                if _combination_is(sub.generators, coeffs, v):
                    y, z = sub.combination(a), sub.combination(b)
                    if y != v and z != v:
                        raise TropibaryError(f"extremality of {v!r} refuted by a sampled decomposition")
    return tuple(survivors)


def _combination_is(points: Sequence[TropVector], coeffs: Sequence[Scalar], v: TropVector) -> bool:
    """Whether oplus_i coeffs[i] odot points[i] equals the finite point v,
    judged one coordinate at a time up to the first that differs."""
    for col, x in zip(zip(*[point.coords for point in points]), v.coords):
        if _cmp(_dot(coeffs, col), x):
            return False
    return True


def _random_coeffs(poly: TropPolytope, rng: random.Random, grid) -> list[Scalar]:
    n = len(poly.generators)
    coeffs = [rng.choice(grid) if rng.random() < 0.8 else NEG_INF for _ in range(n)]
    coeffs[rng.randrange(n)] = ZERO
    return coeffs


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
        params = self.params
        if (
            rebuild is None
            or set(params) != {"i", "samples", "seed"}
            or not all(type(v) is int for v in params.values())
            or params["samples"] < 1
        ):
            return False
        try:
            fresh = rebuild(**params)
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


@lru_cache(maxsize=64)
def _id_weights(i: int) -> tuple:
    """The weights a split of nu_(-1/i) may put at atom 0, each as
    (measure with weights (w, 0), str(w)) on one shared space: (space,
    the weight eps = -1/i, -inf, then eps + k for each k of
    _ID_TAIL_GRID)."""
    space = id_space()
    eps = Fraction(-1, i)

    def entry(w):
        return IdemMeasure.from_weights(space, [w, ZERO]), str(w)

    return space, entry(eps), entry(NEG_INF), tuple(entry(eps + k) for k in _ID_TAIL_GRID)


def certify_id_oplus_not_open(i: int, samples: int = 10000, seed: int = 7) -> Certificate:
    """Obstruction certificate for the pairwise-max map on two-point measures.

    Targets nu_{-1/i} approach nu_0 = dirac_0 oplus dirac_1, yet every
    split nu_{-1/i} = alpha oplus beta forces alpha's weight at atom 1 to
    be 0, so alpha evaluates the separating table to exactly 1 and stays
    outside the neighborhood |mu(phi)| < 1/2 of dirac_0.  Each half of a
    sampled split has weight eps = -1/i at atom 0, or one strictly below
    it: -inf or eps + k for k in _ID_TAIL_GRID.
    """
    if i < 1:
        raise BadInput("the sequence index must be >= 1")
    if samples < 1:
        raise BadInput("a certificate needs at least one sample")
    space, at_eps, at_neg_inf, below_eps = _id_weights(i)
    phi = separating_table(space)
    eps = Fraction(-1, i)
    target = nu_t(eps, space)
    params = ConvexParams(0, 0)
    rng = random.Random(seed)
    digest = hashlib.sha256()
    exhibits = []
    obstructed = 0

    def below():
        return at_neg_inf if rng.random() < 0.15 else rng.choice(below_eps)

    for k in range(samples):
        which = rng.randrange(3)
        alpha, a0 = at_eps if which in (0, 2) else below()
        beta, b0 = at_eps if which in (1, 2) else below()
        if combine(alpha, beta, params) != target:
            raise TropibaryError("sampled split failed to recombine")
        val = alpha(phi)
        if val != 1:
            raise TropibaryError(f"split evaluated phi to {val}, expected 1")
        obstructed += 1
        digest.update(f"{a0}|{b0};".encode())
        if len(exhibits) < 8:
            exhibits.append({"alpha0": a0, "beta0": b0, "alpha_phi": str(val)})
    limit_ok = (
        combine(IdemMeasure.dirac(0, space), IdemMeasure.dirac(1, space), params) == nu_t(0, space)
        and abs(IdemMeasure.dirac(0, space)(phi)) < Fraction(1, 2)
    )
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
    if i < 1:
        raise BadInput("the sequence index must be >= 1")
    if samples < 1:
        raise BadInput("a certificate needs at least one sample")
    hull, nu_val, ext_ok = _y_hook()
    c = Fraction(-1) + Fraction(1, i)
    c_i = TropVector([c, c])
    if hull_membership(hull, c_i) is None:
        raise TropibaryError("diagonal target fell outside the hull")
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
        val = _ratio(low, den)
        if low < at_c:
            raise TropibaryError(f"min-table value {val} fell below {c}")
        for e, w in atoms:
            if w + e.x == at_c and (e.x != e.y or w < at_c):
                raise TropibaryError("a coordinate witness left the diagonal")
        if rho(val, nu_val) < gap:
            raise TropibaryError("sample closer to nu than the certified gap")
        feasible += 1
        digest.update(_y_sample_text(atoms, den, weight_texts).encode())
        if len(exhibits) < 5:
            exhibits.append(
                {
                    "atoms": [[str(e.point[0]), str(e.point[1]), str(_ratio(w, den))] for e, w in atoms],
                    "min_value": str(val),
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


def render_polytope_svg(
    poly: TropPolytope,
    path: str,
    extremal: Optional[Sequence[TropVector]] = None,
    extra_points: Optional[Sequence[TropVector]] = None,
) -> None:
    """Write a small SVG sketch of a planar hull: pairwise tropical
    segments between generators, generators as dots, extremals ringed."""
    if poly.dim != 2:
        raise BadInput("SVG rendering is implemented for dimension 2 only")
    pts = list(poly.generators) + list(extra_points or [])
    xs = [float(p[0]) for p in pts]
    ys = [float(p[1]) for p in pts]
    pad = 0.3
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
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
    for p in extra_points or ():
        x, y = at(p)
        rows.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#383"/>')
    rows.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows))
    except OSError as exc:
        raise BadInput(f"cannot write {path}: {exc.strerror}") from None
