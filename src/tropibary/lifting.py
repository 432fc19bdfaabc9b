"""Single-shot openness lifts for max-plus convex structure maps.

Each lift answers the same shape of question: a structure map (convex
combination of measures, image under a merge of spaces, convex
combination of points, barycenter) sends some input tuple to an image;
given a nearby target, produce a preimage tuple that hits the target
exactly and stays close to the input.  Every constructor is partial: far
targets are refused with `OutsideValidityRegion` naming the inequality
that failed.

The lifts share one scheme.  Each construction is written for params
(t, 0); params with p < 0 go through the mirror rule `_oriented`, which
lifts the swapped inputs and reads the witness back.  The finite
combination lift is one function: each of its branches chooses a shift,
and all end in one build step, `_shifted`, which checks the target
against the weights the witness keeps.  The fiber split is
one closed form, symmetric in the two sides, so it needs no mirror; it
checks, splits and certifies on the weight tuples of the measures, and
builds measures only for its result.  Every accepted witness passes one
exactness gate: `errors.certify` raises `InexactWitness` unless the
witness maps back to its target exactly, as `recombine` recomputes it
or, for the fiber split, as its three identities are recomputed on
tuples.  The gate is a function call, not an `assert`, so it also runs
under `python -O`.

`brute_force_*` are independent oracles: they enumerate candidate
witnesses over value-adapted grids and keep whatever recombines exactly,
never consulting the constructive branch logic.  The finite, interval and
box oracles are one engine, `_grid_search`, over the coordinate equation
max(t' + l, p' + r) = target; each gives only its values per coordinate,
the rank of their solutions and its pick, and the interval oracle is the
box oracle on a 1-D box.  The β oracle enumerates atom subsets, so it
keeps its own search and shares only the "exists"/"best" choice.

A barycenter-lift host gives `lift_beta` its `contains`, `bary` and
`lift_s`; the barycenter suite and `lift beta` also call its `sample`,
`near` and `oracle`, and every host's distance is `measure_dist`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Iterator, Optional, Sequence

from .barycenter import barycenter_of_measures, barycenter_point
from .core import (
    NEG_INF,
    ZERO,
    ConvexParams,
    Scalar,
    TropVector,
    _cmp,
    _dot,
    _ratio,
    _vector,
    odot,
    oplus,
    oplus_all,
    point_dist,
    residual,
    rho,
    s_point,
    trop_min,
)
from .errors import (
    BadInput,
    BudgetExceeded,
    InconsistentFiber,
    NonConvexElement,
    OutsideValidityRegion,
    SpaceMismatch,
    capped,
    certify,
)
from .geometry import Box
from .measures import (
    FiniteSpace,
    IdemMeasure,
    SpaceMap,
    _combined,
    _dense,
    _pushed,
    combine,
    measure_dist,
)
from . import sampling


@dataclass(frozen=True)
class LiftWitness:
    """Preimage returned by a lift, with the branch that produced it."""

    lifted_first: object
    lifted_second: object
    params: ConvexParams
    case_tag: str


def recombine(first, second, params: ConvexParams):
    """t odot first oplus p odot second for measures, points or scalars:
    the map every lift inverts."""
    if isinstance(first, IdemMeasure):
        return combine(first, second, params)
    if isinstance(first, TropVector):
        return s_point(first, second, params)
    return oplus(odot(params.t, first), odot(params.p, second))


def _exact(witness: LiftWitness, target) -> LiftWitness:
    """The exactness gate for a witness of the convex combination map."""
    certify(
        recombine(witness.lifted_first, witness.lifted_second, witness.params) == target,
        f"{witness.case_tag} witness does not recombine to its target",
    )
    return witness


def _mirrored(witness: LiftWitness) -> LiftWitness:
    """A witness for the swapped inputs, read back in the original order."""
    return LiftWitness(
        witness.lifted_second,
        witness.lifted_first,
        witness.params.swapped(),
        witness.case_tag + "/swapped",
    )


def _oriented(lift, first, second, params: ConvexParams, *rest) -> LiftWitness:
    """The mirror rule: constructions are written for params (t, 0), so
    params with p < 0 lift the swapped inputs and mirror the witness."""
    if _cmp(params.p, ZERO) < 0:
        return _mirrored(lift(second, first, params.swapped(), *rest))
    return lift(first, second, params, *rest)


def witness_distance(witness: LiftWitness, first, second, params: ConvexParams) -> float:
    """Distance from a witness back to the lifted inputs."""
    parts = [witness.params.dist(params)]
    for got, ref in ((witness.lifted_first, first), (witness.lifted_second, second)):
        if isinstance(ref, IdemMeasure):
            parts.append(measure_dist(got, ref))
        elif isinstance(ref, TropVector):
            parts.append(point_dist(got, ref))
        elif type(ref) is Fraction or ref is NEG_INF:
            parts.append(rho(got, ref))
        else:
            raise BadInput(f"no distance for {ref!r}")
    return max(parts)


# -- convex combinations of measures on a finite space ----------------------


def lift_s_finite(
    first: IdemMeasure,
    second: IdemMeasure,
    params: ConvexParams,
    target: IdemMeasure,
) -> LiftWitness:
    """Lift the convex combination map through a target measure.

    Finds (first', second', params') with
    combine(first', second', params') == target, staying close to the
    inputs when the target is close to combine(first, second, params).
    When the target equals the image the inputs come back unchanged.
    """
    if first.space is None or first.space != second.space or first.space != target.space:
        raise SpaceMismatch("lift inputs must share one finite space")
    return _exact(_oriented(_lift_finite, first, second, params, target), target)


def _lift_finite(first, second, params, target) -> LiftWitness:
    """The construction for params (t, 0).  Each branch chooses a shift
    and a tag; `_shifted` then checks the target and builds the witness."""
    t = params.t
    if t is NEG_INF:
        return LiftWitness(first, target, ConvexParams(NEG_INF, 0), "t<p/t=-inf")
    space = first.space
    n = space.n
    lam = first.density()
    bet = second.density()
    alpha = target.density()
    shifted = [odot(t, w) for w in lam]
    lower = {i for i in range(n) if _cmp(shifted[i], bet[i]) < 0}
    higher = {i for i in range(n) if _cmp(shifted[i], bet[i]) > 0}
    zeros = [i for i in range(n) if _cmp(alpha[i], ZERO) == 0]
    if _cmp(t, ZERO) == 0:
        # The pivot is a zero of the target where the weights tie or where
        # the first is lower.  If every zero lies where the second is lower,
        # that is the pivot-lower case of the swapped inputs (the tied set
        # is symmetric).
        if any(i not in lower and i not in higher for i in zeros):
            tag = "t=p=0/pivot-tied"
        elif any(i in lower for i in zeros):
            tag = "t=p=0/pivot-lower"
        else:
            return _mirrored(_lift_finite(second, first, params, target))
        shift = oplus_all(alpha[i] for i in range(n) if i not in lower)
        if shift is NEG_INF:
            raise OutsideValidityRegion("target carries no weight off the lower set")
    else:  # finite t < 0
        if not any(i in lower for i in zeros):
            raise OutsideValidityRegion(
                "target has no zero-weight atom where the second measure strictly dominates"
            )
        retained = [i for i in range(n) if i not in lower and lam[i] is not NEG_INF]
        if not retained:
            c = ZERO
            tag = "t<p/empty-complement"
        elif any(_cmp(lam[i], ZERO) == 0 for i in lower):
            c = oplus_all(residual(alpha[i], shifted[i]) for i in retained)
            tag = "t<p/zero-anchored-lower"
        else:
            c = oplus_all(residual(alpha[i], t) for i in retained)
            tag = "t<p/anchor-off-lower"
        if c is NEG_INF:
            raise OutsideValidityRegion("target weights vanish on the retained support")
        shift = odot(t, c)
        if _cmp(shift, ZERO) > 0:
            raise OutsideValidityRegion(f"combined shift {shift} exceeds 0")
    return _shifted(space, lam, bet, alpha, lower, higher, shift, tag)


def _shifted(space, lam, bet, alpha, lower, higher, shift, tag) -> LiftWitness:
    """The build step of every finite branch: the witness keeps the first
    weight on the lower set and the second on the higher set, takes the
    first as target - shift and the second as the target elsewhere, and
    has params (shift, 0).  The target must not fall below a kept weight,
    nor rise above the shift where the first is -inf."""
    for i in range(space.n):
        if i in lower:
            if _cmp(alpha[i], odot(shift, lam[i])) < 0:
                raise OutsideValidityRegion(
                    f"target[{i}] = {alpha[i]} < shifted first weight {odot(shift, lam[i])} on the lower set"
                )
            continue
        if i in higher and _cmp(alpha[i], bet[i]) < 0:
            raise OutsideValidityRegion(
                f"target[{i}] = {alpha[i]} < second weight {bet[i]} on the higher set"
            )
        if lam[i] is NEG_INF and _cmp(alpha[i], shift) > 0:
            raise OutsideValidityRegion(
                f"target[{i}] = {alpha[i]} exceeds the shift {shift} off the first support"
            )
    lam2 = [lam[i] if i in lower else residual(alpha[i], shift) for i in range(space.n)]
    bet2 = [bet[i] if i in higher else alpha[i] for i in range(space.n)]
    return LiftWitness(
        IdemMeasure.from_weights(space, lam2),
        IdemMeasure.from_weights(space, bet2),
        ConvexParams(shift, 0),
        tag,
    )


# -- fibers of surjections ---------------------------------------------------


class MergeMap(SpaceMap):
    """The surjection merging the last two source points.  It and the alias
    `lift_merge_fiber` are kept only for `bench/fiber_sweep.py`."""

    __slots__ = ()

    def __init__(self, source: FiniteSpace, target: FiniteSpace):
        if source.n != target.n + 1:
            raise BadInput("a merge map drops exactly one point")
        super().__init__(source, target, [*range(target.n), target.n - 1])

    def as_space_map(self) -> SpaceMap:
        return self


def lift_fiber_surjection(
    nu: IdemMeasure,
    mu: IdemMeasure,
    a: IdemMeasure,
    params: ConvexParams,
    f: SpaceMap,
) -> tuple[IdemMeasure, IdemMeasure]:
    """Split nu into a combination over the source of a surjection.

    Given nu with pushforward(f, nu) == combine(mu, a, params), returns
    (lam, eta) on the source with pushforward lam == mu, pushforward
    eta == a, and combine(lam, eta, params) == nu.  At a source point i
    over k = f(i) the split is closed-form:

        lam_i = min(mu_k, nu_i - t),    eta_i = min(a_k, nu_i - p).

    Some nu_i in each fiber reaches max(t + mu_k, p + a_k), so lam pushes
    forward to mu and eta to a; and max of the two mins is min(that max,
    nu_i) = nu_i.  The formula is symmetric in (t, mu) and (p, a), so it
    needs no mirror.  A failed precondition raises InconsistentFiber and
    the result is certified exactly.

    Everything runs on the weight tuples: a pushforward is a max over each
    fiber of `f.table`, a combination a pointwise max of shifted tuples,
    and on a finite space two measures are equal when their tuples are.
    The two result measures are the only ones built, once the three
    identities hold.
    """
    if not f.is_surjective:
        raise BadInput("fiber lifts need a surjective map")
    if nu.space != f.source or mu.space != f.target or a.space != f.target:
        raise SpaceMismatch("fiber data does not match the map")
    nu_w, mu_w, a_w = nu.density(), mu.density(), a.density()
    for j, (x, y) in enumerate(zip(_pushed(f, nu_w), _combined(params, mu_w, a_w))):
        if _cmp(x, y):
            raise InconsistentFiber(f"coordinate {j}: pushforward gives {x}, combination gives {y}")

    def split(side: tuple, weight: Scalar) -> tuple:
        # one of t, p is 0, and nu_i - 0 is nu_i
        shifted = nu_w if _cmp(weight, ZERO) == 0 else map(residual, nu_w, itertools.repeat(weight))
        return tuple(map(trop_min, map(side.__getitem__, f.table), shifted))

    lam, eta = split(mu_w, params.t), split(a_w, params.p)
    certify(
        _pushed(f, lam) == mu_w and _pushed(f, eta) == a_w and tuple(_combined(params, lam, eta)) == nu_w,
        "fiber witness does not push forward to (mu, a) or recombine to nu",
    )
    return _dense(f.source, lam), _dense(f.source, eta)


lift_merge_fiber = lift_fiber_surjection


# -- convex combinations of points in intervals and boxes --------------------


def _lift_coordinate(x, y, params, target, bounds) -> LiftWitness:
    """The point-lift core: one coordinate, on an interval [lo, hi].

    The parameters are never moved; only the point pair does.
    """
    lo, hi = bounds
    if not (type(lo) is Fraction and type(hi) is Fraction and _cmp(lo, hi) <= 0):
        raise BadInput("interval bounds must be finite and ordered")
    _inside(x, y, target, lo, hi)
    return _oriented(_lift_scalar, x, y, params, target, lo, hi)


def _inside(x, y, target, lo: Fraction, hi: Fraction) -> None:
    """Refuse a first point, second point or target that is not a finite
    scalar in [lo, hi]."""
    for value, name in ((x, "first point"), (y, "second point"), (target, "target")):
        if type(value) is not Fraction:
            raise BadInput(f"{name} must be finite")
        if _cmp(value, lo) < 0 or _cmp(value, hi) > 0:
            raise BadInput(f"{name} {value} outside [{lo}, {hi}]")


def _lift_scalar(x, y, params, target, lo, hi) -> LiftWitness:
    """Params (t, 0): the dominated side absorbs the target, and ties
    move both components."""
    alpha = params.t
    ax = odot(alpha, x)
    if _cmp(ax, y) < 0:
        if _cmp(target, ax) <= 0:
            raise OutsideValidityRegion(f"target {target} does not exceed the shifted first point {ax}")
        return LiftWitness(x, target, params, "s=second")
    if _cmp(ax, y) > 0 and _cmp(target, y) <= 0:
        raise OutsideValidityRegion(f"target {target} does not exceed the second point {y}")
    moved = residual(target, alpha)
    if _cmp(moved, lo) < 0 or _cmp(moved, hi) > 0:
        raise OutsideValidityRegion(f"lifted first point {moved} leaves [{lo}, {hi}]")
    if _cmp(ax, y) > 0:
        return LiftWitness(moved, y, params, "s=first")
    return LiftWitness(moved, target, params, "s=tied")


def lift_s_interval(
    x: Scalar,
    y: Scalar,
    params: ConvexParams,
    target: Scalar,
    bounds: tuple[Scalar, Scalar],
) -> LiftWitness:
    """Lift the two-point convex combination on an interval [lo, hi].

    The returned parameters are always the input parameters; only the
    point pair moves.  The dominated side absorbs the target, and ties
    shift both components by the same amount.
    """
    return _exact(_lift_coordinate(x, y, params, target, bounds), target)


def lift_s_box(
    x: TropVector,
    y: TropVector,
    params: ConvexParams,
    target: TropVector,
    box: Box,
) -> LiftWitness:
    """Coordinatewise interval lift sharing one parameter pair.

    The interval construction never moves the parameters, which is what
    makes the shared pair sound: every coordinate succeeds or the whole
    call is refused.
    """
    if not (x.dim == y.dim == target.dim == box.dim):
        raise BadInput("box lift inputs of mixed dimension")
    parts = [
        _lift_coordinate(x[j], y[j], params, target[j], box.interval(j)) for j in range(box.dim)
    ]
    witness = LiftWitness(
        _vector(tuple([w.lifted_first for w in parts])),
        _vector(tuple([w.lifted_second for w in parts])),
        params,
        ";".join(f"{j}:{w.case_tag}" for j, w in enumerate(parts)),
    )
    return _exact(witness, target)


# -- barycenter lift ---------------------------------------------------------


class BoxHost:
    """Box compactum as a lift host: barycenters of points, box lifts,
    and the box's sampler, near targets and oracle."""

    def __init__(self, box: Box):
        self.box = box

    def sample(self, rng) -> IdemMeasure:
        return sampling.random_point_measure(rng, self.box)

    def near(self, point, delta) -> list:
        return sampling.lattice_targets_near(point, self.box, delta)

    def oracle(self, nu, target, mode) -> Optional[IdemMeasure]:
        return brute_force_lift_beta(nu, target, self.box, mode)

    def bary(self, mu: IdemMeasure) -> TropVector:
        point = barycenter_point(mu)
        if not self.box.contains(point):
            raise NonConvexElement(f"barycenter {point!r} escaped the host")
        return point

    def lift_s(self, x, y, params, target) -> LiftWitness:
        return lift_s_box(x, y, params, target, self.box)

    def contains(self, point) -> bool:
        return isinstance(point, TropVector) and self.box.contains(point)


class MeasureHost:
    """Space of measures on a finite space as a lift host."""

    def __init__(self, space: FiniteSpace):
        self.space = space

    def bary(self, big: IdemMeasure) -> IdemMeasure:
        return barycenter_of_measures(big, self.space)

    def lift_s(self, x, y, params, target) -> LiftWitness:
        return lift_s_finite(x, y, params, target)

    def contains(self, m) -> bool:
        return isinstance(m, IdemMeasure) and m.space == self.space


def lift_beta(nu: IdemMeasure, target, host) -> IdemMeasure:
    """Lift the barycenter map: a measure near nu whose barycenter is target.

    The paper's induction on the atom count, run as one pass.  Z, the
    first atom of weight 0, leads; the other atoms x_1, ..., x_{k-1}
    (weights w_m) follow in canonical order.  The barycenter is affine,
    so one forward pass gives the prefix barycenters b_0 = Z and
    b_m = b_{m-1} oplus w_m odot x_m.  Then, for m = k-1 down to 1,
    `host.lift_s` lifts the combination b_{m-1} oplus w_m odot x_m to
    the current target: the lifted x_m gets the lifted weight p_m, and
    the lifted b_{m-1} is the target of the next step down.  Z is
    replaced by the last target.  An atom's final weight is its p_m plus
    the t of every lift above it; duplicates merge by max.  The
    witness's barycenter is certified once.

    It needs only the host's `contains`, `bary` and `lift_s` (the module
    docstring has the rest); the target and every atom must be host points.
    """
    if not host.contains(target):
        raise BadInput(f"target {capped(repr(target))} is not a point of the host")
    for atom, _ in nu.atoms:
        if not host.contains(atom):
            raise BadInput(f"atom {capped(repr(atom))} is not a point of the host")
    atoms = list(nu.atoms)
    z = next(k for k, (_, w) in enumerate(atoms) if _cmp(w, ZERO) == 0)
    atoms.insert(0, atoms.pop(z))
    prefix = [atoms[0][0]]
    for x, w in atoms[1:-1]:
        prefix.append(recombine(prefix[-1], x, ConvexParams(ZERO, w)))
    pairs = []
    above, shift = target, ZERO
    for (x, w), below in zip(reversed(atoms[1:]), reversed(prefix)):
        lift = host.lift_s(below, x, ConvexParams(ZERO, w), above)
        pairs.append((lift.lifted_second, odot(lift.params.p, shift)))
        above, shift = lift.lifted_first, odot(lift.params.t, shift)
    pairs.append((above, shift))
    out = IdemMeasure(pairs)
    certify(host.bary(out) == target, "lifted measure's barycenter misses the target")
    return out


# -- independent brute-force oracles ----------------------------------------


# How many candidates one oracle call may view before it gives up.
ORACLE_BUDGET = 10**6


def _tick(viewed: int) -> int:
    """Count one more viewed candidate; past ORACLE_BUDGET, raise
    BudgetExceeded."""
    viewed += 1
    if viewed > ORACLE_BUDGET:
        raise BudgetExceeded(f"oracle viewed more than {ORACLE_BUDGET} candidates")
    return viewed


def _finite_values(*scalars) -> list[Fraction]:
    """The distinct finite scalars, in the order first seen."""
    return list({(s._numerator, s._denominator): s for s in scalars if type(s) is Fraction}.values())


def _ranked(scalars: Iterable[Scalar]) -> list[Scalar]:
    """The distinct scalars in increasing order, -inf first, with no
    Fraction hash or comparison: finite ones are told apart by numerator
    and denominator and ordered by their numerators at the common
    denominator, as `core._point_key` orders points."""
    finite = {}
    bottom = []
    for q in scalars:
        if q is NEG_INF:
            bottom = [NEG_INF]
        elif type(q) is Fraction:
            finite.setdefault((q._numerator, q._denominator), q)
        else:
            raise BadInput(f"{capped(str(q))} has no rank among the scalars")
    scale = lcm(*(d for _, d in finite))
    return bottom + sorted(finite.values(), key=lambda q: q._numerator * (scale // q._denominator))


def _param_candidates(pool: Sequence[Fraction], params: ConvexParams) -> Iterator[ConvexParams]:
    """The parameter pairs an oracle tries, nearest to params first.

    The τ set is 0, -inf and every u and u - v (u, v in the pool) that
    is <= 0.  The candidates are (τ, 0) and (0, τ) for each τ, with
    (0, 0) once, in the order of (dist to params, t, p), all exact: the
    τ are ranked once by integer keys at their common denominator, and
    each τ's two rho terms are computed once.  Each pair goes through
    the `ConvexParams` constructor only when the search reaches it.  A
    pool of P values gives P * (P + 1) differences; past ORACLE_BUDGET
    the call is refused before any is computed.
    """
    if len(pool) * (len(pool) + 1) > ORACLE_BUDGET:
        raise BudgetExceeded(f"oracle has more than {ORACLE_BUDGET} candidates")
    diffs = (residual(u, v) for v in (ZERO, *pool) for u in pool)
    ranked = _ranked([NEG_INF, ZERO, *(r for r in diffs if r._numerator <= 0)])
    zero = len(ranked) - 1  # every τ is <= 0
    near_t = [rho(tau, params.t) for tau in ranked]
    near_p = [rho(tau, params.p) for tau in ranked]
    order = [(max(near_t[k], near_p[zero]), k, zero) for k in range(len(ranked))]
    order += [(max(near_t[zero], near_p[k]), zero, k) for k in range(len(ranked)) if k != zero]
    order.sort()
    for _, t, p in order:
        yield ConvexParams(ranked[t], ranked[p])


def _select(found: Iterable, mode: str, dist):
    """The first witness a search yields ("exists"), or the nearest by
    `dist`, the first of equals ("best"); None if it yields none."""
    if mode == "exists":
        return next(iter(found), None)
    best, best_dist = None, float("inf")
    for witness in found:
        d = dist(witness)
        if d < best_dist:
            best, best_dist = witness, d
    return best


def _grid_search(pool, params, target, columns, pick, build) -> Iterator[LiftWitness]:
    """The oracle engine: exact witnesses of max(t' + l, p' + r) = target,
    coordinate by coordinate, for each pair (t', p') of `_param_candidates`.

    `columns(cand)` gives each coordinate's goal, the values l and r may
    take and a rank key.  Every pair (l, r) that solves the coordinate's
    equation is an option, one `_tick` per pair viewed; a coordinate with
    none drops the candidate.  `pick` chooses one ranked option per
    coordinate, `build` makes each side of the witness from its picks, and
    the witness passes `_exact` before it is yielded.
    """
    viewed = 0
    for cand in _param_candidates(pool, params):
        ranked = []
        for goal, lefts, rights, rank in columns(cand):
            # max(t' + l, p' + r) = goal: no side above the goal, one side on it
            rights = [(r, _cmp(odot(cand.p, r), goal)) for r in rights]
            options = []
            for l in lefts:
                left = _cmp(odot(cand.t, l), goal)
                for r, right in rights:
                    viewed = _tick(viewed)
                    if max(left, right) == 0:
                        options.append((l, r))
            if not options:
                break
            options.sort(key=rank)
            ranked.append(options)
        else:
            picked, viewed = pick(ranked, viewed)
            if picked is not None:
                yield _exact(LiftWitness(build(picked[0]), build(picked[1]), cand, "oracle"), target)


def _first_pick(ranked, viewed: int):
    """The first-ranked option of each coordinate."""
    return ([opts[0][0] for opts in ranked], [opts[0][1] for opts in ranked]), viewed


def brute_force_lift_s(
    first: IdemMeasure,
    second: IdemMeasure,
    params: ConvexParams,
    target: IdemMeasure,
    mode: str = "best",
) -> Optional[LiftWitness]:
    """Search exact witnesses of the finite combination lift on a
    value-adapted candidate grid.

    Candidate weights per atom are the obvious attainable values for the
    coordinate equation max(t'+l, p'+b) = target weight: the input
    weight, 0, -inf and the target weight less the candidate's parameter
    when that is <= 0; candidate parameters come from the input values
    and their differences.  Returns the exact candidate nearest the
    inputs ("best"), the first exact one ("exists"), or None.
    """
    if first.space is None or first.space != second.space or first.space != target.space:
        raise SpaceMismatch("oracle inputs must share one finite space")
    space = first.space
    lam = first.density()
    bet = second.density()
    alpha = target.density()
    pool = _finite_values(*lam, *bet, *alpha, params.t, params.p)
    ranks = [lambda o, l=l, b=b: (rho(o[0], l) + rho(o[1], b), o[0], o[1]) for l, b in zip(lam, bet)]

    def side(weight, goal, tau):
        r = residual(goal, tau)
        return {weight, ZERO, NEG_INF, r} if _cmp(r, ZERO) <= 0 else {weight, ZERO, NEG_INF}

    def columns(cand):
        for i, a in enumerate(alpha):
            yield a, side(lam[i], a, cand.t), side(bet[i], a, cand.p), ranks[i]

    found = _grid_search(
        pool, params, target, columns, _search_assignment, lambda w: IdemMeasure.from_weights(space, w)
    )
    return _select(found, mode, lambda w: witness_distance(w, first, second, params))


def _search_assignment(per_coord, viewed: int):
    """Depth-first pick of one option per coordinate with both weight
    vectors forced to reach 0 somewhere; returns the pick (or None) and
    the updated count of viewed candidates.  When no coordinate can put a
    0 on one side, it returns None at once and counts no view.

    The search runs on an explicit stack, one frame per coordinate
    being picked, so a space of any size fits; it visits, and counts,
    the nodes of the recursive search in the same order.
    """
    n = len(per_coord)
    # reach_l[i]: some coordinate from i on can put a 0 on the first side
    reach_l, reach_b = [False] * (n + 1), [False] * (n + 1)
    for i in reversed(range(n)):
        reach_l[i] = reach_l[i + 1] or any(not _cmp(l, ZERO) for l, _ in per_coord[i])
        reach_b[i] = reach_b[i + 1] or any(not _cmp(b, ZERO) for _, b in per_coord[i])
    if not (reach_l[0] and reach_b[0]):
        return None, viewed
    picked = []
    frames = []  # (options left, has_l, has_b) of each coordinate being picked
    has_l = has_b = False
    while True:
        viewed = _tick(viewed)
        i = len(picked)
        if i == n:
            if has_l and has_b:
                return ([l for l, _ in picked], [b for _, b in picked]), viewed
        elif (has_l or reach_l[i]) and (has_b or reach_b[i]):
            frames.append((iter(per_coord[i]), has_l, has_b))
        while frames:
            options, has_l, has_b = frames[-1]
            if len(picked) == len(frames):
                picked.pop()
            pick = next(options, None)
            if pick is not None:
                picked.append(pick)
                has_l = has_l or not _cmp(pick[0], ZERO)
                has_b = has_b or not _cmp(pick[1], ZERO)
                break
            frames.pop()
        else:
            return None, viewed


def _lattice(lo: Fraction, hi: Fraction, steps: int) -> list[Fraction]:
    """lo + (hi - lo) * k / steps for k = 0, ..., steps, on ints with one
    gcd a step: with lo = a/b and hi = c/d, the k-th value is
    (a*d*steps + (c*b - a*d)*k) / (b*d*steps), reduced."""
    for end in (lo, hi):
        if type(end) is not Fraction:
            raise BadInput(f"{end} has no rational value")
    a, b, c, d = lo._numerator, lo._denominator, hi._numerator, hi._denominator
    base, step, den = a * d * steps, c * b - a * d, b * d * steps
    return [_ratio(base + step * k, den) for k in range(steps + 1)]


def brute_force_lift_interval(
    x: Scalar,
    y: Scalar,
    params: ConvexParams,
    target: Scalar,
    bounds: tuple[Scalar, Scalar],
    mode: str = "best",
) -> Optional[LiftWitness]:
    """The box oracle on the 1-D box [lo, hi], its witness read back as
    scalars."""
    for end in bounds:
        if type(end) is not Fraction:
            raise BadInput(f"{end} has no rational value")
    box = Box(TropVector(bounds[:1]), TropVector(bounds[1:]))
    found = brute_force_lift_box(TropVector((x,)), TropVector((y,)), params, TropVector((target,)), box, mode)
    if found is None:
        return None
    return LiftWitness(found.lifted_first[0], found.lifted_second[0], found.params, found.case_tag)


def brute_force_lift_box(
    x: TropVector,
    y: TropVector,
    params: ConvexParams,
    target: TropVector,
    box: Box,
    mode: str = "best",
) -> Optional[LiftWitness]:
    """Grid search for exact box-lift witnesses on 8 steps per coordinate,
    with one shared parameter pair; coordinates decouple once the pair is
    fixed.  Each coordinate's values are its lattice, x, y, the target and
    the target less either candidate parameter when that lies in the
    interval; the pick is the option nearest (x, y) in that coordinate.
    Points and a target outside the box are refused, as `lift_s_box`
    refuses them."""
    if not (x.dim == y.dim == target.dim == box.dim):
        raise BadInput("box lift inputs of mixed dimension")
    for j in range(box.dim):
        _inside(x[j], y[j], target[j], *box.interval(j))
    pool = _finite_values(*x.coords, *y.coords, *target.coords, params.t, params.p)
    grids = []
    for j in range(box.dim):
        lo, hi = box.interval(j)
        grids.append((lo, hi, set(_lattice(lo, hi, 8)) | {x[j], y[j], target[j]}))
    ranks = [
        lambda o, a=a, b=b: (max(rho(o[0], a), rho(o[1], b)), o[0], o[1]) for a, b in zip(x.coords, y.coords)
    ]

    def columns(cand):
        for j, (lo, hi, grid) in enumerate(grids):
            values = set(grid)
            for tau in (cand.t, cand.p):
                r = residual(target[j], tau)
                if type(r) is Fraction and _cmp(lo, r) <= 0 <= _cmp(hi, r):
                    values.add(r)
            yield target[j], values, values, ranks[j]

    found = _grid_search(pool, params, target, columns, _first_pick, TropVector)
    return _select(found, mode, lambda w: witness_distance(w, x, y, params))


def brute_force_lift_beta(
    nu: IdemMeasure,
    target: TropVector,
    box: Box,
    mode: str = "best",
) -> Optional[IdemMeasure]:
    """Exhaustive search for measures on a coordinate grid whose
    barycenter hits the target exactly: 4 steps per coordinate, weights
    0, -1/2, ..., -2.  A target or atom outside the box is refused, as
    `lift_beta` on a `BoxHost` refuses it.  A grid with more (point,
    weight) candidates than ORACLE_BUDGET is refused before it is built:
    "best" mode would view each of them anyway."""
    for point, name in ((target, "target"), *((atom, "atom") for atom, _ in nu.atoms)):
        if not (isinstance(point, TropVector) and box.contains(point)):
            raise BadInput(f"{name} {capped(repr(point))} is not a point of the box")
    weights = [Fraction(-2 * k, 4) for k in range(5)]
    pools = []
    for j in range(box.dim):
        lo, hi = box.interval(j)
        vals = _lattice(lo, hi, 4) + [target[j]]
        for w in weights:
            r = residual(target[j], w)
            if type(r) is Fraction and _cmp(lo, r) <= 0 <= _cmp(hi, r):
                vals.append(r)
        pools.append(_ranked(vals))
    if len(weights) * prod(map(len, pools)) > ORACLE_BUDGET:
        raise BudgetExceeded(f"oracle has more than {ORACLE_BUDGET} candidates")
    points = [TropVector(c) for c in itertools.product(*pools)]
    atom_cands = [(p, w) for p in points for w in weights]

    def found():
        viewed = 0
        for k in range(1, nu.atom_count + 1):
            for combo in itertools.combinations(atom_cands, k):
                viewed = _tick(viewed)
                weights = [w for _, w in combo]
                if any(not _cmp(w, ZERO) for w in weights) and all(
                    not _cmp(_dot(weights, col), x) for col, x in zip(zip(*[p.coords for p, _ in combo]), target)
                ):
                    yield IdemMeasure(list(combo))

    return _select(found(), mode, lambda m: measure_dist(m, nu))
