"""The brute-force oracles' candidate grids, answers and budgets.

The finite, interval and box oracles are one grid search in `lifting`;
the interval oracle is the box oracle on the 1-D box [lo, hi].  The
formulas they replaced are kept here as references: the set-and-sort
candidate order, the lattices, the recursive depth-first pick, and the
interval oracle's own 16-step grid, against which the engine's interval
answers are checked (a witness exactly where the reference finds one,
and every witness exact).

For 40 seeded instances per oracle (finite `s`, interval, box and β),
in both "best" and "exists" mode, `tests/golden/oracle-pins.json` holds
the sha256 of the witness's canonical text and the number of `_tick`
calls the search made.  Re-record (only when a change of answers is
intended and explained):

    PYTHONPATH=src python tests/test_oracles.py
"""

import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

from tropibary import lifting, sampling
from tropibary.barycenter import barycenter_point
from tropibary.core import NEG_INF, ZERO, ConvexParams, TropVector, odot, oplus, residual, rho, s_point
from tropibary.measures import FiniteSpace, IdemMeasure, combine

PINS = pathlib.Path(__file__).resolve().parent / "golden" / "oracle-pins.json"
SEEDS = range(40)
MODES = ("best", "exists")


# -- the reference formulas ---------------------------------------------------


def reference_param_candidates(pool, params):
    """The candidate pairs as sets of Fractions sorted on (dist, t, p)."""
    values = list(pool) + [u - v for u in pool for v in pool]
    taus = {ZERO, NEG_INF} | {r for r in values if r <= ZERO}
    cands = {ConvexParams(tau, 0) for tau in taus} | {ConvexParams(0, tau) for tau in taus}
    return sorted(cands, key=lambda c: (c.dist(params), c.t, c.p))


def reference_search_assignment(per_coord, can_zero_l, can_zero_b, viewed):
    """The depth-first pick as a recursion, one frame per coordinate."""
    n = len(per_coord)

    def rec(i, chosen, has_l, has_b):
        nonlocal viewed
        viewed = lifting._tick(viewed)
        if i == n:
            return list(chosen) if has_l and has_b else None
        if not has_l and not any(can_zero_l[i:]):
            return None
        if not has_b and not any(can_zero_b[i:]):
            return None
        for l, b in per_coord[i]:
            chosen.append((l, b))
            out = rec(i + 1, chosen, has_l or l == ZERO, has_b or b == ZERO)
            chosen.pop()
            if out is not None:
                return out
        return None

    picked = rec(0, [], False, False)
    if picked is None:
        return None, viewed
    return ([l for l, _ in picked], [b for _, b in picked]), viewed


def reference_lift_interval(x, y, params, target, bounds, mode="best"):
    """The interval oracle with its own grid: 16 lattice steps, x, y, the
    target and the target less each input parameter, ranked by distance
    to (x, y); the bounds join the parameter pool, and its witnesses skip
    the exactness gate."""
    lo, hi = bounds
    pool = lifting._finite_values(x, y, target, params.t, params.p, lo, hi)
    values = lifting._lattice(lo, hi, 16) + [x, y, target]
    for tau in (params.t, params.p):
        r = residual(target, tau)
        if type(r) is Fraction and lo <= r <= hi:
            values.append(r)
    # ascending, then stably by distance: the order of (distance, value)
    values = lifting._ranked(values)
    values.sort(key=lambda v: rho(v, x) + rho(v, y))
    viewed = 0
    best = None
    best_dist = float("inf")
    for cand in lifting._param_candidates(pool, params):
        rights = [(yv, odot(cand.p, yv)) for yv in values]
        for xv in values:
            left = odot(cand.t, xv)
            for yv, right in rights:
                viewed = lifting._tick(viewed)
                if oplus(left, right) != target:
                    continue
                witness = lifting.LiftWitness(xv, yv, cand, "oracle")
                if mode == "exists":
                    return witness
                d = max(rho(xv, x), rho(yv, y), cand.dist(params))
                if d < best_dist:
                    best, best_dist = witness, d
    return best


BIG = 10**400


def random_pool(rng, kind):
    """A pool of the given kind, duplicates allowed."""
    size = 1 if kind == "one" else rng.randint(0, 7)
    if kind == "big":
        return [Fraction(rng.choice((-BIG, BIG, 2 * BIG)) + rng.randint(-3, 3), rng.choice((1, 3, 8))) for _ in range(size)]
    values = [Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 5, 8))) for _ in range(size)]
    if kind == "positive":
        values = [abs(v) + Fraction(1, 7) for v in values]
    if kind == "duplicates":
        values += [rng.choice(values) for _ in range(3)] if values else []
        rng.shuffle(values)
    return values


def random_params(rng, pool):
    """(τ, 0) or (0, τ) with τ from the pool (negated), -inf, 0, or far down."""
    tau = rng.choice([NEG_INF, ZERO, Fraction(-BIG), *[-abs(v) for v in pool]])
    return ConvexParams(tau, 0) if rng.random() < 0.5 else ConvexParams(0, tau)


@pytest.mark.parametrize("kind", ["mixed", "duplicates", "one", "positive", "big"])
def test_candidates_come_in_the_reference_order(kind):
    rng = random.Random(f"candidates:{kind}")
    for _ in range(120):
        pool = random_pool(rng, kind)
        params = random_params(rng, pool)
        want = [(c.t, c.p) for c in reference_param_candidates(pool, params)]
        got = [(c.t, c.p) for c in lifting._param_candidates(pool, params)]
        assert got == want, (pool, params)


@pytest.mark.parametrize("steps", [4, 8, 16])
def test_lattice_matches_the_fraction_formula(steps):
    rng = random.Random(f"lattice:{steps}")
    ends = [Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 8))) for _ in range(60)]
    ends += [Fraction(-BIG, 3), Fraction(BIG + 1, 6)]
    for end in ends:
        for other in (end, *rng.sample(ends, 3)):
            lo, hi = min(end, other), max(end, other)
            got = lifting._lattice(lo, hi, steps)
            want = [lo + (hi - lo) * k / steps for k in range(steps + 1)]
            assert [(q.numerator, q.denominator, hash(q)) for q in got] == [
                (q.numerator, q.denominator, hash(q)) for q in want
            ]


def test_pick_matches_the_recursive_search():
    rng = random.Random("pick")
    values = (ZERO, Fraction(-1), Fraction(-1, 2), NEG_INF)
    for _ in range(400):
        per_coord = [
            [(rng.choice(values), rng.choice(values)) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 7))
        ]
        can_zero_l = [any(l == ZERO for l, _ in opts) for opts in per_coord]
        can_zero_b = [any(b == ZERO for _, b in opts) for opts in per_coord]
        want = reference_search_assignment(per_coord, can_zero_l, can_zero_b, 5)
        assert lifting._search_assignment(per_coord, can_zero_l, can_zero_b, 5) == want


def test_pick_runs_past_the_recursion_limit():
    n = 3000
    per_coord = [[(NEG_INF, NEG_INF), (ZERO, ZERO)]] * n
    can_zero = [True] * n
    (lam, bet), viewed = lifting._search_assignment(per_coord, can_zero, can_zero, 0)
    # the first option everywhere but the last coordinate, which needs the zeros
    assert lam[:-1] == bet[:-1] == [NEG_INF] * (n - 1) and lam[-1] == bet[-1] == ZERO
    assert viewed == n + 2


# -- the oracles' answers and budgets ------------------------------------------


def _lattice_near(rng, lo, hi, value):
    """value moved by -1/8, 0 or +1/8, kept inside [lo, hi]."""
    return min(max(value + Fraction(rng.randint(-1, 1), 8), lo), hi)


def s_case(seed):
    rng = sampling.spawn(seed, "oracle-pin-s")
    space = FiniteSpace(rng.randint(1, 4))
    first = sampling.random_measure_on_space(rng, space)
    second = sampling.random_measure_on_space(rng, space)
    params = sampling.random_params(rng)
    image = combine(first, second, params)
    target = (
        image,
        sampling.perturb_weights_toward_zero(rng, image, Fraction(1, 8)),
        sampling.random_measure_on_space(rng, space),
    )[seed % 3]
    return lifting.brute_force_lift_s, (first, second, params, target)


def interval_case(seed):
    rng = sampling.spawn(seed, "oracle-pin-interval")
    lo = sampling.random_lattice(rng, Fraction(-2), Fraction(-1, 2))
    hi = sampling.random_lattice(rng, lo + Fraction(1, 2), Fraction(0))
    x = sampling.random_lattice(rng, lo, hi)
    y = sampling.random_lattice(rng, lo, hi)
    params = sampling.random_params(rng)
    image = lifting.recombine(x, y, params)
    target = (image, _lattice_near(rng, lo, hi, image), sampling.random_lattice(rng, lo, hi))[seed % 3]
    return lifting.brute_force_lift_interval, (x, y, params, target, (lo, hi))


def box_case(seed):
    rng = sampling.spawn(seed, "oracle-pin-box")
    box = sampling.random_box(rng, rng.randint(1, 2))
    x = sampling.random_point(rng, box)
    y = sampling.random_point(rng, box)
    params = sampling.random_params(rng)
    image = s_point(x, y, params)
    moved = TropVector([_lattice_near(rng, *box.interval(j), image[j]) for j in range(box.dim)])
    target = (image, moved, sampling.random_point(rng, box))[seed % 3]
    return lifting.brute_force_lift_box, (x, y, params, target, box)


def beta_case(seed):
    rng = sampling.spawn(seed, "oracle-pin-beta")
    dim = rng.randint(1, 2)
    box = sampling.random_box(rng, dim)
    nu = sampling.random_point_measure(rng, box, k_max=3 - dim)
    target = (barycenter_point(nu), sampling.random_point(rng, box))[seed % 2]
    return lifting.brute_force_lift_beta, (nu, target, box)


def wide_interval_case(seed):
    """An interval instance off the 1/8 lattice: bounds, points and
    parameters with denominators up to 7."""
    rng = random.Random(f"oracle-interval-wide:{seed}")

    def q(a, b):
        return Fraction(rng.randint(a * 42, b * 42), rng.choice((1, 2, 3, 5, 6, 7))) / 42

    lo = q(-3, -1)
    hi = max(lo, q(-1, 1))
    x, y, target = (min(max(q(-3, 1), lo), hi) for _ in range(3))
    tau = rng.choice((NEG_INF, ZERO, -abs(q(0, 2))))
    params = ConvexParams(tau, 0) if rng.random() < 0.5 else ConvexParams(0, tau)
    if seed % 2:
        target = lifting.recombine(x, y, params)
    return x, y, params, target, (lo, hi)


def interval_instances():
    yield from (interval_case(seed)[1] for seed in range(240))
    yield from (wide_interval_case(seed) for seed in range(60))


@pytest.mark.parametrize("mode", MODES)
def test_interval_oracle_finds_a_witness_where_the_reference_does(mode):
    for x, y, params, target, (lo, hi) in interval_instances():
        want = reference_lift_interval(x, y, params, target, (lo, hi), mode=mode)
        got = lifting.brute_force_lift_interval(x, y, params, target, (lo, hi), mode=mode)
        assert (got is None) == (want is None), (x, y, params, target, lo, hi)
        if got is not None:
            assert lifting.recombine(got.lifted_first, got.lifted_second, got.params) == target
            assert lo <= got.lifted_first <= hi and lo <= got.lifted_second <= hi


CASES = {"s": s_case, "interval": interval_case, "box": box_case, "beta": beta_case}


def text(value) -> str:
    """A canonical rendering: exact scalars by str, measures by their
    atoms in canonical order."""
    if value is None:
        return "none"
    if isinstance(value, lifting.LiftWitness):
        parts = (value.lifted_first, value.lifted_second, value.params.t, value.params.p, value.case_tag)
        return "|".join(text(part) for part in parts)
    if isinstance(value, IdemMeasure):
        return " ".join(f"{text(atom)}:{w}" for atom, w in value.atoms)
    if isinstance(value, TropVector):
        return "(" + ",".join(str(c) for c in value.coords) + ")"
    return str(value)


def pin(name, seed, mode, counted_tick):
    """(sha256 of the witness's text, _tick calls) for one search."""
    search, args = CASES[name](seed)
    before = counted_tick.calls
    found = search(*args, mode=mode)
    return [hashlib.sha256(text(found).encode()).hexdigest(), counted_tick.calls - before]


class CountedTick:
    def __init__(self, tick):
        self.tick = tick
        self.calls = 0

    def __call__(self, viewed):
        self.calls += 1
        return self.tick(viewed)


@pytest.fixture
def counted_tick(monkeypatch):
    counted = CountedTick(lifting._tick)
    monkeypatch.setattr(lifting, "_tick", counted)
    return counted


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", CASES)
def test_oracle_answers_and_budgets_are_pinned(pins, counted_tick, name, mode):
    got = [pin(name, seed, mode, counted_tick) for seed in SEEDS]
    want = pins[name][mode]
    assert len(want) == len(SEEDS)
    for seed, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name} {mode} seed {seed}"


if __name__ == "__main__":
    counted = CountedTick(lifting._tick)
    lifting._tick = counted
    doc = {name: {mode: [pin(name, seed, mode, counted) for seed in SEEDS] for mode in MODES} for name in CASES}
    PINS.write_text(json.dumps(doc, indent=1) + "\n")
