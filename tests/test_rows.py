"""The point layer on integer rows agrees exactly with the Fraction code
it replaced.

`reference_box_contains`, `reference_hull_membership` and
`reference_point_values` (with `reference_affine_tests`) are the Fraction
versions of `Box.contains`, `hull_membership` and
`measures._point_values`, kept verbatim apart from their names.  The row
code must give the same verdicts, the same coefficients by type,
numerator and denominator, and the same `measure_dist` float bit for bit,
on equal and unequal denominators, -inf point coordinates, points on box
faces and on generators, one-generator polytopes, and coordinates up to
10^400, whose distances leave the float range for `core._rho_outside`.
"""

import copy
import pickle
import random
import time
from fractions import Fraction
from functools import reduce

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropibary import measures
from tropibary.core import NEG_INF, ZERO, TropVector, _cmp, _dot, _row_of, oplus_all, residual, rho, trop_min
from tropibary.errors import DimensionMismatch, TropibaryError
from tropibary.geometry import Box, TropPolytope, extremal_points, hull_membership
from tropibary.measures import IdemMeasure, measure_dist

# -- the Fraction references ---------------------------------------------------


def reference_box_contains(self, p):
    if p.dim != self.dim:
        raise DimensionMismatch("point dimension does not match the box")
    return self.low.leq(p) and p.leq(self.high)


def reference_hull_membership(poly, x):
    if x.dim != poly.dim:
        raise DimensionMismatch("point dimension does not match the polytope")
    coeffs = [reduce(trop_min, map(residual, x.coords, g.coords), ZERO) for g in poly.generators]
    if _cmp(oplus_all(coeffs), ZERO):
        return None
    if poly.combination(coeffs) != x:
        return None
    return tuple(coeffs)


def reference_affine_tests(dim):
    grid = [Fraction(k, 8) for k in range(-16, 1)]
    rng = random.Random(0)
    tests = []
    for _ in range(32):
        coeffs = (ZERO, *(rng.choice(grid) for _ in range(dim)))
        tests.append((coeffs, rng.choice(grid)))
    return tuple(tests)


def reference_point_values(mu):
    weights = [w for _, w in mu.atoms]
    columns = list(zip(*[p.coords for p, _ in mu.atoms]))
    beta = [_dot(weights, col) for col in columns]
    values = list(beta)
    dim = len(columns)
    for i in range(dim):
        for j in range(i + 1, dim):
            values.append(_dot(weights, map(trop_min, columns[i], columns[j])))
    for coeffs, const in reference_affine_tests(dim):
        values.append(_dot(coeffs, (const, *beta)))
    return values


def reference_extremal_pruning(poly):
    survivors = list(poly.generators)
    k = 0
    while 1 < len(survivors) and k < len(survivors):
        if reference_hull_membership(TropPolytope(survivors[:k] + survivors[k + 1 :]), survivors[k]) is not None:
            survivors.pop(k)
        else:
            k += 1
    return tuple(survivors)


# -- what is compared ----------------------------------------------------------


def exactly(coeffs):
    """Coefficients by type, numerator and denominator; None stays None."""
    if coeffs is None:
        return None
    return [(type(c), c.numerator, c.denominator) for c in coeffs]


def outcome(f, *args):
    """f's float as its hex digits, or its error's type and message."""
    try:
        return ("float", f(*args).hex())
    except TropibaryError as exc:
        return (type(exc), str(exc))


def reference_dist(mu, nu):
    return max(map(rho, reference_point_values(mu), reference_point_values(nu)))


# -- draws ---------------------------------------------------------------------

DENOMINATORS = [1, 2, 3, 4, 5, 7, 8, 9, 16]
HUGE = 10**400
huge = st.sampled_from([HUGE, -HUGE, Fraction(HUGE + 1, 3), Fraction(-HUGE, 7), HUGE + 1])


def scalars(den):
    """Finite scalars at the denominator den, or at drawn denominators when
    den is None, and now and then one up to 10^400 in size."""
    dens = st.sampled_from(DENOMINATORS) if den is None else st.just(den)
    small = st.builds(Fraction, st.integers(min_value=-24, max_value=24), dens)
    return st.one_of(small, small, small, huge)


common_den = st.one_of(st.none(), st.sampled_from(DENOMINATORS))


@st.composite
def boxes_and_points(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    scalar = scalars(draw(common_den))
    low, high, point = [], [], []
    for _ in range(dim):
        a, b = sorted([draw(scalar), draw(scalar)])
        low.append(a)
        high.append(b)
        where = draw(st.sampled_from(["low", "high", "free", "free", "-inf"]))
        point.append(draw(scalar) if where == "free" else {"low": a, "high": b, "-inf": NEG_INF}[where])
    return Box(TropVector(low), TropVector(high)), TropVector(point)


@st.composite
def polytopes(draw, max_gens=6):
    dim = draw(st.integers(min_value=1, max_value=4))
    scalar = scalars(draw(common_den))
    k = draw(st.integers(min_value=1, max_value=max_gens))
    return TropPolytope([TropVector([draw(scalar) for _ in range(dim)]) for _ in range(k)])


COEFF_GRID = [Fraction(k, 8) for k in range(-24, 1)] + [Fraction(-1, 3), Fraction(-5, 7), NEG_INF]


@st.composite
def polytopes_and_points(draw):
    poly = draw(polytopes())
    kind = draw(st.sampled_from(["generator", "combination", "free", "-inf"]))
    if kind == "generator":
        return poly, draw(st.sampled_from(poly.generators))
    if kind == "free":
        return poly, TropVector([draw(scalars(None)) for _ in range(poly.dim)])
    coeffs = [draw(st.sampled_from(COEFF_GRID)) for _ in poly.generators]
    coeffs[draw(st.integers(min_value=0, max_value=len(coeffs) - 1))] = ZERO
    x = list(poly.combination(coeffs).coords)
    if kind == "-inf":
        x[draw(st.integers(min_value=0, max_value=poly.dim - 1))] = NEG_INF
    return poly, TropVector(x)


@st.composite
def point_measures(draw, dim):
    scalar = scalars(draw(common_den))
    n = draw(st.integers(min_value=1, max_value=5))
    weights = st.builds(Fraction, st.integers(min_value=-24, max_value=0), st.sampled_from(DENOMINATORS))
    pairs = [(TropVector([draw(scalar) for _ in range(dim)]), draw(weights)) for _ in range(n)]
    return IdemMeasure(pairs, renormalize=True)


point_measure_pairs = st.integers(min_value=1, max_value=4).flatmap(
    lambda dim: st.tuples(point_measures(dim), point_measures(dim))
)


def pm(*atoms):
    return IdemMeasure([(TropVector(p), w) for p, w in atoms], renormalize=True)


# -- the tests -----------------------------------------------------------------


class TestBoxContains:
    @settings(max_examples=400)
    @given(boxes_and_points())
    @example((Box(TropVector([0, 0]), TropVector([1, 1])), TropVector([0, NEG_INF])))
    @example((Box(TropVector(["-1/2"]), TropVector(["1/3"])), TropVector(["1/3"])))
    @example((Box(TropVector(["-1/2"]), TropVector(["1/3"])), TropVector(["2/6"])))
    @example((Box(TropVector([-HUGE, 0]), TropVector([HUGE, 0])), TropVector([Fraction(HUGE, 3), 0])))
    def test_same_verdict_as_the_fraction_test(self, case):
        box, p = case
        assert box.contains(p) is reference_box_contains(box, p)

    def test_dimension_mismatch_is_refused_alike(self):
        box = Box(TropVector([0, 0]), TropVector([1, 1]))
        for contains in (Box.contains, reference_box_contains):
            try:
                contains(box, TropVector([0]))
            except DimensionMismatch as exc:
                assert str(exc) == "point dimension does not match the box"
            else:
                raise AssertionError("a point of another dimension was tested")


class TestHullMembership:
    @settings(max_examples=400)
    @given(polytopes_and_points())
    @example((TropPolytope([TropVector(["1/3", "1/2"])]), TropVector(["1/3", "1/2"])))
    @example((TropPolytope([TropVector(["1/3", "1/2"])]), TropVector(["-2/3", "-1/2"])))
    @example((TropPolytope([TropVector([0, -1]), TropVector([-1, 0])]), TropVector([0, NEG_INF])))
    @example((TropPolytope([TropVector([0, "-1/3"]), TropVector(["-1/7", 0])]), TropVector(["-1/5", "-1/3"])))
    @example((TropPolytope([TropVector([HUGE, 0]), TropVector([0, -HUGE])]), TropVector([HUGE, 0])))
    def test_same_coefficients_as_the_fraction_test(self, case):
        poly, x = case
        want = reference_hull_membership(poly, x)
        assert exactly(hull_membership(poly, x)) == exactly(want)
        assert poly.contains(x) is (want is not None)

    @settings(max_examples=200)
    @given(polytopes(max_gens=7))
    @example(TropPolytope([TropVector([0, -1]), TropVector([-1, 0]), TropVector([0, 0])]))
    @example(TropPolytope([TropVector([0, "-1/3"]), TropVector(["-1/5", 0]), TropVector([0, 0])]))
    def test_pruning_keeps_the_fraction_survivors(self, poly):
        assert extremal_points(poly) == reference_extremal_pruning(poly)

    def test_no_input_wide_common_denominator(self):
        # 2,000 generators in dimension 4 over the first 8,000 primes as
        # denominators: rows meet pairwise, so no lcm of thousands of
        # primes is ever formed (one took about 1 s on this input)
        sieve = bytearray([1]) * 82_000
        sieve[:2] = b"\0\0"
        for n in range(2, 287):
            if sieve[n]:
                sieve[n * n :: n] = bytearray(len(sieve[n * n :: n]))
        primes = [n for n in range(len(sieve)) if sieve[n]][:8000]
        assert len(primes) == 8000
        rng = random.Random(0)
        best = float("inf")
        for _ in range(3):
            gens = [
                TropVector([Fraction(rng.randrange(-100, 1), q) for q in primes[4 * k : 4 * k + 4]])
                for k in range(2000)
            ]
            poly = TropPolytope(gens)
            start = time.perf_counter()
            coeffs = hull_membership(poly, gens[1234])
            best = min(best, time.perf_counter() - start)
            assert coeffs is not None and coeffs[1234] == ZERO
        assert best < 0.25, best


class TestPointValues:
    @settings(max_examples=300)
    @given(point_measure_pairs)
    @example((pm(((-1,), 0)), pm(((-1,), 0))))
    @example((pm((("1/3", "-2/7"), 0), ((5, -5), "-3/2")), pm((("-1/3", "2/7"), "-1/5"), ((0, 0), 0))))
    # values below the float range read as -inf, through _rho_outside
    @example((pm(((-HUGE, 0), 0)), pm(((0, -HUGE), 0))))
    @example((pm(((Fraction(-HUGE, 7),), 0)), pm((("-1/3",), 0))))
    # equal values above it are at distance 0.0; unequal ones are refused
    @example((pm(((HUGE, 0), 0)), pm(((HUGE, 0), "-1/3"), ((0, 0), 0))))
    @example((pm(((HUGE,), 0)), pm(((HUGE + 1,), 0))))
    # a numerator past 2^53, where float(n) / d would round twice
    @example((pm(((Fraction(2809256081984361330, 1174146646898508319),), 0)), pm(((0,), 0))))
    def test_same_values_and_the_same_float(self, pair):
        mu, nu = pair
        assert outcome(measure_dist, mu, nu) == outcome(reference_dist, mu, nu)
        assert outcome(measure_dist, nu, mu) == outcome(reference_dist, nu, mu)
        for m in (mu, nu):
            got = measures._point_values(m)
            assert all(type(n) is int and type(d) is int and d > 0 for n, d in got)
            assert [Fraction(n, d) for n, d in got] == reference_point_values(m)

    def test_the_tests_are_the_fraction_tests_times_8(self):
        for dim in (1, 2, 3, 4, 7):
            consts, *coeffs = measures._affine_tests(dim)
            want = reference_affine_tests(dim)
            assert [Fraction(c, 8) for c in consts] == [const for _, const in want]
            want_columns = [list(col) for col in zip(*[w[1:] for w, _ in want])]
            assert [[Fraction(c, 8) for c in col] for col in coeffs] == want_columns


class TestRowCache:
    def test_row_is_the_coordinates_at_their_common_denominator(self):
        v = TropVector(["1/2", "-1/3", 2])
        assert not hasattr(v, "_row")
        assert _row_of(v) == ((3, -2, 12), 6)
        assert v._row == ((3, -2, 12), 6)
        assert _row_of(TropVector([0, NEG_INF])) is None

    def test_copies_and_pickles_carry_no_row(self):
        v = TropVector(["1/2", "-1/3", 2])
        row = _row_of(v)
        hash(v)
        for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert twin == v
            assert not hasattr(twin, "_row")
            assert twin._hash is None
            assert _row_of(twin) == row
