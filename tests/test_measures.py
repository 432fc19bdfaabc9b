import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tropibary import measures
from tropibary.barycenter import barycenter_point
from tropibary.core import (
    NEG_INF,
    POS_INF,
    ZERO,
    ConvexParams,
    TropVector,
    odot,
    oplus,
    oplus_all,
    rho,
    scalar,
    trop_min,
)
from tropibary.errors import BadInput, DimensionMismatch, NotNormalized, SpaceMismatch, TropibaryError
from tropibary.measures import (
    FiniteSpace,
    FunctionTable,
    IdemMeasure,
    SpaceMap,
    combine,
    measure_dist,
    pushforward,
)

weight_q = st.fractions(min_value=-4, max_value=0, max_denominator=16)


def measures_on(space: FiniteSpace):
    def build(qs):
        pairs = [(i, scalar(q)) for i, q in enumerate(qs)]
        return IdemMeasure(pairs, space=space, renormalize=True)

    return st.lists(weight_q, min_size=space.n, max_size=space.n).map(build)


class TestCanonicalForm:
    def test_duplicate_atoms_merge_by_max(self, three_space):
        mu = IdemMeasure([(0, "-1"), (0, "0"), (1, "-2")], space=three_space)
        assert mu.weight_of(0) == ZERO
        assert mu.atom_count == 2

    def test_bottom_weight_atoms_drop(self, three_space):
        mu = IdemMeasure([(0, "0"), (2, "-inf")], space=three_space)
        assert mu.atom_count == 1
        assert mu.weight_of(2) == NEG_INF

    def test_unnormalized_rejected_without_flag(self, three_space):
        with pytest.raises(NotNormalized):
            IdemMeasure([(0, "-1")], space=three_space)

    def test_renormalize_shifts_to_zero_max(self, three_space):
        mu = IdemMeasure([(0, "-1"), (1, "-3")], space=three_space, renormalize=True)
        assert mu.weight_of(0) == ZERO
        assert type(mu.weight_of(1)) is Fraction and mu.weight_of(1) == scalar("-2")

    def test_weight_above_zero_rejected(self, three_space):
        with pytest.raises(NotNormalized):
            IdemMeasure([(0, "1")], space=three_space)

    def test_all_bottom_rejected(self, three_space):
        with pytest.raises(NotNormalized):
            IdemMeasure([(0, "-inf")], space=three_space)

    def test_mixed_atom_kinds_rejected(self):
        with pytest.raises(BadInput):
            IdemMeasure([(TropVector(("0",)), "0"), (0, "0")])

    def test_mixed_point_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            IdemMeasure([(TropVector(("0",)), "0"), (TropVector(("-1", "0")), "0")])

    @pytest.mark.parametrize(
        "pairs, error, message",
        [
            ([(3, "0")], BadInput, "atom index 3 outside space of size 3"),
            ([(0, "0"), (TropVector(("0",)), "0")], BadInput, "atoms of mixed kinds in one measure"),
            ([(TropVector(("0",)), "-1")], NotNormalized, "max weight is -1, expected 0"),
            ([(TropVector(("0",)), "0")], BadInput, "measures on a finite space must use index atoms"),
        ],
    )
    def test_refusals_on_a_finite_space(self, three_space, pairs, error, message):
        with pytest.raises(error) as caught:
            IdemMeasure(pairs, space=three_space)
        assert str(caught.value) == message

    def test_dirac(self, three_space):
        d = IdemMeasure.dirac(1, space=three_space)
        assert d.atom_count == 1 and d.weight_of(1) == ZERO

    def test_atoms_sorted_deterministically(self, three_space):
        a = IdemMeasure([(2, "-1"), (0, "0")], space=three_space)
        b = IdemMeasure([(0, "0"), (2, "-1")], space=three_space)
        assert a == b and a.atoms == b.atoms


class TestEvaluation:
    def test_eval_is_max_of_weight_plus_value(self, three_space):
        mu = IdemMeasure([(0, "0"), (1, "-1/2")], space=three_space)
        phi = FunctionTable(three_space, ["0", "1", "-5"])
        assert type(mu(phi)) is Fraction and mu(phi) == scalar("1/2")

    def test_eval_respects_space(self, three_space):
        other = FiniteSpace(2)
        mu = IdemMeasure([(0, "0")], space=three_space)
        with pytest.raises(SpaceMismatch):
            mu(FunctionTable(other, ["0", "0"]))

    @given(st.data())
    def test_functional_characterization(self, data):
        # normalization, shift equivariance, max-additivity
        space = FiniteSpace(3)
        mu = data.draw(measures_on(space))
        phi = FunctionTable(space, [data.draw(weight_q) for _ in range(3)])
        psi = FunctionTable(space, [data.draw(weight_q) for _ in range(3)])
        c = scalar(data.draw(weight_q))
        assert mu(FunctionTable.constant(space, 0)) == ZERO
        assert mu(phi.shift(c)) == odot(mu(phi), c)
        assert mu(phi.join(psi)) == oplus(mu(phi), mu(psi))

    def test_density_matches_weights(self, three_space):
        mu = IdemMeasure([(0, "0"), (1, "-1/2")], space=three_space)
        assert mu.density() == (ZERO, scalar("-1/2"), NEG_INF)


class TestCombine:
    def test_pointwise_formula(self, three_space):
        mu = IdemMeasure([(0, "0")], space=three_space)
        nu = IdemMeasure([(1, "0"), (2, "-1")], space=three_space)
        out = combine(mu, nu, ConvexParams("-1/4", "0"))
        assert type(out.weight_of(0)) is Fraction and out.weight_of(0) == scalar("-1/4")
        assert out.weight_of(1) == ZERO
        assert type(out.weight_of(2)) is Fraction and out.weight_of(2) == scalar("-1")

    @given(st.data())
    def test_idempotent_and_degenerate(self, data):
        space = FiniteSpace(4)
        mu = data.draw(measures_on(space))
        nu = data.draw(measures_on(space))
        assert combine(mu, mu, ConvexParams("0", "0")) == mu
        assert combine(mu, nu, ConvexParams("0", "-inf")) == mu
        assert combine(mu, nu, ConvexParams("-inf", "0")) == nu

    @given(st.data())
    def test_combination_evaluates_affinely(self, data):
        space = FiniteSpace(3)
        mu = data.draw(measures_on(space))
        nu = data.draw(measures_on(space))
        params = ConvexParams("0", scalar(data.draw(weight_q)))
        phi = FunctionTable(space, [data.draw(weight_q) for _ in range(3)])
        lhs = combine(mu, nu, params)(phi)
        rhs = oplus(odot(params.t, mu(phi)), odot(params.p, nu(phi)))
        assert lhs == rhs

    def test_space_mismatch(self, three_space):
        mu = IdemMeasure([(0, "0")], space=three_space)
        nu = IdemMeasure([(0, "0")], space=FiniteSpace(2))
        with pytest.raises(SpaceMismatch):
            combine(mu, nu, ConvexParams("0", "0"))


class TestPushforward:
    @pytest.mark.parametrize("n", [2.0, True, Fraction(2)])
    def test_space_size_must_be_an_int(self, n):
        with pytest.raises(BadInput, match="is not an integer"):
            FiniteSpace(n)

    @pytest.mark.parametrize("entry", [0.0, False, Fraction(0)])
    def test_map_values_must_be_ints(self, three_space, entry):
        with pytest.raises(BadInput, match="is not an integer"):
            SpaceMap(three_space, FiniteSpace(1), [0, entry, 0])

    def test_collapses_weights_by_max(self, three_space):
        target = FiniteSpace(2, labels=("u", "v"))
        f = SpaceMap(three_space, target, [0, 1, 1])
        mu = IdemMeasure([(0, "-1"), (1, "-1/2"), (2, "0")], space=three_space)
        out = pushforward(f, mu)
        assert type(out.weight_of(0)) is Fraction and out.weight_of(0) == scalar("-1")
        assert out.weight_of(1) == ZERO

    def test_functoriality(self, three_space):
        mid = FiniteSpace(2)
        end = FiniteSpace(1)
        f = SpaceMap(three_space, mid, [0, 1, 1])
        g = SpaceMap(mid, end, [0, 0])
        mu = IdemMeasure([(0, "0"), (2, "-1")], space=three_space)
        g_after_f = SpaceMap(three_space, end, [g.table[j] for j in f.table])
        assert pushforward(g_after_f, mu) == pushforward(g, pushforward(f, mu))

    @given(st.data())
    def test_commutes_with_combine(self, data):
        source = FiniteSpace(4)
        target = FiniteSpace(2)
        f = SpaceMap(source, target, [data.draw(st.integers(0, 1)) for _ in range(4)])
        mu = data.draw(measures_on(source))
        nu = data.draw(measures_on(source))
        params = ConvexParams("0", scalar(data.draw(weight_q)))
        assert pushforward(f, combine(mu, nu, params)) == combine(
            pushforward(f, mu), pushforward(f, nu), params
        )

    def test_surjectivity_detection(self, three_space):
        target = FiniteSpace(2)
        assert SpaceMap(three_space, target, [0, 1, 0]).is_surjective
        assert not SpaceMap(three_space, target, [0, 0, 0]).is_surjective


# -- the dense path against a reference built atom by atom ----------------

# Weights on the 1/8 grid of [-2, 0], plus -inf.
grid_weight = st.sampled_from([scalar(Fraction(k, 8)) for k in range(-16, 1)] + [NEG_INF])


@st.composite
def weight_lists(draw, normalized=False):
    """(n, weights) with n in 1..6; with `normalized`, one weight is 0."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(grid_weight, min_size=n, max_size=n))
    if normalized:
        weights[draw(st.integers(0, n - 1))] = ZERO
    return n, weights


@st.composite
def index_pairs(draw):
    """(n, pairs) of up to 8 (index, weight) pairs, indices may repeat."""
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), grid_weight), max_size=8))
    return n, pairs


@st.composite
def measure_pairs(draw):
    n, first = draw(weight_lists(normalized=True))
    second = draw(st.lists(grid_weight, min_size=n, max_size=n))
    second[draw(st.integers(0, n - 1))] = ZERO
    return n, first, second


@st.composite
def mapped_measures(draw):
    """(n, weights, m, table): a normalized measure and a map to m points."""
    n, weights = draw(weight_lists(normalized=True))
    m = draw(st.integers(1, 6))
    table = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return n, weights, m, table


def reference_atoms(pairs, renormalize=False):
    """The canonical atoms of a measure from (index, weight) pairs, built
    atom by atom: +inf refused, duplicates merged by max, the maximum
    checked (or shifted to 0), -inf filtered out, sorted by index."""
    best = {}
    for i, w in pairs:
        w = scalar(w)
        if w is POS_INF:
            raise BadInput("+inf cannot be a weight")
        if i not in best or w > best[i]:
            best[i] = w
    top = max(best.values(), default=NEG_INF)
    if top is NEG_INF:
        raise NotNormalized("a measure needs at least one atom above -inf")
    if top != ZERO:
        if not renormalize:
            raise NotNormalized(f"max weight is {top}, expected 0")
        best = {i: odot(w, -top) for i, w in best.items()}
    return tuple(sorted((i, w) for i, w in best.items() if w is not NEG_INF))


def outcome(build):
    """What build() returns, or the class and message of its refusal."""
    try:
        return build()
    except TropibaryError as exc:
        return type(exc), str(exc)


def assert_matches_reference(space, build, pairs, renormalize=False):
    want = outcome(lambda: reference_atoms(pairs, renormalize))
    got = outcome(build)
    if not isinstance(got, IdemMeasure) or isinstance(want[0], type):
        assert got == want
        return
    density = [NEG_INF] * space.n
    for i, w in want:
        density[i] = w
    assert got.atoms == want
    assert all(type(w) is Fraction for _, w in got.atoms)
    assert got.density() == tuple(density)
    assert all(w is NEG_INF or type(w) is Fraction for w in got.density())
    assert [got.weight_of(i) for i in range(space.n)] == density
    assert repr(got) == "IdemMeasure({" + ", ".join(f"{i}: {w}" for i, w in want) + "})"
    assert hash(got) == hash((space, tuple(((0, i), w) for i, w in want)))
    built = IdemMeasure(list(want), space=space)
    assert got == built and built == got
    assert hash(got) == hash(built)


# Coordinates on a small grid, so that atoms repeat, with two denominators
# off the grid, so that the sort meets unlike denominators.
point_coordinate = st.sampled_from([scalar(Fraction(k, 4)) for k in range(-4, 1)] + [Fraction(-1, 3), Fraction(2, 7)])


@st.composite
def point_pairs(draw):
    """Up to 8 (point, weight) pairs in one dimension, points may repeat."""
    dim = draw(st.integers(1, 3))
    point = st.lists(point_coordinate, min_size=dim, max_size=dim).map(TropVector)
    return draw(st.lists(st.tuples(point, grid_weight), max_size=8))


def reference_point_atoms(pairs, renormalize):
    """`reference_atoms` for point atoms, keyed and sorted by the tuple of
    each point's Fraction coordinates."""
    best = {}
    for p, w in pairs:
        w = scalar(w)
        if p.coords not in best or w > best[p.coords]:
            best[p.coords] = w
    top = max(best.values(), default=NEG_INF)
    if top is NEG_INF:
        raise NotNormalized("a measure needs at least one atom above -inf")
    if top != ZERO:
        if not renormalize:
            raise NotNormalized(f"max weight is {top}, expected 0")
        best = {c: odot(w, -top) for c, w in best.items()}
    return tuple(sorted((c, w) for c, w in best.items() if w is not NEG_INF))


def reference_dict_merge(pairs, renormalize):
    """A point measure's canonical atoms as a dict merge builds them: equal
    points merged by max into the first-seen atom (the dict key), the
    mixed-dimension, all -inf and maximum checks, -inf dropped, then a sort
    by the coordinate tuples, as Fractions."""
    merged = {}
    for atom, weight in pairs:
        weight = scalar(weight)
        first = merged.setdefault(atom, weight)
        if first is not weight:
            merged[atom] = oplus(first, weight)
    if len({a.dim for a in merged}) > 1:
        raise DimensionMismatch("point atoms of mixed dimension")
    top = oplus_all(merged.values())
    if top is NEG_INF:
        raise NotNormalized("a measure needs at least one atom above -inf")
    if top != ZERO:
        if not renormalize:
            raise NotNormalized(f"max weight is {top}, expected 0")
        merged = {a: odot(w, -top) for a, w in merged.items()}
    kept = [(a, w) for a, w in merged.items() if w is not NEG_INF]
    return sorted(kept, key=lambda aw: aw[0].coords)


# Coordinates whose common denominator passes measures.POINT_SCALE_CAP (two
# large primes), lie beyond the float range either way, or round to the
# same float as a neighbour.
P31, P61 = 2**31 - 1, 2**61 - 1
wide_coordinate = st.sampled_from(
    [
        Fraction(0),
        Fraction(-1, 3),
        Fraction(1, P31),
        Fraction(-1, P61),
        Fraction(2**61, P61),
        Fraction(1),
        Fraction(10**400),
        Fraction(10**400 + 1, P31),
        Fraction(-(10**400)),
        Fraction(1, 10**400),
        Fraction(-1, 10**400),
    ]
)


@st.composite
def shuffled_point_pairs(draw, coordinate=point_coordinate):
    """Up to 8 (point, weight) pairs, then again some of them with a copy
    of the point and another weight, all shuffled; one draw in five lets
    the dimension vary."""
    dim = draw(st.integers(1, 3))
    dims = st.just(dim) if draw(st.integers(0, 4)) else st.integers(1, 3)
    point = dims.flatmap(lambda d: st.lists(coordinate, min_size=d, max_size=d)).map(TropVector)
    pairs = draw(st.lists(st.tuples(point, grid_weight), max_size=8))
    pairs += [(TropVector(p.coords), draw(grid_weight)) for p, _ in pairs if draw(st.booleans())]
    return draw(st.permutations(pairs))


class TestPointAtoms:
    @given(st.one_of(shuffled_point_pairs(), shuffled_point_pairs(wide_coordinate)), st.booleans())
    @example([(TropVector([0]), NEG_INF), (TropVector([0]), ZERO)], False)
    @example([(TropVector([0]), NEG_INF), (TropVector([-1]), NEG_INF)], True)
    @example([(TropVector([0]), ZERO), (TropVector([0, 0]), ZERO)], False)
    @example([(TropVector(["-1/3"]), scalar("-1")), (TropVector([0]), "-1/2"), (TropVector(["-1/3"]), "-1/4")], True)
    # past the cap: one float for two values, -10^400 and +10^400, a repeat
    @example(
        [
            (TropVector([Fraction(2**61, P61), Fraction(1, P31)]), ZERO),
            (TropVector([1, Fraction(1, P31)]), "-1/2"),
            (TropVector([Fraction(10**400), Fraction(-(10**400))]), "-1/4"),
            (TropVector([Fraction(2**61, P61), Fraction(1, P31)]), "-1/8"),
        ],
        False,
    )
    def test_sort_and_merge_matches_the_dict_merge(self, pairs, renormalize):
        want = outcome(lambda: reference_dict_merge(pairs, renormalize))
        got = outcome(lambda: IdemMeasure(pairs, renormalize=renormalize))
        if not isinstance(got, IdemMeasure):
            assert got == want
            return
        assert [id(a) for a, _ in got.atoms] == [id(a) for a, _ in want]
        assert [(w, str(w)) for _, w in got.atoms] == [(w, str(w)) for _, w in want]

    @given(point_pairs(), st.booleans())
    @example([(TropVector([0]), ZERO), (TropVector([0]), scalar("-1"))], False)
    @example([(TropVector([Fraction(2, 7)]), scalar("-1")), (TropVector(["-1/3"]), ZERO)], False)
    @example([(TropVector(["-1/3", 0]), ZERO), (TropVector(["-1/4", "-1"]), ZERO)], False)
    @example([(TropVector([0]), NEG_INF)], True)
    @example([(TropVector([0]), "-1/2")], True)
    def test_canonical_form_matches_the_fraction_reference(self, pairs, renormalize):
        want = outcome(lambda: reference_point_atoms(pairs, renormalize))
        got = outcome(lambda: IdemMeasure(pairs, renormalize=renormalize))
        if not isinstance(got, IdemMeasure):
            assert got == want
            return
        assert [(a.coords, w) for a, w in got.atoms] == list(want)
        assert repr(got) == "IdemMeasure({" + ", ".join(f"{TropVector(c)!r}: {w}" for c, w in want) + "})"
        assert got == IdemMeasure(list(reversed(got.atoms)))


def test_point_measures_sort_without_an_input_wide_lcm():
    # 8,000 atoms in dimension 4 over the first 32,000 primes as
    # denominators build within 3x of the same atoms on the 1/8 lattice
    # (one lcm over the primes took seconds at 4,000 atoms)
    sieve = bytearray([1]) * 380_000
    sieve[:2] = b"\0\0"
    for n in range(2, 617):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(sieve[n * n :: n]))
    primes = [n for n in range(len(sieve)) if sieve[n]][:32_000]
    assert len(primes) == 32_000
    rng = random.Random(0)
    weights = [ZERO] + [Fraction(-rng.randrange(16), 8) for _ in range(7_999)]
    lattice = [[Fraction(rng.randrange(-16, 1), 8) for _ in range(4)] for _ in range(8_000)]
    prime = [[Fraction(rng.randrange(-100, 1), q) for q in primes[4 * k : 4 * k + 4]] for k in range(8_000)]
    best = {}
    for name, coords in (("lattice", lattice), ("prime", prime)):
        pairs = [(TropVector(c), w) for c, w in zip(coords, weights)]
        times = []
        for _ in range(3):
            started = time.perf_counter()
            mu = IdemMeasure(pairs)
            times.append(time.perf_counter() - started)
        best[name] = min(times)
        assert [a.coords for a, _ in mu.atoms] == sorted({tuple(c) for c in coords})
    assert best["prime"] < 3 * best["lattice"], best


class TestDensePath:
    @given(weight_lists(), st.booleans())
    @example((3, [NEG_INF] * 3), False)
    @example((3, [NEG_INF] * 3), True)
    @example((2, [ZERO, POS_INF]), False)
    @example((2, [NEG_INF, POS_INF]), True)
    @example((2, ["-1/8", "-1"]), False)
    @example((2, ["1/8", "0"]), False)
    @example((3, ["-1/2", "-inf", "-3/4"]), True)
    @example((3, ["1/4", "0", "-inf"]), True)
    def test_from_weights(self, case, renormalize):
        n, weights = case
        space = FiniteSpace(n)
        assert_matches_reference(
            space,
            lambda: IdemMeasure.from_weights(space, weights, renormalize=renormalize),
            list(enumerate(weights)),
            renormalize,
        )

    @given(index_pairs(), st.booleans())
    @example((3, [(1, "-1"), (1, "0"), (2, "-1/8"), (2, "-1/4")]), False)
    @example((3, [(2, "-1"), (0, "-1/2"), (2, "-1/4")]), True)
    @example((2, [(0, "0"), (0, "+inf")]), False)
    @example((2, []), False)
    def test_index_pairs(self, case, renormalize):
        n, pairs = case
        space = FiniteSpace(n)
        assert_matches_reference(
            space, lambda: IdemMeasure(pairs, space=space, renormalize=renormalize), pairs, renormalize
        )

    @given(measure_pairs(), grid_weight, st.booleans())
    @example((2, [ZERO, NEG_INF], [NEG_INF, ZERO]), NEG_INF, True)
    @example((2, [ZERO, NEG_INF], [NEG_INF, ZERO]), NEG_INF, False)
    @example((1, [ZERO], [ZERO]), ZERO, True)
    def test_combine(self, case, t, t_first):
        n, first_w, second_w = case
        space = FiniteSpace(n)
        params = ConvexParams(t, ZERO) if t_first else ConvexParams(ZERO, t)
        first = IdemMeasure.from_weights(space, first_w)
        second = IdemMeasure.from_weights(space, second_w)
        pairs = [(i, odot(params.t, w)) for i, w in enumerate(first_w)]
        pairs += [(i, odot(params.p, w)) for i, w in enumerate(second_w)]
        assert_matches_reference(space, lambda: combine(first, second, params), pairs)

    @given(mapped_measures())
    @example((3, [ZERO, "-1/2", "-1"], 2, [0, 1, 1]))
    @example((3, ["-1", ZERO, NEG_INF], 4, [3, 0, 3]))
    @example((2, [NEG_INF, ZERO], 1, [0, 0]))
    def test_pushforward(self, case):
        n, weights, m, table = case
        source, target = FiniteSpace(n), FiniteSpace(m)
        f = SpaceMap(source, target, table)
        mu = IdemMeasure.from_weights(source, weights)
        pairs = [(table[i], scalar(w)) for i, w in enumerate(weights)]
        assert_matches_reference(target, lambda: pushforward(f, mu), pairs)


# Reference families, evaluated test by test as mu(phi): measure_dist must
# give the float of the max of rho over them.


def space_family(space: FiniteSpace) -> list:
    """Indicator tables (0 at one point, -1000 elsewhere), then the
    coordinate projections when the space is embedded."""
    tables = []
    for i in range(space.n):
        values = [Fraction(-1000)] * space.n
        values[i] = ZERO
        tables.append(FunctionTable(space, values))
    if space.points is not None:
        for j in range(space.points[0].dim):
            tables.append(FunctionTable(space, [p[j] for p in space.points]))
    return tables


def affine_family(dim: int) -> list:
    """32 max-plus affine tests const oplus max_j (coeffs[j] odot p_j),
    drawn from seed 0 on the grid -2..0 by 1/8: coefficients, then const."""
    grid = [Fraction(k, 8) for k in range(-16, 1)]
    rng = random.Random(0)
    tests = []
    for _ in range(32):
        coeffs = [rng.choice(grid) for _ in range(dim)]
        const = rng.choice(grid)
        tests.append(lambda p, coeffs=coeffs, const=const: oplus(oplus_all(map(odot, coeffs, p.coords)), const))
    return tests


def value_family(dim: int) -> list:
    """Projections and pairwise mins: the tests `_point_values` takes."""
    tests = [lambda p, j=j: p[j] for j in range(dim)]
    return tests + [lambda p, i=i, j=j: trop_min(p[i], p[j]) for i in range(dim) for j in range(i + 1, dim)]


def point_family(dim: int) -> list:
    """Projections, pairwise mins, and the 32 affine tests."""
    return value_family(dim) + affine_family(dim)


def reference_dist(mu: IdemMeasure, nu: IdemMeasure, family) -> float:
    return max(rho(mu(phi), nu(phi)) for phi in family)


class TestMeasureDist:
    def test_zero_iff_equal_on_tests(self, three_space):
        mu = IdemMeasure([(0, "0"), (1, "-1/2")], space=three_space)
        nu = IdemMeasure([(0, "0"), (1, "-1/2")], space=three_space)
        assert measure_dist(mu, nu) == 0.0

    def test_positive_on_different_measures(self, three_space):
        mu = IdemMeasure([(0, "0")], space=three_space)
        nu = IdemMeasure([(1, "0")], space=three_space)
        assert measure_dist(mu, nu) > 0.1

    def test_symmetry(self, three_space):
        mu = IdemMeasure([(0, "0"), (2, "-1")], space=three_space)
        nu = IdemMeasure([(1, "0")], space=three_space)
        assert math.isclose(measure_dist(mu, nu), measure_dist(nu, mu))

    def test_measures_of_measures_have_no_default_family(self, three_space):
        inner = IdemMeasure([(0, "0"), (1, "-1/2")], space=three_space)
        other = IdemMeasure([(2, "0")], space=three_space)
        big = IdemMeasure([(inner, "0"), (other, "-1")])
        with pytest.raises(BadInput) as caught:
            measure_dist(big, IdemMeasure([(inner, "0")]))
        assert type(caught.value) is BadInput
        assert str(caught.value) == "measures over measures have no default test family"

    def test_mixed_point_dimensions_still_refused(self):
        mu = IdemMeasure([(TropVector(["0"]), "0")])
        nu = IdemMeasure([(TropVector(["0", "0"]), "0")])
        with pytest.raises(DimensionMismatch, match="point measures of mixed dimension"):
            measure_dist(mu, nu)

    def test_mixed_spaces_refused(self, three_space):
        on_space = IdemMeasure([(0, "0")], space=three_space)
        on_points = IdemMeasure([(TropVector(["0"]), "0")])
        for pair in ((on_space, on_points), (on_points, on_space), (on_space, IdemMeasure.dirac(0, FiniteSpace(2)))):
            with pytest.raises(SpaceMismatch) as caught:
                measure_dist(*pair)
            assert str(caught.value) == "no default test family across different spaces"

    def test_weights_below_the_exp_range_read_as_minus_infinity(self):
        space = FiniteSpace(2)
        mu = IdemMeasure.from_weights(space, [ZERO, scalar(-800)])
        nu = IdemMeasure.from_weights(space, [ZERO, NEG_INF])
        assert measure_dist(mu, nu) == 0.0
        assert measure_dist(mu, IdemMeasure.from_weights(space, [ZERO, scalar(-700)])) > 0.0


eighths = st.integers(min_value=-16, max_value=16).map(lambda k: Fraction(k, 8))


def point_measures(dim: int):
    atom = st.tuples(st.lists(eighths, min_size=dim, max_size=dim).map(TropVector), eighths)
    return st.lists(atom, min_size=1, max_size=8).map(lambda pairs: IdemMeasure(pairs, renormalize=True))


point_measure_pairs = st.integers(min_value=1, max_value=4).flatmap(
    lambda dim: st.tuples(point_measures(dim), point_measures(dim))
)


def pm(*atoms):
    return IdemMeasure([(TropVector(p), w) for p, w in atoms])


# measure_dist of fixed point-measure pairs in dimensions 1 to 4, as the
# test-family implementation computed them; the floats must not move.
PINNED_POINT_DISTANCES = [
    (pm((("0",), 0)), pm((("-1/2",), 0)), 0.3934693402873666),
    (pm((("-3",), 0), (("1",), "-7/4")), pm((("-1",), 0)), 0.10448711156957236),
    (pm((("2",), "-1/8"), (("-5/2",), 0)), pm((("3/4",), 0), (("-9",), "-1")), 4.403819103717438),
    (pm(((0, 0), 0)), pm(((-1, 0), 0), ((0, -1), 0)), 0.6321205588285577),
    (pm(((-2, -1), 0), ((-1, -2), 0)), pm(((-1, -1), 0)), 0.23254415793482963),
    (
        pm((("1/3", "-2/7"), 0), (("5", "-5"), "-3/2")),
        pm((("-1/3", "2/7"), "-1/5"), ((0, 0), 0)),
        32.11545195869231,
    ),
    (pm(((0, 0, 0), 0)), pm(((0, 0, "-1/16"), 0)), 0.06058693718652419),
    (
        pm(((1, -1, 2), 0), ((-2, 3, 0), "-1/2"), ((0, 0, -4), "-2")),
        pm(((2, 2, 2), 0), ((-1, -1, -1), "-5/8")),
        7.021176657759208,
    ),
    (pm((("-7/3", "1/9", 4), 0)), pm((("4", "-7/3", "1/9"), 0)), 54.50117806527983),
    (pm(((0, 0, 0, 0), 0)), pm(((-1, -2, -3, -4), 0)), 0.9816843611112658),
    (
        pm(((3, -1, "1/2", -2), 0), ((-2, 4, 0, "3/8"), "-3/4"), ((1, 1, 1, 1), "-1/8")),
        pm(((0, 2, -2, 1), 0), ((5, -5, "5/3", 0), "-7/2")),
        18.401283818262414,
    ),
    (
        pm(*[((k, -k, "1/8", -2), f"-{k}/8") for k in range(8)]),
        pm(((0, 0, 0, 0), 0), ((-2, 2, "-1/2", "3/8"), "-3/4")),
        456.14471326890896,
    ),
]


@pytest.mark.parametrize("mu, nu, expected", PINNED_POINT_DISTANCES)
def test_point_distances_are_pinned(mu, nu, expected):
    assert measure_dist(mu, nu) == expected
    assert measure_dist(nu, mu) == expected


class TestBarycenterFactoredDist:
    """measure_dist compares the barycenter and the pairwise minima; the
    answer must equal the atom-by-atom evaluation of the reference
    family, which also has the 32 affine tests, as those never raise the
    distance (see `measures._point_values`)."""

    @given(point_measure_pairs)
    @example((pm(((-1,), 0)), pm(((-1,), 0))))
    @example((pm(((0,), 0), ((-2,), "-1/8")), pm(((-1,), 0))))
    # same barycenter (-1,-1): only the non-affine min test tells them apart
    @example((pm(((-2, -1), 0), ((-1, -2), 0)), pm(((-1, -1), 0))))
    @example(
        (
            pm(*[((k, -k, "1/8", -2), f"-{k}/8") for k in range(8)]),
            pm(((0, 0, 0, 0), 0), ((-2, 2, "-1/2", "3/8"), "-3/4")),
        )
    )
    def test_matches_atom_by_atom_evaluation(self, pair):
        mu, nu = pair
        dim = mu.atoms[0][0].dim
        assert measure_dist(mu, nu) == reference_dist(mu, nu, point_family(dim))
        for m in (mu, nu):
            # _point_values gives int pairs; each must be the test's value
            values = measures._point_values(m)
            assert [Fraction(n, d) for n, d in values] == [m(phi) for phi in value_family(dim)]
            beta = barycenter_point(m)
            for phi in affine_family(dim):
                assert m(phi) == phi(beta)


finite_spaces = st.one_of(
    st.integers(min_value=1, max_value=8).map(FiniteSpace),
    st.integers(min_value=1, max_value=3).flatmap(
        lambda dim: st.lists(
            st.tuples(*[eighths] * dim), min_size=1, max_size=8, unique=True
        ).map(lambda pts: FiniteSpace(len(pts), points=[TropVector(p) for p in pts]))
    ),
)
# -inf, ties after renormalizing, and weights at and below the indicator depth
family_weight = st.one_of(
    st.just(NEG_INF),
    eighths,
    st.sampled_from([Fraction(-1000), Fraction(-8001, 8), Fraction(-2000)]),
)


def measure_pairs_on(space: FiniteSpace):
    weights = st.lists(family_weight, min_size=space.n, max_size=space.n).filter(
        lambda ws: any(w is not NEG_INF for w in ws)
    )
    measure = weights.map(lambda ws: IdemMeasure.from_weights(space, ws, renormalize=True))
    return st.tuples(st.just(space), measure, measure)


def on(space, *weights):
    return (space, *(IdemMeasure.from_weights(space, ws) for ws in weights))


class TestOnePassSpaceFamily:
    """On a finite space measure_dist compares weights (and projections)
    in one pass; it must give the floats of the reference tables, whose
    -1000 floor no float can see."""

    @given(finite_spaces.flatmap(measure_pairs_on))
    @example(on(FiniteSpace(1), [ZERO], [ZERO]))
    @example(on(FiniteSpace(2), [ZERO, ZERO], [ZERO, scalar("-1")]))
    @example(on(FiniteSpace(3), [NEG_INF, ZERO, NEG_INF], [ZERO, scalar("-1001"), NEG_INF]))
    @example(
        on(
            FiniteSpace(2, points=[TropVector(["0", "-1"]), TropVector(["-1", "0"])]),
            [ZERO, ZERO],
            [NEG_INF, ZERO],
        )
    )
    @example(on(FiniteSpace(3), [ZERO, scalar(-2000), NEG_INF], [scalar(-2000), ZERO, scalar("-1/8")]))
    @example(on(FiniteSpace(2), [ZERO, scalar(-(10**400))], [scalar(-(10**400)), ZERO]))
    @example(
        on(
            FiniteSpace(3, points=[TropVector(["0"]), TropVector(["-1"]), TropVector(["1"])]),
            [ZERO, scalar(-(10**400)), scalar(-2000)],
            [ZERO, NEG_INF, NEG_INF],
        )
    )
    def test_matches_the_tables(self, case):
        space, mu, nu = case
        tables = space_family(space)
        assert measure_dist(mu, nu) == reference_dist(mu, nu, tables)
        per_value = list(map(rho, measures._space_values(mu), measures._space_values(nu)))
        assert per_value == [rho(mu(phi), nu(phi)) for phi in tables]

    def test_linear_in_the_number_of_points(self):
        space = FiniteSpace(2000)
        mu = IdemMeasure.from_weights(space, [ZERO] + [scalar(-k) for k in range(1, 2000)])
        nu = IdemMeasure.from_weights(space, [NEG_INF] * 1999 + [ZERO])
        started = time.perf_counter()
        assert measure_dist(mu, nu) == 1.0
        assert time.perf_counter() - started < 1.0


def test_a_space_without_embedding_has_no_points(three_space):
    assert three_space.index_of_point(TropVector(["0", "0"])) is None


class TestFunctionTable:
    def test_only_finite_values(self, three_space):
        with pytest.raises(BadInput):
            FunctionTable(three_space, ["0", "-inf", "0"])

    def test_shift_join_constant(self, three_space):
        phi = FunctionTable(three_space, ["0", "-1", "2"])
        assert phi.shift(scalar("1")).values[1] == 0
        assert phi.join(FunctionTable.constant(three_space, 1)).values == (1, 1, 2)
