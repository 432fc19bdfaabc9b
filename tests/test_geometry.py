"""Boxes, finitely generated hulls, extremal points, and the hook hull."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropibary import geometry
from tropibary.core import NEG_INF, ZERO, ConvexParams, TropVector, _combination, odot, oplus, s_point, scalar
from tropibary.errors import BadInput, DimensionMismatch, TropibaryError
from tropibary.geometry import (
    Box,
    TropPolytope,
    _y_table,
    extremal_points,
    hull_membership,
    id_space,
    nu_t,
    phi_min,
    render_polytope_svg,
    separating_table,
    y_polytope,
)
from tropibary.measures import IdemMeasure


def v(*coords):
    return TropVector(coords)


class TestBox:
    def test_contains_and_intervals(self):
        b = Box(v("-2", "-1"), v("0", "0"))
        assert b.dim == 2
        assert b.contains(v("-1", "-1/2"))
        assert b.contains(b.low) and b.contains(b.high)
        assert not b.contains(v("-3", "-1/2"))
        assert not b.contains(v("-1", "1/2"))
        assert b.interval(0) == (scalar("-2"), ZERO)
        assert b.interval(1) == (scalar("-1"), ZERO)

    def test_corners_polytope(self):
        b = Box(v("-1", "-2"), v("0", "0"))
        corners = b.corners_polytope()
        assert set(corners.generators) == {
            v("-1", "-2"),
            v("-1", "0"),
            v("0", "-2"),
            v("0", "0"),
        }
        # degenerate box collapses to a single generator
        point = Box(v("-1", "-1"), v("-1", "-1")).corners_polytope()
        assert corners_count(point) == 1

    def test_bad_boxes(self):
        with pytest.raises(DimensionMismatch):
            Box(v("0"), v("0", "0"))
        with pytest.raises(BadInput, match="finite"):
            Box(TropVector([NEG_INF, ZERO]), v("0", "0"))
        with pytest.raises(BadInput, match="exceeds"):
            Box(v("0", "0"), v("-1", "0"))
        with pytest.raises(DimensionMismatch):
            Box(v("-1", "-1"), v("0", "0")).contains(v("0"))


def corners_count(poly):
    return len(poly.generators)


class TestPolytope:
    def test_duplicate_generators_collapse(self):
        poly = TropPolytope([v("0", "0"), v("0", "0"), v("-1", "-1")])
        assert corners_count(poly) == 2

    def test_bad_generators(self):
        with pytest.raises(BadInput, match="at least one"):
            TropPolytope([])
        with pytest.raises(BadInput, match="finite"):
            TropPolytope([TropVector([NEG_INF])])
        with pytest.raises(DimensionMismatch):
            TropPolytope([v("0"), v("0", "0")])

    def test_combination_arity(self):
        poly = TropPolytope([v("0", "0"), v("-1", "-1")])
        with pytest.raises(BadInput, match="per generator"):
            poly.combination([ZERO])

    def test_contains_dimension(self):
        with pytest.raises(DimensionMismatch):
            TropPolytope([v("0", "0")]).contains(v("0"))


lattice_point = st.lists(st.integers(-3, 0), min_size=2, max_size=2)


@settings(max_examples=200, deadline=None)
@given(st.lists(lattice_point, min_size=1, max_size=6), st.data())
@example([[0, 0], [-1, -2]], None)
def test_polytope_equality_is_equality_of_generator_sets(first, data):
    """Rows decide polytope equality as the generator sets do: reordered
    and repeated generators, spelled as other Fractions, too."""
    if data is None:
        second = [[-1, -2], [0, 0], [0, 0]]
    else:
        reordered = st.permutations(first + first[:1])
        second = data.draw(st.one_of(reordered, st.lists(lattice_point, min_size=1, max_size=6)))
    a = TropPolytope([TropVector(p) for p in first])
    b = TropPolytope([TropVector([f"{2 * c}/2" for c in p]) for p in second])
    assert (a == b) == (set(a.generators) == set(b.generators)) == (b == a)


class TestHullMembership:
    def test_frozen_diagonal_point(self):
        poly = TropPolytope([v("0", "0"), v("-2", "-2")])
        assert hull_membership(poly, v("-1", "-1")) == (scalar("-1"), ZERO)

    def test_frozen_hook_corner(self):
        coeffs = hull_membership(y_polytope(), v("-1", "-1"))
        assert coeffs == (ZERO, ZERO, scalar("-1"))

    def test_clamp_rejects_dominating_point(self):
        # (0,0) dominates the only generator; unclamped residuation would
        # report it inside with a positive coefficient
        poly = TropPolytope([v("-1", "-1")])
        assert hull_membership(poly, v("0", "0")) is None

    def test_dominated_point_is_outside(self):
        poly = TropPolytope([v("0", "-1"), v("-1", "0"), v("-1/2", "-1/2")])
        assert hull_membership(poly, v("-1", "-1")) is None

    def test_generators_are_members(self):
        poly = y_polytope()
        for g in poly.generators:
            coeffs = hull_membership(poly, g)
            assert coeffs is not None
            assert poly.combination(coeffs) == g

    def test_reconstruction_contract(self):
        poly = y_polytope()
        x = v("-3/2", "-1")
        coeffs = hull_membership(poly, x)
        assert coeffs is not None
        assert max(c for c in coeffs if c is not NEG_INF) == 0
        assert poly.combination(coeffs) == x

    def test_outside_hook(self):
        assert hull_membership(y_polytope(), v("-2", "-2")) is None


class TestExtremalPoints:
    def test_hook_generators_are_extremal(self):
        ext = extremal_points(y_polytope())
        assert set(ext) == {v("-2", "-1"), v("-1", "-2"), v("0", "0")}

    def test_redundant_generator_dropped(self):
        poly = TropPolytope([v("-2", "-1"), v("-1", "-2"), v("0", "0"), v("-3/2", "-1")])
        ext = extremal_points(poly)
        assert set(ext) == {v("-2", "-1"), v("-1", "-2"), v("0", "0")}

    def test_sampled_confirmation_passes(self):
        ext = extremal_points(y_polytope(), samples=40, seed=11)
        assert set(ext) == {v("-2", "-1"), v("-1", "-2"), v("0", "0")}

    def test_single_generator(self):
        assert extremal_points(TropPolytope([v("0", "0")])) == (v("0", "0"),)

    def test_sampled_decomposition_refutes_a_kept_redundant_generator(self, monkeypatch):
        # with pruning switched off, (0, 0) = (0, -1) oplus (-1, 0) survives,
        # and the sampled check must catch it; pruning asks _residuation
        monkeypatch.setattr(geometry, "_residuation", lambda gens, x: None)
        poly = TropPolytope([v("0", "-1"), v("-1", "0"), v("0", "0")])
        with pytest.raises(TropibaryError, match="refuted"):
            extremal_points(poly, samples=20, seed=1)

    def test_one_combination_is_the_two_step_combination(self):
        # s(y, z) with y = oplus_i a_i odot g_i and z = oplus_i b_i odot g_i
        # is oplus_i (t odot a_i oplus p odot b_i) odot g_i, which
        # _s_reaches judges over integers, here at the denominator 4
        rng = random.Random(3)
        grid = [Fraction(k, 4) for k in range(-8, 1)] + [NEG_INF]
        for _ in range(400):
            dim, k = rng.randrange(1, 4), rng.randrange(1, 5)
            gens = [TropVector([Fraction(rng.randrange(-8, 1), 4) for _ in range(dim)]) for _ in range(k)]
            a, b = [rng.choice(grid) for _ in gens], [rng.choice(grid) for _ in gens]
            a[rng.randrange(k)] = b[rng.randrange(k)] = ZERO
            t = rng.choice(grid)
            params = ConvexParams(t, ZERO if t != ZERO else rng.choice(grid))
            s = s_point(_combination(gens, a), _combination(gens, b), params)
            coeffs = [oplus(odot(params.t, x), odot(params.p, y)) for x, y in zip(a, b)]
            assert _combination(gens, coeffs) == s
            other = TropVector([rng.choice(grid[:-1]) for _ in range(dim)])
            columns = [at_den(col, 4) for col in zip(*[g.coords for g in gens])]
            for target in (s, other):
                reached = geometry._s_reaches(
                    *at_den([params.t, params.p], 4), at_den(a, 4), at_den(b, 4), columns, at_den(target.coords, 4)
                )
                assert reached is (target == s)

    def test_integer_check_hits_the_samples_the_fraction_check_hits(self, monkeypatch):
        # denominators 3 and 5 are not those of the 1/8 grid, so the
        # common denominator differs from 8
        rng = random.Random(23)
        hits = 0
        for _ in range(60):
            dim, k = rng.randrange(1, 5), rng.randrange(1, 7)
            gens = [
                TropVector([Fraction(rng.randrange(-30, 1), rng.choice((1, 3, 5, 15))) for _ in range(dim)])
                for _ in range(k)
            ]
            poly = TropPolytope(gens)
            seed = rng.randrange(10**6)
            want = reference_extremal_hits(extremal_points(poly), 25, seed)
            assert integer_extremal_hits(monkeypatch, poly, 25, seed) == want
            hits += sum(want)
        assert hits > 100

    def test_coprime_denominators_stay_exact(self, monkeypatch):
        # 8 generators over the first 64 primes: the common denominator is
        # 8 times their product, and the check must still be exact
        primes = [q for q in range(2, 312) if all(q % d for d in range(2, int(q**0.5) + 1))]
        assert len(primes) == 64
        rng = random.Random(5)
        gens = [TropVector([Fraction(-rng.randrange(1, q), q) for q in primes[8 * k : 8 * k + 8]]) for k in range(8)]
        poly = TropPolytope(gens)
        ext = extremal_points(poly, samples=200, seed=7)
        assert ext == extremal_points(poly)
        hits = integer_extremal_hits(monkeypatch, poly, 200, 7)
        assert hits == reference_extremal_hits(ext, 200, 7)
        assert any(hits)


def at_den(values, den: int) -> list:
    """Scalars as the integers value·den, with -inf as None."""
    return [None if x is NEG_INF else int(x * den) for x in values]


def reference_extremal_hits(survivors, samples: int, seed: int) -> list:
    """Whether each sample of `extremal_points`' sampled check combined to
    its survivor, in draw order, as the loop over `Fraction`s drew and
    judged them before the check ran over integers."""
    rng = random.Random(seed)
    grid = [Fraction(n, 8) for n in range(-16, 1)]
    n = len(survivors)

    def draw():
        coeffs = [rng.choice(grid) if rng.random() < 0.8 else NEG_INF for _ in range(n)]
        coeffs[rng.randrange(n)] = ZERO
        return coeffs

    hits = []
    for v in survivors:
        for _ in range(samples):
            a, b = draw(), draw()
            t = rng.choice(grid) if rng.random() < 0.9 else NEG_INF
            p = ZERO if t < ZERO or rng.random() < 0.5 else rng.choice(grid)
            hits.append(s_point(_combination(survivors, a), _combination(survivors, b), ConvexParams(t, p)) == v)
    return hits


def integer_extremal_hits(monkeypatch, poly, samples: int, seed: int) -> list:
    """What `_s_reaches` answered for each sample of `extremal_points`."""
    hits = []
    reaches = geometry._s_reaches

    def recorded(*args):
        hits.append(reaches(*args))
        return hits[-1]

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_s_reaches", recorded)
        extremal_points(poly, samples=samples, seed=seed)
    return hits


class TestTwoPointPath:
    def test_id_space_shape(self):
        space = id_space()
        assert space.n == 2
        assert space.labels == ("0", "1")
        assert space.points == (TropVector([0]), TropVector([1]))

    def test_nu_path_values(self):
        phi = separating_table(id_space())
        assert type(nu_t(0)(phi)) is Fraction and nu_t(0)(phi) == scalar(1)
        assert type(nu_t("-1/4")(phi)) is Fraction and nu_t("-1/4")(phi) == scalar(1)
        assert nu_t(0) == IdemMeasure.from_weights(id_space(), [ZERO, ZERO])
        assert nu_t("-3") == IdemMeasure.from_weights(id_space(), [scalar("-3"), ZERO])

    def test_dirac_endpoint_separated(self):
        phi = separating_table(id_space())
        assert IdemMeasure.dirac(0, id_space())(phi) == ZERO


def on_hook(p: TropVector) -> bool:
    """p lies on one of the hook hull's three pieces: the segments
    y = -1 and x = -1 from -2 to -1, and the diagonal from -1 to 0."""
    x, y = p.coords
    if y == -1 and -2 <= x <= -1:
        return True
    if x == -1 and -2 <= y <= -1:
        return True
    return x == y and -1 <= x <= 0


class TestHookPieces:
    def test_piece_membership(self):
        # every entry of the table the y-beta certificate draws from
        for i in (1, 2, 3, 5, 7, 8, 100):
            table = _y_table(i)
            den = table.den
            c = Fraction(-1) + Fraction(1, i)
            for e in [table.normalizer, *table.diagonal, *(entry for leg in table.legs for entry in leg)]:
                p = e.point
                assert on_hook(p)
                assert hull_membership(y_polytope(), p) is not None
                cap = Fraction(e.cap, den)
                assert cap == min(c - p[0], c - p[1], 0)
                assert e.attains is (cap + p[0] == c == cap + p[1])
                assert e.text == f"(TropVector([{p[0]}, {p[1]}]), "

    def test_hull_points_lie_on_pieces(self):
        # the hull is exactly the three one-dimensional pieces
        poly = y_polytope()
        rng = random.Random(5)
        grid = [Fraction(-k, 8) for k in range(0, 17)]
        for _ in range(300):
            coeffs = [scalar(rng.choice(grid)) if rng.random() < 0.8 else NEG_INF for _ in range(3)]
            coeffs[rng.randrange(3)] = ZERO
            p = poly.combination(coeffs)
            assert on_hook(p)
            assert hull_membership(poly, p) is not None

    def test_min_table_on_hook(self):
        assert type(phi_min(v("-2", "-1"))) is Fraction and phi_min(v("-2", "-1")) == scalar("-2")
        assert type(phi_min(v("-1/2", "-1/2"))) is Fraction and phi_min(v("-1/2", "-1/2")) == scalar("-1/2")


class TestRendering:
    def test_svg_smoke(self, tmp_path):
        out = tmp_path / "hook.svg"
        poly = y_polytope()
        render_polytope_svg(poly, str(out), extremal=extremal_points(poly))
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.count('r="9"') == 3  # each extremal point gets a ring

    def test_svg_needs_dimension_two(self, tmp_path):
        with pytest.raises(BadInput, match="dimension 2"):
            render_polytope_svg(TropPolytope([v("0")]), str(tmp_path / "no.svg"))
