"""Boxes, finitely generated hulls, extremal points, and the hook hull."""

import random
from fractions import Fraction

import pytest

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
        # and the sampled check must catch it
        monkeypatch.setattr(geometry, "hull_membership", lambda poly, x: None)
        poly = TropPolytope([v("0", "-1"), v("-1", "0"), v("0", "0")])
        with pytest.raises(TropibaryError, match="refuted"):
            extremal_points(poly, samples=20, seed=1)

    def test_one_combination_is_the_two_step_combination(self):
        # s(y, z) with y = oplus_i a_i odot g_i and z = oplus_i b_i odot g_i
        # is oplus_i (t odot a_i oplus p odot b_i) odot g_i
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
            for target in (s, other):
                assert geometry._combination_is(gens, coeffs, target) is (target == s)


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
        render_polytope_svg(poly, str(out), extremal=extremal_points(poly), extra_points=[v("-1", "-1")])
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.count('r="9"') == 3  # each extremal point gets a ring
        assert 'r="4"' in text  # the extra point

    def test_svg_needs_dimension_two(self, tmp_path):
        with pytest.raises(BadInput, match="dimension 2"):
            render_polytope_svg(TropPolytope([v("0")]), str(tmp_path / "no.svg"))
