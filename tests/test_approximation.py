"""Cover approximations: collapse atoms per element, keep the barycenter."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropibary.approximation import (
    Cover,
    IndexElement,
    cover_approximation,
    cover_pieces,
    cover_reconstruction,
    refinement_sweep,
    refines,
)
from tropibary.barycenter import barycenter_point
from tropibary.core import TropVector, ZERO
from tropibary.errors import BadInput, NonConvexElement, UncoveredAtom
from tropibary.geometry import Box, TropPolytope
from tropibary.measures import FiniteSpace, IdemMeasure, measure_dist
from tropibary.sampling import random_measure_on_space, random_point_measure, spawn, standard_box

BOX = standard_box(2)


def pm(*pairs):
    return IdemMeasure([(TropVector(coords), w) for coords, w in pairs])


def box_el(lo, hi):
    return Box(TropVector(lo), TropVector(hi))


def poly_el(*generators):
    return TropPolytope([TropVector(g) for g in generators])


def idx_el(*indices):
    return IndexElement(indices)


class TestCoverPieces:
    def test_frozen_two_cell_collapse(self):
        # two atoms per cell; each cell contributes its conditional barycenter
        mu = pm(
            (("-2", "-1"), "0"),
            (("-3/2", "-3/4"), "-1/4"),
            (("-1/2", "-1/2"), "-1/2"),
            (("-1/4", "-1"), "-1"),
        )
        cover = Cover([box_el(("-2", "-2"), ("-1", "0")), box_el(("-1", "-2"), ("0", "0"))])
        pieces = cover_pieces(mu, cover)
        assert [p.element_index for p in pieces] == [0, 1]
        assert [str(p.weight) for p in pieces] == ["0", "-1/2"]
        assert pieces[0].point == TropVector(("-7/4", "-1"))
        assert pieces[1].point == TropVector(("-1/2", "-1/2"))

    def test_empty_elements_are_skipped(self):
        mu = pm((("-2", "-2"), "0"))
        cover = Cover([box_el(("-2", "-2"), ("-1", "-1")), box_el(("-1/2", "-1/2"), ("0", "0"))])
        pieces = cover_pieces(mu, cover)
        assert [p.element_index for p in pieces] == [0]

    def test_uncovered_atom_raises(self):
        mu = pm((("-2", "-2"), "0"), (("0", "0"), "-1"))
        cover = Cover([box_el(("-2", "-2"), ("-1", "-1"))])
        with pytest.raises(UncoveredAtom):
            cover_pieces(mu, cover)

    def test_nonconvex_index_element_raises(self):
        # two embedded points whose joint barycenter is not in the subset
        pts = (
            TropVector(("-1", "0")),
            TropVector(("0", "-1")),
            TropVector(("0", "0")),
        )
        space = FiniteSpace(3, points=pts)
        mu = IdemMeasure([(0, "0"), (1, "0")], space=space)
        with pytest.raises(NonConvexElement):
            cover_pieces(mu, Cover([IndexElement([0, 1])]))

    def test_index_element_admits_its_own_points_only(self):
        # a piece's barycenter must be one of its element's embedded points
        pts = (TropVector(("-1", "0")), TropVector(("0", "-1")), TropVector(("0", "0")))
        space = FiniteSpace(3, points=pts)
        own = Cover([IndexElement([2, 0]), IndexElement([1])])
        (piece,) = cover_pieces(IdemMeasure([(0, "0")], space=space), own)
        assert (piece.atom, piece.point) == (0, pts[0])
        (piece, _) = cover_pieces(IdemMeasure([(0, "-1"), (1, "-1"), (2, "0")], space=space), own)
        assert (piece.atom, piece.point) == (2, pts[2])
        with pytest.raises(NonConvexElement, match=r"\[0, 0\]\) escaped element 0"):
            cover_pieces(IdemMeasure([(0, "0"), (1, "0")], space=space), Cover([IndexElement([0, 1])]))
        with pytest.raises(NonConvexElement, match=r"\[-1/2, 0\]\) escaped element 0"):
            cover_pieces(IdemMeasure([(0, "0"), (2, "-1/2")], space=space), own)
        with pytest.raises(BadInput, match="no embedding"):
            cover_pieces(IdemMeasure([(2, "0")], space=FiniteSpace(3)), own)

    def test_reconstruction_equals_input(self):
        mu = pm((("-2", "-1"), "0"), (("-1/2", "-1/2"), "-1/2"), (("-1", "-2"), "-1/4"))
        cover = Cover.grid(BOX, 2)
        pieces = cover_pieces(mu, cover)
        assert cover_reconstruction(pieces) == mu


class TestCoverApproximation:
    def test_frozen_barycenter_preserved(self):
        mu = pm(
            (("-2", "-1"), "0"),
            (("-3/2", "-3/4"), "-1/4"),
            (("-1/2", "-1/2"), "-1/2"),
        )
        cover = Cover([box_el(("-2", "-2"), ("-1", "0")), box_el(("-1", "-2"), ("0", "0"))])
        nu = cover_approximation(mu, cover)
        assert nu == pm((("-7/4", "-1"), "0"), (("-1/2", "-1/2"), "-1/2"))
        assert barycenter_point(nu) == barycenter_point(mu) == TropVector(("-1", "-1"))

    def test_singleton_cover_returns_measure_itself(self):
        mu = pm((("-2", "-1"), "0"), (("-1", "-2"), "-1/4"))
        assert cover_approximation(mu, Cover.singletons(mu)) == mu

    def test_index_cover_over_embedded_space(self):
        pts = (TropVector(("-1", "0")), TropVector(("0", "-2")), TropVector(("0", "0")))
        space = FiniteSpace(3, points=pts)
        mu = IdemMeasure([(0, "0"), (1, "-1/4"), (2, "-3")], space=space)
        nu = cover_approximation(mu, Cover([IndexElement([0]), IndexElement([1, 2])]))
        assert nu.space is space
        assert nu.weight_of(0) == ZERO
        assert barycenter_point(
            IdemMeasure([(pts[a], w) for a, w in nu.atoms])
        ) == TropVector(("-1/4", "0"))

    @given(st.integers(0, 10**6), st.sampled_from([1, 2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_geometric_covers_on_embedded_spaces(self, seed, splits):
        # spaces embedded on the 1/8 lattice of [-2, 0]^2
        rng = spawn(seed, "embedded-cover")
        points = tuple(p for p, _ in random_point_measure(rng, BOX, k_max=5).atoms)
        space = FiniteSpace(len(points), points=points)
        mu = random_measure_on_space(rng, space)
        one_point_polytopes = Cover([TropPolytope([points[a]]) for a, _ in mu.atoms])
        assert cover_approximation(mu, Cover.singletons(mu)) == cover_approximation(mu, one_point_polytopes) == mu
        try:
            nu = cover_approximation(mu, Cover.grid(BOX, splits))
        except NonConvexElement:
            return
        assert nu.space is space
        assert barycenter_point(nu) == barycenter_point(mu)

    def test_polytope_elements_work(self):
        mu = pm((("-1", "-1"), "0"), (("-1/2", "-3/2"), "-1/2"))
        hull = poly_el(("-1", "-1"), ("-1/2", "-3/2"))
        nu = cover_approximation(mu, Cover([hull]))
        assert nu.atom_count == 1
        assert barycenter_point(nu) == barycenter_point(mu)

    @given(st.integers(0, 10**6), st.sampled_from([1, 2, 4]))
    @settings(max_examples=60, deadline=None)
    @example(seed=170, splits=4)  # atoms on shared cell faces
    @example(seed=75, splits=4)
    def test_random_measures_on_grids(self, seed, splits):
        rng = spawn(seed, "cover")
        mu = random_point_measure(rng, BOX, k_max=5)
        nu = cover_approximation(mu, Cover.grid(BOX, splits))
        assert barycenter_point(nu) == barycenter_point(mu)
        assert nu.atom_count <= mu.atom_count or splits == 1


class TestRefinement:
    def test_grid_refinement_detected(self):
        assert refines(Cover.grid(BOX, 4), Cover.grid(BOX, 2))
        assert refines(Cover.grid(BOX, 2), Cover.grid(BOX, 1))
        assert not refines(Cover.grid(BOX, 2), Cover.grid(BOX, 4))
        assert not refines(Cover.grid(BOX, 3), Cover.grid(BOX, 2))

    def test_sweep_distances_reach_zero_at_singletons(self):
        mu = pm((("-2", "-1"), "0"), (("-1", "-2"), "-1/4"), (("-1/2", "-1/2"), "-1"))
        chain = [Cover.grid(BOX, 1), Cover.grid(BOX, 2), Cover.grid(BOX, 4)]
        rows = refinement_sweep(mu, chain)
        assert [k for k, _ in rows] == [0, 1, 2]
        assert all(d >= 0 for _, d in rows)
        singles = cover_approximation(mu, Cover.singletons(mu))
        assert measure_dist(singles, mu) == 0.0

    def test_non_refining_chain_rejected(self):
        mu = pm((("-1", "-1"), "0"))
        with pytest.raises(BadInput, match="refine"):
            refinement_sweep(mu, [Cover.grid(BOX, 2), Cover.grid(BOX, 3)])

    def test_repeated_cover_rejected(self):
        mu = pm((("-1", "-1"), "0"))
        with pytest.raises(BadInput, match="refine"):
            refinement_sweep(mu, [Cover.grid(BOX, 2), Cover.grid(BOX, 2)])


class TestCoverValidation:
    def test_mixed_kinds_rejected(self):
        with pytest.raises(BadInput, match="mix"):
            Cover([IndexElement([0]), box_el(("-1", "-1"), ("0", "0"))])

    def test_empty_cover_rejected(self):
        with pytest.raises(BadInput):
            Cover([])

    def test_empty_index_element_rejected(self):
        with pytest.raises(BadInput):
            IndexElement([])


# One cover element inside another, for every pair of element kinds.
# Index elements and geometric elements never nest.
SQUARE = poly_el(("-1", "-1"), ("0", "0"), ("-1", "0"), ("0", "-1"))
HOOK = poly_el(("-2", "-1"), ("-1", "-2"), ("0", "0"))
PLANE = box_el(("-2", "-2"), ("0", "0"))
UNIT = box_el(("-1", "-1"), ("0", "0"))
NESTING = {
    "box-in-box": (box_el(("-1", "-1"), ("-1/2", "-1/2")), PLANE, True),
    "box-not-in-box": (box_el(("-2", "-1"), ("0", "0")), UNIT, False),
    "box-in-polytope": (box_el(("-1", "-1"), ("-1/2", "-1/2")), SQUARE, True),
    "box-not-in-polytope": (box_el(("-2", "-1"), ("-1/2", "-1/2")), SQUARE, False),
    "polytope-in-box": (poly_el(("-1", "-1"), ("-1/2", "-3/2")), PLANE, True),
    "polytope-not-in-box": (poly_el(("-1", "-1"), ("1/2", "0")), PLANE, False),
    "polytope-in-polytope": (poly_el(("-1", "-1")), HOOK, True),
    "polytope-not-in-polytope": (poly_el(("-1", "-1"), ("-2", "-2")), HOOK, False),
    "index-in-index": (idx_el(0), idx_el(0, 1), True),
    "index-not-in-index": (idx_el(0, 2), idx_el(0, 1), False),
    "index-not-in-box": (idx_el(0), PLANE, False),
    "index-not-in-polytope": (idx_el(0), HOOK, False),
    "box-not-in-index": (PLANE, idx_el(0), False),
    "polytope-not-in-index": (HOOK, idx_el(0), False),
}


@pytest.mark.parametrize("small, big, inside", NESTING.values(), ids=NESTING.keys())
def test_refines_every_pair_of_kinds(small, big, inside):
    assert refines(Cover([small]), Cover([big])) == inside


COVER_EQUALITY = {
    "same-boxes": (Cover([UNIT]), Cover([box_el(("-1", "-1"), ("0", "0"))]), True),
    "box-against-its-corners": (Cover([UNIT]), Cover([SQUARE]), False),
    "generator-order": (
        Cover([poly_el(("-1", "0"), ("0", "-1"))]),
        Cover([poly_el(("0", "-1"), ("-1", "0"))]),
        True,
    ),
    "index-against-box": (Cover([idx_el(0)]), Cover([PLANE]), False),
    "index-against-polytope": (Cover([idx_el(0)]), Cover([HOOK]), False),
    "same-index-sets": (Cover([idx_el(1, 0)]), Cover([idx_el(0, 1)]), True),
    "element-order": (Cover([PLANE, HOOK]), Cover([HOOK, PLANE]), False),
}


@pytest.mark.parametrize("first, second, equal", COVER_EQUALITY.values(), ids=COVER_EQUALITY.keys())
def test_cover_equality_across_kinds(first, second, equal):
    assert (first == second) == equal
    assert (second == first) == equal
