"""The cover layer agrees with a plain Fraction reference, and does each
exact step once.

`reference_pieces` places each atom by `low.leq(p) and p.leq(high)` for
boxes, `hull_membership` for polytopes and set membership for index
elements, builds each conditional with `IdemMeasure(inside, space=space,
renormalize=True)` and each conditional barycenter by Fraction sums.
`cover_pieces` must agree with it on element index, weight, conditional
atoms and density, and barycenter atom, all compared by type, numerator
and denominator, or raise the same error with the same words.
`reference_inside` is `approximation._inside` over `TropVector.leq` and
`hull_membership`.  A refinement sweep must give the rows of
`measure_dist(cover_approximation(mu, c), mu)` float for float.

The call counts at the end pin the work itself: one cover approximation
builds two measures through `IdemMeasure.__init__`, the approximation
and the reconstruction, and one sweep reads its measure's barycenter and
distance values once.
"""

import random
from fractions import Fraction
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropibary import approximation, measures
from tropibary.approximation import (
    Cover,
    IndexElement,
    cover_approximation,
    cover_pieces,
    refinement_sweep,
    refines,
)
from tropibary.core import NEG_INF, ZERO, TropVector
from tropibary.errors import NonConvexElement, TropibaryError, UncoveredAtom
from tropibary.geometry import Box, TropPolytope, hull_membership
from tropibary.measures import FiniteSpace, IdemMeasure, measure_dist
from tropibary.sampling import standard_box

BOX = standard_box(2)

# -- the Fraction references ---------------------------------------------------


def reference_holds(element, atom, point) -> bool:
    if isinstance(element, IndexElement):
        return atom in element.indices
    if isinstance(element, Box):
        return element.low.leq(point) and point.leq(element.high)
    return hull_membership(element, point) is not None


def reference_barycenter(pairs, space) -> TropVector:
    points = [a if space is None else space.points[a] for a, _ in pairs]
    dim = len(points[0].coords)
    return TropVector([max(w + p.coords[j] for p, (_, w) in zip(points, pairs)) for j in range(dim)])


def reference_pieces(mu, cover) -> list:
    space = mu.space
    groups = {}
    for atom, weight in mu.atoms:
        point = atom if space is None else space.points[atom]
        for k, element in enumerate(cover.elements):
            if reference_holds(element, atom, point):
                groups.setdefault(k, []).append((atom, weight))
                break
        else:
            raise UncoveredAtom(f"atom {atom!r} lies in no cover element")
    pieces = []
    for k in sorted(groups):
        inside = groups[k]
        conditional = IdemMeasure(inside, space=space, renormalize=True)
        point = reference_barycenter(conditional.atoms, space)
        atom = point if space is None else space.index_of_point(point)
        if atom is None or not reference_holds(cover.elements[k], atom, point):
            raise NonConvexElement(f"barycenter {point!r} escaped element {k} of the cover")
        pieces.append((k, max(w for _, w in inside), conditional, atom))
    return pieces


def reference_inside(small, big) -> bool:
    if isinstance(small, IndexElement) or isinstance(big, IndexElement):
        return isinstance(small, IndexElement) and isinstance(big, IndexElement) and small.indices <= big.indices
    if isinstance(small, Box) and isinstance(big, Box):
        return big.low.leq(small.low) and small.high.leq(big.high)
    gens = small.corners_polytope().generators if isinstance(small, Box) else small.generators
    return all(reference_holds(big, None, g) for g in gens)


# -- comparison by slots ---------------------------------------------------------


def slots(x):
    """A scalar, point or index as plain data: a Fraction is its type and
    its two slots, so an int or an unreduced value cannot pass for it."""
    if isinstance(x, TropVector):
        return tuple(map(slots, x.coords))
    if type(x) is Fraction:
        return ("Fraction", x._numerator, x._denominator)
    return x


def measure_slots(mu) -> tuple:
    density = tuple(map(slots, mu.density())) if mu.space is not None else None
    return tuple((slots(a), slots(w)) for a, w in mu.atoms), density


def outcome(build) -> object:
    """What `build()` gives as (element index, weight, conditional,
    atom) rows, or the class and words of the error it raises."""
    try:
        return [(k, slots(w), measure_slots(c), slots(a)) for k, w, c, a in build()]
    except TropibaryError as exc:
        return type(exc).__name__, str(exc)


def library_pieces(mu, cover) -> list:
    pieces = cover_pieces(mu, cover)
    assert all(piece.conditional.space is mu.space for piece in pieces)
    return [(p.element_index, p.weight, p.conditional, p.atom) for p in pieces]


def agree(mu, cover) -> None:
    got = outcome(lambda: library_pieces(mu, cover))
    assert got == outcome(lambda: reference_pieces(mu, cover))


# -- inputs ----------------------------------------------------------------------

# An atom is (x, y, w): the point (x/8, y/8) of [-2, 0]^2 and the weight
# w/8, or -inf for w = -17 on an embedded space.
ATOMS = st.lists(
    st.tuples(st.integers(-16, 0), st.integers(-16, 0), st.integers(-17, 0)),
    min_size=1,
    max_size=6,
    unique_by=lambda atom: atom[:2],
)


def lattice_point(x, y) -> TropVector:
    return TropVector([Fraction(x, 8), Fraction(y, 8)])


def weights_of(atoms, top) -> list:
    weights = [NEG_INF if w == -17 else Fraction(w, 8) for *_, w in atoms]
    weights[top % len(atoms)] = ZERO
    return weights


def point_measure(atoms, top) -> IdemMeasure:
    pairs = zip((lattice_point(x, y) for x, y, _ in atoms), weights_of(atoms, top))
    return IdemMeasure([(p, w) for p, w in pairs if w is not NEG_INF])


def embedded_measure(atoms, top) -> IdemMeasure:
    space = FiniteSpace(len(atoms), points=[lattice_point(x, y) for x, y, _ in atoms])
    return IdemMeasure.from_weights(space, weights_of(atoms, top))


def index_cover(n, groups) -> Cover:
    """The index sets `groups` (indices taken mod n), then one element
    with every index they leave out, if any."""
    elements = [IndexElement({i % n for i in group}) for group in groups]
    rest = set(range(n)).difference(*(e.indices for e in elements))
    return Cover(elements + ([IndexElement(rest)] if rest else []))


def singleton_cover(points) -> Cover:
    return Cover([TropPolytope([p]) for p in points])


# atoms on faces shared by grid cells: x or y at -1 for 2 splits, at
# -3/2, -1 or -1/2 for 4, and on the outer faces
FACE_ATOMS = [(-8, -8, 0), (-8, -4, -3), (-12, -8, -1), (0, -8, -2), (-4, -12, -5), (-16, 0, -16)]


class TestPlacementAgreesWithReference:
    @given(ATOMS, st.integers(0, 5), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    @example(atoms=FACE_ATOMS, top=0, splits=2)
    @example(atoms=FACE_ATOMS, top=3, splits=4)
    @example(atoms=[(-8, -8, -1), (-4, -4, 0)], top=1, splits=2)
    def test_grids_over_points(self, atoms, top, splits):
        agree(point_measure(atoms, top), Cover.grid(BOX, splits))

    @given(ATOMS, st.integers(0, 5), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    @example(atoms=FACE_ATOMS, top=1, rng=random.Random(0))
    def test_singleton_polytopes(self, atoms, top, rng):
        mu = point_measure(atoms, top)
        points = [a for a, _ in mu.atoms] + [lattice_point(x, y) for x, y, _ in atoms]
        rng.shuffle(points)
        agree(mu, singleton_cover(points))
        agree(mu, singleton_cover(points[: len(points) // 2]))

    @given(ATOMS, st.integers(0, 5), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    @example(atoms=FACE_ATOMS, top=0, splits=2)
    @example(atoms=FACE_ATOMS, top=2, splits=4)
    def test_box_covers_over_embedded_spaces(self, atoms, top, splits):
        mu = embedded_measure(atoms, top)
        agree(mu, Cover.grid(BOX, splits))
        agree(mu, singleton_cover(reversed(mu.space.points)))

    @given(ATOMS, st.integers(0, 5), st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4), max_size=4))
    @settings(max_examples=100, deadline=None)
    @example(atoms=FACE_ATOMS, top=0, groups=[[0, 1], [1, 2, 3]])
    @example(atoms=[(-8, 0, 0), (0, -8, 0), (0, 0, -17)], top=0, groups=[[0, 1]])
    def test_index_covers_over_embedded_spaces(self, atoms, top, groups):
        mu = embedded_measure(atoms, top)
        agree(mu, index_cover(len(atoms), groups))


# Boxes and polytopes with lattice corners and generators.
LATTICE_POINTS = st.tuples(st.integers(-16, 0), st.integers(-16, 0)).map(lambda xy: lattice_point(*xy))


@st.composite
def elements(draw):
    if draw(st.booleans()):
        a, b = draw(LATTICE_POINTS), draw(LATTICE_POINTS)
        return Box(TropVector(map(min, a, b)), TropVector(map(max, a, b)))
    return TropPolytope(draw(st.lists(LATTICE_POINTS, min_size=1, max_size=3)))


class TestRefinesAgreesWithReference:
    @given(elements(), elements())
    @settings(max_examples=200, deadline=None)
    @example(Box(lattice_point(-8, -8), lattice_point(-4, -4)), Box(lattice_point(-8, -8), lattice_point(0, 0)))
    @example(Box(lattice_point(-8, -8), lattice_point(0, 1)), Box(lattice_point(-8, -8), lattice_point(0, 0)))
    def test_one_element_each(self, small, big):
        assert refines(Cover([small]), Cover([big])) == reference_inside(small, big)

    @given(st.integers(1, 4), st.integers(1, 4), st.lists(elements(), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_grids_and_drawn_covers(self, fine, coarse, drawn):
        for small, big in [
            (Cover.grid(BOX, fine), Cover.grid(BOX, coarse)),
            (Cover(drawn), Cover.grid(BOX, coarse)),
            (Cover.grid(BOX, fine), Cover(drawn)),
        ]:
            want = all(any(reference_inside(e, b) for b in big.elements) for e in small.elements)
            assert refines(small, big) == want


def reference_rows(mu, chain) -> object:
    try:
        return [(k, measure_dist(cover_approximation(mu, cover), mu)) for k, cover in enumerate(chain)]
    except TropibaryError as exc:
        return type(exc).__name__, str(exc)


def sweep_rows(mu, chain) -> object:
    try:
        return refinement_sweep(mu, chain)
    except TropibaryError as exc:
        return type(exc).__name__, str(exc)


class TestSweepRowsBitForBit:
    @given(ATOMS, st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    @example(atoms=FACE_ATOMS, top=0)
    def test_point_measures(self, atoms, top):
        mu = point_measure(atoms, top)
        chain = [Cover.grid(BOX, 1), Cover.grid(BOX, 2), Cover.grid(BOX, 4), Cover.singletons(mu)]
        assert sweep_rows(mu, chain) == reference_rows(mu, chain)

    @given(ATOMS, st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    @example(atoms=FACE_ATOMS, top=0)
    def test_embedded_spaces(self, atoms, top):
        mu = embedded_measure(atoms, top)
        grids = [Cover.grid(BOX, 1), Cover.grid(BOX, 2), Cover.grid(BOX, 4)]
        assert sweep_rows(mu, grids) == reference_rows(mu, grids)
        everything = Cover([IndexElement(range(mu.space.n))])
        if everything != Cover.singletons(mu):
            chain = [everything, Cover.singletons(mu)]
            assert sweep_rows(mu, chain) == reference_rows(mu, chain)


# -- call counts ----------------------------------------------------------------


def test_cover_approximation_builds_only_the_approximation_and_the_reconstruction(monkeypatch):
    rng = random.Random(33)
    lattice = [TropVector([Fraction(c, 4) for c in xyz]) for xyz in product(range(-8, 1), repeat=3)]
    points = rng.sample(lattice, 500)
    weights = [ZERO] + [Fraction(-rng.randrange(17), 8) for _ in range(499)]
    mu = IdemMeasure(zip(points, weights))
    cover = Cover.grid(standard_box(3), 2)
    assert len(cover.elements) == 8
    built = []
    init = IdemMeasure.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(IdemMeasure, "__init__", counted)
    nu = cover_approximation(mu, cover)
    assert len(built) == 2
    assert nu.atom_count <= len(cover.elements)


def test_sweep_reads_its_measure_once(monkeypatch):
    mu = point_measure(FACE_ATOMS, 0)
    chain = [Cover.grid(BOX, 1), Cover.grid(BOX, 2), Cover.grid(BOX, 4), Cover.singletons(mu)]
    seen = {"barycenter": 0, "values": 0}

    def counter(name, fn):
        def counted(m):
            seen[name] += m is mu
            return fn(m)

        return counted

    monkeypatch.setattr(approximation, "barycenter_point", counter("barycenter", approximation.barycenter_point))
    monkeypatch.setattr(measures, "_point_values", counter("values", measures._point_values))
    rows = refinement_sweep(mu, chain)
    assert [k for k, _ in rows] == [0, 1, 2, 3] and rows[-1][1] == 0.0
    assert seen == {"barycenter": 1, "values": 1}
