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

On a grid `cover_pieces` finds each atom's cell by arithmetic and
`refines` decides grid against grid by division.  Both must agree with
the scan over the same elements (`scanned`) on boxes of dimension 1-3
with 1-5 cells per axis, some axes of width 0, atoms on faces, corners
and outside the box, a -inf coordinate and the wrong dimension; and with
the Fraction references, where those word an error the same way.

The call counts at the end pin the work itself: one cover approximation
builds one measure through `IdemMeasure.__init__`, the approximation,
since the rebuild gate takes one pass over the pieces; one sweep reads
its measure's barycenter and distance values once; and on a grid,
placement tests no cell with `Box.contains` and refinement calls no
`_inside`.
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
from tropibary.errors import DimensionMismatch, NonConvexElement, TropibaryError, UncoveredAtom
from tropibary.geometry import Box, TropPolytope, hull_membership
from tropibary.io import cover_from_json, cover_to_json
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


# -- grids: the lookup against the scan -------------------------------------------


def scanned(cover) -> Cover:
    """The same elements, read as no grid, so every atom and element takes
    the scan."""
    twin = Cover(cover.elements)
    twin._grid = False
    return twin


@st.composite
def grid_boxes(draw, dim=None):
    """A box of dimension 1-3 with corners on the 1/2 lattice; an axis
    may have width 0."""
    dim = dim or draw(st.integers(1, 3))
    lows = draw(st.lists(st.integers(-4, 0), min_size=dim, max_size=dim))
    widths = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4]), min_size=dim, max_size=dim))
    low = TropVector([Fraction(lo, 2) for lo in lows])
    return Box(low, TropVector([Fraction(lo + w, 2) for lo, w in zip(lows, widths)]))


def near_cuts(box, n, ms) -> TropVector:
    """The point whose coordinate j is low_j + m_j width_j / (2n): on a cut
    of the n-cell grid (a face, or a corner where several meet) for even
    m_j, between cuts for odd m_j, and moved out of the box by 1/7 for
    m_j < 0 or m_j > 2n."""
    coords = []
    for j, m in enumerate(ms):
        lo, hi = box.interval(j)
        out = Fraction(-1, 7) if m < 0 else Fraction(1, 7) if m > 2 * n else 0
        coords.append(lo + (hi - lo) * Fraction(m, 2 * n) + out)
    return TropVector(coords)


def cut_points(n, dim, min_size=1):
    """Lists of near_cuts arguments for the n-cell grid of a dim box."""
    ms = st.lists(st.integers(-1, 2 * n + 1), min_size=dim, max_size=dim)
    return st.lists(ms, min_size=min_size, max_size=6)


def unplaceable(pairs) -> IdemMeasure:
    """A measure over points as no constructor makes one, with its atoms
    in the order given: the placement must still refuse a -inf
    coordinate as an uncovered atom."""
    mu = object.__new__(IdemMeasure)
    mu.space, mu.atoms, mu._weights = None, tuple(pairs), None
    return mu


@st.composite
def grid_cases(draw):
    """(measure, box, n): a point or embedded measure with atoms near the
    cuts of the n-cell grid of the box; sometimes of one dimension more
    than the box, or with a -inf coordinate in one atom."""
    box = draw(grid_boxes())
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["points", "embedded", "wrong-dim", "-inf"]))
    extra = [ZERO] if kind == "wrong-dim" else []
    points = [near_cuts(box, n, ms) for ms in draw(cut_points(n, box.dim))]
    points = list(dict.fromkeys(TropVector([*p.coords, *extra]) for p in points))
    weights = [Fraction(-w, 4) for w in draw(st.lists(st.integers(0, 8), min_size=len(points), max_size=len(points)))]
    weights[draw(st.integers(0, len(points) - 1))] = ZERO
    if kind == "embedded":
        space = FiniteSpace(len(points), points=points)
        return IdemMeasure.from_weights(space, weights), box, n
    if kind == "-inf":
        k = draw(st.integers(0, len(points) - 1))
        points[k] = TropVector([NEG_INF, *points[k].coords[1:]])
        return unplaceable(zip(points, weights)), box, n
    return IdemMeasure(list(zip(points, weights))), box, n


def pieces_with_points(mu, cover) -> object:
    """What outcome gives for cover_pieces, with each piece's barycenter
    point as well."""
    try:
        pieces = cover_pieces(mu, cover)
    except TropibaryError as exc:
        return type(exc).__name__, str(exc)
    return [(p.element_index, slots(p.weight), measure_slots(p.conditional), slots(p.atom), slots(p.point)) for p in pieces]


def verdict(fn) -> object:
    """fn()'s answer, or the class and words of the error it raises."""
    try:
        return fn()
    except TropibaryError as exc:
        return type(exc).__name__, str(exc)


class TestGridLookupAgreesWithScan:
    @given(grid_cases())
    @settings(max_examples=300, deadline=None)
    def test_pieces(self, case):
        mu, box, n = case
        grid = Cover.grid(box, n)
        assert approximation._grid_of(grid) is not None
        got = pieces_with_points(mu, grid)
        assert got == pieces_with_points(mu, scanned(grid))
        points = [a for a, _ in mu.atoms] if mu.space is None else mu.space.points
        # the reference words a wrong dimension as TropVector.leq does
        if points[0].dim == box.dim:
            assert outcome(lambda: library_pieces(mu, grid)) == outcome(lambda: reference_pieces(mu, grid))

    def test_a_wrong_dimension_and_a_neg_inf_coordinate_take_the_scan(self):
        grid = Cover.grid(BOX, 2)
        mu = IdemMeasure.dirac(TropVector([-1, -1, -1]))
        assert pieces_with_points(mu, grid) == ("DimensionMismatch", "point dimension does not match the box")
        mu = unplaceable([(lattice_point(-4, -4), ZERO), (TropVector([NEG_INF, -1]), ZERO)])
        assert pieces_with_points(mu, grid) == ("UncoveredAtom", "atom TropVector([-inf, -1]) lies in no cover element")
        assert pieces_with_points(mu, grid) == pieces_with_points(mu, scanned(grid))

    @given(grid_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_decoded_grid_is_read_as_one_and_a_nudged_one_is_not(self, case, data):
        mu, box, n = case
        grid = Cover.grid(box, n)
        decoded = cover_from_json(cover_to_json(grid))
        read = approximation._grid_of(decoded)
        assert read is not None and (read.box, read.n) == (grid._grid.box, grid._grid.n)
        assert pieces_with_points(mu, decoded) == pieces_with_points(mu, grid)
        # Move one cell's low face on a wide axis down by 1/16 into the
        # cell before it on that axis, which comes earlier in cover order
        # and holds every point the move adds: the answers stay the same.
        wide = [j for j in range(box.dim) if box.low[j] != box.high[j]]
        if n == 1 or not wide:
            return
        j = data.draw(st.sampled_from(wide))
        stride = n ** (box.dim - 1 - j)
        k = data.draw(st.sampled_from([k for k in range(len(grid.elements)) if (k // stride) % n]))
        cell = grid.elements[k]
        low = [c - Fraction(1, 16) if i == j else c for i, c in enumerate(cell.low.coords)]
        cells = list(decoded.elements)
        cells[k] = Box(TropVector(low), cell.high)
        nudged = Cover(cells)
        assert approximation._grid_of(nudged) is None
        assert pieces_with_points(mu, nudged) == pieces_with_points(mu, grid)


def reference_refines(fine, coarse) -> bool:
    return all(any(reference_inside(e, b) for b in coarse.elements) for e in fine.elements)


class TestRefinesByDivision:
    @given(st.integers(1, 3).flatmap(lambda dim: st.tuples(grid_boxes(dim), grid_boxes(dim))),
           st.integers(1, 5), st.integers(1, 5), st.booleans())
    @settings(max_examples=200, deadline=None)
    @example(boxes=(BOX, BOX), fine=3, coarse=2, same=True)
    @example(boxes=(BOX, BOX), fine=4, coarse=2, same=True)
    @example(boxes=(Box(TropVector([-1, 0]), TropVector([-1, 1])), BOX), fine=3, coarse=2, same=True)
    @example(boxes=(Box(TropVector([-1, 0]), TropVector([-1, 0])), BOX), fine=3, coarse=2, same=True)
    def test_grids(self, boxes, fine, coarse, same):
        box, other = boxes
        small, big = Cover.grid(box, fine), Cover.grid(box if same else other, coarse)
        got = refines(small, big)
        assert got == refines(scanned(small), scanned(big))
        if len(small.elements) * len(big.elements) <= 1000:
            assert got == reference_refines(small, big)
        if same:
            assert got == (fine % coarse == 0 or box.low == box.high)

    @given(grid_boxes(), st.integers(1, 5), st.data(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_one_point_elements(self, box, n, data, wrong_dim):
        extra = [ZERO] if wrong_dim else []
        points = [near_cuts(box, n, ms) for ms in data.draw(cut_points(n, box.dim))]
        fine = Cover([TropPolytope([TropVector([*p.coords, *extra])]) for p in points])
        grid = Cover.grid(box, n)
        got = verdict(lambda: refines(fine, grid))
        assert got == verdict(lambda: refines(fine, scanned(grid)))
        if wrong_dim:
            assert got == (DimensionMismatch.__name__, "point dimension does not match the box")
        else:
            assert got == reference_refines(fine, grid)


# -- call counts ----------------------------------------------------------------


def test_cover_approximation_builds_only_the_approximation(monkeypatch):
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
    assert len(built) == 1
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


def test_a_grid_places_and_refines_without_testing_cells(monkeypatch):
    mu = point_measure(FACE_ATOMS, 0)
    decoded = cover_from_json(cover_to_json(Cover.grid(BOX, 4)))
    chain = [Cover.grid(BOX, 1), Cover.grid(BOX, 2), decoded, Cover.singletons(mu)]
    calls = {"contains": 0, "inside": 0}
    contains, inside = Box.contains, approximation._inside

    def counted_contains(self, p):
        calls["contains"] += 1
        return contains(self, p)

    def counted_inside(small, big):
        calls["inside"] += 1
        return inside(small, big)

    monkeypatch.setattr(Box, "contains", counted_contains)
    monkeypatch.setattr(approximation, "_inside", counted_inside)
    for cover in chain[:3]:
        cover_pieces(mu, cover)
    assert [k for k, _ in refinement_sweep(mu, chain)] == [0, 1, 2, 3]
    assert calls == {"contains": 0, "inside": 0}
    # the same covers read as no grid test cells, so the counters count
    cover_pieces(mu, scanned(decoded))
    assert refines(chain[3], scanned(decoded))
    assert calls["contains"] > 0 and calls["inside"] > 0
