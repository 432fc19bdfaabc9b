"""Cover-based finite-support approximation with exact barycenter
preservation.

A cover is a finite family of max-plus convex subsets of the host: each
element is a `Box`, a `TropPolytope`, or, over an embedded finite
space, an `IndexElement` naming some of its points.  One rule says
whether an element holds an atom: an index element holds the atom's
index, a box or polytope its point (the atom itself, or where an
embedded space puts it).  So boxes and polytopes cover point measures
and embedded finite spaces alike.  Each atom of a measure goes to
exactly one element: the first, in cover order, that holds it.  The
approximation collapses the atoms given to each element to a single
dirac at their conditional barycenter, weighted by the heaviest of
them; on an embedded space that barycenter must be one of the space's
points.  So the approximation never has more atoms than the measure,
and its barycenter equals the barycenter of the input exactly.  Every
call checks that, that the pieces hold each atom once, and the rebuilt
measure through `errors.certify`, which raises `InexactWitness` on a
mismatch, also under `python -O`.

Each exact step is done once.  A cover knows when it is a grid: one
made by `Cover.grid`, or any cover whose cells equal those of
`Cover.grid(box, n)` for the box they span, compared as exact integer
rows, which is read once per cover (`_grid_of`).  On a grid an atom's
cell is found by arithmetic on its row (`_Grid.cell`): on each axis the
least k with x_j <= low_j + (k + 1) step_j, which is the first holding
cell in cover order.  An atom the arithmetic does not place (outside
the box, with a -inf coordinate, or of another dimension), and every
atom of a cover that is not a grid, goes through the scan: each
element's membership test in cover order, resolved once per call; a box
compares the point's row with the bound rows it keeps (`Box.bounds`).
The atoms of a piece are a subsequence of the measure's canonical
atoms, so its conditional is cut from them, shifted by their top
weight, with no second sort or merge (`measures._conditional`), and a
piece of one atom is its own barycenter.  The rebuild gate takes one
pass: each piece atom pops its weight from a dict of the measure's
atoms, and none may be left.  A grid refines a grid over the same box
exactly when the coarse n divides the fine n, and a one-point element
sits in a grid cell exactly when the lookup places its point.  A
refinement sweep reads the measure's barycenter and distance values
once for the whole chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence, Union

from .barycenter import barycenter_point, embedding
from .core import Scalar, TropVector, _row_of, odot, oplus_all
from .errors import BadInput, DimensionMismatch, NonConvexElement, UncoveredAtom, certify
from .geometry import Box, TropPolytope
from .measures import IdemMeasure, _conditional, _dist_to


class IndexElement:
    """Subset of an embedded finite space as a cover element.

    Convexity is not syntactically guaranteed here; a conditional
    barycenter that leaves the subset raises NonConvexElement at use.
    """

    __slots__ = ("indices",)

    def __init__(self, indices):
        self.indices = frozenset(indices)
        if not self.indices:
            raise BadInput("an empty set cannot be a cover element")
        if not all(isinstance(i, int) and i >= 0 for i in self.indices):
            raise BadInput("index elements hold nonnegative point indices")

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexElement) and self.indices == other.indices

    def __hash__(self) -> int:
        return hash(("idx", self.indices))

    def __repr__(self) -> str:
        return f"IndexElement({sorted(self.indices)})"


CoverElement = Union[Box, TropPolytope, IndexElement]


class _Grid:
    """An even grid of n cells per axis over a box.  `box` is (den, lows,
    widths) in ints: axis j runs from lows[j] / den to (lows[j] +
    widths[j]) / den, and its cell k is [low_j + k step_j, low_j + (k +
    1) step_j] for step_j = width_j / n.  Cells are listed with the last
    axis varying fastest."""

    __slots__ = ("box", "n")

    def __init__(self, bounds: tuple, n: int):
        lows, ld, highs, hd = bounds
        den = lcm(ld, hd)
        lows = tuple([lo * (den // ld) for lo in lows])
        self.box = (den, lows, tuple([hi * (den // hd) - lo for hi, lo in zip(highs, lows)]))
        self.n = n

    def cell(self, point: TropVector) -> Optional[int]:
        """Index of the first cell, in cover order, that holds the point.

        On each axis that is the least k with x_j <= low_j + (k + 1)
        step_j, i.e. max(0, ceil((x_j - low_j) / step_j) - 1), and the
        flat index grows with each k, so the least k on every axis gives
        the first cell.  None when the scan must decide: a point of
        another dimension, with a -inf coordinate, or outside the box.
        """
        den, lows, widths = self.box
        if len(point.coords) != len(lows):
            return None
        row = _row_of(point)
        if row is None:
            return None
        xs, xd = row
        n = self.n
        index = 0
        for x, lo, width in zip(xs, lows, widths):
            offset = x * den - lo * xd  # (x_j - low_j) * den * xd
            span = width * xd
            if offset < 0 or offset > span:
                return None
            index = index * n + (-(-offset * n // span) - 1 if offset else 0)
        return index


class Cover:
    """Finite family of max-plus convex subsets covering a support."""

    __slots__ = ("elements", "_grid")

    def __init__(self, elements: Sequence[CoverElement]):
        elements = tuple(elements)
        if not elements:
            raise BadInput("a cover needs at least one element")
        kinds = {isinstance(e, IndexElement) for e in elements}
        if len(kinds) > 1:
            raise BadInput("cannot mix index elements with geometric elements")
        self.elements = elements
        self._grid = None  # read by _grid_of

    @staticmethod
    def singletons(mu: IdemMeasure) -> "Cover":
        """One element per atom; the approximation returns mu itself."""
        if mu.space is not None:
            return Cover([IndexElement([a]) for a, _ in mu.atoms])
        return Cover([TropPolytope([a]) for a, _ in mu.atoms])

    @staticmethod
    def grid(box: Box, splits: int) -> "Cover":
        """Cover of a box by the closed cells of an even grid.

        Neighbouring cells share their faces.  An atom on a shared face
        goes to the first cell that holds it in cover order (cells are
        listed with the last axis varying fastest), so it is counted once.
        The cover keeps its axes, so placement finds that cell from the
        atom's coordinates, max(0, ceil((x_j - low_j) / step_j) - 1) on
        axis j, and a grid over the same box refines it exactly when
        `splits` divides its own number of cells per axis.
        """
        if splits < 1:
            raise BadInput("need at least one cell per axis")
        axes = []
        for j in range(box.dim):
            lo, hi = box.interval(j)
            step = (hi - lo) / splits
            axes.append([(lo + k * step, lo + (k + 1) * step) for k in range(splits)])
        cells = []
        for cuts in itertools.product(*axes):
            low = TropVector([c[0] for c in cuts])
            high = TropVector([c[1] for c in cuts])
            cells.append(Box(low, high))
        cover = Cover(cells)
        cover._grid = _Grid(box.bounds, splits)
        return cover

    def __eq__(self, other) -> bool:
        return isinstance(other, Cover) and self.elements == other.elements

    def __repr__(self) -> str:
        return f"Cover({len(self.elements)} elements)"


def _grid_of(cover: Cover) -> Optional[_Grid]:
    """The grid the cover is, or None; read once per cover and kept in
    `cover._grid`, which holds None until then and False for no grid."""
    grid = cover._grid
    if grid is None:
        grid = cover._grid = _as_grid(cover.elements) or False
    return grid or None


def _as_grid(elements: tuple) -> Optional[_Grid]:
    """The grid whose cells are these boxes, in order, compared as exact
    integer rows, or None.  Its box runs from the first cell's low corner
    to the last cell's high corner, and n^dim cells give n."""
    if not all(isinstance(e, Box) for e in elements):
        return None
    dim = len(elements[0].bounds[0])
    n = round(len(elements) ** (1 / dim))
    if n**dim != len(elements) or len(elements[-1].bounds[0]) != dim:
        return None
    grid = _Grid((*elements[0].bounds[:2], *elements[-1].bounds[2:]), n)
    den, lows, widths = grid.box
    scale = den * n
    for element, ks in zip(elements, itertools.product(range(n), repeat=dim)):
        elows, eld, ehighs, ehd = element.bounds
        if len(elows) != dim:
            return None
        # cell k of an axis runs from (lo n + k width) / (den n) to the next k's
        for k, lo, width, el, eh in zip(ks, lows, widths, elows, ehighs):
            if el * scale != (lo * n + k * width) * eld or eh * scale != (lo * n + (k + 1) * width) * ehd:
                return None
    return grid


@dataclass(frozen=True)
class CoverPiece:
    """One element's contribution: weight, conditional measure, and its
    barycenter (as an atom of the host measure)."""

    element_index: int
    weight: Scalar
    conditional: IdemMeasure
    atom: object
    point: TropVector


def _membership(element: CoverElement):
    """The element's membership test, on an atom for an index element
    (its index) and on a point for a box or polytope."""
    if isinstance(element, IndexElement):
        return element.indices.__contains__
    return element.contains


def cover_pieces(mu: IdemMeasure, cover: Cover) -> list[CoverPiece]:
    """Conditional decomposition of mu along the cover.

    Each atom goes to exactly one element: the first, in cover order,
    that holds it (UncoveredAtom if none does).  The pieces thus follow
    a partition subordinate to the cover, so an atom on a face shared
    by several elements is counted once and every piece holds at least
    one atom of mu.  Elements that receive no atom are skipped.  Each
    piece's barycenter must be an atom its element holds: on an embedded
    space, one of the space's points (NonConvexElement otherwise: the
    element was not max-plus convex after all).  An index outside mu's
    space is BadInput up front.
    """
    space = mu.space
    tests = [_membership(e) for e in cover.elements]
    if space is not None:
        points = embedding(space)
        for k, element in enumerate(cover.elements):
            if isinstance(element, IndexElement) and max(element.indices) >= space.n:
                raise BadInput(
                    f"cover element {k} names index {max(element.indices)}, but the space has {space.n} points"
                )
    by_index = isinstance(cover.elements[0], IndexElement)
    grid = None if by_index else _grid_of(cover)
    groups: dict[int, list] = {}
    for pair in mu.atoms:
        atom = pair[0]
        key = atom if by_index or space is None else points[atom]
        k = None if grid is None else grid.cell(key)
        if k is None:
            for k, holds in enumerate(tests):
                if holds(key):
                    break
            else:
                raise UncoveredAtom(f"atom {atom!r} lies in no cover element")
        if k in groups:
            groups[k].append(pair)
        else:
            groups[k] = [pair]
    pieces = []
    for k in sorted(groups):
        inside = groups[k]
        conditional = _conditional(inside, space)
        if len(inside) == 1:
            # a dirac's barycenter is its atom, which the element holds
            atom = inside[0][0]
            point = atom if space is None else points[atom]
        else:
            point = barycenter_point(conditional)
            atom = point if space is None else space.index_of_point(point)
            # a box holds every barycenter of its points: each coordinate
            # lies between the points' least and greatest
            if atom is None or not (isinstance(cover.elements[k], Box) or tests[k](atom if by_index else point)):
                raise NonConvexElement(f"barycenter {point!r} escaped element {k} of the cover")
        pieces.append(CoverPiece(k, oplus_all(w for _, w in inside), conditional, atom, point))
    return pieces


def cover_reconstruction(pieces: Sequence[CoverPiece]) -> IdemMeasure:
    """Recombine the weighted conditionals; equals the original measure."""
    pairs = []
    for piece in pieces:
        pairs.extend((a, odot(piece.weight, w)) for a, w in piece.conditional.atoms)
    return IdemMeasure(pairs, space=pieces[0].conditional.space if pieces else None)


def _rebuilds(pieces: Sequence[CoverPiece], mu: IdemMeasure) -> bool:
    """cover_reconstruction(pieces) == mu, in one pass and with no measure
    built: each piece atom pops its weight from mu's atoms, which must be
    the piece's weight odot the atom's conditional weight, and no atom of
    mu may be left.  Index atoms are their own keys, and point atoms are
    keyed by their rows, which placement has read: equal points have
    equal rows, and an int tuple hashes faster than Fractions."""
    key = _row_of if mu.space is None else int
    left = {key(a): w for a, w in mu.atoms}
    for piece in pieces:
        weight = piece.weight
        for a, w in piece.conditional.atoms:
            if left.pop(key(a), None) != odot(weight, w):
                return False
    return not left


def cover_approximation(mu: IdemMeasure, cover: Cover) -> IdemMeasure:
    """Collapse mu along a cover, preserving the barycenter exactly.

    Returns the join of diracs at the conditional barycenters, weighted
    by each element's heaviest atom.  Each atom of mu goes to one
    element only (see cover_pieces), so the result never has more atoms
    than mu.
    """
    return _approximation(mu, cover)


def _approximation(mu: IdemMeasure, cover: Cover, beta: Optional[TropVector] = None) -> IdemMeasure:
    """cover_approximation, certified against beta, mu's barycenter (read
    here when None).  The pieces must hold mu's atoms once each and
    rebuild mu, and the approximation must keep beta."""
    pieces = cover_pieces(mu, cover)
    pairs = [(piece.atom, piece.weight) for piece in pieces]
    nu = IdemMeasure(pairs, space=mu.space)
    certify(sum(len(piece.conditional.atoms) for piece in pieces) == len(mu.atoms), "cover pieces share an atom")
    certify(_rebuilds(pieces, mu), "cover pieces do not rebuild the measure")
    if beta is None:
        beta = barycenter_point(mu)
    certify(barycenter_point(nu) == beta, "cover approximation moved the barycenter")
    return nu


def _inside(small: CoverElement, big: CoverElement) -> bool:
    """small is a subset of big.  Index sets nest by inclusion and never
    with geometric elements.  A box inside a box compares bound rows; a
    box inside a polytope is checked at its corners, and a polytope
    inside either at its generators, which suffices since big is
    convex."""
    if isinstance(small, IndexElement) or isinstance(big, IndexElement):
        both = isinstance(small, IndexElement) and isinstance(big, IndexElement)
        return both and small.indices <= big.indices
    if isinstance(small, Box):
        if isinstance(big, Box):
            lows, ld, highs, hd = big.bounds
            slows, sld, shighs, shd = small.bounds
            if len(slows) != len(lows):
                raise DimensionMismatch(f"dim {len(lows)} vs {len(slows)}")
            for lo, slo, shi, hi in zip(lows, slows, shighs, highs):
                if lo * sld > slo * ld or shi * hd > hi * shd:
                    return False
            return True
        small = small.corners_polytope()
    return all(map(big.contains, small.generators))


def refines(fine: Cover, coarse: Cover) -> bool:
    """Every element of the fine cover sits inside some coarse element.

    Against a grid, a grid over the same box decides by division: a fine
    cell fits in one coarse cell exactly when no coarse cut falls
    strictly inside it, so when the coarse n divides the fine n, or when
    every axis has width 0.  A one-point polytope sits in a cell when the
    grid lookup places its point.  Every other element takes the scan.
    """
    grid = _grid_of(coarse)
    if grid is not None:
        fine_grid = _grid_of(fine)
        if fine_grid is not None and fine_grid.box == grid.box:
            return fine_grid.n % grid.n == 0 or not any(grid.box[2])
    for small in fine.elements:
        if (
            grid is not None
            and isinstance(small, TropPolytope)
            and len(small.generators) == 1
            and grid.cell(small.generators[0]) is not None
        ):
            continue
        for big in coarse.elements:
            if _inside(small, big):
                break
        else:
            return False
    return True


def refinement_sweep(mu: IdemMeasure, chain: Sequence[Cover]) -> list[tuple[int, float]]:
    """Approximation distances along a strictly refining chain of covers.

    Returns (cover index, measure_dist(approximation, mu)) rows.  The
    distance hits 0 exactly when a cover isolates every atom.  mu's
    barycenter and distance values are read once for the whole chain;
    each approximation is certified against that barycenter.
    """
    chain = list(chain)
    if not chain:
        raise BadInput("an empty chain has no rows")
    for k in range(1, len(chain)):
        if chain[k] == chain[k - 1] or not refines(chain[k], chain[k - 1]):
            raise BadInput(f"cover {k} does not strictly refine cover {k - 1}")
    beta = barycenter_point(mu)
    dist = _dist_to(mu)
    return [(k, dist(_approximation(mu, cover, beta))) for k, cover in enumerate(chain)]
