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

Each exact step is done once.  Placement resolves every element's
membership test once per call and reads each atom's point once; a box
compares the point's row with the bound rows it keeps (`Box.bounds`).
The atoms of a piece are a subsequence of the measure's canonical
atoms, so its conditional is cut from them, shifted by their top
weight, with no second sort or merge (`measures._conditional`), and a
piece of one atom is its own barycenter.  A refinement sweep reads the
measure's barycenter and distance values once for the whole chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .barycenter import barycenter_point, embedding
from .core import Scalar, TropVector, odot, oplus_all
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


class Cover:
    """Finite family of max-plus convex subsets covering a support."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[CoverElement]):
        elements = tuple(elements)
        if not elements:
            raise BadInput("a cover needs at least one element")
        kinds = {isinstance(e, IndexElement) for e in elements}
        if len(kinds) > 1:
            raise BadInput("cannot mix index elements with geometric elements")
        self.elements = elements

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
        return Cover(cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cover) and self.elements == other.elements

    def __repr__(self) -> str:
        return f"Cover({len(self.elements)} elements)"


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
    groups: dict[int, list] = {}
    for pair in mu.atoms:
        atom = pair[0]
        key = atom if by_index or space is None else points[atom]
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
            if atom is None or not tests[k](atom if by_index else point):
                raise NonConvexElement(f"barycenter {point!r} escaped element {k} of the cover")
        pieces.append(CoverPiece(k, oplus_all(w for _, w in inside), conditional, atom, point))
    return pieces


def cover_reconstruction(pieces: Sequence[CoverPiece]) -> IdemMeasure:
    """Recombine the weighted conditionals; equals the original measure."""
    pairs = []
    for piece in pieces:
        pairs.extend((a, odot(piece.weight, w)) for a, w in piece.conditional.atoms)
    return IdemMeasure(pairs, space=pieces[0].conditional.space if pieces else None)


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
    certify(cover_reconstruction(pieces) == mu, "cover pieces do not rebuild the measure")
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
    """Every element of the fine cover sits inside some coarse element."""
    for small in fine.elements:
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
