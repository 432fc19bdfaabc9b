"""Idempotent barycenter of finite-support measures.

For a measure over points, the barycenter's j-th coordinate is the max
over atoms of weight + coordinate: the measure applied to the j-th
projection.  For a measure whose atoms are measures on a common finite
space, the barycenter is the weighted max-combination of the atoms.
Both maps are affine for max-plus convex combinations, which the test
suite checks exactly.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

from .core import TropVector, _dot, _vector, odot
from .errors import BadInput, SpaceMismatch
from .measures import FiniteSpace, IdemMeasure


def embedding(space: FiniteSpace) -> tuple:
    """The points a finite space is embedded at; BadInput if it has none."""
    if space.points is None:
        raise BadInput("this measure's space has no embedding, so no barycenter")
    return space.points


def _point_atoms(mu: IdemMeasure) -> list:
    """Resolve atoms to embedded points, whatever the measure's carrier."""
    if mu.space is not None:
        points = embedding(mu.space)
        return [(points[a], w) for a, w in mu.atoms]
    pairs = []
    for a, w in mu.atoms:
        if not isinstance(a, TropVector):
            raise BadInput("barycenter over points needs point atoms")
        pairs.append((a, w))
    return pairs


def barycenter_point(mu: IdemMeasure) -> TropVector:
    """Barycenter point of a measure over (embedded) points: each
    coordinate is one `_dot` of the weights, valid scalars already, with
    the atoms' coordinates."""
    pairs = _point_atoms(mu)
    weights = [w for _, w in pairs]
    return _vector(tuple(map(_dot, repeat(weights), zip(*[p.coords for p, _ in pairs]))))


def barycenter_of_measures(big: IdemMeasure, space: Optional[FiniteSpace] = None) -> IdemMeasure:
    """Barycenter of a measure whose atoms are measures on one finite space."""
    if big.space is not None:
        raise BadInput("expected a measure over measure atoms")
    spaces = {a.space for a, _ in big.atoms}
    if len(spaces) != 1 or None in spaces:
        raise SpaceMismatch("atom measures must share one finite space")
    inner_space = spaces.pop()
    if space is not None and space != inner_space:
        raise SpaceMismatch("atom measures do not live on the requested space")
    pairs = []
    for inner, s in big.atoms:
        pairs += [(a, odot(s, w)) for a, w in inner.atoms]
    return IdemMeasure(pairs, space=inner_space)
