"""Finite-support idempotent measures and the operations that act on them.

A measure is a weight assignment over atoms with every weight <= 0 and
maximum weight exactly 0.

On a `FiniteSpace` of n points a measure is its weight tuple: n scalars,
-inf off the support.  `from_weights`, `combine`, `pushforward` and the
constructor on index pairs each build that tuple in one pass and hand it
to one checked constructor, `_dense`, which refuses +inf, an all -inf
tuple and a maximum other than 0.  `atoms` is the index-ordered view of
the tuple: its (index, weight) pairs above -inf.  `density()` is the
tuple itself.  `_conditional` cuts a measure's conditional on some of
its atoms, on a space or over points, from those atoms as they stand.

Without a space, atoms are points (`TropVector`) or measures themselves
(for spaces of measures).  Such measures are kept in canonical form:
duplicate atoms merged by max, -inf weights dropped, atoms sorted
deterministically.  Point atoms get it from one sort on `core._point_key`
(integer tuples) and one pass that merges equal neighbours into the
first-seen atom object, with no hashing; measure atoms merge in a dict
and sort by `_atom_key`.

The functional view is `mu(phi)` = max over atoms of weight + phi(atom),
which satisfies the three defining laws checked in the test suite:
constants map to themselves, shifts factor out, and max is preserved.
It is one `core._dot` of the weights with the values of phi, as are the
values `measure_dist` compares.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import lcm
from typing import Callable, Iterable, Optional, Sequence, Union

from .core import (
    NEG_INF,
    POS_INF,
    ZERO,
    ConvexParams,
    RatLike,
    Scalar,
    TropVector,
    _cmp,
    _dot,
    _parse,
    _point_key,
    _rho_ratios,
    _row_of,
    _sign,
    _vector,
    odot,
    oplus,
    oplus_all,
    rho,
    scalar,
    trop_min,
)
from .errors import (
    BadInput,
    DimensionMismatch,
    NotNormalized,
    SpaceMismatch,
    capped,
)


class FiniteSpace:
    """Finite compactum {0, ..., n-1}, optionally embedded in R_max^d."""

    __slots__ = ("n", "labels", "points", "_label_index", "_point_index")

    def __init__(
        self,
        n: int,
        labels: Optional[Sequence[str]] = None,
        points: Optional[Sequence[TropVector]] = None,
    ):
        if type(n) is not int:
            raise BadInput(f"space size {capped(repr(n))} is not an integer")
        if n < 1:
            raise BadInput("a finite space needs at least one point")
        self.n = n
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        self._label_index = {label: i for i, label in enumerate(self.labels)}
        if len(self.labels) != n or len(self._label_index) != n:
            raise BadInput("labels must be distinct and match the space size")
        if points is not None:
            pts = tuple(points)
            if len(pts) != n:
                raise BadInput("embedding must place every point")
            dims = {p.dim for p in pts}
            if len(dims) != 1:
                raise DimensionMismatch("embedded points of mixed dimension")
            self._point_index = {p: i for i, p in enumerate(pts)}
            if len(self._point_index) != n:
                raise BadInput("embedded points must be distinct")
            for p in pts:
                if not p.is_finite:
                    raise BadInput("embedded points must have finite coordinates")
            self.points = pts
        else:
            self.points = self._point_index = None

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except (KeyError, TypeError):
            raise BadInput(f"unknown label {capped(repr(label))}") from None

    def index_of_point(self, p: TropVector) -> Optional[int]:
        """The index of embedded point p, None when p is not one."""
        if self._point_index is None:
            return None
        return self._point_index.get(p)

    def _key(self):
        return (self.n, self.labels, self.points)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FiniteSpace({self.n}, labels={list(self.labels)!r})"


def _finite_q(v: RatLike) -> Fraction:
    """Coerce to a finite rational; -inf and floats are refused."""
    if type(v) is Fraction:
        return v
    if v is NEG_INF or v is POS_INF:
        raise BadInput(f"{v} is not finite")
    if isinstance(v, float) or isinstance(v, bool):
        raise BadInput(f"refusing inexact value {v!r}")
    try:
        q = _parse(v) if isinstance(v, str) else Fraction(v)
    except (ValueError, TypeError):
        q = None
    if type(q) is not Fraction:
        raise BadInput(f"{capped(repr(v))} is not a finite rational")
    return q


class FunctionTable:
    """Rational-valued function on a finite space, used as a test functional.

    Values are strictly finite: tables stand in for continuous functions,
    which never take -inf.
    """

    __slots__ = ("space", "values")

    def __init__(self, space: FiniteSpace, values: Sequence[Union[int, str, Fraction]]):
        self.space = space
        vals = tuple(_finite_q(v) for v in values)
        if len(vals) != space.n:
            raise BadInput("table length must match the space size")
        self.values = vals

    def __call__(self, i: int) -> Fraction:
        return self.values[i]

    def shift(self, c: RatLike) -> "FunctionTable":
        c = _finite_q(c)
        return FunctionTable(self.space, [v + c for v in self.values])

    def join(self, other: "FunctionTable") -> "FunctionTable":
        if self.space != other.space:
            raise SpaceMismatch("tables on different spaces")
        return FunctionTable(self.space, [max(a, b) for a, b in zip(self.values, other.values)])

    @staticmethod
    def constant(space: FiniteSpace, c: RatLike) -> "FunctionTable":
        return FunctionTable(space, [_finite_q(c)] * space.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionTable):
            return NotImplemented
        return self.space == other.space and self.values == other.values

    def __repr__(self) -> str:
        return f"FunctionTable({[str(v) for v in self.values]})"


Atom = Union[int, TropVector, "IdemMeasure"]


def _atom_key(atom: Atom):
    """Deterministic sort key across the three atom kinds."""
    if isinstance(atom, int):
        return (0, atom)
    if isinstance(atom, TropVector):
        return (1, atom.coords)
    if isinstance(atom, IdemMeasure):
        return (2, tuple((_atom_key(a), w) for a, w in atom.atoms))
    raise BadInput(f"unsupported atom {capped(repr(atom))}")


class IdemMeasure:
    """Canonical finite-support idempotent measure.

    On a finite space the measure is its weight tuple, one scalar per
    point (`density()`), and `atoms` is the index-ordered view of its
    (index, weight) pairs above -inf.  Over points or measures, `atoms`
    is the canonical form itself: duplicates merged by max into the first
    seen, -inf dropped, sorted by `_atom_key` (points by `_point_key`,
    which orders them the same way).
    """

    __slots__ = ("space", "atoms", "_weights")

    def __init__(
        self,
        pairs: Iterable[tuple[Atom, Scalar]],
        space: Optional[FiniteSpace] = None,
        renormalize: bool = False,
    ):
        checked = []
        dims = set()
        for atom, weight in pairs:
            if type(weight) is not Fraction:
                weight = scalar(weight)
                if weight is POS_INF:
                    raise BadInput("+inf cannot be a weight")
            if isinstance(atom, int):
                if space is None:
                    raise BadInput("index atoms need a space")
                if not 0 <= atom < space.n:
                    raise BadInput(f"atom index {atom} outside space of size {space.n}")
            elif isinstance(atom, TropVector):
                for c in atom.coords:
                    if c is NEG_INF:
                        raise BadInput("point atoms must have finite coordinates")
                dims.add(len(atom.coords))
            elif not isinstance(atom, IdemMeasure):
                raise BadInput(f"unsupported atom {capped(repr(atom))}")
            checked.append((atom, weight))
        if space is not None and all(isinstance(a, int) for a, _ in checked):
            weights = [NEG_INF] * space.n
            for i, w in checked:
                weights[i] = oplus(weights[i], w)
            top = oplus_all(weights)
            if renormalize and top is not NEG_INF and _cmp(top, ZERO):
                weights = [odot(w, -top) for w in weights]
            self._fill(space, tuple(weights))
            return
        if len({type(a) for a, _ in checked}) > 1:
            raise BadInput("atoms of mixed kinds in one measure")
        if len(dims) > 1:
            raise DimensionMismatch("point atoms of mixed dimension")
        if dims:
            merged = _merged_points(checked)
        else:
            merged = {}
            for atom, weight in checked:
                first = merged.setdefault(atom, weight)
                if first is not weight:
                    merged[atom] = oplus(first, weight)
            merged = sorted(merged.items(), key=lambda aw: _atom_key(aw[0]))
        top = oplus_all(w for _, w in merged)
        if top is NEG_INF:
            raise NotNormalized("a measure needs at least one atom above -inf")
        if _cmp(top, ZERO):
            if not renormalize:
                raise NotNormalized(f"max weight is {top}, expected 0")
            merged = [(a, odot(w, -top)) for a, w in merged]
        kept = [(a, w) for a, w in merged if w is not NEG_INF]
        if space is not None:
            raise BadInput("measures on a finite space must use index atoms")
        self.atoms = tuple(kept)
        self.space = None
        self._weights = None

    def _fill(self, space: FiniteSpace, weights: tuple) -> None:
        """Make self the measure with weight tuple `weights` on `space`.

        Refuses +inf, an all -inf tuple and a maximum other than 0.  The
        maximum is judged by the signs of the numerators, so a valid
        tuple costs no comparison of rationals.
        """
        kept = []
        at_zero = above_zero = False
        for i, w in enumerate(weights):
            if w is NEG_INF:
                continue
            if w is POS_INF:
                raise BadInput("+inf cannot be a weight")
            kept.append((i, w))
            sign = _sign(w)
            if sign > 0:
                above_zero = True
            elif sign == 0:
                at_zero = True
        if not kept:
            raise NotNormalized("a measure needs at least one atom above -inf")
        if above_zero or not at_zero:
            raise NotNormalized(f"max weight is {oplus_all(w for _, w in kept)}, expected 0")
        self.space = space
        self.atoms = tuple(kept)
        self._weights = weights

    # -- constructors -------------------------------------------------

    @staticmethod
    def dirac(atom: Atom, space: Optional[FiniteSpace] = None) -> "IdemMeasure":
        return IdemMeasure([(atom, ZERO)], space=space)

    @staticmethod
    def from_weights(
        space: FiniteSpace,
        weights: Sequence[RatLike],
        renormalize: bool = False,
    ) -> "IdemMeasure":
        if len(weights) != space.n:
            raise BadInput("weight vector length must match the space size")
        weights = tuple([scalar(w) for w in weights])
        if renormalize:
            return IdemMeasure(enumerate(weights), space=space, renormalize=True)
        return _dense(space, weights)

    # -- views ---------------------------------------------------------

    def weight_of(self, atom: Atom) -> Scalar:
        weights = self._weights
        if weights is not None and type(atom) is int and 0 <= atom < len(weights):
            return weights[atom]
        for a, w in self.atoms:
            if a == atom:
                return w
        return NEG_INF

    def density(self) -> tuple[Scalar, ...]:
        """The weight of every point of the finite space, -inf off the support."""
        if self.space is None:
            raise BadInput("densities exist only over a finite space")
        return self._weights

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    # -- functional view -----------------------------------------------

    def __call__(self, phi) -> Scalar:
        """Evaluate the measure as a functional on phi.

        phi is a FunctionTable over the same space, or any callable on
        atoms returning a scalar.
        """
        if isinstance(phi, FunctionTable):
            if self.space is None or phi.space != self.space:
                raise SpaceMismatch("table and measure live on different spaces")
        return _dot([w for _, w in self.atoms], (phi(a) for a, _ in self.atoms))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdemMeasure):
            return NotImplemented
        if self.space is not other.space and self.space != other.space:
            return False
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash((self.space, tuple((_atom_key(a), w) for a, w in self.atoms)))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a!r}: {w}" for a, w in self.atoms)
        return f"IdemMeasure({{{inner}}})"


def _merged_points(pairs: list) -> list:
    """(point, weight) pairs over finite points of one dimension, sorted by
    `_point_key`, with equal points merged by max into the first seen: one
    sort, then one pass over neighbours, and no hashing."""
    if len(pairs) == 1:
        return pairs
    key = _point_key([a for a, _ in pairs])
    keyed = sorted([(key(a), k) for k, (a, _) in enumerate(pairs)])
    merged = []
    last = None
    for point_key, k in keyed:
        atom, weight = pairs[k]
        if point_key == last:
            merged[-1] = (merged[-1][0], oplus(merged[-1][1], weight))
        else:
            merged.append((atom, weight))
            last = point_key
    return merged


def _dense(space: FiniteSpace, weights: tuple) -> IdemMeasure:
    """The measure on `space` whose weight tuple is `weights`.

    `weights` holds `space.n` scalars; `IdemMeasure._fill` refuses +inf,
    an all -inf tuple and a maximum other than 0.
    """
    mu = object.__new__(IdemMeasure)
    mu._fill(space, weights)
    return mu


def _conditional(pairs: list, space: Optional[FiniteSpace]) -> IdemMeasure:
    """The conditional of a measure on some of its atoms: `pairs`, a
    subsequence of that measure's `atoms`, each weight shifted by their
    top weight.

    Like `_dense`, only for atoms the library made: a subsequence of
    canonical atoms is sorted, merged and above -inf already, so nothing
    is sorted, merged or checked again.
    """
    top = oplus_all(w for _, w in pairs)
    if _sign(top):
        shift = -top
        pairs = [(a, odot(w, shift)) for a, w in pairs]
    mu = object.__new__(IdemMeasure)
    mu.space = space
    mu.atoms = tuple(pairs)
    if space is None:
        mu._weights = None
    else:
        weights = [NEG_INF] * space.n
        for i, w in pairs:
            weights[i] = w
        mu._weights = tuple(weights)
    return mu


def _times(c: Scalar, weights: tuple):
    """c odot each weight, lazily; the weights themselves when c is 0."""
    if c is not NEG_INF and not _sign(c):
        return weights
    return map(odot, repeat(c), weights)


def _combined(params: ConvexParams, first: tuple, second: tuple):
    """t odot first oplus p odot second on weight tuples, lazily."""
    return map(oplus, _times(params.t, first), _times(params.p, second))


def combine(first: IdemMeasure, second: IdemMeasure, params: ConvexParams) -> IdemMeasure:
    """Max-plus convex combination t odot first oplus p odot second."""
    space = first.space
    if second.space is not space and second.space != space:
        raise SpaceMismatch("cannot combine measures on different spaces")
    if space is not None:
        return _dense(space, tuple(_combined(params, first._weights, second._weights)))
    pairs = [(a, odot(params.t, w)) for a, w in first.atoms]
    pairs += [(a, odot(params.p, w)) for a, w in second.atoms]
    return IdemMeasure(pairs)


class SpaceMap:
    """Total map between finite spaces, given by a target-index table."""

    __slots__ = ("source", "target", "table", "is_surjective")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, table: Sequence[int]):
        tbl = tuple(table)
        if len(tbl) != source.n:
            raise BadInput("map table must cover the whole source")
        for j in tbl:
            if type(j) is not int:
                raise BadInput(f"map value {capped(repr(j))} is not an integer")
            if not 0 <= j < target.n:
                raise BadInput(f"map value {j} outside target of size {target.n}")
        self.source = source
        self.target = target
        self.table = tbl
        self.is_surjective = len(set(tbl)) == target.n

    def __call__(self, i: int) -> int:
        return self.table[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpaceMap):
            return NotImplemented
        return (self.source, self.target, self.table) == (other.source, other.target, other.table)

    def __repr__(self) -> str:
        return f"SpaceMap({self.table!r})"


def _pushed(f: SpaceMap, weights: tuple) -> tuple:
    """The image weight tuple: the max of `weights` over each fiber of f."""
    out = [NEG_INF] * f.target.n
    for j, w in zip(f.table, weights):
        out[j] = oplus(out[j], w)
    return tuple(out)


def pushforward(f: SpaceMap, mu: IdemMeasure) -> IdemMeasure:
    """Image measure: weights of atoms with a common image merge by max."""
    if mu.space is not f.source and mu.space != f.source:
        raise SpaceMismatch("measure does not live on the map's source")
    return _dense(f.target, _pushed(f, mu._weights))


# -- distance ---------------------------------------------------------------


@lru_cache(maxsize=64)
def _affine_tests(dim: int) -> tuple:
    """32 max-plus affine functions phi(x) = const oplus max_j (c_j odot
    x_j) on R_max^dim, as columns of ints times 8: the 32 constants, then
    the 32 c_j for each j.  Coefficients and constants lie on the grid
    -2, -15/8, ..., 0 and are drawn from `random.Random(0)`, each test's
    coefficients before its constant."""
    grid = list(range(-16, 1))
    rng = random.Random(0)
    tests = []
    for _ in range(32):
        coeffs = [rng.choice(grid) for _ in range(dim)]
        tests.append((rng.choice(grid), *coeffs))
    return tuple(zip(*tests))


def _space_values(mu: IdemMeasure) -> tuple:
    """The values `measure_dist` compares for a measure on a finite space:
    its weight tuple, then, when the space is embedded, its value on each
    coordinate projection, one pass over the atoms each."""
    points = mu.space.points
    if points is None:
        return mu._weights
    weights = [w for _, w in mu.atoms]
    columns = zip(*[points[i].coords for i, _ in mu.atoms])
    return mu._weights + tuple([_dot(weights, col) for col in columns])


def _point_values(mu: IdemMeasure) -> list:
    """The values `measure_dist` compares for a measure over points, each
    an int pair (numerator, denominator) that `core._rho_ratios` reads.

    In order: the barycenter's coordinates (mu on each projection), mu on
    min(x_i, x_j) for each i < j, and each of `_affine_tests` at the
    barycenter, over ints at the lcm of 8 and the denominator of the
    barycenter's row.  For max-plus affine phi, mu(phi) = phi(beta(mu))
    holds exactly, because odot distributes over oplus and the weights of
    mu peak at 0, so an affine value costs O(dim) instead of
    O(atoms * dim).
    """
    weights = [w for _, w in mu.atoms]
    columns = list(zip(*[p.coords for p, _ in mu.atoms]))
    beta, den = _row_of(_vector(tuple([_dot(weights, col) for col in columns])))
    values = [(b, den) for b in beta]
    dim = len(columns)
    for i in range(dim):
        for j in range(i + 1, dim):
            low = _dot(weights, map(trop_min, columns[i], columns[j]))
            values.append((low._numerator, low._denominator))
    scale = lcm(8, den)
    consts, *coeffs = _affine_tests(dim)
    if scale != 8:
        consts = [c * (scale // 8) for c in consts]
        coeffs = [[c * (scale // 8) for c in col] for col in coeffs]
    at = [b * (scale // den) for b in beta]
    values += zip(map(max, consts, *[[c + b for c in col] for col, b in zip(coeffs, at)]), repeat(scale))
    return values


def measure_dist(mu: IdemMeasure, nu: IdemMeasure) -> float:
    """Distance for reporting: the max of rho(a, b) = |e^a - e^b| over
    matching values a of mu and b of nu.

    On a common finite space the values are the weights (`_space_values`),
    so the distance dominates weight-wise convergence, plus the coordinate
    projections when the space is embedded.  For measures over points of
    one dimension they are the barycenter, the pairwise minima and 32
    fixed affine tests (`_point_values`), so the distance tracks atom
    motion.  Both cost one pass over the atoms per value kind.

    The float separates what e^a separates: `exp` underflows to 0.0 below
    about -745, so weights or values that low read exactly like -inf, and
    the weights (0, -800) and (0, -inf) are at distance 0.0.  A distance
    above the float range raises BadInput (see `core.rho`); the point
    values reach it through `core._rho_ratios`, which gives rho's floats.
    """
    return _dist_to(nu)(mu)


def _dist_to(nu: IdemMeasure) -> Callable[[IdemMeasure], float]:
    """The function mu -> measure_dist(mu, nu).  It reads nu's values on
    its first call and keeps them, so a refinement sweep reads its
    measure once for all of its approximations.  The kind of values is
    nu's: those of its space, or of its points."""
    theirs = None

    def dist(mu: IdemMeasure) -> float:
        nonlocal theirs
        if mu.space is not None and mu.space == nu.space:
            values, pair = _space_values, rho
        else:
            if mu.space is not None or nu.space is not None:
                raise SpaceMismatch("no default test family across different spaces")
            if not all(isinstance(m.atoms[0][0], TropVector) for m in (mu, nu)):
                raise BadInput("measures over measures have no default test family")
            if mu.atoms[0][0].dim != nu.atoms[0][0].dim:
                raise DimensionMismatch("point measures of mixed dimension")
            values, pair = _point_values, _rho_ratios
        if theirs is None:
            theirs = values(nu)
        return max(map(pair, values(mu), theirs))

    return dist
