"""Finite-support idempotent measures and the operations that act on them.

A measure is a weight assignment over atoms with every weight <= 0 and
maximum weight exactly 0.

On a `FiniteSpace` of n points a measure is its weight tuple: n scalars,
-inf off the support.  `from_weights`, `combine`, `pushforward` and the
constructor on index pairs each build that tuple in one pass and hand it
to one checked constructor, `_dense`, which refuses +inf, an all -inf
tuple and a maximum other than 0.  `atoms` is the index-ordered view of
the tuple: its (index, weight) pairs above -inf.  `density()` is the
tuple itself.

Without a space, atoms are points (`TropVector`) or measures themselves
(for spaces of measures).  Such measures are kept in canonical form:
duplicate atoms merged by max, -inf weights dropped, atoms sorted
deterministically.

The functional view is `mu(phi)` = max over atoms of weight + phi(atom),
which satisfies the three defining laws checked in the test suite:
constants map to themselves, shifts factor out, and max is preserved.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
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
    _parse,
    _point_key,
    _sign,
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
    EmptyTestFamily,
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
    is the canonical form itself: duplicates merged by max, -inf dropped,
    sorted by `_atom_key`.
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
            weight = scalar(weight)
            if weight is POS_INF:
                raise BadInput("+inf cannot be a weight")
            if isinstance(atom, int):
                if space is None:
                    raise BadInput("index atoms need a space")
                if not 0 <= atom < space.n:
                    raise BadInput(f"atom index {atom} outside space of size {space.n}")
            elif isinstance(atom, TropVector):
                if atom.is_finite is False:
                    raise BadInput("point atoms must have finite coordinates")
                dims.add(atom.dim)
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
        merged: dict = {}
        for atom, weight in checked:
            first = merged.setdefault(atom, weight)
            if first is not weight:
                merged[atom] = oplus(first, weight)
        if len({type(a) for a in merged}) > 1:
            raise BadInput("atoms of mixed kinds in one measure")
        if len(dims) > 1:
            raise DimensionMismatch("point atoms of mixed dimension")
        top = oplus_all(merged.values()) if merged else NEG_INF
        if top is NEG_INF:
            raise NotNormalized("a measure needs at least one atom above -inf")
        if _cmp(top, ZERO):
            if not renormalize:
                raise NotNormalized(f"max weight is {top}, expected 0")
            merged = {a: odot(w, -top) for a, w in merged.items()}
        kept = [(a, w) for a, w in merged.items() if w is not NEG_INF]
        if type(kept[0][0]) is TropVector:
            key = _point_key([a for a, _ in kept])
            kept.sort(key=lambda aw: key(aw[0]))
        else:
            kept.sort(key=lambda aw: _atom_key(aw[0]))
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
        return oplus_all(odot(w, phi(a)) for a, w in self.atoms)

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


def _dense(space: FiniteSpace, weights: tuple) -> IdemMeasure:
    """The measure on `space` whose weight tuple is `weights`.

    `weights` holds `space.n` scalars; `IdemMeasure._fill` refuses +inf,
    an all -inf tuple and a maximum other than 0.
    """
    mu = object.__new__(IdemMeasure)
    mu._fill(space, weights)
    return mu


def _times(c: Scalar, weights: tuple):
    """c odot each weight, lazily; the weights themselves when c is 0."""
    if c is not NEG_INF and not _sign(c):
        return weights
    return map(odot, repeat(c), weights)


def combine(first: IdemMeasure, second: IdemMeasure, params: ConvexParams) -> IdemMeasure:
    """Max-plus convex combination t odot first oplus p odot second."""
    space = first.space
    if second.space is not space and second.space != space:
        raise SpaceMismatch("cannot combine measures on different spaces")
    if space is not None:
        joined = map(oplus, _times(params.t, first._weights), _times(params.p, second._weights))
        return _dense(space, tuple(joined))
    pairs = [(a, odot(params.t, w)) for a, w in first.atoms]
    pairs += [(a, odot(params.p, w)) for a, w in second.atoms]
    return IdemMeasure(pairs)


class SpaceMap:
    """Total map between finite spaces, given by a target-index table."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, table: Sequence[int]):
        tbl = tuple(table)
        if len(tbl) != source.n:
            raise BadInput("map table must cover the whole source")
        for j in tbl:
            if not 0 <= j < target.n:
                raise BadInput(f"map value {j} outside target of size {target.n}")
        self.source = source
        self.target = target
        self.table = tbl

    def __call__(self, i: int) -> int:
        return self.table[i]

    @property
    def is_surjective(self) -> bool:
        return set(self.table) == set(range(self.target.n))

    def compose(self, inner: "SpaceMap") -> "SpaceMap":
        """self after inner."""
        if inner.target != self.source:
            raise SpaceMismatch("maps do not compose")
        return SpaceMap(inner.source, self.target, [self.table[j] for j in inner.table])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpaceMap):
            return NotImplemented
        return (self.source, self.target, self.table) == (other.source, other.target, other.table)

    def __repr__(self) -> str:
        return f"SpaceMap({self.table!r})"


def pushforward(f: SpaceMap, mu: IdemMeasure) -> IdemMeasure:
    """Image measure: weights of atoms with a common image merge by max."""
    if mu.space is not f.source and mu.space != f.source:
        raise SpaceMismatch("measure does not live on the map's source")
    weights = [NEG_INF] * f.target.n
    for j, w in zip(f.table, mu._weights):
        weights[j] = oplus(weights[j], w)
    return _dense(f.target, tuple(weights))


# -- distance surrogate ----------------------------------------------------

INDICATOR_DEPTH = Fraction(1000)


class PointFunction:
    """Named continuous test function on points, exact on rationals.

    `affine`, when set, is ``(coeffs, const)`` and says that the function
    is max-plus affine: phi(x) = const oplus max_j (coeffs[j] odot x_j).
    For such a phi and a point measure mu, mu(phi) = phi(beta(mu)) exactly,
    where beta(mu) is the barycenter, and `measure_dist` evaluates phi
    there instead of atom by atom.  Leave it None for any other function.
    """

    __slots__ = ("name", "fn", "affine")

    def __init__(
        self,
        name: str,
        fn: Callable[[TropVector], Scalar],
        affine: Optional[tuple[tuple[Scalar, ...], Scalar]] = None,
    ):
        self.name = name
        self.fn = fn
        self.affine = affine

    def __call__(self, p: TropVector) -> Scalar:
        return self.fn(p)

    def __repr__(self) -> str:
        return f"PointFunction({self.name})"


def _affine_at(affine: tuple, coords: Sequence[Scalar]) -> Scalar:
    coeffs, const = affine
    return oplus(oplus_all(odot(a, c) for a, c in zip(coeffs, coords)), const)


def coordinate_projection(dim: int, j: int) -> PointFunction:
    unit = tuple(ZERO if k == j else NEG_INF for k in range(dim))
    return PointFunction(f"proj[{j}]", lambda p: p[j], affine=(unit, NEG_INF))


def pairwise_min(i: int, j: int) -> PointFunction:
    return PointFunction(f"min[{i},{j}]", lambda p: trop_min(p[i], p[j]))


def random_affine(dim: int, rng: random.Random) -> PointFunction:
    """max_j (a_j + p_j) oplus c with small random rational coefficients."""
    grid = [Fraction(k, 8) for k in range(-16, 1)]
    coeffs = tuple(rng.choice(grid) for _ in range(dim))
    const = rng.choice(grid)
    label = "affine[" + ",".join(str(c) for c in coeffs) + f";{const}]"
    affine = (coeffs, const)
    return PointFunction(label, lambda p: _affine_at(affine, p.coords), affine=affine)


# The default point family is a pure function of its dimension and is
# built often (every measure_dist and witness_distance call on points),
# so it is built once and kept as a tuple; the public builder hands out
# copies.


@lru_cache(maxsize=64)
def _point_tests(dim: int) -> tuple:
    tests = [coordinate_projection(dim, j) for j in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            tests.append(pairwise_min(i, j))
    rng = random.Random(0)
    tests += [random_affine(dim, rng) for _ in range(32)]
    return tuple(tests)


def default_tests_for_space(space: FiniteSpace) -> list:
    """Indicator-style tables (0 at one atom, -1000 elsewhere), plus the
    coordinate projections when the space is embedded."""
    tests = []
    for i in range(space.n):
        vals = [-INDICATOR_DEPTH] * space.n
        vals[i] = Fraction(0)
        tests.append(FunctionTable(space, vals))
    if space.points is not None:
        d = space.points[0].dim
        for j in range(d):
            tests.append(FunctionTable(space, [p[j] for p in space.points]))
    return tests


def default_tests_for_points(dim: int) -> list:
    """Projections, pairwise mins, and 32 random affine functions drawn
    from seed 0."""
    return list(_point_tests(dim))


def _space_values(mu: IdemMeasure) -> list:
    """mu on each table of `default_tests_for_space(mu.space)`, in order,
    in one pass over the weights.

    The indicator of point i takes mu to w_i oplus (m_i odot -1000), where
    m_i is the largest weight at any other point.  m_i is 0 unless i is
    the only point of weight 0, and then w_i = 0 is the larger term, so
    the value is w_i oplus -1000 at every point.  The projections cost
    one pass over the atoms each.
    """
    floor = -INDICATOR_DEPTH
    values = [oplus(w, floor) for w in mu._weights]
    points = mu.space.points
    if points is not None:
        for j in range(points[0].dim):
            values.append(oplus_all(odot(w, points[i][j]) for i, w in mu.atoms))
    return values


def _evaluator(mu: IdemMeasure) -> Callable:
    """phi -> mu(phi), with affine tests taken at the barycenter of mu."""
    first = mu.atoms[0][0]
    if not isinstance(first, TropVector):
        return mu
    dim = first.dim
    beta = tuple(mu(coordinate_projection(dim, j)) for j in range(dim))

    def evaluate(phi) -> Scalar:
        if isinstance(phi, PointFunction) and phi.affine is not None and len(phi.affine[0]) == dim:
            return _affine_at(phi.affine, beta)
        return mu(phi)

    return evaluate


def measure_dist(
    mu: IdemMeasure,
    nu: IdemMeasure,
    tests: Optional[Sequence] = None,
) -> float:
    """Surrogate distance: max over a test family of rho(mu(phi), nu(phi)).

    With the default family this dominates weight-wise convergence on a
    common finite space, and tracks atom motion for point measures.

    On a common finite space the default family is not built: each
    measure's value on every table of `default_tests_for_space` comes
    from its weight tuple in one pass (`_space_values`), so the cost is
    O(n + n_atoms * dim) instead of O(n^2).  The values are the same
    exact scalars as the tables give, so the float is the same.  An
    explicit `tests` family is evaluated test by test.

    For a measure over points of one dimension, every test with
    `PointFunction.affine` set (the projections and the random affine
    functions of the default family) is evaluated at the barycenter:
    mu(phi) = phi(beta(mu)) holds exactly for max-plus affine phi, because
    odot distributes over oplus and the weights of mu peak at 0.  The
    barycenter costs one pass over the atoms per coordinate, after which
    each affine test costs O(dim) instead of O(atoms * dim).  Every other
    test, and every test on other measures, is evaluated as mu(phi).  The
    result is the same float either way.
    """
    if tests is None:
        if mu.space is not None and mu.space == nu.space:
            return max(map(rho, _space_values(mu), _space_values(nu)))
        if mu.space is None and nu.space is None:
            if not all(isinstance(m.atoms[0][0], TropVector) for m in (mu, nu)):
                raise BadInput("measures over measures have no default test family")
            dims = {mu.atoms[0][0].dim, nu.atoms[0][0].dim}
            if len(dims) != 1:
                raise DimensionMismatch("point measures of mixed dimension")
            tests = _point_tests(dims.pop())
        else:
            raise SpaceMismatch("no default test family across different spaces")
    if not tests:
        raise EmptyTestFamily("measure_dist needs at least one test function")
    at_mu, at_nu = _evaluator(mu), _evaluator(nu)
    return max(rho(at_mu(phi), at_nu(phi)) for phi in tests)
