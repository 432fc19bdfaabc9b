"""Exact max-plus arithmetic: scalars, vectors, and convex parameter pairs.

Scalars live in R ∪ {-inf} with oplus = max and odot = +.  All finite
values are `fractions.Fraction`, so every algebraic identity in the test
suite is checked with exact equality.  +inf exists only as a transient
residuation result and is always clamped away by a min before it can be
stored; putting it inside a vector, weight, or parameter is an error.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

from .errors import BadInput, DimensionMismatch

_BOTTOM = -1  # -inf
_FINITE = 0
_TOP = 1  # +inf, transient only

RatLike = Union[int, str, Fraction, "TropScalar"]

# What a scalar string may be: the scalar pattern of the JSON schemas
# (-inf, an integer or p/q, a decimal), plus the transient +inf.  Matched
# whole, so no spaces, newlines, underscores or exponents get through.
SCALAR_TEXT = re.compile(r"-inf|\+inf|[+-]?[0-9]+(/[0-9]+)?|[+-]?[0-9]*\.[0-9]+")


class TropScalar:
    """One element of the max-plus line (or the transient +inf)."""

    __slots__ = ("_kind", "_q")

    def __init__(self, value: RatLike):
        if isinstance(value, TropScalar):
            self._kind = value._kind
            self._q = value._q
            return
        if type(value) is Fraction:
            self._kind = _FINITE
            self._q = value
            return
        if isinstance(value, bool) or isinstance(value, float):
            raise BadInput(f"refusing inexact scalar input {value!r}; pass int, Fraction, or 'p/q' string")
        if isinstance(value, str):
            if not SCALAR_TEXT.fullmatch(value):
                raise BadInput(f"{value!r} is not a rational or -inf")
            if value in ("-inf", "+inf"):
                self._kind = _BOTTOM if value == "-inf" else _TOP
                self._q = Fraction(0)
                return
            try:
                value = Fraction(value)
            except ZeroDivisionError:
                raise BadInput(f"{value!r} is not a rational or -inf") from None
        if isinstance(value, (int, Fraction)):
            self._kind = _FINITE
            self._q = Fraction(value)
            return
        raise BadInput(f"cannot build a scalar from {value!r}")

    @staticmethod
    def bottom() -> "TropScalar":
        s = object.__new__(TropScalar)
        s._kind = _BOTTOM
        s._q = Fraction(0)
        return s

    @staticmethod
    def top() -> "TropScalar":
        s = object.__new__(TropScalar)
        s._kind = _TOP
        s._q = Fraction(0)
        return s

    @property
    def is_bottom(self) -> bool:
        return self._kind == _BOTTOM

    @property
    def is_top(self) -> bool:
        return self._kind == _TOP

    @property
    def is_finite(self) -> bool:
        return self._kind == _FINITE

    @property
    def q(self) -> Fraction:
        """Underlying rational; only meaningful for finite scalars."""
        if self._kind != _FINITE:
            raise BadInput(f"{self} has no rational value")
        return self._q

    def _key(self):
        return (self._kind, self._q)

    # The order is that of _key(): kind first (-inf < finite < +inf), then
    # the rational.  Both infinities carry _q == 0, so equal kinds can
    # always fall through to comparing _q.

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropScalar):
            return NotImplemented
        return self._kind == other._kind and self._q == other._q

    def __hash__(self) -> int:
        return hash(self._key())

    def __lt__(self, other: "TropScalar") -> bool:
        if self._kind != other._kind:
            return self._kind < other._kind
        return self._q < other._q

    def __le__(self, other: "TropScalar") -> bool:
        if self._kind != other._kind:
            return self._kind < other._kind
        return self._q <= other._q

    def __gt__(self, other: "TropScalar") -> bool:
        if self._kind != other._kind:
            return self._kind > other._kind
        return self._q > other._q

    def __ge__(self, other: "TropScalar") -> bool:
        if self._kind != other._kind:
            return self._kind > other._kind
        return self._q >= other._q

    def __repr__(self) -> str:
        return f"TropScalar({str(self)!r})"

    def __str__(self) -> str:
        if self._kind == _BOTTOM:
            return "-inf"
        if self._kind == _TOP:
            return "+inf"
        return str(self._q)

    def to_float(self) -> float:
        if self._kind == _BOTTOM:
            return float("-inf")
        if self._kind == _TOP:
            return float("inf")
        return float(self._q)


def _finite(q: Fraction) -> TropScalar:
    """Finite scalar from a value already known to be a `Fraction`.

    Skips the input checks and the copy of `TropScalar(q)`; only for
    values the library computed itself.
    """
    s = object.__new__(TropScalar)
    s._kind = _FINITE
    s._q = q
    return s


NEG_INF = TropScalar.bottom()
POS_INF = TropScalar.top()
ZERO = TropScalar(0)


def scalar(value: RatLike) -> TropScalar:
    """Coerce an int/Fraction/string into a TropScalar."""
    return value if isinstance(value, TropScalar) else TropScalar(value)


def oplus(a: TropScalar, b: TropScalar) -> TropScalar:
    """Idempotent addition: max."""
    return a if a >= b else b


def oplus_all(items: Iterable[TropScalar]) -> TropScalar:
    out = NEG_INF
    for item in items:
        if item > out:
            out = item
    return out


def odot(a: TropScalar, b: TropScalar) -> TropScalar:
    """Semiring multiplication: numeric +.  -inf absorbs everything.

    Because odot distributes over oplus, a measure applied to a max-plus
    affine function equals that function at the measure's barycenter
    (see `measures.measure_dist`, which relies on this).
    """
    if a._kind == _FINITE and b._kind == _FINITE:
        return _finite(a._q + b._q)
    if a._kind == _BOTTOM or b._kind == _BOTTOM:
        return NEG_INF
    return POS_INF


def residual(a: TropScalar, b: TropScalar) -> TropScalar:
    """Largest c with b odot c <= a, i.e. tropical division a - b.

    Conventions: -inf - b = -inf for b != -inf; a - (-inf) = +inf for
    a != -inf; -inf - (-inf) = +inf.  The +inf results are transient and
    must be clamped by a min before storage.  +inf operands are refused.
    """
    if a.is_top or b.is_top:
        raise BadInput("residual is undefined for +inf operands")
    if b.is_bottom:
        return POS_INF
    if a.is_bottom:
        return NEG_INF
    return _finite(a._q - b._q)


def trop_min(a: TropScalar, b: TropScalar) -> TropScalar:
    return a if a <= b else b


def rho(a: TropScalar, b: TropScalar) -> float:
    """Metric |e^a - e^b| used for all float-valued distance reporting."""
    if a.is_top or b.is_top:
        raise BadInput("rho is undefined for +inf operands")
    ea = 0.0 if a.is_bottom else math.exp(a.to_float())
    eb = 0.0 if b.is_bottom else math.exp(b.to_float())
    return abs(ea - eb)


class TropVector:
    """Point of R_max^d with exact coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[RatLike]):
        self.coords = tuple(scalar(c) for c in coords)
        if any(c.is_top for c in self.coords):
            raise BadInput("+inf cannot be stored in a vector")
        if not self.coords:
            raise BadInput("vectors must have at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_finite(self) -> bool:
        return all(c.is_finite for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "TropVector([" + ", ".join(str(c) for c in self.coords) + "])"

    def __getitem__(self, j: int) -> TropScalar:
        return self.coords[j]

    def __iter__(self):
        return iter(self.coords)

    def shift(self, t: TropScalar) -> "TropVector":
        """t odot self, coordinatewise."""
        if t.is_top:
            raise BadInput("+inf cannot be stored in a vector")
        return _vector(tuple([odot(t, c) for c in self.coords]))

    def join(self, other: "TropVector") -> "TropVector":
        """Coordinatewise oplus."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        return _vector(tuple(map(oplus, self.coords, other.coords)))

    def leq(self, other: "TropVector") -> bool:
        """Coordinatewise <=."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        return all(a <= b for a, b in zip(self.coords, other.coords))


def _vector(coords: tuple) -> TropVector:
    """Vector from a nonempty tuple of scalars, none of them +inf.

    Skips the coercion and the checks of `TropVector(coords)`; only for
    coordinates the library computed itself, like `_finite` for scalars.
    """
    v = object.__new__(TropVector)
    v.coords = coords
    return v


def vector(coords: Iterable[RatLike]) -> TropVector:
    return TropVector(coords)


def point_dist(x: TropVector, y: TropVector) -> float:
    """max_j rho(x_j, y_j)."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"dim {x.dim} vs {y.dim}")
    return max(rho(a, b) for a, b in zip(x.coords, y.coords))


class ConvexParams:
    """Pair (t, p) with t, p <= 0 and max(t, p) = 0.

    These are the coefficients of a max-plus convex combination
    t odot first oplus p odot second; the normalization pins the pair to
    the boundary set J = {max(t, p) = 0}.
    """

    __slots__ = ("t", "p")

    def __init__(self, t: RatLike, p: RatLike):
        t = scalar(t)
        p = scalar(p)
        if t.is_top or p.is_top:
            raise BadInput("+inf cannot be a convex parameter")
        if t > ZERO or p > ZERO:
            raise BadInput(f"parameters must be <= 0, got ({t}, {p})")
        if oplus(t, p) != ZERO:
            raise BadInput(f"max(t, p) is {oplus(t, p)}, expected 0")
        self.t = t
        self.p = p

    def swapped(self) -> "ConvexParams":
        return ConvexParams(self.p, self.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexParams):
            return NotImplemented
        return self.t == other.t and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.t, self.p))

    def __repr__(self) -> str:
        return f"ConvexParams({self.t}, {self.p})"

    def dist(self, other: "ConvexParams") -> float:
        return max(rho(self.t, other.t), rho(self.p, other.p))


def s_point(x: TropVector, y: TropVector, params: ConvexParams) -> TropVector:
    """Convex combination of two points: t odot x oplus p odot y."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"dim {x.dim} vs {y.dim}")
    return x.shift(params.t).join(y.shift(params.p))
