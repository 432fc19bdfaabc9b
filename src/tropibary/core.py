"""Exact max-plus arithmetic: scalars, vectors, and convex parameter pairs.

Scalars live in R ∪ {-inf} with oplus = max and odot = +.  A finite
scalar is a plain `fractions.Fraction`, so every identity is checked
with exact equality; -inf is the sentinel `NEG_INF`.  +inf (`POS_INF`)
exists only as a transient residuation result and is clamped away by a
min before it can be stored; putting it in a vector, weight, or
parameter is an error.  `scalar()` is the only coercion.  Test for an
infinity by identity (`x is NEG_INF`), and mind that `Fraction(0)` is
falsy and equals the int 0.

The kernel functions `oplus`, `oplus_all`, `odot`, `residual`,
`trop_min` and `rho` test the sentinels by identity, then read a
Fraction's `_numerator` and `_denominator` slots: they compare by
cross-multiplying and add by `Fraction._add`'s gcd steps, with no
operator dispatch or ABC check; a sum is built reduced by
`object.__new__(Fraction)`, equal to `a + b` in numerator, denominator,
hash and str.  A non-scalar operand (float, int, str) that the kernel
reads or returns raises `BadInput` pointing to `scalar()`.

Every max-plus product oplus_i c_i odot v_i goes through one private
kernel, `_dot(coeffs, values)`: barycenters, combinations of points,
mu(phi) and the values `measures.measure_dist` compares.  It keeps each
sum as an unreduced numerator and denominator, compares sums by
cross-multiplying, and reduces only the winner, so it builds at most one
Fraction where one `odot` per term folded by `oplus_all` builds one per
term, and it gives the same scalar.

The point layer keeps to the same slots.  `scalar()` reads a string
once: the numbers of its one `SCALAR_TEXT` match give the reduced
Fraction directly, with no second parse by `Fraction(text)`.  Each
distinct text is read once per process: `_parse`, behind `scalar()` and
`measures._finite_q`, keeps a parse table from text to result (the
scalar, or None for a refusal) of at most `PARSE_TABLE_CAP` texts, the
least recently used dropped first.  Only texts of at most
`PARSE_TEXT_CAP` characters are kept; a longer one is read every time.
The results are immutable Fractions and the two sentinels, so sharing
them changes no value and no message.  A
`TropVector` computes its hash on first use and keeps it in a slot (a
copy or an unpickled vector starts without one); equality compares the
coordinates by identity, then by numerator and denominator.  A
combination of points takes each output coordinate in one `_dot`, with
no intermediate vectors.

A vector's row, `_row_of(v)`, is its coordinates as ints at their own
common denominator (None with a -inf coordinate), kept like the hash.
Box tests, hull membership, extremal pruning and point-measure
distances work on rows and build a Fraction only for a value they
return.  Two rows meet by cross-multiplying or at the lcm of their two
denominators, never at one lcm over a whole input.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import exp, expm1, gcd, inf, lcm, log
from typing import Iterable, NoReturn, Optional, Sequence, Union

from .errors import BadInput, DimensionMismatch, capped

# What a scalar string may be: the scalar pattern of the JSON schemas
# (-inf, an integer or p/q, a decimal), plus the transient +inf.  Matched
# whole, so no spaces, newlines, underscores or exponents get through.
SCALAR_TEXT = re.compile(r"-inf|\+inf|[+-]?[0-9]+(/[0-9]+)?|[+-]?[0-9]*\.[0-9]+")

# The parse table of `_parse`: the most texts it keeps, and the longest
# text it keeps.
PARSE_TABLE_CAP = 4096
PARSE_TEXT_CAP = 64


class _Infinity:
    """`NEG_INF` or `POS_INF`: below or above every rational, from either
    side of a comparison (a Fraction on the left hands over to the
    reflected method).  Equality is identity; the hash is constant, so set
    order never depends on id(); copies and pickles are the same object."""

    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = sign

    def __lt__(self, other) -> bool:
        return self._sign < 0 and other is not self

    def __le__(self, other) -> bool:
        return self._sign < 0 or other is self

    def __gt__(self, other) -> bool:
        return self._sign > 0 and other is not self

    def __ge__(self, other) -> bool:
        return self._sign > 0 or other is self

    def __eq__(self, other) -> bool:
        return self is other

    def __hash__(self) -> int:
        return hash(float(self))

    def __float__(self) -> float:
        return inf if self._sign > 0 else -inf

    def __str__(self) -> str:
        return "+inf" if self._sign > 0 else "-inf"

    def __repr__(self) -> str:
        return "POS_INF" if self._sign > 0 else "NEG_INF"

    def __reduce__(self) -> str:
        return repr(self)


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(1)
ZERO = Fraction(0)

Scalar = Union[Fraction, _Infinity]
RatLike = Union[int, str, Fraction, _Infinity]


def scalar(value: RatLike) -> Scalar:
    """Coerce an int, Fraction or string into a scalar: a `Fraction`,
    `NEG_INF` or `POS_INF`."""
    if type(value) is Fraction or value is NEG_INF or value is POS_INF:
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise BadInput(f"refusing inexact scalar input {value!r}; pass int, Fraction, or 'p/q' string")
    if isinstance(value, str):
        q = _parse(value)
        if q is None:
            raise BadInput(f"{capped(repr(value))} is not a rational or -inf")
        return q
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise BadInput(f"cannot build a scalar from {capped(repr(value))}")


def _parse(text: str) -> Optional[Scalar]:
    """`_read(text)`, from the parse table when the text is at most
    `PARSE_TEXT_CAP` characters long."""
    if len(text) <= PARSE_TEXT_CAP:
        return _parse_table(text)
    return _read(text)


def _read(text: str) -> Optional[Scalar]:
    """The scalar that a `SCALAR_TEXT` string spells, read off its one
    match and built reduced, equal to `Fraction(text)` in numerator,
    denominator, hash and str; None for any other string, a zero
    denominator, or more digits than `int()` converts."""
    m = SCALAR_TEXT.fullmatch(text)
    if m is None:
        return None
    if text[-1] == "f":
        return NEG_INF if text[0] == "-" else POS_INF
    slash = m.start(1)
    try:
        if slash >= 0:
            n, d = int(text[:slash]), int(text[slash + 1:])
        elif "." in text:
            whole, _, digits = text.partition(".")
            n, d = int(whole + digits), 10 ** len(digits)
        else:
            n, d = int(text), 1
    except ValueError:
        return None
    if not d:
        return None
    return _ratio(n, d)


_parse_table = lru_cache(maxsize=PARSE_TABLE_CAP)(_read)


def _ratio(n: int, d: int) -> Fraction:
    """n/d for an int d > 0, built reduced by one gcd: equal to
    `Fraction(n, d)` in numerator, denominator, hash and str."""
    g = gcd(n, d)
    q = object.__new__(Fraction)
    q._numerator = n // g
    q._denominator = d // g
    return q


def _refuse(*operands) -> NoReturn:
    """Raise BadInput for the first kernel operand that is not a scalar."""
    bad = next(x for x in operands if type(x) is not Fraction and not isinstance(x, _Infinity))
    raise BadInput(f"{capped(repr(bad))} is not a scalar; build scalars with scalar()") from None


def _sum(na: int, da: int, nb: int, db: int) -> Fraction:
    """na/da + nb/db for reduced fractions, by `Fraction._add`'s gcd steps,
    built already reduced: the very numerator and denominator of `+`."""
    g = gcd(da, db)
    if g == 1:
        n, d = na * db + da * nb, da * db
    else:
        s = da // g
        n = na * (db // g) + nb * s
        g2 = gcd(n, g)
        n, d = n // g2, s * (db // g2)
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _cmp(a: Scalar, b: Scalar) -> int:
    """-1, 0 or 1 as a <, == or > b; the sentinels keep their order."""
    if a is b:
        return 0
    if a is NEG_INF or b is POS_INF:
        return -1
    if b is NEG_INF or a is POS_INF:
        return 1
    x, y = a._numerator * b._denominator, b._numerator * a._denominator
    return (x > y) - (x < y)


def _sign(q: Fraction) -> int:
    """An int with the sign of the finite scalar q: its numerator."""
    return q._numerator


def oplus(a: Scalar, b: Scalar) -> Scalar:
    """Idempotent addition: max."""
    if a is NEG_INF or b is POS_INF:
        return b if type(b) is Fraction or isinstance(b, _Infinity) else _refuse(b)
    if b is NEG_INF or a is POS_INF:
        return a if type(a) is Fraction or isinstance(a, _Infinity) else _refuse(a)
    try:
        return a if a._numerator * b._denominator >= b._numerator * a._denominator else b
    except AttributeError:
        _refuse(a, b)


def oplus_all(items: Iterable[Scalar]) -> Scalar:
    out = NEG_INF
    for item in items:
        if item is NEG_INF or out is POS_INF:
            continue
        if item is POS_INF:
            out = item
            continue
        try:
            if out is NEG_INF or item._numerator * od > on * item._denominator:
                out, on, od = item, item._numerator, item._denominator
        except AttributeError:
            _refuse(item)
    return out


def _dot(coeffs: Iterable[Scalar], values: Iterable[Scalar]) -> Scalar:
    """oplus over i of coeffs[i] odot values[i], equal to `oplus_all` of
    the terms' `odot`s in numerator, denominator, hash and str, with one
    Fraction built at most.

    Each finite sum stays an unreduced numerator and denominator and sums
    compare by cross-multiplying; a term whose coefficient is 0 is the
    value object itself.  Only the winner is reduced, by one `_ratio`.
    -inf terms drop out, no terms give -inf, a +inf term gives +inf, and a
    non-scalar in a term without an infinity raises `BadInput`.
    """
    # bn/bd is the best sum so far; -1/0 loses to every sum, as none exists
    best, bn, bd = None, -1, 0
    top = NEG_INF
    for c, v in zip(coeffs, values):
        if c is NEG_INF or v is NEG_INF:
            continue
        try:
            cn, vn, vd = c._numerator, v._numerator, v._denominator
            if not cn:
                if vn * bd > bn * vd:
                    best, bn, bd = v, vn, vd
                continue
            cd = c._denominator
        except AttributeError:
            # POS_INF has no numerator either
            if c is POS_INF or v is POS_INF:
                top = POS_INF
                continue
            _refuse(c, v)
        n, d = cn * vd + vn * cd, cd * vd
        if n * bd > bn * d:
            best, bn, bd = None, n, d
    if top is POS_INF or not bd:
        return top
    return best if best is not None else _ratio(bn, bd)


def odot(a: Scalar, b: Scalar) -> Scalar:
    """Semiring multiplication: numeric +.  -inf absorbs everything.

    Because odot distributes over oplus, a measure applied to a max-plus
    affine function equals that function at the measure's barycenter
    (see `measures._point_values`, whose distance values rest on this).
    """
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    if a is POS_INF or b is POS_INF:
        return POS_INF
    try:
        return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
    except AttributeError:
        _refuse(a, b)


def residual(a: Scalar, b: Scalar) -> Scalar:
    """Largest c with b odot c <= a, i.e. tropical division a - b.

    Conventions: -inf - b = -inf for b != -inf; a - (-inf) = +inf for
    a != -inf; -inf - (-inf) = +inf.  The +inf results are transient and
    must be clamped by a min before storage.  +inf operands are refused.
    """
    if a is POS_INF or b is POS_INF:
        raise BadInput("residual is undefined for +inf operands")
    if b is NEG_INF:
        return POS_INF
    if a is NEG_INF:
        return NEG_INF
    try:
        return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
    except AttributeError:
        _refuse(a, b)


def trop_min(a: Scalar, b: Scalar) -> Scalar:
    if a is NEG_INF or b is POS_INF:
        return a if type(a) is Fraction or isinstance(a, _Infinity) else _refuse(a)
    if b is NEG_INF or a is POS_INF:
        return b if type(b) is Fraction or isinstance(b, _Infinity) else _refuse(b)
    try:
        return a if a._numerator * b._denominator <= b._numerator * a._denominator else b
    except AttributeError:
        _refuse(a, b)


def rho(a: Scalar, b: Scalar) -> float:
    """Metric |e^a - e^b| used for all float-valued distance reporting.

    Total on scalars other than +inf: an e^x below the float range reads
    0.0, as `exp` underflow does, equal arguments give 0.0, and a
    distance above the float range raises BadInput.  Only an exponent
    outside the float range leaves the fast path, for `_rho_outside`.
    """
    if a is POS_INF or b is POS_INF:
        raise BadInput("rho is undefined for +inf operands")
    try:
        ea = 0.0 if a is NEG_INF else exp(a._numerator / a._denominator)
        eb = 0.0 if b is NEG_INF else exp(b._numerator / b._denominator)
    except AttributeError:
        _refuse(a, b)
    except OverflowError:
        return _rho_outside(a, b)
    return abs(ea - eb)


def _rho_ratios(a: tuple, b: tuple) -> float:
    """rho of two finite values given as int pairs (numerator, denominator
    > 0), reduced or not: int true division is correctly rounded, so the
    float is rho's bit for bit."""
    try:
        return abs(exp(a[0] / a[1]) - exp(b[0] / b[1]))
    except OverflowError:
        return _rho_outside(_ratio(*a), _ratio(*b))


# Below this gap, 1 - e^-gap equals gap in double precision, and gap
# itself may not survive conversion to a float.
_TINY_GAP = Fraction(1, 2**53)


def _exponent(x: Scalar) -> float:
    """x as a float, -inf for NEG_INF and for x below the float range;
    OverflowError for x above it."""
    if x is NEG_INF:
        return -inf
    try:
        return x._numerator / x._denominator
    except OverflowError:
        if x._numerator < 0:
            return -inf
        raise


def _rho_outside(a: Scalar, b: Scalar) -> float:
    """rho when e^a or e^b lies outside the float range, in log space.

    With hi > lo, |e^a - e^b| = e^(hi + log(1 - e^-gap)) for the exact
    gap = hi - lo.  A tiny gap enters as log(gap), taken from its
    numerator and denominator, which no float conversion can round to 0.
    """
    if a == b:
        return 0.0
    hi, lo = (a, b) if b < a else (b, a)
    try:
        if lo is NEG_INF:
            shrink = 0.0
        else:
            gap = hi - lo
            if gap < _TINY_GAP:
                shrink = log(gap.numerator) - log(gap.denominator)
            else:
                shrink = log(-expm1(_exponent(-gap)))
        return exp(_exponent(hi) + shrink)
    except OverflowError:
        raise BadInput(f"the distance |e^{capped(str(a))} - e^{capped(str(b))}| is above the float range") from None


class TropVector:
    """Point of R_max^d with exact coordinates.

    `coords` is not reassigned after construction: the hash and the row
    are computed on first use and kept in `_hash` and `_row` (unset until
    `_row_of` fills it).
    """

    __slots__ = ("coords", "_hash", "_row")

    def __init__(self, coords: Iterable[RatLike]):
        self.coords = tuple([scalar(c) for c in coords])
        self._hash = None
        if any(c is POS_INF for c in self.coords):
            raise BadInput("+inf cannot be stored in a vector")
        if not self.coords:
            raise BadInput("vectors must have at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_finite(self) -> bool:
        return all(c is not NEG_INF for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropVector):
            return NotImplemented
        if len(self.coords) != len(other.coords):
            return False
        # reduced fractions are equal exactly when their slots are
        for a, b in zip(self.coords, other.coords):
            if a is not b and (
                a is NEG_INF
                or b is NEG_INF
                or a._numerator != b._numerator
                or a._denominator != b._denominator
            ):
                return False
        return True

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.coords)
        return h

    def __reduce__(self):
        # a copy or an unpickled vector hashes afresh and has no row yet
        return _vector, (self.coords,)

    def __repr__(self) -> str:
        return "TropVector([" + ", ".join(str(c) for c in self.coords) + "])"

    def __getitem__(self, j: int) -> Scalar:
        return self.coords[j]

    def __iter__(self):
        return iter(self.coords)

    def shift(self, t: RatLike) -> "TropVector":
        """t odot self, coordinatewise."""
        t = scalar(t)
        if t is POS_INF:
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
        return max(map(_cmp, self.coords, other.coords)) <= 0


def _vector(coords: tuple) -> TropVector:
    """Vector from a nonempty tuple of scalars, none of them +inf.

    Skips the coercion and the checks of `TropVector(coords)`; only for
    coordinates the library computed itself.
    """
    v = object.__new__(TropVector)
    v.coords = coords
    v._hash = None
    return v


# The ids of what `_parse` gives for a text that no vector holds.
_UNSTORED = frozenset(map(id, (None, POS_INF)))


def _read_point(coords: list) -> Optional[TropVector]:
    """The vector that a nonempty list of scalar strings and ints spells,
    equal to `TropVector(coords)`, or None for any other list.  Short
    texts are read from the parse table in one pass."""
    try:
        if max(map(len, coords)) <= PARSE_TEXT_CAP:
            values = tuple(map(_parse_table, coords))
        else:
            values = tuple(map(_parse, coords))
    except (TypeError, ValueError):  # a coordinate that is no string, or none at all
        values = tuple([_parse(c) if type(c) is str else Fraction(c) if type(c) is int else None for c in coords])
        values = values or (None,)
    # by id: comparing a Fraction with None is slow
    return _vector(values) if _UNSTORED.isdisjoint(map(id, values)) else None


# What `_row_of` reads from a vector whose row is not computed yet.
_NO_ROW = object()


def _row_of(v: TropVector) -> Optional[tuple]:
    """v's row: (its coordinates as ints at den, den) for den the lcm of
    their denominators, None when a coordinate is -inf.  Computed on first
    use and kept in `v._row`, the one place that slot is filled.  The slot
    is read with a default: on a new vector, raising and catching
    AttributeError costs twice as much."""
    row = getattr(v, "_row", _NO_ROW)
    if row is not _NO_ROW:
        return row
    try:
        den = lcm(*[c._denominator for c in v.coords])
    except AttributeError:
        # NEG_INF, the only non-Fraction a vector holds, has no denominator
        row = None
    else:
        row = (tuple([c._numerator * (den // c._denominator) for c in v.coords]), den)
    v._row = row
    return row


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
        if t is POS_INF or p is POS_INF:
            raise BadInput("+inf cannot be a convex parameter")
        if _cmp(t, ZERO) > 0 or _cmp(p, ZERO) > 0:
            raise BadInput(f"parameters must be <= 0, got ({t}, {p})")
        if _cmp(oplus(t, p), ZERO):
            raise BadInput(f"max(t, p) is {oplus(t, p)}, expected 0")
        self.t = t
        self.p = p

    def swapped(self) -> "ConvexParams":
        # the swap of a valid pair is valid, so it skips the constructor
        out = object.__new__(ConvexParams)
        out.t, out.p = self.p, self.t
        return out

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
    """Convex combination of two points: t odot x oplus p odot y, one
    `_dot` of (t, p) with (x_j, y_j) per coordinate."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"dim {x.dim} vs {y.dim}")
    return _vector(tuple(map(_dot, repeat((params.t, params.p)), zip(x.coords, y.coords))))


def _combination(points: Sequence[TropVector], coeffs: Sequence[RatLike]) -> TropVector:
    """oplus over i of coeffs[i] odot points[i], for points of one
    dimension: each coordinate is one `_dot` of the coefficients with the
    points' coordinates.  A -inf coefficient drops its point, and +inf is
    refused as `TropVector.shift` refuses it."""
    cs = []
    for _, c in zip(points, coeffs):
        c = scalar(c)
        if c is POS_INF:
            raise BadInput("+inf cannot be stored in a vector")
        cs.append(c)
    return _vector(tuple(map(_dot, repeat(cs), zip(*[p.coords for p in points]))))
