"""Exception taxonomy shared across the package.

Errors split into three families: bad input data (rejected before any
work starts), expected negative results (a constructive routine declining
an instance outside its validity region), and library faults (a witness
the library built that fails its own exactness check, see `certify`).
The CLI maps bad input and library faults to exit code 1 and expected
negative results to exit code 2.
"""


# The longest input text an error message quotes in full.
QUOTE_CAP = 200


def capped(text: str) -> str:
    """text cut to `QUOTE_CAP` characters and an ellipsis, so that an
    error line that quotes its input does not grow with it."""
    return text if len(text) <= QUOTE_CAP else text[:QUOTE_CAP] + "..."


class TropibaryError(Exception):
    """Base class for every error raised by this package."""


class BadInput(TropibaryError):
    """Malformed or inconsistent input data."""


class NotNormalized(BadInput):
    """Weight data whose maximum is not 0 (or a weight above 0)."""


class SpaceMismatch(BadInput):
    """Operands live on different finite spaces."""


class DimensionMismatch(BadInput):
    """Vectors or boxes of different dimension were combined."""


class SchemaError(BadInput):
    """A JSON document does not match its declared schema."""


class UncoveredAtom(BadInput):
    """A measure atom lies in no element of the supplied cover."""


class NonConvexElement(BadInput):
    """A cover element failed a convexity check (barycenter escaped it)."""


class BudgetExceeded(BadInput):
    """A brute-force search exceeded its candidate budget."""


class InexactWitness(TropibaryError):
    """A constructed witness failed its exactness check: a library fault."""


def certify(ok: bool, what: str) -> None:
    """The one exactness gate: raise InexactWitness unless ok.

    A plain function call, so unlike `assert` it still runs under
    `python -O`.
    """
    if not ok:
        raise InexactWitness(what)


class Rejection(TropibaryError):
    """Expected negative result: the instance is outside a validity region."""


class OutsideValidityRegion(Rejection):
    """The target is too far from the image for the single-shot lift.

    The message carries the inequality that failed, so callers can see
    which part of the validity region was violated.
    """


class InconsistentFiber(Rejection):
    """A fiber-lift precondition failed: the given point is not in the pullback."""


class InfeasibleBarycenter(Rejection):
    """Sampling could not produce a measure with the requested barycenter."""
