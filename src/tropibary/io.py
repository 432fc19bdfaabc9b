"""JSON codecs and schema checks for every file the CLI touches.

Scalars travel as exact strings ("p/q", decimal, or "-inf"); floats are
never written, so files round-trip losslessly.  Every document we emit
carries "version": 1; on input the version is optional but, when
present, must match.

Schemas live next to this module under schema/ and are checked before
any value is decoded.  Each schema is compiled once into a predicate of
nested closures that accepts valid documents fast; only a document it
rejects goes to jsonschema, which words the error and has the final say.
So the predicate must never accept what jsonschema rejects, and every
error message is jsonschema's.  The compiler knows the draft 2020-12
keywords the shipped schemas use: type, const, pattern, minimum,
properties, required, additionalProperties (false only), items,
minItems, maxItems, oneOf, anyOf and local "#/$defs/..." $ref; $schema,
title and $defs carry no constraint and are skipped.  Any other keyword
in a part of a schema that checks documents raises ValueError when the
schema is compiled, so a schema that gains one fails loudly instead of
being checked less.  Where a node's "type" is "object" beside object
keywords, or "array" beside array keywords, the container check refuses
the other kinds of value itself, with no separate type check.

Each compiled "$defs" check keeps a verdict table: its verdict on each
str value of at most `VERDICT_TEXT_CAP` characters, for the
`VERDICT_TABLE_CAP` values used last.  The check is pure, so a kept
verdict is the verdict; longer strings, dicts, lists and numbers are
checked every time.  The table holds verdicts on values only, never a
document or a result, and a rejection is still worded by jsonschema.

Reports are rendered by `dump_document`, whose text is exactly that of
`json.dumps(doc, indent=2, sort_keys=True)`: keys sorted as json sorts
them, int, float, bool and None keys converted as json converts them,
strings escaped to ASCII by json's C escaper, floats as json writes them
(repr, or Infinity, -Infinity, NaN), and TypeError, in json's words, for
any other type.  It exists because any `indent` sends `json.dumps` to
its pure-Python encoder.  A report never holds a cycle; on one,
`dump_document` overflows the stack where json raises ValueError.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Optional, Union

import jsonschema

from .approximation import Cover, IndexElement
from .core import ConvexParams, Scalar, TropVector, scalar
from .errors import BadInput, SchemaError, capped
from .geometry import Box, Certificate, TropPolytope
from .measures import FiniteSpace, FunctionTable, IdemMeasure, SpaceMap

SCHEMA_VERSION = 1
_MAX_SPACE_POINTS = 100_000  # the most points a space read from a document may have

# The verdict table of each compiled "$defs" check: the most values it
# keeps, and the longest str value it keeps.
VERDICT_TABLE_CAP = 4096
VERDICT_TEXT_CAP = 64


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    path = resources.files(__package__) / "schema" / f"{name}.schema.json"
    return json.loads(path.read_text())


@lru_cache(maxsize=None)
def _validator(name: str):
    """One validator per schema, the schema itself checked once."""
    schema = load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


@lru_cache(maxsize=None)
def _acceptor(name: str) -> Callable[[object], bool]:
    """One compiled predicate per schema, built after check_schema."""
    _validator(name)
    return _compile(load_schema(name))


def validate_document(doc: object, schema_name: str):
    if _acceptor(schema_name)(doc):
        return
    # best_match picks the error jsonschema.validate would raise
    try:
        exc = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(doc))
    except RecursionError:  # the message quotes the value, and repr recursed
        raise SchemaError(f"{schema_name}: a value nests too deeply") from None
    if exc is not None:
        raise SchemaError(f"{schema_name}: {_capped(exc)} at {exc.json_path}")


def _capped(exc: jsonschema.ValidationError) -> str:
    """jsonschema's message, with the input it quotes cut by `capped`
    so that the error line does not grow with the document: the
    offending value, or for additionalProperties the list of unexpected
    keys, which the message quotes instead."""
    message = exc.message
    if exc.validator == "additionalProperties":
        # "Additional properties are not allowed ('a', 'b' were unexpected)"
        quoted = message[message.index("(") + 1 :].rsplit(" ", 2)[0]
    else:
        quoted = repr(exc.instance)
    return message.replace(quoted, capped(quoted))


# -- compiled acceptance check ---------------------------------------------------
#
# Each keyword's check passes values it does not apply to, as in JSON
# Schema: "items" constrains only arrays, "pattern" only strings, and so on.

_KEYWORDS = frozenset(
    {
        "type", "const", "pattern", "minimum", "properties", "required",
        "additionalProperties", "items", "minItems", "maxItems", "oneOf", "anyOf", "$ref",
        "$schema", "title", "$defs",  # no constraint: skipped
    }
)
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # an integer is any number with no fractional part, 1.0 too, but no bool
    "integer": lambda v: (
        v.is_integer() if isinstance(v, float) else isinstance(v, int) and not isinstance(v, bool)
    ),
}


def _compile(root: dict) -> Callable[[object], bool]:
    defs = root.get("$defs", {})
    compiled: dict = {}

    def resolve(ref: str) -> Callable[[object], bool]:
        name = ref.removeprefix("#/$defs/")
        if name == ref or name not in defs:
            raise ValueError(f"no compiled check for $ref {ref!r}")
        if name not in compiled:
            compiled[name] = _remembered(node(defs[name]))
        return compiled[name]

    def node(schema) -> Callable[[object], bool]:
        if not isinstance(schema, dict):
            raise ValueError(f"no compiled check for schema {schema!r}")
        unknown = schema.keys() - _KEYWORDS
        if unknown:
            raise ValueError(f"no compiled check for keywords {sorted(unknown)}")
        checks = []
        kind = schema.get("type")
        is_object = bool(schema.keys() & {"properties", "required", "additionalProperties"})
        is_array = bool(schema.keys() & {"items", "minItems", "maxItems"})
        if "type" in schema:
            if not isinstance(kind, str) or kind not in _TYPES:
                raise ValueError(f"no compiled check for type {kind!r}")
            # an object or array check with keywords refuses the other kinds itself
            if not (kind == "object" and is_object or kind == "array" and is_array):
                checks.append(_TYPES[kind])
        if "const" in schema:
            checks.append(_const(schema["const"]))
        if "pattern" in schema:
            checks.append(_pattern(re.compile(schema["pattern"]).search))
        if "minimum" in schema:
            checks.append(_minimum(schema["minimum"]))
        if is_object:
            closed = "additionalProperties" in schema
            if closed and schema["additionalProperties"] is not False:
                raise ValueError("no compiled check for additionalProperties other than false")
            props = {k: node(sub) for k, sub in schema.get("properties", {}).items()}
            checks.append(_object(props, tuple(schema.get("required", ())), closed, kind == "object"))
        if is_array:
            item = node(schema["items"]) if "items" in schema else None
            lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
            checks.append(_array(item, lo, hi, kind == "array"))
        if "oneOf" in schema:
            checks.append(_one_of(tuple(node(sub) for sub in schema["oneOf"])))
        if "anyOf" in schema:
            checks.append(_any_of(tuple(node(sub) for sub in schema["anyOf"])))
        if "$ref" in schema:
            checks.append(resolve(schema["$ref"]))
        return _all_of(tuple(checks))

    return node(root)


def _remembered(check: Callable[[object], bool]) -> Callable[[object], bool]:
    """check, with its verdict table: a str of at most `VERDICT_TEXT_CAP`
    characters is checked once while it stays among the
    `VERDICT_TABLE_CAP` values used last; any other value every time."""
    table = lru_cache(maxsize=VERDICT_TABLE_CAP)(check)

    def remembered(v):
        if type(v) is str and len(v) <= VERDICT_TEXT_CAP:
            return table(v)
        return check(v)

    remembered.cache_info = table.cache_info
    return remembered


def _all_of(checks: tuple) -> Callable[[object], bool]:
    if len(checks) == 1:
        return checks[0]

    def check(v):
        for c in checks:
            if not c(v):
                return False
        return True

    return check


def _one_of(branches: tuple) -> Callable[[object], bool]:
    def check(v):
        passed = False
        for b in branches:
            if b(v):
                if passed:
                    return False
                passed = True
        return passed

    return check


def _any_of(branches: tuple) -> Callable[[object], bool]:
    return lambda v: any(b(v) for b in branches)


def _const(c) -> Callable[[object], bool]:
    # JSON equality: 1 == 1.0, but True is not 1
    if isinstance(c, str):
        return lambda v: v == c
    if type(c) is int:
        return lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and v == c
    raise ValueError(f"no compiled check for const {c!r}")


def _pattern(search) -> Callable[[object], bool]:
    # search, not fullmatch: "$" also matches before a final newline
    return lambda v: not isinstance(v, str) or search(v) is not None


def _minimum(m) -> Callable[[object], bool]:
    if type(m) not in (int, float):
        raise ValueError(f"no compiled check for minimum {m!r}")
    return lambda v: not isinstance(v, (int, float)) or isinstance(v, bool) or not v < m


def _object(props: dict, required: tuple, closed: bool, typed: bool) -> Callable[[object], bool]:
    """The object keywords' check; with `typed`, also "type": "object"."""
    names = props.keys()
    pairs = tuple(props.items())

    def check(v):
        if not isinstance(v, dict):
            return not typed
        for k in required:
            if k not in v:
                return False
        if closed and not names >= v.keys():
            return False
        for k, c in pairs:
            if k in v and not c(v[k]):
                return False
        return True

    return check


def _array(item, lo: int, hi, typed: bool) -> Callable[[object], bool]:
    """The array keywords' check; with `typed`, also "type": "array"."""

    def check(v):
        if not isinstance(v, list):
            return not typed
        if not lo <= len(v) <= hi:
            return False
        if item is not None:
            for x in v:
                if not item(x):
                    return False
        return True

    return check


def read_document(path: str, schema_name: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}") from None
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    doc = parse_json(text, path)
    validate_document(doc, schema_name)
    return doc


def parse_json(text: str, name: str) -> object:
    """The value of a JSON text; a text that is not JSON, nests too
    deeply or holds an integer too long to read raises SchemaError,
    which names it by `name`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{name} is not JSON: {exc}") from None
    except ValueError:  # int() refuses a literal past sys.get_int_max_str_digits()
        raise SchemaError(f"{name} has an integer too long to read") from None
    except RecursionError:
        raise SchemaError(f"{name} nests too deeply to read") from None


def dump_document(doc: dict) -> str:
    """The text of `json.dumps(doc, indent=2, sort_keys=True)`, byte for
    byte, without its pure-Python encoder (see the module docstring)."""
    out: list = []
    _render(doc, "\n", out.append)
    return "".join(out)


def _render(v, nl: str, emit: Callable[[str], object]):
    """Emit v's text, nl being the newline and indent of v's own line.
    Types are tried in the order of `json.encoder._make_iterencode`."""
    if isinstance(v, str):
        emit(_quote(v))
    elif v is None:
        emit("null")
    elif v is True:
        emit("true")
    elif v is False:
        emit("false")
    elif isinstance(v, int):
        emit(int.__repr__(v))
    elif isinstance(v, float):
        emit(_float_text(v))
    elif isinstance(v, (list, tuple)):
        if not v:
            emit("[]")
            return
        inner = nl + "  "
        try:  # a list of plain strings, in one join
            emit("[" + inner + ("," + inner).join(map(_quote, v)) + nl + "]")
            return
        except TypeError:
            pass
        lead = "[" + inner
        for x in v:
            emit(lead)
            lead = "," + inner
            _render(x, inner, emit)
        emit(nl + "]")
    elif isinstance(v, dict):
        if not v:
            emit("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for k, x in sorted(v.items()):
            emit(lead + _quote(k if isinstance(k, str) else _key_text(k)) + ": ")
            lead = "," + inner
            _render(x, inner, emit)
        emit(nl + "}")
    else:
        raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def _key_text(k) -> str:
    if isinstance(k, float):
        return _float_text(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _float_text(f: float) -> str:
    if f != f:
        return "NaN"
    if f == math.inf:
        return "Infinity"
    if f == -math.inf:
        return "-Infinity"
    return float.__repr__(f)


# -- scalars, points, params --------------------------------------------------


def scalar_to_json(s: Scalar) -> str:
    return str(s)


def scalar_from_json(v: Union[int, str]) -> Scalar:
    return scalar(v)


def vector_to_json(v: TropVector) -> list:
    return [str(c) for c in v.coords]


def vector_from_json(doc: list) -> TropVector:
    return TropVector(doc)


def params_to_json(params: ConvexParams) -> dict:
    return {"t": str(params.t), "p": str(params.p)}


def params_from_json(doc: dict) -> ConvexParams:
    return ConvexParams(scalar(doc["t"]), scalar(doc["p"]))


# -- spaces, tables, maps ------------------------------------------------------


def space_to_json(space: FiniteSpace) -> dict:
    doc: dict = {"n": space.n, "labels": list(space.labels)}
    if space.points is not None:
        doc["points"] = [vector_to_json(p) for p in space.points]
    return doc


def space_from_json(doc: dict) -> FiniteSpace:
    points = None
    if "points" in doc:
        points = [vector_from_json(p) for p in doc["points"]]
    n = doc.get("n")
    if n is None:
        # the schema requires labels or points without n; empty labels count none
        n = len(doc["labels"]) if doc.get("labels") else len(points or ())
    if n > _MAX_SPACE_POINTS:
        raise BadInput(f"a finite space has at most {_MAX_SPACE_POINTS} points")
    return FiniteSpace(n, labels=doc.get("labels"), points=points)


def table_to_json(table: FunctionTable) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "space": space_to_json(table.space),
        "values": [str(v) for v in table.values],
    }


def table_from_json(doc: dict) -> FunctionTable:
    return FunctionTable(space_from_json(doc["space"]), doc["values"])


def map_to_json(f: SpaceMap) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "source": space_to_json(f.source),
        "target": space_to_json(f.target),
        "table": list(f.table),
    }


def map_from_json(doc: dict) -> SpaceMap:
    return SpaceMap(
        space_from_json(doc["source"]),
        space_from_json(doc["target"]),
        doc["table"],
    )


# -- measures ------------------------------------------------------------------


def measure_to_json(mu: IdemMeasure) -> dict:
    doc: dict = {"version": SCHEMA_VERSION}
    if mu.space is not None:
        doc["space"] = space_to_json(mu.space)
    atoms = []
    for atom, weight in mu.atoms:
        if isinstance(atom, int):
            at: object = mu.space.labels[atom]
        elif isinstance(atom, TropVector):
            at = vector_to_json(atom)
        else:
            raise BadInput("measures over measures have no file form")
        atoms.append({"at": at, "w": str(weight)})
    doc["atoms"] = atoms
    return doc


def measure_from_json(doc: dict, space: Optional[FiniteSpace] = None) -> IdemMeasure:
    if space is None and "space" in doc:
        space = space_from_json(doc["space"])
    pairs = []
    for entry in doc["atoms"]:
        at = entry["at"]
        if isinstance(at, str):
            if space is None:
                raise SchemaError(f"atom label {capped(repr(at))} given without a space")
            pairs.append((space.index_of(at), scalar(entry["w"])))
            continue
        vec = vector_from_json(at)
        if space is None:
            pairs.append((vec, scalar(entry["w"])))
            continue
        # coordinate atoms on a finite space resolve through its embedding
        if space.points is None:
            raise SchemaError("coordinate atoms need an embedded space")
        i = space.index_of_point(vec)
        if i is None:
            raise SchemaError(f"atom {capped(repr(at))} is not an embedded point of the space")
        pairs.append((i, scalar(entry["w"])))
    return IdemMeasure(pairs, space=space)


# -- geometry ------------------------------------------------------------------


def polytope_to_json(poly: TropPolytope) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "generators": [vector_to_json(g) for g in poly.generators],
    }


def polytope_from_json(doc: dict) -> TropPolytope:
    return TropPolytope([vector_from_json(g) for g in doc["generators"]])


def box_to_json(box: Box) -> dict:
    return {"low": vector_to_json(box.low), "high": vector_to_json(box.high)}


def box_from_json(doc: dict) -> Box:
    return Box(vector_from_json(doc["low"]), vector_from_json(doc["high"]))


def cover_to_json(cover: Cover) -> dict:
    elements = []
    for e in cover.elements:
        if isinstance(e, Box):
            elements.append({"kind": "box", **box_to_json(e)})
        elif isinstance(e, TropPolytope):
            elements.append({"kind": "polytope", "generators": [vector_to_json(g) for g in e.generators]})
        else:
            elements.append({"kind": "indices", "indices": sorted(e.indices)})
    return {"version": SCHEMA_VERSION, "elements": elements}


def cover_from_json(doc: dict) -> Cover:
    elements: list = []
    for e in doc["elements"]:
        if e["kind"] == "box":
            elements.append(box_from_json(e))
        elif e["kind"] == "polytope":
            elements.append(polytope_from_json(e))
        else:
            elements.append(IndexElement(e["indices"]))
    return Cover(elements)


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "claim": cert.claim,
        "params": cert.params,
        "data": cert.data,
        "verdict": cert.verdict,
    }


def certificate_from_json(doc: dict) -> Certificate:
    return Certificate(doc["claim"], doc["params"], doc["data"], doc["verdict"])
