"""JSON codecs and schema checks for every file the CLI touches.

Scalars travel as exact strings ("p/q", decimal, or "-inf"); floats are
never written, so files round-trip losslessly.  Every document we emit
carries "version": 1; on input the version is optional but, when
present, must match.

Schemas live next to this module under schema/.  Each compiles once
into a walk that checks and converts in one pass: it returns the
document with each "scalar" and "finite" def's value in place (the
scalar `core._parse` reads, an int as a Fraction) and each "point" def's
TropVector, or `_REFUSED`.  It refuses more than the schema: a scalar
string `_parse` cannot read ("1/0", "0\n") and an integral float.  `load`
hands the converted tree to the kind's decoder; decoders take converted
and raw values alike.  A refused document goes to jsonschema, which
words the error; if jsonschema accepts it, or a decoder refuses the
converted tree, the document as written is decoded, so every error line
is that of `decoder(read_document(...))`.  The walk must never accept
what jsonschema rejects.  jsonschema is imported only to word a refusal,
and a schema meets its metaschema check at its first refusal.

The compiler knows the draft 2020-12 keywords the shipped schemas use:
type, const, pattern, minimum, properties, required, additionalProperties
(false only), items, minItems, maxItems, oneOf, anyOf and local
"#/$defs/..." $ref; $schema, title and $defs carry no constraint.  Any
other keyword that checks documents, or a converted def in a form other
than the shipped one, raises ValueError when the schema is compiled.

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
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import count
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Optional, Union

from .approximation import Cover, IndexElement
from .core import POS_INF, SCALAR_TEXT, ConvexParams, Scalar, TropVector, _parse, _read_point, scalar
from .errors import BadInput, SchemaError, capped
from .geometry import Box, Certificate, TropPolytope
from .measures import FiniteSpace, FunctionTable, IdemMeasure, SpaceMap

SCHEMA_VERSION = 1
_MAX_SPACE_POINTS = 100_000  # the most points a space read from a document may have
_REFUSED = object()  # what a walk returns for a value its schema refuses


@lru_cache(maxsize=None)
def load_schema(name: str) -> dict:
    path = resources.files(__package__) / "schema" / f"{name}.schema.json"
    return json.loads(path.read_text())


@lru_cache(maxsize=None)
def _validator(name: str):
    """One validator per schema, the schema itself checked once."""
    import jsonschema

    schema = load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


@lru_cache(maxsize=None)
def _walker(name: str) -> Callable[[object], object]:
    return _compile(load_schema(name))


def validate_document(doc: object, schema_name: str):
    if _walker(schema_name)(doc) is _REFUSED:
        _word_refusal(doc, schema_name)


def _word_refusal(doc: object, schema_name: str):
    """Raise SchemaError in jsonschema's words (its best_match, as validate raises) if it refuses doc."""
    from jsonschema.exceptions import best_match

    try:
        exc = best_match(_validator(schema_name).iter_errors(doc))
    except RecursionError:  # the message quotes the value, and repr recursed
        raise SchemaError(f"{schema_name}: a value nests too deeply") from None
    if exc is not None:
        raise SchemaError(f"{schema_name}: {_capped(exc)} at {exc.json_path}")


def _capped(exc) -> str:
    """jsonschema's message, with the input it quotes cut by `capped`: the offending value, or for
    additionalProperties the list of unexpected keys, so the line does not grow with the document."""
    message = exc.message
    if exc.validator == "additionalProperties":
        # "Additional properties are not allowed ('a', 'b' were unexpected)"
        quoted = message[message.index("(") + 1 :].rsplit(" ", 2)[0]
    else:
        quoted = repr(exc.instance)
    return message.replace(quoted, capped(quoted))


# -- compiled walk ----------------------------------------------------------------
#
# A schema compiles to Python source, run once by exec: a function for
# the root and for each oneOf or anyOf branch that is more than tests,
# with every other node inlined.  A refusal returns R (`_REFUSED`); a node
# that converts leaves its value in a new variable.  Each keyword passes
# values it does not apply to, as in JSON Schema.

_KEYWORDS = frozenset(("type", "const", "pattern", "minimum", "properties", "required", "additionalProperties",
                       "items", "minItems", "maxItems", "oneOf", "anyOf", "$ref", "$schema", "title", "$defs"))
_TESTS = {  # "type", as a test of the value named {0}
    "object": "isinstance({0}, dict)",
    "array": "isinstance({0}, list)",
    "string": "isinstance({0}, str)",
    "boolean": "isinstance({0}, bool)",
    # an integer is any number with no fractional part, 1.0 too, but no bool
    "integer": "({0}.is_integer() if isinstance({0}, float) else isinstance({0}, int) and not isinstance({0}, bool))",
}
_RATIONAL = SCALAR_TEXT.pattern.removeprefix(r"-inf|\+inf|")
_SCALAR = ["if type({x}) is str: {y} = _parse({x})", "elif type({x}) is int: {y} = Fraction({x})", "else: return R"]
# Each def a walk converts: its one form (a point's items need the scalar form too) and its code.
_CONVERTED = {
    "scalar": ({"oneOf": [{"type": "integer"}, {"type": "string", "pattern": f"^(-inf|{_RATIONAL})$"}]},
               _SCALAR + ["if {y} is None or {y} is POS_INF: return R"]),
    "finite": ({"oneOf": [{"type": "integer"}, {"type": "string", "pattern": f"^({_RATIONAL})$"}]},
               _SCALAR + ["if type({y}) is not Fraction: return R"]),
    "point": ({"type": "array", "minItems": 1, "items": {"$ref": "#/$defs/scalar"}},
              ["{y} = _point({x})", "if {y} is R: return R"]),
}


def _point(v):
    """The value of a "point" def: one TropVector, or `_REFUSED`."""
    p = _read_point(v) if type(v) is list else None
    return _REFUSED if p is None else p


def _compile(root: dict) -> Callable[[object], object]:
    defs = root.get("$defs", {})
    env = {"R": _REFUSED, "_parse": _parse, "_point": _point, "Fraction": Fraction, "POS_INF": POS_INF}
    functions: list = []
    fresh = count()

    def bind(value) -> str:
        name = f"k{next(fresh)}"
        env[name] = value
        return name

    def function(schema, name: str) -> bool:
        lines, y, converts = block(schema, "v")
        functions.append("\n".join([f"def {name}(v):", *_indented(lines), f"    return {y}"]))
        return converts

    def resolve(ref: str) -> str:
        name = ref.removeprefix("#/$defs/")
        if name == ref or name not in defs:
            raise ValueError(f"no compiled check for $ref {ref!r}")
        if name in _CONVERTED and defs[name] != _CONVERTED[name][0]:
            raise ValueError(f"no compiled check for $defs/{name} other than {_CONVERTED[name][0]}")
        if name == "point":
            resolve("#/$defs/scalar")
        return name

    def branch(schema, x: str) -> tuple:
        """An expression for the branch's value on x or R, and whether that value is new."""
        if isinstance(schema, dict) and schema.keys() <= {"type", "const", "pattern", "minimum"}:
            tests = [line.removeprefix("if ").removesuffix(": return R") for line in block(schema, x)[0]]
            return f"({x} if not ({' or '.join(tests or ['False'])}) else R)", False
        if isinstance(schema, dict) and schema.keys() == {"$ref"} and resolve(schema["$ref"]) == "point":
            return f"_point({x})", True
        name = f"b{next(fresh)}"
        return f"{name}({x})", function(schema, name)

    def block(schema, x: str) -> tuple:
        """The lines that check the value named x, the name of its value after them, and whether it is new."""
        if not isinstance(schema, dict):
            raise ValueError(f"no compiled check for schema {schema!r}")
        if schema.keys() - _KEYWORDS:
            raise ValueError(f"no compiled check for keywords {sorted(schema.keys() - _KEYWORDS)}")
        lines, values = [], []
        kind = schema.get("type")
        if "type" in schema:
            if not isinstance(kind, str) or kind not in _TESTS:
                raise ValueError(f"no compiled check for type {kind!r}")
            lines.append(f"if not {_TESTS[kind].format(x)}: return R")
        if "const" in schema:
            lines.append(f"if not {_const(schema['const'], x)}: return R")
        if "pattern" in schema:
            search = bind(re.compile(schema["pattern"]).search)
            lines.append(f"if isinstance({x}, str) and {search}({x}) is None: return R")
        if "minimum" in schema:
            m = schema["minimum"]
            if type(m) not in (int, float):
                raise ValueError(f"no compiled check for minimum {m!r}")
            lines.append(f"if isinstance({x}, (int, float)) and not isinstance({x}, bool) and {x} < {m!r}: return R")
        if schema.keys() & {"properties", "required", "additionalProperties"}:
            if schema.get("additionalProperties", False) is not False:
                raise ValueError("no compiled check for additionalProperties other than false")
            props, required, out = schema.get("properties", {}), schema.get("required", ()), f"o{next(fresh)}"
            body = [f"if {' or '.join(f'{k!r} not in {x}' for k in required)}: return R"] if required else []
            if "additionalProperties" in schema:
                body.append(f"if not {x}.keys() <= {bind(frozenset(props))}: return R")
            subs = []
            for k, sub in props.items():
                v = f"x{next(fresh)}"
                sub_lines, y, converts = block(sub, v)
                got = [f"{v} = {x}[{k!r}]", *sub_lines] + ([f"{out}[{k!r}] = {y}"] if converts else [])
                subs += got if k in required else [f"if {k!r} in {x}:", *_indented(got)]
                if converts and out not in values:
                    values.append(out)
                    body.append(f"{out} = dict({x})")
            lines += _container(x, "dict", kind == "object", body + subs, out if out in values else None)
        if schema.keys() & {"items", "minItems", "maxItems"}:
            out = f"o{next(fresh)}"
            bounds = [f"len({x}) {op} {schema[k]!r}" for k, op in (("minItems", "<"), ("maxItems", ">")) if k in schema]
            body = [f"if {' or '.join(bounds)}: return R"] if bounds else []
            if "items" in schema:
                v = f"x{next(fresh)}"
                sub_lines, y, converts = block(schema["items"], v)
                if converts:
                    values.append(out)
                    body.append(f"{out} = []")
                    sub_lines.append(f"{out}.append({y})")
                body += [f"for {v} in {x}:", *_indented(sub_lines or ["pass"])]
            lines += _container(x, "list", kind == "array", body, out if out in values else None)
        for keyword in ("oneOf", "anyOf"):
            if keyword in schema:
                out = f"o{next(fresh)}"
                lines.append(f"{out} = R")
                for sub in schema[keyword]:
                    call, converts = branch(sub, x)
                    if converts and out not in values:
                        values.append(out)
                    if keyword == "anyOf":  # the first branch that accepts
                        lines.append(f"if {out} is R: {out} = {call}")
                    else:  # the one branch that accepts
                        t = f"t{next(fresh)}"
                        lines += [f"{t} = {call}", f"if {t} is not R and {out} is not R: return R"]
                        lines.append(f"if {t} is not R: {out} = {t}")
                lines.append(f"if {out} is R: return R")
        if "$ref" in schema:
            name, out = resolve(schema["$ref"]), f"o{next(fresh)}"
            if name in _CONVERTED:
                values.append(out)
                lines += [line.format(x=x, y=out) for line in _CONVERTED[name][1]]
            else:
                sub_lines, y, converts = block(defs[name], x)
                lines += sub_lines
                values += [y] if converts else []
        if len(values) > 1:
            raise ValueError("no compiled check for two converting keywords in one schema")
        return lines, values[0] if values else x, bool(values)

    function(root, "walk")
    exec("\n\n".join(functions), env)
    return env["walk"]


def _indented(lines: list) -> list:
    return ["    " + line for line in lines]


def _container(x: str, kind: str, typed: bool, body: list, out: Optional[str]) -> list:
    """The object or array keywords' lines, run on a value of the kind (made sure of before them if typed)."""
    if typed:
        return body
    return [f"if isinstance({x}, {kind}):", *_indented(body)] + ([f"else: {out} = {x}"] if out else [])


def _const(c, x: str) -> str:
    # JSON equality: 1 == 1.0, but True is not 1
    if isinstance(c, str):
        return f"{x} == {c!r}"
    if type(c) is int:
        return f"(isinstance({x}, (int, float)) and not isinstance({x}, bool) and {x} == {c!r})"
    raise ValueError(f"no compiled check for const {c!r}")


def read_document(path: str, schema_name: str) -> dict:
    doc = parse_json(_read_text(path), path)
    validate_document(doc, schema_name)
    return doc


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}") from None
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


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
    if type(doc) is TropVector:
        return doc
    v = _read_point(doc) if type(doc) is list else None
    return v if v is not None else TropVector(doc)  # TropVector words a refusal


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
    return {"version": SCHEMA_VERSION, "space": space_to_json(table.space), "values": [str(v) for v in table.values]}


def table_from_json(doc: dict) -> FunctionTable:
    return FunctionTable(space_from_json(doc["space"]), doc["values"])


def map_to_json(f: SpaceMap) -> dict:
    source, target = space_to_json(f.source), space_to_json(f.target)
    return {"version": SCHEMA_VERSION, "source": source, "target": target, "table": list(f.table)}


def map_from_json(doc: dict) -> SpaceMap:
    return SpaceMap(space_from_json(doc["source"]), space_from_json(doc["target"]), doc["table"])


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
    return {"version": SCHEMA_VERSION, "generators": [vector_to_json(g) for g in poly.generators]}


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
    return {"version": SCHEMA_VERSION, "claim": cert.claim, "params": cert.params, "data": cert.data,
            "verdict": cert.verdict}


def certificate_from_json(doc: dict) -> Certificate:
    return Certificate(doc["claim"], doc["params"], doc["data"], doc["verdict"])


# The decoder of each kind `load` reads; a lift decodes its instance and target.
_DECODERS = {"measure": measure_from_json, "table": table_from_json, "map": map_from_json,
             "polytope": polytope_from_json, "cover": cover_from_json, "certificate": certificate_from_json}


def load(path: str, kind: str):
    """The `kind` document at path, checked and converted in one walk and built by the kind's
    decoder: the value, or the refusal, of `decoder(read_document(path, kind))`."""
    doc = parse_json(_read_text(path), path)
    tree = _walker(kind)(doc)
    decode = _DECODERS.get(kind, lambda tree: tree)
    if tree is _REFUSED:
        _word_refusal(doc, kind)
    else:
        try:
            return decode(tree)
        except BadInput:
            pass  # worded below from the values as written
    return decode(doc)
