"""JSON codecs and schema validation for every file the CLI touches.

Scalars travel as exact strings ("p/q", decimal, or "-inf"); floats are
never written, so files round-trip losslessly.  Every document we emit
carries "version": 1; on input the version is optional but, when
present, must match.  Schemas live next to this module under schema/
and are enforced with jsonschema before any value is decoded.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from typing import Optional, Union

import jsonschema

from .approximation import BoxElement, Cover, IndexElement, PolytopeElement
from .core import ConvexParams, TropScalar, TropVector, scalar
from .errors import BadInput, SchemaError
from .geometry import Box, Certificate, TropPolytope
from .measures import FiniteSpace, FunctionTable, IdemMeasure, SpaceMap

SCHEMA_VERSION = 1


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


def validate_document(doc: object, schema_name: str):
    # best_match picks the error jsonschema.validate would raise
    exc = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(doc))
    if exc is not None:
        raise SchemaError(f"{schema_name}: {exc.message} at {exc.json_path}")


def read_document(path: str, schema_name: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not JSON: {exc}") from None
    validate_document(doc, schema_name)
    return doc


def dump_document(doc: dict) -> str:
    """Deterministic rendering: sorted keys; floats, where a report has
    them, serialize via repr and so are stable too."""
    return json.dumps(doc, indent=2, sort_keys=True)


# -- scalars, points, params --------------------------------------------------


def scalar_to_json(s: TropScalar) -> str:
    return str(s)


def scalar_from_json(v: Union[int, str]) -> TropScalar:
    return scalar(v)


def vector_to_json(v: TropVector) -> list:
    return [str(c) for c in v.coords]


def vector_from_json(doc: list) -> TropVector:
    return TropVector([scalar(c) for c in doc])


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
        # schema guarantees labels or points are present when n is not
        n = len(doc["labels"]) if doc.get("labels") else len(points)
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


def _atoms_from_json(doc: dict, space: Optional[FiniteSpace]) -> list:
    pairs = []
    for entry in doc["atoms"]:
        at = entry["at"]
        if isinstance(at, str):
            if space is None:
                raise SchemaError(f"atom label {at!r} given without a space")
            pairs.append((space.index_of(at), scalar(entry["w"])))
            continue
        vec = vector_from_json(at)
        if space is None:
            pairs.append((vec, scalar(entry["w"])))
            continue
        # coordinate atoms on a finite space resolve through its embedding
        if space.points is None:
            raise SchemaError("coordinate atoms need an embedded space")
        try:
            pairs.append((space.points.index(vec), scalar(entry["w"])))
        except ValueError:
            raise SchemaError(f"atom {at} is not an embedded point of the space") from None
    return pairs


def measure_from_json(doc: dict, space: Optional[FiniteSpace] = None) -> IdemMeasure:
    if space is None and "space" in doc:
        space = space_from_json(doc["space"])
    return IdemMeasure(_atoms_from_json(doc, space), space=space)


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
        if isinstance(e, BoxElement):
            elements.append({"kind": "box", **box_to_json(e.box)})
        elif isinstance(e, PolytopeElement):
            elements.append(
                {"kind": "polytope", "generators": [vector_to_json(g) for g in e.poly.generators]}
            )
        else:
            elements.append({"kind": "indices", "indices": sorted(e.indices)})
    return {"version": SCHEMA_VERSION, "elements": elements}


def cover_from_json(doc: dict) -> Cover:
    elements: list = []
    for e in doc["elements"]:
        if e["kind"] == "box":
            elements.append(BoxElement(box_from_json(e)))
        elif e["kind"] == "polytope":
            elements.append(PolytopeElement(TropPolytope([vector_from_json(g) for g in e["generators"]])))
        else:
            elements.append(IndexElement(e["indices"]))
    return Cover(elements)


def certificate_to_json(cert: Certificate) -> dict:
    return {"version": SCHEMA_VERSION, **cert.to_json_dict()}


def certificate_from_json(doc: dict) -> Certificate:
    return Certificate.from_json_dict(doc)
