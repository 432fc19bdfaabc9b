"""JSON codecs: lossless roundtrips, schema rejection, version handling."""

import copy
import json
import time
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropibary.approximation import Cover, IndexElement
from tropibary.core import NEG_INF, SCALAR_TEXT, ZERO, ConvexParams, TropVector, scalar
from tropibary.errors import QUOTE_CAP, BadInput, SchemaError
from tropibary.geometry import Box, TropPolytope, certify_id_oplus_not_open
from tropibary import io as io_module
from tropibary.io import (
    _acceptor,
    _compile,
    _validator,
    box_from_json,
    box_to_json,
    certificate_to_json,
    cover_from_json,
    cover_to_json,
    dump_document,
    load_schema,
    map_from_json,
    map_to_json,
    measure_from_json,
    measure_to_json,
    params_from_json,
    params_to_json,
    polytope_from_json,
    polytope_to_json,
    read_document,
    scalar_from_json,
    scalar_to_json,
    space_from_json,
    space_to_json,
    table_from_json,
    table_to_json,
    validate_document,
    vector_from_json,
    vector_to_json,
)
from tropibary.measures import FiniteSpace, FunctionTable, IdemMeasure, SpaceMap


class TestScalarAndVector:
    def test_scalar_roundtrip(self):
        for text in ("-1/3", "0", "-inf", "2"):
            assert scalar_to_json(scalar_from_json(text)) == str(scalar(text))
        assert type(scalar_from_json(-2)) is Fraction and scalar_from_json(-2) == scalar("-2")

    def test_vector_roundtrip(self):
        v = TropVector([scalar("-1/2"), NEG_INF, ZERO])
        assert vector_from_json(vector_to_json(v)) == v
        assert vector_to_json(v) == ["-1/2", "-inf", "0"]

    def test_params_roundtrip(self):
        params = ConvexParams(scalar("-1/4"), ZERO)
        assert params_from_json(params_to_json(params)) == params
        assert params_to_json(params) == {"t": "-1/4", "p": "0"}


class TestSpaces:
    def test_full_space_roundtrip(self):
        space = FiniteSpace(2, labels=("a", "b"), points=(TropVector([0, -1]), TropVector([-1, 0])))
        assert space_from_json(space_to_json(space)) == space

    def test_n_derived_from_labels(self):
        assert space_from_json({"labels": ["x", "y", "z"]}).n == 3

    def test_empty_labels_are_refused(self):
        with pytest.raises(BadInput, match="at least one point"):
            space_from_json({"labels": []})
        with pytest.raises(BadInput, match="labels must be distinct and match the space size"):
            space_from_json({"labels": [], "points": [["0"], ["-1"]]})

    def test_oversized_spaces_are_refused(self, monkeypatch):
        for n in (100_001, 10**9):
            with pytest.raises(BadInput, match="at most 100000 points"):
                space_from_json({"n": n})
        # the cap is inclusive, and no space over it gets built
        monkeypatch.setattr(io_module, "_MAX_SPACE_POINTS", 3)
        assert space_from_json({"n": 3}).n == space_from_json({"labels": ["x", "y", "z"]}).n == 3
        for doc in ({"n": 4}, {"labels": ["w", "x", "y", "z"]}, {"points": [["0"], ["-1"], ["-2"], ["-3"]]}):
            with pytest.raises(BadInput, match="at most 3 points"):
                space_from_json(doc)

    def test_n_derived_from_points(self):
        space = space_from_json({"points": [["0"], ["-1"]]})
        assert space.n == 2
        assert space.points == (TropVector([0]), TropVector([-1]))

    def test_table_roundtrip(self):
        space = FiniteSpace(3)
        table = FunctionTable(space, ["0", "-1/2", "2"])
        again = table_from_json(table_to_json(table))
        assert again.space == space and again.values == table.values

    def test_map_roundtrip(self):
        f = SpaceMap(FiniteSpace(3), FiniteSpace(2), [0, 1, 1])
        g = map_from_json(map_to_json(f))
        assert g.source == f.source and g.target == f.target and g.table == f.table


class TestMeasures:
    def test_labeled_roundtrip(self):
        space = FiniteSpace(2, labels=("a", "b"))
        mu = IdemMeasure([(0, ZERO), (1, scalar("-1/3"))], space=space)
        doc = measure_to_json(mu)
        assert doc["atoms"] == [{"at": "a", "w": "0"}, {"at": "b", "w": "-1/3"}]
        assert measure_from_json(doc) == mu

    def test_point_measure_roundtrip(self):
        mu = IdemMeasure([(TropVector([0, -1]), ZERO), (TropVector([-1, 0]), scalar("-1/2"))])
        doc = measure_to_json(mu)
        assert "space" not in doc
        assert measure_from_json(doc) == mu

    def test_coordinate_atoms_resolve_through_embedding(self):
        space = FiniteSpace(2, points=(TropVector([0, -1]), TropVector([-1, 0])))
        doc = {"space": space_to_json(space), "atoms": [{"at": ["0", "-1"], "w": "0"}]}
        mu = measure_from_json(doc)
        assert mu.atoms == (((0), ZERO),)

    def test_unembedded_coordinate_atom_rejected(self):
        doc = {"space": {"n": 2}, "atoms": [{"at": ["0", "-1"], "w": "0"}]}
        with pytest.raises(SchemaError, match="embedded space"):
            measure_from_json(doc)

    def test_unknown_embedded_point_rejected(self):
        space = FiniteSpace(1, points=(TropVector([0, 0]),))
        doc = {"space": space_to_json(space), "atoms": [{"at": ["-1", "-1"], "w": "0"}]}
        with pytest.raises(SchemaError, match="not an embedded point"):
            measure_from_json(doc)

    def test_unknown_embedded_point_is_quoted_to_the_cap(self):
        space = FiniteSpace(2, points=(TropVector([0, -1]), TropVector([-1, 0])))
        at = ["-1"] * 1100
        doc = {"space": space_to_json(space), "atoms": [{"at": at, "w": "0"}]}
        with pytest.raises(SchemaError) as caught:
            measure_from_json(doc)
        quoted = repr(at)[:QUOTE_CAP] + "..."
        assert str(caught.value) == f"atom {quoted} is not an embedded point of the space"

    @given(st.permutations(range(6)), st.booleans())
    def test_atoms_in_any_order_decode_to_one_measure(self, order, by_point):
        points = [TropVector([k, -k]) for k in range(6)]
        space = FiniteSpace(6, labels="uvwxyz", points=points)
        weights = ["0", "-1/2", "-inf", "0", "-3", "-1/8"]
        atoms = [
            {"at": vector_to_json(points[i]) if by_point else space.labels[i], "w": weights[i]}
            for i in order
        ]
        mu = measure_from_json({"space": space_to_json(space), "atoms": atoms})
        assert mu == IdemMeasure.from_weights(space, weights)

    @pytest.mark.parametrize(
        "space, at, message",
        [
            ({"labels": ["a", "b", "a"]}, "a", "labels must be distinct and match the space size"),
            ({"points": [["0", "-1"], ["0", "-1"]]}, ["0", "-1"], "embedded points must be distinct"),
            ({"labels": ["a", "b"]}, "c", "unknown label 'c'"),
        ],
    )
    def test_space_refusals_keep_their_wording(self, space, at, message):
        with pytest.raises(BadInput) as caught:
            measure_from_json({"space": space, "atoms": [{"at": at, "w": "0"}]})
        assert str(caught.value) == message

    def test_large_embedded_document_decodes_in_linear_time(self):
        n = 4000
        points = [[str(k), str(-k)] for k in range(n)]
        atoms = [{"at": p, "w": "0" if k == n - 1 else f"-{k + 1}/8"} for k, p in enumerate(points)]
        doc = {"space": {"points": points}, "atoms": atoms[::-1]}
        started = time.perf_counter()
        mu = measure_from_json(doc)
        assert time.perf_counter() - started < 1.0
        assert mu.atom_count == n and mu.weight_of(n - 1) == ZERO

    def test_label_without_space_rejected(self):
        with pytest.raises(SchemaError, match="without a space"):
            measure_from_json({"atoms": [{"at": "a", "w": "0"}]})

    def test_measure_of_measures_has_no_file_form(self):
        space = FiniteSpace(2)
        inner = IdemMeasure.from_weights(space, [ZERO, scalar("-1")])
        big = IdemMeasure([(inner, ZERO)])
        with pytest.raises(BadInput, match="no file form"):
            measure_to_json(big)


class TestGeometryDocs:
    def test_polytope_roundtrip(self):
        poly = TropPolytope([TropVector([0, 0]), TropVector([-1, -2])])
        doc = polytope_to_json(poly)
        validate_document(doc, "polytope")
        assert polytope_from_json(doc) == poly

    def test_box_roundtrip(self):
        box = Box(TropVector([-1, -2]), TropVector([0, 0]))
        assert box_from_json(box_to_json(box)) == box

    def test_geometric_cover_roundtrip(self):
        cover = Cover(
            [
                Box(TropVector([-1, -1]), TropVector([0, 0])),
                TropPolytope([TropVector([-2, -2]), TropVector([-1, -1])]),
            ]
        )
        doc = cover_to_json(cover)
        validate_document(doc, "cover")
        again = cover_from_json(doc)
        assert isinstance(again.elements[0], Box)
        assert isinstance(again.elements[1], TropPolytope)
        assert again == cover

    def test_index_cover_roundtrip(self):
        cover = Cover([IndexElement([2, 0]), IndexElement([1])])
        doc = cover_to_json(cover)
        validate_document(doc, "cover")
        again = cover_from_json(doc)
        assert isinstance(again.elements[0], IndexElement)
        assert again.elements[0].indices == frozenset({0, 2})
        assert again.elements[1].indices == frozenset({1})


class TestValidationAndFiles:
    def test_dump_is_deterministic(self):
        doc = {"b": 1, "a": {"d": [1.5, "x"], "c": None}}
        text = dump_document(doc)
        assert text == dump_document(json.loads(text))
        assert text.index('"a"') < text.index('"b"')

    def test_missing_required_field(self):
        with pytest.raises(SchemaError, match="measure"):
            validate_document({"space": {"n": 2}}, "measure")

    def test_bad_scalar_pattern(self):
        with pytest.raises(SchemaError):
            validate_document({"atoms": [{"at": "a", "w": "nan"}]}, "measure")
        with pytest.raises(SchemaError):
            validate_document({"atoms": [{"at": "a", "w": "1.2.3"}]}, "measure")

    def test_a_long_quoted_value_is_cut_to_the_cap(self):
        value = {"a": [1] * 1100}
        with pytest.raises(SchemaError) as caught:
            validate_document({"version": 1, "atoms": value}, "measure")
        quoted = repr(value)[:QUOTE_CAP] + "..."
        assert str(caught.value) == f"measure: {quoted} is not of type 'array' at $.atoms"

    def test_a_long_list_of_unexpected_keys_is_cut_to_the_cap(self):
        extra = [f"x{i:03}" for i in range(300)]
        doc = {"atoms": [{"at": ["0"], "w": "0"}], **dict.fromkeys(extra, 0)}
        with pytest.raises(SchemaError) as caught:
            validate_document(doc, "measure")
        keys = ", ".join(repr(k) for k in extra)[:QUOTE_CAP] + "..."
        assert str(caught.value) == f"measure: Additional properties are not allowed ({keys} were unexpected) at $"

    def test_wrong_version_rejected(self):
        doc = {"version": 2, "atoms": [{"at": ["0"], "w": "0"}]}
        with pytest.raises(SchemaError, match="version"):
            validate_document(doc, "measure")

    def test_read_document_roundtrip(self, tmp_path):
        mu = IdemMeasure([(TropVector([0, -1]), ZERO)])
        path = tmp_path / "m.json"
        path.write_text(dump_document(measure_to_json(mu)))
        assert measure_from_json(read_document(str(path), "measure")) == mu

    def test_read_document_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="no such file"):
            read_document(str(tmp_path / "absent.json"), "measure")

    def test_read_document_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="not JSON"):
            read_document(str(path), "measure")


class TestValidationEdges:
    def test_deep_value_is_one_schema_error(self):
        deep = []
        for _ in range(20_000):
            deep = [deep]
        with pytest.raises(SchemaError, match="nests too deeply"):
            validate_document({"atoms": [{"at": "a", "w": deep}]}, "measure")


# -- compiled acceptance check against jsonschema --------------------------------

SCHEMAS = sorted(
    p.name.removesuffix(".schema.json") for p in (resources.files("tropibary") / "schema").iterdir()
)


def _codec_documents() -> list:
    """One valid document per schema and per oneOf branch, from the codecs."""
    space = FiniteSpace(2, labels=("a", "b"), points=(TropVector([0, -1]), TropVector([-1, 0])))
    labeled = IdemMeasure([(0, ZERO), (1, scalar("-1/2"))], space=space)
    points = IdemMeasure([(TropVector(["0", "-1"]), ZERO), (TropVector(["-1", "-3/4"]), scalar("-1/3"))])
    params = params_to_json(ConvexParams(scalar("-1/4"), ZERO))
    low, high = vector_to_json(TropVector([-2, -2])), vector_to_json(TropVector([0, 0]))
    labeled_atoms = {"atoms": measure_to_json(labeled)["atoms"]}
    point_atoms = {"atoms": measure_to_json(points)["atoms"]}
    return [
        measure_to_json(labeled),
        measure_to_json(points),
        table_to_json(FunctionTable(FiniteSpace(3), ["0", "-1/2", "2"])),
        map_to_json(SpaceMap(FiniteSpace(3), FiniteSpace(2, labels=("u", "v")), [0, 1, 1])),
        polytope_to_json(TropPolytope([TropVector([0, 0]), TropVector([-1, -2])])),
        cover_to_json(
            Cover(
                [
                    Box(TropVector([-1, -1]), TropVector([0, 0])),
                    TropPolytope([TropVector([-2, -2]), TropVector([-1, -1])]),
                ]
            )
        ),
        cover_to_json(Cover([IndexElement([2, 0]), IndexElement([1])])),
        certificate_to_json(certify_id_oplus_not_open(2, samples=3, seed=1)),
        {
            "version": 1,
            "kind": "combination-measures",
            "space": space_to_json(space),
            "first": labeled_atoms,
            "second": labeled_atoms,
            "params": params,
        },
        {"kind": "interval", "bounds": ["-2", "0"], "x": "-1", "y": "-inf", "params": params},
        {"kind": "box", "low": low, "high": high, "x": low, "y": high, "params": params},
        {"kind": "barycenter-box", "low": low, "high": high, "measure": point_atoms},
        {"version": 1, "measure": labeled_atoms},
        {"scalar": "-7/5"},
        {"point": vector_to_json(TropVector(["-1/2", "0"]))},
    ]


VALID = _codec_documents()
ODD_VALUES = [
    True, False, None, 0, 1, -1, 1.0, 2.5, "", "a", "box", "-inf", "1\n", "1.2.3", "nan", "+1", ".5",
    [], {}, ["0"], {"at": "a", "w": "0"},
]
KEYS = ["version", "kind", "n", "labels", "points", "atoms", "at", "w", "t", "p", "extra"]


@st.composite
def mutated_documents(draw):
    """A valid document with up to four edits: a value swapped for an odd
    one, a key deleted or added, an array emptied, a value wrapped in a list."""
    holder = [copy.deepcopy(draw(st.sampled_from(VALID)))]
    for _ in range(draw(st.integers(0, 4))):
        slots = [(holder, 0)]
        for parent, key in slots:  # grows while it is walked: every value in the tree
            value = parent[key]
            if isinstance(value, dict):
                slots.extend((value, k) for k in value)
            elif isinstance(value, list):
                slots.extend((value, i) for i in range(len(value)))
        parent, key = draw(st.sampled_from(slots))
        value = parent[key]
        edit = draw(st.sampled_from(["replace", "delete", "add", "empty", "wrap"]))
        odd = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        if edit == "delete" and parent is not holder:
            del parent[key]
        elif edit == "add" and isinstance(value, dict):
            value[draw(st.sampled_from(KEYS))] = odd
        elif edit == "empty" and isinstance(value, (list, dict)):
            value.clear()
        elif edit == "wrap":
            parent[key] = [value]
        else:
            parent[key] = odd
    return holder[0]


@settings(max_examples=300, deadline=None)
@given(doc=mutated_documents())
@example(doc={"version": True, "atoms": [{"at": ["0"], "w": "0"}]})
@example(doc={"source": {"n": 1.0}, "target": {"n": 1}, "table": [0]})
@example(doc={"atoms": [{"at": ["0", "-1"], "w": "1\n"}]})
@example(doc={"space": {"n": 2}, "values": ["0", "-inf"]})
def test_compiled_check_agrees_with_jsonschema(doc):
    for name in SCHEMAS:
        assert _acceptor(name)(doc) == _validator(name).is_valid(doc), name


def test_schemas_spell_scalars_as_the_library_does():
    """Each schema's scalar pattern is core.SCALAR_TEXT without the
    transient +inf (and, for table values, without -inf)."""
    rational = SCALAR_TEXT.pattern.removeprefix(r"-inf|\+inf|")
    patterns = set()

    def walk(node):
        if isinstance(node, dict):
            if isinstance(node.get("pattern"), str):
                patterns.add(node["pattern"])
            node = list(node.values())
        if isinstance(node, list):
            for item in node:
                walk(item)

    for name in SCHEMAS:
        walk(load_schema(name))
    assert patterns == {f"^(-inf|{rational})$", f"^({rational})$"}


def test_every_codec_document_is_accepted():
    assert len(SCHEMAS) == 8
    for doc in VALID:
        assert any(_acceptor(name)(doc) for name in SCHEMAS), doc


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "format": "date"},
        {"properties": {"a": {"maxLength": 1}}},
        {"items": {"$ref": "other.json#/$defs/x"}},
        {"$ref": "#/$defs/missing", "$defs": {}},
        {"type": ["string", "null"]},
        {"type": "number"},
        {"additionalProperties": {"type": "string"}},
        {"const": [1]},
        {"items": True},
    ],
)
def test_compiler_refuses_what_it_does_not_know(schema):
    with pytest.raises(ValueError, match="no compiled check"):
        _compile(schema)
