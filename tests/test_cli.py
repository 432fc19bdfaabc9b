"""Command-line interface: exit codes, deterministic reports, file handling."""

import csv
import io
import itertools
import json
import pathlib
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from tropibary import ConvexParams, FiniteSpace, cli, combine, lifting, sampling
from tropibary.cli import main

SPACE = {"labels": ["a", "b"]}
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def atoms(*pairs):
    return {"atoms": [{"at": at, "w": w} for at, w in pairs]}


DOCUMENTS = {
    "m": {"version": 1, "space": SPACE, **atoms(("a", "0"), ("b", "-1/2"))},
    "m2": {"space": SPACE, **atoms(("a", "-1"), ("b", "0"))},
    "table": {"version": 1, "space": SPACE, "values": ["0", "1"]},
    "map": {"source": SPACE, "target": {"labels": ["u"]}, "table": [0, 0]},
    "pm": atoms((["-1", "0"], "0"), (["0", "-2"], "-1/4")),
    "poly": {"generators": [["-1", "0"], ["0", "-2"], ["0", "0"]]},
    "cover1": {"elements": [{"kind": "box", "low": ["-2", "-2"], "high": ["0", "0"]}]},
    "cover2": {
        "elements": [
            {"kind": "box", "low": ["-2", "-2"], "high": ["-1", "0"]},
            {"kind": "box", "low": ["-1", "-2"], "high": ["0", "0"]},
        ]
    },
    "mu4": atoms(
        (["-2", "-1"], "0"),
        (["-3/2", "-3/4"], "-1/4"),
        (["-1/2", "-1/2"], "-1/2"),
        (["-1/4", "-1"], "-1"),
    ),
    "inst_meas": {
        "kind": "combination-measures",
        "space": SPACE,
        "first": atoms(("a", "-1"), ("b", "0")),
        "second": atoms(("a", "0"), ("b", "-2")),
        "params": {"t": "0", "p": "0"},
    },
    "tgt_meas": {"measure": atoms(("a", "0"), ("b", "-1/2"))},
    "inst_int": {
        "kind": "interval",
        "bounds": ["-2", "0"],
        "x": "-1",
        "y": "-3/2",
        "params": {"t": "-1/2", "p": "0"},
    },
    "tgt_int": {"scalar": "-7/5"},
    "tgt_int_bad": {"scalar": "-1/4"},
    "inst_box": {
        "kind": "box",
        "low": ["-2", "-2"],
        "high": ["0", "0"],
        "x": ["-1", "-1"],
        "y": ["-9/20", "-9/20"],
        "params": {"t": "-1/10", "p": "0"},
    },
    "tgt_box": {"point": ["-9/20", "-9/20"]},
    "inst_beta": {
        "kind": "barycenter-box",
        "low": ["-2", "-2"],
        "high": ["0", "0"],
        "measure": atoms((["-2", "-1"], "0"), (["-1", "-2"], "0")),
    },
    "tgt_beta": {"point": ["-9/10", "-99/100"]},
    # schema-valid documents holding a scalar that is no rational
    "m_zero_den": {"space": SPACE, **atoms(("a", "0"), ("b", "1/0"))},
    "table_zero_den": {"space": SPACE, "values": ["0", "1/0"]},
    "pm_zero_den": atoms((["-1", "1/0"], "0")),
    "poly_zero_den": {"generators": [["-1", "1/0"], ["0", "-2"]]},
    "cover_zero_den": {"elements": [{"kind": "box", "low": ["-2", "-2"], "high": ["0", "1/0"]}]},
    # a schema-valid index cover naming a point the space does not have
    "em3": {
        "space": {"labels": ["a", "b", "c"], "points": [["-1", "0"], ["0", "-2"], ["0", "0"]]},
        **atoms(("a", "0"), ("b", "-1/4")),
    },
    "cover_index_out": {"elements": [{"kind": "indices", "indices": [0, 1, 7]}, {"kind": "indices", "indices": [2]}]},
    "inst_int_zero_den": {
        "kind": "interval",
        "bounds": ["-2", "0"],
        "x": "1/0",
        "y": "-3/2",
        "params": {"t": "-1/2", "p": "0"},
    },
    "tgt_int_zero_den": {"scalar": "1/0"},
    "tgt_beta_zero_den": {"point": ["1/0", "-1"]},
    "pm_mixed_dim": atoms((["0"], "0"), (["-1", "0"], "0")),
    # schema-valid scalars outside the scalar grammar: "$" matches before a final newline
    "m_newline": {"space": SPACE, **atoms(("a", "0\n"))},
    "table_newline": {"space": SPACE, "values": ["0\n", "1"]},
    # documents that break their schema: the error line is jsonschema's wording
    "m_bad_weight": {"space": SPACE, **atoms(("a", "0"), ("b", "oops"))},
    "m_bool_weight": {"space": SPACE, **atoms(("a", True))},
    "m_version_2": {"version": 2, "space": SPACE, **atoms(("a", "0"))},
    "table_neg_inf": {"space": SPACE, "values": ["0", "-inf"]},
    "map_bool_n": {"source": {"n": True}, "target": {"labels": ["u"]}, "table": [0]},
    "map_negative": {"source": SPACE, "target": {"labels": ["u"]}, "table": [0, -1]},
    "poly_empty": {"generators": []},
    # a generator coordinate above the float range, which no SVG can draw
    "poly_huge": {"generators": [["1" + "0" * 400, "0"], ["0", "-1"]]},
    # coordinates inside the float range that span more than it
    "poly_wide": {"generators": [["17" + "0" * 307, "0"], ["-17" + "0" * 307, "-1"]]},
    # a space written with no labels has no points
    "m_no_labels": {"space": {"labels": []}, **atoms(("a", "0"))},
    "map_no_labels": {"source": SPACE, "target": {"labels": []}, "table": [0, 0]},
    # a space given by a size over the cap, refused before it is built
    "m_huge_space": {"space": {"n": 1_000_000_000}, **atoms(("a", "0"))},
    "map_huge_target": {"source": SPACE, "target": {"n": 1_000_000_000}, "table": [0, 0]},
    "cover_bad_kind": {"elements": [{"kind": "ball", "low": ["-2"], "high": ["0"]}]},
    "inst_extra_key": {
        "kind": "interval",
        "bounds": ["-2", "0"],
        "x": "-1",
        "y": "-3/2",
        "params": {"t": "-1/2", "p": "0"},
        "z": "0",
    },
    "tgt_two_kinds": {"scalar": "-7/5", "point": ["-7/5"]},
    # a beta oracle grid of about 7^8 points, refused before it is built
    "inst_beta_8d": {
        "kind": "barycenter-box",
        "low": ["-2"] * 8,
        "high": ["0"] * 8,
        "measure": atoms((["-1"] * 8, "0")),
    },
    "tgt_beta_8d": {"point": ["-7/8"] * 8},
    # integral floats where the schemas' "integer" admits them
    "m_float_n": {"space": {"n": 2.0}, **atoms(("0", "0"))},
    "map_float_entry": {"source": SPACE, "target": {"labels": ["u"]}, "table": [0, 0.0]},
    "map_float_target_n": {"source": SPACE, "target": {"n": 1.0}, "table": [0, 0]},
    # about 1,600 distinct weights: an s oracle of 2.5 million parameter
    # differences, refused before any is computed
    "inst_meas_800": {
        "kind": "combination-measures",
        "space": {"n": 800},
        "first": atoms(*((str(i), str(Fraction(-i, 800))) for i in range(800))),
        "second": atoms(*((str(i), str(Fraction(-i, 801))) for i in range(800))),
        "params": {"t": "0", "p": "0"},
    },
    "tgt_meas_800": {"measure": atoms(*((str(i), str(Fraction(-i, 801))) for i in range(800)))},
    # refusal order: the whole document meets its schema before any value is read
    "m_zero_den_then_bad": {"space": SPACE, **atoms(("a", "1/0"), ("b", "oops"))},
    "m_zero_den_then_newline": {"space": SPACE, **atoms(("a", "1/0"), ("b", "0\n"))},
    "m_float_weight": {"space": SPACE, **atoms(("a", 2.0))},
    # a coordinate atom that is no embedded point is quoted as written
    "m_unembedded": {"space": {"points": [["0", "-1"], ["-1", "0"]]}, **atoms(([7, "-2/4"], "0"))},
    "inst_embedded": {
        "kind": "combination-measures",
        "space": {"points": [["0", "-1"], ["-1", "0"]]},
        "first": atoms((["0", "-1"], "0")),
        "second": atoms((["-1", "0"], "0")),
        "params": {"t": "0", "p": "0"},
    },
    "tgt_unembedded": {"measure": atoms(([7, "-2/4"], "0"))},
}


def write_documents(directory: pathlib.Path) -> dict:
    paths = {name: write(directory / f"{name}.json", doc) for name, doc in DOCUMENTS.items()}
    # paths that read_document cannot turn into a document at all
    (directory / "a_directory").mkdir()
    paths["a_directory"] = str(directory / "a_directory")
    latin1 = directory / "latin1.json"
    latin1.write_bytes('{"labels": ["\u00e9"], "atoms": [{"at": "\u00e9", "w": "0"}]}'.encode("latin-1"))
    paths["latin1"] = str(latin1)
    deep = directory / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    paths["deep"] = str(deep)
    # a weight spelled as an integer of more digits than int() converts
    long_int = directory / "long_int.json"
    long_int.write_text('{"space": {"labels": ["a", "b"]}, "atoms": [{"at": "a", "w": %s}]}' % ("1" * 5000))
    paths["long_int"] = str(long_int)
    return paths


@pytest.fixture
def docs(tmp_path):
    return write_documents(tmp_path)


def run(capsys, *argv):
    capsys.readouterr()
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestBasicSubcommands:
    def test_eval(self, capsys, docs):
        doc = report(capsys, "eval", "--measure", docs["m"], "--table", docs["table"])
        assert doc["subcommand"] == "eval"
        assert doc["outputs"]["value"] == "1/2"
        assert len(doc["inputs_digest"]) == 16

    def test_combine(self, capsys, docs):
        doc = report(
            capsys, "combine", "--first", docs["m"], "--second", docs["m2"], "--t", "-1/4", "--p", "0"
        )
        assert doc["outputs"]["measure"]["atoms"] == [
            {"at": "a", "w": "-1/4"},
            {"at": "b", "w": "0"},
        ]

    def test_pushforward(self, capsys, docs):
        doc = report(capsys, "pushforward", "--map", docs["map"], "--measure", docs["m"])
        assert doc["outputs"]["measure"]["atoms"] == [{"at": "u", "w": "0"}]

    def test_barycenter(self, capsys, docs):
        doc = report(capsys, "barycenter", docs["pm"])
        assert doc["outputs"]["point"] == ["-1/4", "0"]

    def test_barycenter_membership(self, capsys, docs):
        doc = report(capsys, "barycenter", docs["pm"], "--in-polytope", docs["poly"])
        membership = doc["outputs"]["membership"]
        assert membership["member"]
        assert membership["coefficients"] == ["0", "-1/4", "-1/4"]


class TestLift:
    def test_measures_lift(self, capsys, docs):
        doc = report(capsys, "lift", "s", "--instance", docs["inst_meas"], "--target", docs["tgt_meas"])
        out = doc["outputs"]
        assert out["exactness"]
        assert out["witness"]["case_tag"] == "t=p=0/pivot-lower"
        assert out["witness"]["params"] == {"t": "-1/2", "p": "0"}
        assert out["distance"] > 0

    def test_measures_lift_with_oracle(self, capsys, docs):
        doc = report(
            capsys,
            "lift", "s",
            "--instance", docs["inst_meas"],
            "--target", docs["tgt_meas"],
            "--oracle",
        )
        oracle = doc["outputs"]["oracle"]
        assert oracle["witness_found"]
        assert oracle["witness"]["case_tag"] == "oracle"

    def test_interval_lift(self, capsys, docs):
        doc = report(capsys, "lift", "s", "--instance", docs["inst_int"], "--target", docs["tgt_int"])
        out = doc["outputs"]
        assert out["exactness"]
        assert out["witness"]["first"] == "-9/10"
        assert out["witness"]["second"] == "-7/5"

    def test_interval_lift_rejection_exits_2(self, capsys, docs):
        code, out, _ = run(
            capsys, "lift", "s", "--instance", docs["inst_int"], "--target", docs["tgt_int_bad"]
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["kind"] == "OutsideValidityRegion"
        assert "leaves" in doc["rejected"]

    def test_box_lift_identity(self, capsys, docs):
        doc = report(capsys, "lift", "s", "--instance", docs["inst_box"], "--target", docs["tgt_box"])
        assert doc["outputs"]["exactness"]
        assert doc["outputs"]["distance"] == 0.0

    def test_beta_lift(self, capsys, docs):
        doc = report(capsys, "lift", "beta", "--instance", docs["inst_beta"], "--target", docs["tgt_beta"])
        out = doc["outputs"]
        assert out["exactness"]
        assert out["witness"]["atoms"] == [
            {"at": ["-2", "-99/100"], "w": "0"},
            {"at": ["-9/10", "-2"], "w": "0"},
        ]

    def test_beta_lift_of_1100_atoms_is_a_report(self, capsys, tmp_path):
        # more atoms than the default recursion limit
        grid = [f"-{n}/32" for n in range(64)]
        points = list(itertools.islice(itertools.product(grid, grid), 1100))
        weights = ["0"] + [f"-{n % 16}/8" for n in range(1, 1100)]
        instance = {"kind": "barycenter-box", "low": ["-2", "-2"], "high": ["0", "0"],
                    "measure": atoms(*((list(p), w) for p, w in zip(points, weights)))}
        target = [max(Fraction(w) + Fraction(p[j]) for p, w in zip(points, weights)) for j in range(2)]
        doc = report(
            capsys,
            "lift", "beta",
            "--instance", write(tmp_path / "instance.json", instance),
            "--target", write(tmp_path / "target.json", {"point": [str(c) for c in target]}),
        )
        assert doc["outputs"]["exactness"] is True
        assert len(doc["outputs"]["witness"]["atoms"]) <= 1100

    def test_lift_s_oracle_over_1100_points_is_a_report(self, capsys, tmp_path):
        # more points than the default recursion limit; the oracle's
        # depth-first pick takes one coordinate at a time
        rng = random.Random(1)
        space = FiniteSpace(1100)
        first, second = (sampling.random_measure_on_space(rng, space) for _ in range(2))
        image = combine(first, second, ConvexParams(0, -1))

        def weights(mu):
            return {"atoms": [{"at": space.labels[i], "w": str(w)} for i, w in mu.atoms]}

        instance = {"kind": "combination-measures", "space": {"n": 1100}, "first": weights(first),
                    "second": weights(second), "params": {"t": "0", "p": "-1"}}
        code, out, err = run(
            capsys,
            "lift", "s", "--oracle",
            "--instance", write(tmp_path / "instance.json", instance),
            "--target", write(tmp_path / "target.json", {"measure": weights(image)}),
        )
        assert code == 0 and "Traceback" not in err
        outputs = json.loads(out)["outputs"]
        assert outputs["exactness"] and outputs["oracle"]["witness_found"]
        assert outputs["oracle"]["witness"]["case_tag"] == "oracle"

    @pytest.mark.parametrize(
        "lift_map, instance, message",
        [
            ("beta", "inst_int", "lift beta expects a barycenter-box instance"),
            ("beta", "inst_box", "lift beta expects a barycenter-box instance"),
            ("beta", "inst_meas", "lift beta expects a barycenter-box instance"),
            ("s", "inst_beta", "instance kind 'barycenter-box' does not fit lift s"),
        ],
        ids=["beta-on-interval", "beta-on-box", "beta-on-combination-measures", "s-on-barycenter-box"],
    )
    def test_beta_lift_needs_matching_instance(self, capsys, docs, lift_map, instance, message):
        # each lift refuses the other's instance kinds before it reads the target
        code, out, err = run(capsys, "lift", lift_map, "--instance", docs[instance], "--target", docs["tgt_beta"])
        assert (code, out) == (1, "")
        assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]


class TestApprox:
    def test_cover_approximation(self, capsys, docs):
        doc = report(capsys, "approx", "--measure", docs["mu4"], "--cover", docs["cover2"])
        out = doc["outputs"]
        assert out["beta_preserved"]
        assert out["measure"]["atoms"] == [
            {"at": ["-7/4", "-1"], "w": "0"},
            {"at": ["-1/2", "-1/2"], "w": "-1/2"},
        ]
        assert out["dist"] >= 0.0

    def test_chain_writes_csv_rows(self, capsys, docs):
        code, out, _ = run(capsys, "approx", "--measure", docs["mu4"], "--chain", docs["cover1"], docs["cover2"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["cover_index", "dist"]
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        assert float(rows[1][1]) >= float(rows[2][1]) >= 0

    def test_geometric_covers_on_an_embedded_space(self, capsys, docs, tmp_path):
        # boxes and polytopes hold the atoms of em3 at their embedded points
        points = DOCUMENTS["em3"]["space"]["points"]
        covers = {
            "indices": [{"kind": "indices", "indices": [i]} for i in range(3)],
            "polytopes": [{"kind": "polytope", "generators": [p]} for p in points],
            "halves": [
                {"kind": "box", "low": ["-2", "-2"], "high": ["-1/2", "0"]},
                {"kind": "box", "low": ["-1/2", "-2"], "high": ["0", "0"]},
            ],
        }
        paths = {name: write(tmp_path / f"{name}.json", {"elements": e}) for name, e in covers.items()}
        for name in covers:
            out = report(capsys, "approx", "--measure", docs["em3"], "--cover", paths[name])["outputs"]
            assert out["beta_preserved"] and out["dist"] == 0.0, name
            assert out["measure"]["atoms"] == [{"at": "a", "w": "0"}, {"at": "b", "w": "-1/4"}], name
        code, out, _ = run(capsys, "approx", "--measure", docs["em3"], "--chain", paths["halves"], paths["polytopes"])
        assert code == 0
        assert out.splitlines() == ["cover_index,dist", "0,0.0", "1,0.0"]
        # one box holds both atoms, whose barycenter is no point of the space
        code, out, err = run(capsys, "approx", "--measure", docs["em3"], "--cover", docs["cover1"])
        assert (code, out) == (1, "")
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert line == "error: barycenter TropVector([-1/4, 0]) escaped element 0 of the cover"

    def test_approx_needs_cover_or_chain(self, capsys, docs):
        code, _, err = run(capsys, "approx", "--measure", docs["mu4"])
        assert code == 1
        assert "needs --cover or --chain" in err


class TestDistancesOutsideTheFloatRange:
    """e^x overflows a float above about 709: a distance that large is one
    error line, and equal values far up are still at distance 0.0."""

    def one_error_line(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert line.endswith("is above the float range")

    def test_lift_s_far_up_the_interval(self, capsys, tmp_path):
        instance = {"kind": "interval", "bounds": ["0", "1000"], "x": "800", "y": "700", "params": {"t": "0", "p": "-1"}}
        argv = ("lift", "s", "--instance", write(tmp_path / "inst.json", instance))
        self.one_error_line(capsys, *argv, "--target", write(tmp_path / "tgt.json", {"scalar": "801"}))

    def test_lift_s_oracle_far_down_the_interval(self, capsys, tmp_path):
        # the oracle ranks its candidates by the exact scalars, none of
        # which has a float value here
        far = "-1" + "0" * 400
        instance = {"kind": "interval", "bounds": [far, "0"], "x": far, "y": far, "params": {"t": "0", "p": "-1"}}
        argv = ("lift", "s", "--instance", write(tmp_path / "inst.json", instance), "--oracle")
        code, out, err = run(capsys, *argv, "--target", write(tmp_path / "tgt.json", {"scalar": far}))
        assert code == 0 and "Traceback" not in err
        outputs = json.loads(out)["outputs"]
        assert outputs["exactness"] and outputs["oracle"]["witness_found"]
        assert outputs["oracle"]["witness"]["first"] == far

    def test_approx_far_up_the_plane(self, capsys, tmp_path):
        cover = write(tmp_path / "cover.json", {"elements": [{"kind": "box", "low": ["0", "0"], "high": ["1000", "1000"]}]})
        single = write(tmp_path / "single.json", atoms((["800", "800"], "0")))
        doc = report(capsys, "approx", "--measure", single, "--cover", cover)
        assert doc["outputs"]["dist"] == 0.0
        assert doc["outputs"]["measure"]["atoms"] == [{"at": ["800", "800"], "w": "0"}]
        pair = write(tmp_path / "pair.json", atoms((["800", "799"], "0"), (["799", "800"], "0")))
        self.one_error_line(capsys, "approx", "--measure", pair, "--cover", cover)


class TestGeometryCommands:
    def test_ext_drops_redundant_generator(self, capsys, docs, tmp_path):
        svg = tmp_path / "hull.svg"
        doc = report(capsys, "ext", "--polytope", docs["poly"], "--svg", str(svg))
        assert doc["outputs"]["extremal"] == [["-1", "0"], ["0", "-2"]]
        assert svg.read_text().startswith("<svg")

    def test_ext_svg_refuses_what_floats_cannot_draw_before_writing(self, capsys, docs, tmp_path):
        svg = tmp_path / "huge.svg"
        code, out, err = run(capsys, "ext", "--polytope", docs["poly_huge"], "--svg", str(svg))
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert line == "error: cannot draw the coordinate 1" + "0" * 199 + "...: it lies outside the float range"
        assert not svg.exists()
        # floats each, but 3.4e308 apart: the drawing scale would be 0 and every x nan
        code, out, err = run(capsys, "ext", "--polytope", docs["poly_wide"], "--svg", str(svg))
        assert (code, out) == (1, "")
        assert "error: cannot draw the polytope: its extent lies outside the float range" in err.splitlines()
        assert not svg.exists()

    def test_member_inside(self, capsys, docs):
        doc = report(capsys, "member", "--polytope", docs["poly"], "--point", '["-1/4", "0"]')
        assert doc["outputs"]["member"]
        assert doc["outputs"]["coefficients"] == ["0", "-1/4", "-1/4"]

    def test_member_outside(self, capsys, docs):
        doc = report(capsys, "member", "--polytope", docs["poly"], "--point", "[-1, -1]")
        assert not doc["outputs"]["member"]
        assert doc["outputs"]["coefficients"] is None


class TestCounterexampleAndSeeds:
    def test_certificate_report(self, capsys):
        doc = report(capsys, "counterexample", "id-oplus", "--i", "2", "--samples", "40")
        assert doc["seed"] == 7
        cert = doc["outputs"]["certificate"]
        assert cert["claim"] == "id-oplus-not-open"
        assert cert["verdict"]

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPIBARY_SEED", "99")
        doc = report(capsys, "counterexample", "y-beta", "--i", "2", "--samples", "5")
        assert doc["seed"] == 99

    def test_flag_overrides_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPIBARY_SEED", "99")
        doc = report(capsys, "counterexample", "id-oplus", "--i", "2", "--samples", "5", "--seed", "3")
        assert doc["seed"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("ext", "--polytope", "@poly"),
            ("counterexample", "y-beta", "--i", "2", "--samples", "5"),
            ("verify", "--suite", "measures", "--scale", "tiny"),
        ],
        ids=["ext", "counterexample", "verify"],
    )
    def test_non_integer_env_seed_is_one_error_line(self, capsys, monkeypatch, docs, argv):
        argv = resolve(argv, docs)
        monkeypatch.setenv("TROPIBARY_SEED", "abc")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert err.splitlines()[0] == "error: TROPIBARY_SEED: invalid int value: 'abc'"
        # --seed wins, and then the variable is not read
        code, _, err = run(capsys, *argv, "--seed", "3")
        assert code == 0, err

    def test_long_env_seed_is_quoted_to_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPIBARY_SEED", "x" * 1000)
        code, out, err = run(capsys, "counterexample", "id-oplus", "--i", "2", "--samples", "5")
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == "error: TROPIBARY_SEED: invalid int value: '" + "x" * 199 + "..."


class TestVerifyCommand:
    def test_single_suite_tiny(self, capsys, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "verify", "--suite", "measures", "--scale", "tiny", "--csv", str(out_csv)
        )
        assert code == 0
        assert "verify: PASS" in out
        assert all(line.startswith("PASS") for line in out.splitlines()[:-1])
        rows = list(csv.reader(out_csv.open()))
        assert rows[0] == ["suite", "case", "verdict", "detail"]
        assert all(r[0] == "measures" and r[2] == "pass" for r in rows[1:])

    def test_stdout_is_byte_identical(self, capsys, docs):
        first = run(capsys, "lift", "s", "--instance", docs["inst_meas"], "--target", docs["tgt_meas"])
        second = run(capsys, "lift", "s", "--instance", docs["inst_meas"], "--target", docs["tgt_meas"])
        assert first[0] == second[0] == 0
        assert first[1] == second[1]
        third = run(capsys, "verify", "--suite", "measures", "--scale", "tiny")
        fourth = run(capsys, "verify", "--suite", "measures", "--scale", "tiny")
        assert third[1] == fourth[1]


# Arguments too long to spell in a test id.
ARGUMENTS = {
    "long_int_point": "[" + "1" * 5000 + ", 0]",
    "deep_point": "[" * 100_000 + "]" * 100_000,
}

# Malformed input for every subcommand that reads scalars or JSON; "@name"
# stands for the path of docs[name], "%name" for ARGUMENTS[name].
MALFORMED = [
    ("combine", "--first", "@m", "--second", "@m2", "--t", "abc", "--p", "0"),
    ("combine", "--first", "@m", "--second", "@m2", "--t", "1/0", "--p", "0"),
    ("combine", "--first", "@m", "--second", "@m2", "--t", "0", "--p", "nan"),
    ("combine", "--first", "@m", "--second", "@m2", "--t=-1_0", "--p", "0"),
    ("combine", "--first", "@m_zero_den", "--second", "@m2", "--t", "0", "--p", "0"),
    ("eval", "--measure", "@m_zero_den", "--table", "@table"),
    ("eval", "--measure", "@m", "--table", "@table_zero_den"),
    ("eval", "--measure", "@m_newline", "--table", "@table"),
    ("eval", "--measure", "@m", "--table", "@table_newline"),
    ("pushforward", "--map", "@map", "--measure", "@m_zero_den"),
    ("barycenter", "@pm_zero_den"),
    ("barycenter", "@pm_mixed_dim"),
    ("barycenter", "@m"),
    ("barycenter", "@pm", "--in-polytope", "@poly_zero_den"),
    ("lift", "s", "--instance", "@inst_int_zero_den", "--target", "@tgt_int"),
    ("lift", "s", "--instance", "@inst_int", "--target", "@tgt_int_zero_den"),
    ("lift", "beta", "--instance", "@inst_beta", "--target", "@tgt_beta_zero_den"),
    ("approx", "--measure", "@pm", "--cover", "@cover_zero_den"),
    ("ext", "--polytope", "@poly_zero_den"),
    ("member", "--polytope", "@poly", "--point", '["nan", "0"]'),
    ("member", "--polytope", "@poly", "--point", "notjson"),
    ("member", "--polytope", "@poly", "--point", '["1/0", "0"]'),
    ("member", "--polytope", "@poly", "--point", "5"),
    ("member", "--polytope", "@poly", "--point", "null"),
    ("member", "--polytope", "@poly_zero_den", "--point", "[0, 0]"),
    ("counterexample", "id-oplus", "--i", "2", "--samples", "0"),
    ("counterexample", "y-beta", "--i", "2", "--samples", "0"),
    ("counterexample", "y-beta", "--i", "abc"),
    ("eval", "--measure", "@m_bad_weight", "--table", "@table"),
    ("eval", "--measure", "@m_bool_weight", "--table", "@table"),
    ("combine", "--first", "@m", "--second", "@m_version_2", "--t", "0", "--p", "0"),
    ("eval", "--measure", "@m", "--table", "@table_neg_inf"),
    ("pushforward", "--map", "@map_bool_n", "--measure", "@m"),
    ("pushforward", "--map", "@map_negative", "--measure", "@m"),
    ("ext", "--polytope", "@poly_empty"),
    ("approx", "--measure", "@pm", "--cover", "@cover_bad_kind"),
    ("lift", "s", "--instance", "@inst_extra_key", "--target", "@tgt_int"),
    ("lift", "s", "--instance", "@inst_int", "--target", "@tgt_two_kinds"),
    ("eval", "--measure", "@a_directory", "--table", "@table"),
    ("eval", "--measure", "@latin1", "--table", "@table"),
    ("barycenter", "@deep"),
    ("approx", "--measure", "@m", "--cover", "@cover1"),
    ("approx", "--measure", "@em3", "--cover", "@cover_index_out"),
    ("ext", "--polytope", "@poly", "--svg", "@a_directory"),
    ("verify", "--suite", "measures", "--scale", "tiny", "--csv", "@a_directory"),
    ("eval", "--measure", "@m_no_labels", "--table", "@table"),
    ("barycenter", "@m_no_labels"),
    ("pushforward", "--map", "@map_no_labels", "--measure", "@m"),
    ("eval", "--measure", "@m_huge_space", "--table", "@table"),
    ("pushforward", "--map", "@map_huge_target", "--measure", "@m"),
    ("lift", "beta", "--instance", "@inst_beta_8d", "--target", "@tgt_beta_8d", "--oracle"),
    ("eval", "--measure", "@m_float_n", "--table", "@table"),
    ("pushforward", "--map", "@map_float_entry", "--measure", "@m"),
    ("pushforward", "--map", "@map_float_target_n", "--measure", "@m"),
    ("lift", "s", "--instance", "@inst_meas_800", "--target", "@tgt_meas_800", "--oracle"),
    ("eval", "--measure", "@long_int", "--table", "@table"),
    ("member", "--polytope", "@poly", "--point", "%long_int_point"),
    ("member", "--polytope", "@poly", "--point", "%deep_point"),
    ("ext", "--polytope", "@poly_huge", "--svg", "@a_directory"),
    ("ext", "--polytope", "@poly_wide", "--svg", "@a_directory"),
    ("eval", "--measure", "@m_zero_den_then_bad", "--table", "@table"),
    ("eval", "--measure", "@m_zero_den_then_newline", "--table", "@table"),
    ("eval", "--measure", "@m_float_weight", "--table", "@table"),
    ("barycenter", "@m_unembedded"),
    ("lift", "s", "--instance", "@inst_embedded", "--target", "@tgt_unembedded"),
    ("lift", "s", "--instance", "@inst_box", "--target", "@tgt_int"),
    ("lift", "s", "--instance", "@inst_int", "--target", "@tgt_box"),
    ("lift", "s", "--instance", "@inst_meas", "--target", "@tgt_box"),
    ("lift", "beta", "--instance", "@inst_beta", "--target", "@tgt_int"),
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_is_one_error_line(capsys, docs, tmp_path, argv):
    code, out, err = run(capsys, *resolve(argv, docs))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert lines[-1].startswith("elapsed:")
    assert sum(line.startswith("error:") for line in lines) == 1, err
    golden = json.loads((GOLDEN / "malformed.json").read_text())
    assert error_line(err, tmp_path) == golden[" ".join(argv)]


# One request per subcommand at seed 7; tests/golden/<name>.out holds its
# stdout byte for byte, tests/golden/malformed.json the error line of each
# MALFORMED row.  Re-record both with: PYTHONPATH=src python tests/test_cli.py
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_REQUESTS = {
    "eval": ("eval", "--measure", "@m", "--table", "@table"),
    "combine": ("combine", "--first", "@m", "--second", "@m2", "--t", "-1/4", "--p", "0"),
    "pushforward": ("pushforward", "--map", "@map", "--measure", "@m"),
    "barycenter": ("barycenter", "@pm", "--in-polytope", "@poly"),
    "member": ("member", "--polytope", "@poly", "--point", '["-1/4", "0"]'),
    "approx": ("approx", "--measure", "@mu4", "--cover", "@cover2"),
    "lift-s": ("lift", "s", "--instance", "@inst_meas", "--target", "@tgt_meas", "--oracle"),
    "lift-beta": ("lift", "beta", "--instance", "@inst_beta", "--target", "@tgt_beta"),
    "ext": ("ext", "--polytope", "@poly", "--seed", "7"),
    "counterexample-id-oplus": ("counterexample", "id-oplus", "--i", "2", "--samples", "40", "--seed", "7"),
    "counterexample-y-beta": ("counterexample", "y-beta", "--i", "2", "--samples", "40", "--seed", "7"),
    "verify-tiny": ("verify", "--scale", "tiny", "--seed", "7"),
}


def resolve(argv, docs) -> list:
    """argv with each "@name" replaced by the path of docs[name] and each
    "%name" by ARGUMENTS[name]."""
    return [
        docs[a[1:]] if a.startswith("@") else ARGUMENTS[a[1:]] if a.startswith("%") else a
        for a in argv
    ]


def error_line(err: str, directory) -> str:
    (line,) = [line for line in err.splitlines() if line.startswith("error:")]
    return line.replace(str(directory), "<tmp>")


@pytest.mark.parametrize("name", GOLDEN_REQUESTS)
def test_stdout_matches_golden(capsys, docs, name):
    code, out, _ = run(capsys, *resolve(GOLDEN_REQUESTS[name], docs))
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_one_parser_serves_every_request(capsys, docs):
    """main builds its parser once per process: a request the parser
    refuses leaves it as it was, and every golden request, made twice,
    prints its golden bytes both times."""
    twice = [(name, argv) for name, argv in GOLDEN_REQUESTS.items() for _ in range(2)]
    cli._parser.cache_clear()
    for name, argv in [(None, ("eval", "--measure")), *twice, (None, ("frobnicate",))]:
        code, out, err = run(capsys, *resolve(argv, docs))
        if name is None:
            assert (code, out) == (1, "")
            assert err.startswith("usage: tropibary")
            assert sum(line.startswith("error:") for line in err.splitlines()) == 1
        else:
            assert code == 0
            assert out.encode() == (GOLDEN / f"{name}.out").read_bytes(), name
    assert cli._parser.cache_info().misses == 1


class TestFailures:
    def test_missing_file(self, capsys, docs):
        code, _, err = run(capsys, "eval", "--measure", "/nonexistent.json", "--table", docs["table"])
        assert code == 1
        assert "no such file" in err

    def test_broken_json(self, capsys, docs, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run(capsys, "eval", "--measure", str(bad), "--table", docs["table"])
        assert code == 1
        assert "not JSON" in err

    def test_schema_violation(self, capsys, docs, tmp_path):
        bad = write(tmp_path / "badm.json", {"atoms": [{"at": "a", "w": "oops"}]})
        code, _, err = run(capsys, "eval", "--measure", bad, "--table", docs["table"])
        assert code == 1
        assert "measure" in err

    def test_usage_error_exits_1(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "error:" in err

    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "eval", "--measure", "only.json")
        assert code == 1
        assert "error:" in err

    def test_scalar_beyond_the_int_conversion_limit_is_one_error_line(self, capsys, docs, tmp_path):
        weight = "-" + "1" * 5000
        bad = write(tmp_path / "digits.json", {"space": SPACE, **atoms(("a", "0"), ("b", weight))})
        code, out, err = run(capsys, "eval", "--measure", bad, "--table", docs["table"])
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        # the quoted weight is cut at QUOTE_CAP (200) characters
        assert error_line(err, tmp_path) == "error: '-" + "1" * 198 + "... is not a rational or -inf"

    def test_oracle_over_budget_is_one_error_line(self, capsys, docs, monkeypatch):
        # 20 is the count of parameter differences of the 4-value pool, so
        # the search starts and stops at its 21st viewed candidate
        monkeypatch.setattr(lifting, "ORACLE_BUDGET", 20)
        code, out, err = run(capsys, *resolve(GOLDEN_REQUESTS["lift-s"], docs))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert "oracle viewed more than 20 candidates" in line


def test_jsonschema_is_imported_only_to_word_a_refusal(docs, child_env):
    """A valid request never imports jsonschema; a refused document is
    still refused in jsonschema's words."""
    script = (
        "import sys; from tropibary.cli import main; code = main(sys.argv[1:]); "
        "print('jsonschema' in sys.modules, file=sys.stderr); sys.exit(code)"
    )
    golden = json.loads((GOLDEN / "malformed.json").read_text())
    for argv, code, imported in (
        (GOLDEN_REQUESTS["eval"], 0, "False"),
        (("eval", "--measure", "@m_bad_weight", "--table", "@table"), 1, "True"),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, *resolve(argv, docs)], capture_output=True, text=True, env=child_env
        )
        lines = proc.stderr.splitlines()
        assert (proc.returncode, lines[-1]) == (code, imported), proc.stderr
        if code:
            assert error_line(proc.stderr, pathlib.Path(docs["m"]).parent) == golden[" ".join(argv)]
        else:
            assert proc.stdout.encode() == (GOLDEN / "eval.out").read_bytes()


def test_console_script(docs, child_env):
    """The [project.scripts] entry point works as an installed wrapper runs it."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    entry = project["scripts"]["tropibary"]
    assert entry == "tropibary.cli:main"
    module, func = entry.split(":")
    wrapper = f"import sys; sys.argv[0] = 'tropibary'; from {module} import {func}; sys.exit({func}())"
    commands = [[sys.executable, "-c", wrapper]]
    exe = shutil.which("tropibary")
    if exe:
        commands.append([exe])
    for command in commands:
        proc = subprocess.run(
            [*command, "member", "--polytope", docs["poly"], "--point", "[0, 0]"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["outputs"]["member"]


if __name__ == "__main__":
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_documents(pathlib.Path(tmp))

        def capture(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                main(resolve(argv, paths))
            return out.getvalue(), err.getvalue()

        GOLDEN.mkdir(exist_ok=True)
        for name, argv in GOLDEN_REQUESTS.items():
            (GOLDEN / f"{name}.out").write_bytes(capture(argv)[0].encode())
        errors = {" ".join(argv): error_line(capture(argv)[1], tmp) for argv in MALFORMED}
        (GOLDEN / "malformed.json").write_text(json.dumps(errors, indent=2) + "\n")
