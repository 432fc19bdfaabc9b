"""cli-docs: one operation is one in-process `tropibary.cli.main(argv)`
request, or one io round trip of a document (read_document -> decode ->
encode -> validate_document -> dump_document).

Setup writes seeded measure, map, table, instance, polytope and cover
documents of 5, 50 and 500 atoms into a temporary directory.  The request
list is fixed, so every seed runs the same mix; the seed draws the
document contents.  stdout and stderr are captured; the report on stdout
is checked against values computed directly with the library and
rendered canonically: floats from rho, certificate digests, rejection
messages and the approximating measure (which changes once the
shared-face defect of cover approximation is fixed) are left out, and
the `elapsed:` line on stderr is ignored.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import json
import os
from fractions import Fraction

from tropibary import (
    Box,
    ConvexParams,
    Cover,
    FiniteSpace,
    IdemMeasure,
    Rejection,
    TropPolytope,
    TropVector,
    ZERO,
    barycenter_point,
    certify_id_oplus_not_open,
    certify_y_beta_not_open,
    combine,
    hull_membership,
    lift_s_finite,
    odot,
    oplus,
    pushforward,
    s_point,
    sampling,
    scalar,
)
from tropibary import io as codecs
from tropibary.cli import main as cli_main

# Percentile of op_tail_ms (see bench/README.md).
TAIL_PERCENTILE = 85.0
SIZES = (5, 50, 500)
LIFT_MEASURE_SIZES = (5, 50)
CERT_SAMPLES = 50


def _labels(prefix, n):
    return [f"{prefix}{k}" for k in range(n)]


def _weights(rng, n):
    return sampling.random_weights(rng, n, bottom_rate=0.0)


def _points(rng, n, dim):
    box = sampling.standard_box(dim)
    pts = []
    seen = set()
    while len(pts) < n:
        p = sampling.random_point(rng, box)
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def _write(workdir, name, doc):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _instance_doc(first, second, params):
    return {
        "version": 1,
        "kind": "combination-measures",
        "space": codecs.space_to_json(first.space),
        "first": {"atoms": codecs.measure_to_json(first)["atoms"]},
        "second": {"atoms": codecs.measure_to_json(second)["atoms"]},
        "params": codecs.params_to_json(params),
    }


def _instance_decode(doc):
    space = codecs.space_from_json(doc["space"])
    return (
        codecs.measure_from_json(doc["first"], space),
        codecs.measure_from_json(doc["second"], space),
        codecs.params_from_json(doc["params"]),
    )


def _instance_encode(inst):
    return _instance_doc(*inst)


CODECS = {
    "measure": (codecs.measure_from_json, codecs.measure_to_json),
    "map": (codecs.map_from_json, codecs.map_to_json),
    "table": (codecs.table_from_json, codecs.table_to_json),
    "polytope": (codecs.polytope_from_json, codecs.polytope_to_json),
    "cover": (codecs.cover_from_json, codecs.cover_to_json),
    "instance": (_instance_decode, _instance_encode),
}


def _far_target(rng, first, second, params):
    """A seeded target far from the image that lift_s_finite refuses, or
    the image itself when none of a bounded number of draws is refused."""
    image = combine(first, second, params)
    space = first.space
    for _ in range(200):
        weights = [w if rng.random() < 0.5 else scalar(-Fraction(rng.randint(0, 16), 8)) for w in
                   (image.weight_of(i) for i in range(space.n))]
        weights[rng.randrange(space.n)] = scalar(0)
        target = IdemMeasure.from_weights(space, weights)
        try:
            lift_s_finite(first, second, params, target)
        except Rejection:
            return target
    return image


def build(seed, workdir):
    rng = sampling.spawn(seed, "cli-docs")
    ops = []
    docs = {}

    def doc(name, body):
        path = _write(workdir, name, body)
        docs[name] = path
        return path

    params = ConvexParams(Fraction(-1, 4), 0)
    for n in SIZES:
        space = FiniteSpace(n, labels=_labels("p", n))
        mu = IdemMeasure.from_weights(space, _weights(rng, n))
        mu2 = IdemMeasure.from_weights(space, _weights(rng, n))
        table = sampling.random_function_table(rng, space)
        tspace = FiniteSpace(max(1, n // 5), labels=_labels("q", max(1, n // 5)))
        fmap = sampling.random_map(rng, space, tspace, surjective=True)
        pm = IdemMeasure(list(zip(_points(rng, n, 3), _weights(rng, n))))
        poly = TropPolytope(_points(rng, n, 3))
        cover = Cover.grid(sampling.standard_box(3), 1 if n == 5 else 2)
        inst = (mu, mu2, sampling.random_params(rng, bottom_rate=0.0))
        m = doc(f"measure{n}", codecs.measure_to_json(mu))
        m2 = doc(f"second{n}", codecs.measure_to_json(mu2))
        t = doc(f"table{n}", codecs.table_to_json(table))
        f = doc(f"map{n}", codecs.map_to_json(fmap))
        p = doc(f"points{n}", codecs.measure_to_json(pm))
        poly_path = doc(f"polytope{n}", codecs.polytope_to_json(poly))
        c = doc(f"cover{n}", codecs.cover_to_json(cover))
        i = doc(f"instance{n}", _instance_doc(*inst))
        for kind, path, obj in (
            ("measure", m, mu), ("map", f, fmap), ("table", t, table),
            ("polytope", poly_path, poly), ("cover", c, cover), ("instance", i, inst),
        ):
            ops.append((f"roundtrip/{kind}{n}", roundtrip, (path, kind, os.path.getsize(path), obj)))

        ops.append((f"cli-eval/{n}", cli, (["eval", "--measure", m, "--table", t], 0, str(mu(table)))))
        ops.append((f"cli-combine/{n}", cli, (
            ["combine", "--first", m, "--second", m2, "--t", str(params.t), "--p", str(params.p)],
            0, codecs.measure_to_json(combine(mu, mu2, params)),
        )))
        ops.append((f"cli-pushforward/{n}", cli, (
            ["pushforward", "--map", f, "--measure", m], 0, codecs.measure_to_json(pushforward(fmap, mu)),
        )))
        ops.append((f"cli-barycenter/{n}", cli, (["barycenter", p], 0, (codecs.vector_to_json(barycenter_point(pm)), None))))
        inside = poly.combination([scalar(0)] + [scalar(-Fraction(rng.randint(0, 16), 8)) for _ in poly.generators[1:]])
        coeffs = hull_membership(poly, inside)
        ops.append((f"cli-member/{n}", cli, (
            ["member", "--polytope", poly_path, "--point", json.dumps(codecs.vector_to_json(inside))],
            0, [str(x) for x in coeffs],
        )))
        ops.append((f"cli-approx/{n}", cli, (["approx", "--measure", p, "--cover", c], 0, barycenter_point(pm))))

        box = Box(TropVector([-2] * n), TropVector([0] * n))
        x, y = sampling.random_point(rng, box), sampling.random_point(rng, box)
        bparams = sampling.random_params(rng, bottom_rate=0.0)
        image = x.shift(bparams.t).join(y.shift(bparams.p))
        target = rng.choice([image, TropVector([min(odot(c, scalar(Fraction(1, 64))), ZERO) for c in image])])
        bi = doc(f"boxinstance{n}", {
            "kind": "box", "low": codecs.vector_to_json(box.low), "high": codecs.vector_to_json(box.high),
            "x": codecs.vector_to_json(x), "y": codecs.vector_to_json(y), "params": codecs.params_to_json(bparams),
        })
        bt = doc(f"boxtarget{n}", {"point": codecs.vector_to_json(target)})
        ops.append((f"cli-lift/box{n}", cli, (
            ["lift", "s", "--instance", bi, "--target", bt], _must_lift(target, image), target,
        )))

        if n in LIFT_MEASURE_SIZES:
            near = sampling.perturb_weights_toward_zero(rng, combine(*inst), Fraction(1, 64))
            tn = doc(f"target{n}", {"measure": {"atoms": codecs.measure_to_json(near)["atoms"]}})
            ops.append((f"cli-lift/measure{n}", cli, (["lift", "s", "--instance", i, "--target", tn], 0, near)))
        if n == SIZES[0]:
            far = _far_target(rng, *inst)
            tf = doc("fartarget", {"measure": {"atoms": codecs.measure_to_json(far)["atoms"]}})
            # _far_target falls back to the image only when no draw was refused.
            far_code = 0 if far == combine(*inst) else 2
            ops.append(("cli-lift/far", cli, (["lift", "s", "--instance", i, "--target", tf], far_code, far)))
            center = barycenter_point(pm)
            ops.append(("cli-barycenter/in-polytope", cli, (
                ["barycenter", p, "--in-polytope", poly_path], 0,
                (codecs.vector_to_json(center), hull_membership(poly, center) is not None),
            )))
            ops.append(("cli-ext/5", cli, (["ext", "--polytope", poly_path, "--seed", str(seed)], 0, poly)))

    small = sampling.standard_box(2)
    beta_nu = IdemMeasure(list(zip(_points(rng, 5, 2), _weights(rng, 5))))
    center = barycenter_point(beta_nu)
    beta_target = rng.choice(sampling.lattice_targets_near(center, small, Fraction(1, 64)))
    bi = doc("betainstance", {
        "kind": "barycenter-box", "low": ["-2", "-2"], "high": ["0", "0"],
        "measure": {"atoms": codecs.measure_to_json(beta_nu)["atoms"]},
    })
    bt = doc("betatarget", {"point": codecs.vector_to_json(beta_target)})
    ops.append(("cli-lift/beta5", cli, (
        ["lift", "beta", "--instance", bi, "--target", bt], _must_lift(beta_target, center), beta_target,
    )))
    x, y = scalar(-1), scalar(-Fraction(rng.randint(0, 16), 8))
    iparams = ConvexParams(-Fraction(rng.randint(1, 8), 8), 0)
    iv = doc("intervalinstance", {
        "kind": "interval", "bounds": ["-2", "0"], "x": str(x), "y": str(y), "params": codecs.params_to_json(iparams),
    })
    target = scalar(-Fraction(rng.randint(0, 64), 64))
    it = doc("intervaltarget", {"scalar": str(target)})
    image = oplus(odot(iparams.t, x), odot(iparams.p, y))
    ops.append(("cli-lift/interval", cli, (
        ["lift", "s", "--instance", iv, "--target", it], _must_lift(target, image), target,
    )))
    ops.append(("cli-approx/chain", cli, (["approx", "--measure", docs["points5"], "--chain", docs["cover5"], docs["cover50"]], 0, None)))
    for which in ("id-oplus", "y-beta"):
        index, cseed = rng.choice((1, 2, 4, 8)), rng.randrange(10**6)
        argv = ["counterexample", which, "--i", str(index), "--samples", str(CERT_SAMPLES), "--seed", str(cseed)]
        certify = certify_id_oplus_not_open if which == "id-oplus" else certify_y_beta_not_open
        cert = certify(index, samples=CERT_SAMPLES, seed=cseed)
        ops.append((f"cli-counterexample/{which}", cli, (argv, 0, codecs.certificate_to_json(cert))))
    size = {
        "ops_per_round": len(ops),
        "document_atoms": list(SIZES),
        "cli_requests_per_round": sum(1 for k, _, _ in ops if k.startswith("cli-")),
        "roundtrips_per_round": sum(1 for k, _, _ in ops if k.startswith("roundtrip/")),
        "lift_measure_sizes": list(LIFT_MEASURE_SIZES),
        "cover_cells": "1, 8, 8 boxes of [-2, 0]^3",
        "certificate_samples": CERT_SAMPLES,
    }
    return ops, size


_DROPPED = {"digest", "rejected"}


def _canon(x):
    if isinstance(x, float):
        return "float"
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items() if k not in _DROPPED}
    if isinstance(x, list):
        return [_canon(v) for v in x]
    return x


def _must_lift(target, image):
    """Exit code a lift request must give: 0 on the exact image, where
    the construction cannot refuse; otherwise either answer can be right
    and the report is checked for whichever it is."""
    return 0 if target == image else None


def _recombined(sub, witness, target):
    """True when the witness a lift reported, decoded and put back
    through the map it inverts, gives the target exactly."""
    if sub == "lift beta":
        return barycenter_point(codecs.measure_from_json(witness)) == target
    params = codecs.params_from_json(witness["params"])
    first, second = witness["first"], witness["second"]
    if isinstance(target, IdemMeasure):
        space = target.space
        return combine(codecs.measure_from_json(first, space), codecs.measure_from_json(second, space), params) == target
    if isinstance(target, TropVector):
        return s_point(codecs.vector_from_json(first), codecs.vector_from_json(second), params) == target
    lifted = oplus(odot(params.t, codecs.scalar_from_json(first)), odot(params.p, codecs.scalar_from_json(second)))
    return lifted == target


def _extremal_ok(points, poly):
    """The reported points are generators whose hull holds every other
    generator."""
    ext = [codecs.vector_from_json(p) for p in points]
    if not ext or any(p not in poly.generators for p in ext):
        return False
    kept = TropPolytope(ext)
    return all(g in ext or hull_membership(kept, g) is not None for g in poly.generators)


def _check(report, code, expected):
    """Exactness of one report against values computed directly with
    the library: witnesses and measures are decoded and recombined, and
    nothing the report says about its own correctness is trusted."""
    sub = report.get("subcommand", "")
    out = report.get("outputs", {})
    if code == 2:
        return report.get("kind") in ("OutsideValidityRegion", "InconsistentFiber")
    if sub == "eval":
        return out["value"] == expected
    if sub in ("combine", "pushforward"):
        return out["measure"] == expected
    if sub == "barycenter":
        point, member = expected
        return out["point"] == point and out.get("membership", {"member": None})["member"] is member
    if sub == "member":
        return out["member"] is True and out["coefficients"] == expected
    if sub.startswith("lift"):
        return _recombined(sub, out["witness"], expected)
    if sub == "approx":
        return barycenter_point(codecs.measure_from_json(out["measure"])) == expected
    if sub == "ext":
        return _extremal_ok(out["extremal"], expected)
    if sub.startswith("counterexample"):
        data = expected["data"]
        counts = data.get("obstructed", data.get("feasible"))
        return out["certificate"] == expected and expected["verdict"] is True and counts == CERT_SAMPLES
    return False


def cli(tr, fault, argv, want_code, expected):
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tr.call("cli.main", cli_main, argv)
    text = out.getvalue()
    if want_code is not None and code != want_code or code not in (0, 2):
        return False, f"{argv[0]} exit {code}"
    if argv[0] == "approx" and "--chain" in argv:
        rows = list(csv.reader(_io.StringIO(text)))
        ok = rows[0] == ["cover_index", "dist"] and [r[0] for r in rows[1:]] == ["0", "1"]
        return ok, f"approx chain exit {code} rows {[r[0] for r in rows]}"
    report = json.loads(text)
    ok = _check(report, code, expected)
    if report.get("subcommand") == "approx":
        report["outputs"].pop("measure", None)
    return ok, f"{argv[0]} exit {code} " + json.dumps(_canon(report), sort_keys=True)


def roundtrip(tr, fault, path, kind, nbytes, obj):
    decode, encode = CODECS[kind]
    doc = tr.call("io.read_document", codecs.read_document, path, kind)
    tr.count("io.bytes_read", nbytes)
    value = tr.call("io.decode", decode, doc)
    encoded = tr.call("io.encode", encode, value)
    tr.call("io.validate_document", codecs.validate_document, encoded, kind)
    text = tr.call("io.dump_document", codecs.dump_document, encoded)
    tr.count("io.bytes_written", len(text))
    again = tr.call("io.decode", decode, json.loads(text))
    return value == obj and again == obj, f"roundtrip {kind} {text}"
