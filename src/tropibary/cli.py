"""Command-line front door.

Every subcommand reads schema-validated JSON, runs one library
operation, and prints a deterministic report to stdout: same inputs and
seed, same bytes.  Timing goes to stderr so it never breaks that
promise.  Exit codes: 0 success, 2 a lift correctly refused a target
outside its validity region, 1 anything malformed (including failing
verify rows) or a witness that failed the library's exactness check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io as _io
import os
import re
import sys
import time
from functools import lru_cache
from typing import Optional

from . import io as codecs
from .approximation import cover_approximation, refinement_sweep
from .barycenter import barycenter_point
from .core import ConvexParams
from .errors import BadInput, Rejection, TropibaryError, capped
from .geometry import (
    certify_id_oplus_not_open,
    certify_y_beta_not_open,
    extremal_points,
    hull_membership,
    render_polytope_svg,
)
from .lifting import (
    BoxHost,
    brute_force_lift_box,
    brute_force_lift_interval,
    brute_force_lift_s,
    lift_beta,
    lift_s_box,
    lift_s_interval,
    lift_s_finite,
    recombine,
    witness_distance,
)
from .measures import combine, measure_dist, pushforward
from .verify import SCALES, SUITES, run_all, run_suite

DEFAULT_SEED = 7


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let option values be negative rationals: --t -1/4, --p -inf
        self._negative_number_matcher = re.compile(r"^-(inf|\d+(/\d+)?|\d*\.\d+)$")

    # argparse exits with 2 on usage errors; 2 is reserved for rejections here.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise BadInput(message)


def _digest(*paths: str) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _emit(report: dict):
    sys.stdout.write(codecs.dump_document(report) + "\n")


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("TROPIBARY_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise BadInput(f"TROPIBARY_SEED: invalid int value: {capped(repr(env))}") from None


# -- subcommand handlers -------------------------------------------------------


def _cmd_eval(args) -> dict:
    mu = codecs.load(args.measure, "measure")
    phi = codecs.load(args.table, "table")
    value = mu(phi)
    return {
        "subcommand": "eval",
        "inputs_digest": _digest(args.measure, args.table),
        "outputs": {"value": str(value)},
    }


def _cmd_combine(args) -> dict:
    first = codecs.load(args.first, "measure")
    second = codecs.load(args.second, "measure")
    params = ConvexParams(args.t, args.p)
    out = combine(first, second, params)
    return {
        "subcommand": "combine",
        "inputs_digest": _digest(args.first, args.second),
        "outputs": {"measure": codecs.measure_to_json(out)},
    }


def _cmd_pushforward(args) -> dict:
    f = codecs.load(args.map, "map")
    mu = codecs.load(args.measure, "measure")
    out = pushforward(f, mu)
    return {
        "subcommand": "pushforward",
        "inputs_digest": _digest(args.map, args.measure),
        "outputs": {"measure": codecs.measure_to_json(out)},
    }


def _cmd_barycenter(args) -> dict:
    mu = codecs.load(args.measure, "measure")
    point = barycenter_point(mu)
    outputs: dict = {"point": codecs.vector_to_json(point)}
    digests = [args.measure]
    if args.in_polytope:
        poly = codecs.load(args.in_polytope, "polytope")
        coeffs = hull_membership(poly, point)
        outputs["membership"] = {
            "member": coeffs is not None,
            "coefficients": [str(c) for c in coeffs] if coeffs else None,
        }
        digests.append(args.in_polytope)
    return {
        "subcommand": "barycenter",
        "inputs_digest": _digest(*digests),
        "outputs": outputs,
    }


def _witness_payload(kind: str, w) -> dict:
    encode = {"combination-measures": codecs.measure_to_json, "interval": str}.get(kind, codecs.vector_to_json)
    return {
        "first": encode(w.lifted_first),
        "second": encode(w.lifted_second),
        "params": codecs.params_to_json(w.params),
        "case_tag": w.case_tag,
    }


def _target(target_doc: dict, key: str, kind: str):
    """The target document's value under `key`, the one kind of target a
    `kind` instance takes; BadInput names the kind it holds instead."""
    if key not in target_doc:
        given = next(k for k in target_doc if k != "version")
        raise BadInput(f"the {kind} instance takes a {key} target, not a {given}")
    return target_doc[key]


def _lift_s_inputs(instance: dict, target_doc: dict) -> tuple:
    """The kind, first, second, params, target and region of a lift s
    request, with the lift and the search that answer it."""
    kind = instance["kind"]
    if kind == "combination-measures":
        space = codecs.space_from_json(instance["space"])
        first = codecs.measure_from_json(instance["first"], space)
        second = codecs.measure_from_json(instance["second"], space)
        params = codecs.params_from_json(instance["params"])
        target = codecs.measure_from_json(_target(target_doc, "measure", kind), space)
        return kind, first, second, params, target, (), lift_s_finite, brute_force_lift_s
    if kind == "interval":
        bounds = tuple(codecs.scalar_from_json(v) for v in instance["bounds"])
        first = codecs.scalar_from_json(instance["x"])
        second = codecs.scalar_from_json(instance["y"])
        params = codecs.params_from_json(instance["params"])
        target = codecs.scalar_from_json(_target(target_doc, "scalar", kind))
        return kind, first, second, params, target, (bounds,), lift_s_interval, brute_force_lift_interval
    if kind == "box":
        box = codecs.box_from_json(instance)
        first = codecs.vector_from_json(instance["x"])
        second = codecs.vector_from_json(instance["y"])
        params = codecs.params_from_json(instance["params"])
        target = codecs.vector_from_json(_target(target_doc, "point", kind))
        return kind, first, second, params, target, (box,), lift_s_box, brute_force_lift_box
    raise BadInput(f"instance kind {kind!r} does not fit lift s")


def _cmd_lift_s(inputs: tuple, oracle: bool) -> dict:
    kind, first, second, params, target, region, lift, search = inputs
    w = lift(first, second, params, target, *region)
    out = {
        "witness": _witness_payload(kind, w),
        "exactness": recombine(w.lifted_first, w.lifted_second, w.params) == target,
        "distance": witness_distance(w, first, second, params),
    }
    if oracle:
        found = search(first, second, params, target, *region, mode="best")
        out["oracle"] = {
            "witness_found": found is not None,
            "witness": _witness_payload(kind, found) if found is not None else None,
        }
    return out


# The instance kinds `lift beta` answers on, each with its host builder.
_BETA_HOSTS = {"barycenter-box": lambda instance: BoxHost(codecs.box_from_json(instance))}


def _lift_beta_inputs(instance: dict, target_doc: dict) -> tuple:
    """The host, measure and target of a lift beta request."""
    kind = instance["kind"]
    if kind not in _BETA_HOSTS:
        raise BadInput("lift beta expects a barycenter-box instance")
    host = _BETA_HOSTS[kind](instance)
    target = codecs.vector_from_json(_target(target_doc, "point", kind))
    return host, codecs.measure_from_json(instance["measure"]), target


def _cmd_lift_beta(inputs: tuple, oracle: bool) -> dict:
    host, nu, target = inputs
    out = lift_beta(nu, target, host)
    payload = {
        "witness": codecs.measure_to_json(out),
        "exactness": host.bary(out) == target,
        "distance": measure_dist(out, nu),
    }
    if oracle:
        found = host.oracle(nu, target, "best")
        payload["oracle"] = {
            "witness_found": found is not None,
            "witness": codecs.measure_to_json(found) if found is not None else None,
        }
    return payload


# Each lift map: the decoder of its instance and target, and its command.
_LIFTS = {"s": (_lift_s_inputs, _cmd_lift_s), "beta": (_lift_beta_inputs, _cmd_lift_beta)}


def _lift_inputs(lift_map: str, instance: str, target: str) -> tuple:
    """The decoded inputs of a lift request on the documents at these paths."""
    decode = _LIFTS[lift_map][0]
    docs = codecs.load(instance, "instance"), codecs.load(target, "target")
    try:
        return decode(*docs)
    except BadInput:
        # worded from the values as written: a loaded point no longer says how it was spelled
        return decode(codecs.read_document(instance, "instance"), codecs.read_document(target, "target"))


def _cmd_lift(args) -> dict:
    inputs = _lift_inputs(args.map, args.instance, args.target)
    return {
        "subcommand": f"lift {args.map}",
        "inputs_digest": _digest(args.instance, args.target),
        "outputs": _LIFTS[args.map][1](inputs, args.oracle),
    }


def _cmd_approx(args) -> dict:
    mu = codecs.load(args.measure, "measure")
    if args.chain:
        covers = [codecs.load(p, "cover") for p in args.chain]
        rows = refinement_sweep(mu, covers)
        buf = _io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["cover_index", "dist"])
        for k, d in rows:
            writer.writerow([k, repr(d)])
        sys.stdout.write(buf.getvalue())
        return {}
    if args.cover is None:
        raise BadInput("approx needs --cover or --chain")
    cover = codecs.load(args.cover, "cover")
    nu = cover_approximation(mu, cover)
    return {
        "subcommand": "approx",
        "inputs_digest": _digest(args.measure, args.cover),
        "outputs": {
            "measure": codecs.measure_to_json(nu),
            "beta_preserved": barycenter_point(nu) == barycenter_point(mu),
            "dist": measure_dist(nu, mu),
        },
    }


def _cmd_ext(args) -> dict:
    poly = codecs.load(args.polytope, "polytope")
    ext = extremal_points(poly, samples=200, seed=_resolve_seed(args.seed))
    if args.svg:
        render_polytope_svg(poly, args.svg, extremal=ext)
    return {
        "subcommand": "ext",
        "inputs_digest": _digest(args.polytope),
        "outputs": {"extremal": [codecs.vector_to_json(p) for p in ext]},
    }


def _cmd_member(args) -> dict:
    poly = codecs.load(args.polytope, "polytope")
    coords = codecs.parse_json(args.point, "--point")
    if not isinstance(coords, list):
        raise BadInput("--point must be a JSON array of coordinates")
    point = codecs.vector_from_json(coords)
    coeffs = hull_membership(poly, point)
    return {
        "subcommand": "member",
        "inputs_digest": _digest(args.polytope),
        "outputs": {
            "member": coeffs is not None,
            "coefficients": [str(c) for c in coeffs] if coeffs else None,
        },
    }


def _cmd_counterexample(args) -> dict:
    seed = _resolve_seed(args.seed)
    if args.which == "id-oplus":
        cert = certify_id_oplus_not_open(args.i, samples=args.samples, seed=seed)
    else:
        cert = certify_y_beta_not_open(args.i, samples=args.samples, seed=seed)
    doc = codecs.certificate_to_json(cert)
    codecs.validate_document(doc, "certificate")
    return {
        "subcommand": f"counterexample {args.which}",
        "seed": seed,
        "outputs": {"certificate": doc},
    }


def _cmd_verify(args) -> tuple[dict, bool]:
    seed = _resolve_seed(args.seed)
    try:
        sink = open(args.csv, "w", newline="") if args.csv else contextlib.nullcontext()
    except OSError as exc:
        raise BadInput(f"cannot write {args.csv}: {exc.strerror}") from None
    with sink:
        if args.suite == "all":
            results = run_all(seed=seed, scale=args.scale)
        else:
            results = [run_suite(args.suite, seed=seed, scale=args.scale)]
        rows = [r for sr in results for r in sr.rows]
        for r in rows:
            sys.stdout.write(f"{r.verdict.upper():4s} {r.suite}/{r.case}: {r.detail}\n")
        ok = all(r.ok for r in rows)
        failed = sum(1 for r in rows if not r.ok)
        sys.stdout.write(
            f"verify: {'PASS' if ok else 'FAIL'} "
            f"({len(rows)} rows, {failed} failed, seed {seed}, scale {args.scale})\n"
        )
        if args.csv:
            writer = csv.writer(sink)
            writer.writerow(["suite", "case", "verdict", "detail"])
            for r in rows:
                writer.writerow([r.suite, r.case, r.verdict, r.detail])
    return {}, ok


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tropibary", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a measure on a function table")
    p.add_argument("--measure", required=True)
    p.add_argument("--table", required=True)

    p = sub.add_parser("combine", help="max-plus convex combination of two measures")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--p", required=True)

    p = sub.add_parser("pushforward", help="image of a measure under a space map")
    p.add_argument("--map", required=True)
    p.add_argument("--measure", required=True)

    p = sub.add_parser("barycenter", help="idempotent barycenter of a measure")
    p.add_argument("measure")
    p.add_argument("--in-polytope", default=None)

    p = sub.add_parser("lift", help="openness lift: exact preimage of a nearby target")
    p.add_argument("map", choices=["s", "beta"])
    p.add_argument("--instance", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("approx", help="cover approximation preserving the barycenter")
    p.add_argument("--measure", required=True)
    p.add_argument("--cover", default=None)
    p.add_argument("--chain", nargs="+", default=None)

    p = sub.add_parser("ext", help="extremal points of a tropical polytope")
    p.add_argument("--polytope", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("member", help="hull membership via residuated coefficients")
    p.add_argument("--polytope", required=True)
    p.add_argument("--point", required=True, help="JSON array of coordinates")

    p = sub.add_parser("counterexample", help="build an obstruction certificate")
    p.add_argument("which", choices=["id-oplus", "y-beta"])
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("verify", help="run the machine-checked invariant suites")
    p.add_argument("--suite", default="all", choices=["all"] + sorted(SUITES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scale", default="default", choices=sorted(SCALES))
    p.add_argument("--csv", default=None)

    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "combine": _cmd_combine,
    "pushforward": _cmd_pushforward,
    "barycenter": _cmd_barycenter,
    "lift": _cmd_lift,
    "approx": _cmd_approx,
    "ext": _cmd_ext,
    "member": _cmd_member,
    "counterexample": _cmd_counterexample,
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process: parsing leaves it
    unchanged, and `_Parser.error` writes to the `sys.stderr` of the call."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    started = time.monotonic()
    try:
        args = _parser().parse_args(argv)
        if args.command == "verify":
            _, ok = _cmd_verify(args)
            return 0 if ok else 1
        report = _HANDLERS[args.command](args)
        if report:
            _emit(report)
        return 0
    except Rejection as exc:
        _emit({"rejected": str(exc), "kind": type(exc).__name__})
        return 2
    except TropibaryError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        sys.stderr.write(f"elapsed: {time.monotonic() - started:.3f}s\n")


if __name__ == "__main__":
    sys.exit(main())
