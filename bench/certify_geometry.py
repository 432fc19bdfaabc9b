"""certify-geometry: one operation is one top-level geometry or
approximation call.

A round repeats a fixed block: both non-openness certificates with
`recheck()` over seeded (i, seed) pairs, `hull_membership` on points
built inside and drawn around seeded polytopes of dimension 2-4,
`extremal_points` on polytopes with redundant generators, and
`cover_approximation` / `refinement_sweep` with grid and singleton
covers.  Point measures sit on the 1/8 lattice, so some atoms lie on
faces shared by grid cells: the made-up atoms of that known defect show
in approximation.atoms_out_per_in, while barycenter exactness is still
checked on every call.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from tropibary import (
    NEG_INF,
    ZERO,
    Cover,
    TropPolytope,
    barycenter_point,
    certify_id_oplus_not_open,
    certify_y_beta_not_open,
    cover_approximation,
    extremal_points,
    hull_membership,
    refinement_sweep,
    sampling,
    scalar,
)

from common import point_measure, point_text

# Percentile of op_tail_ms (see bench/README.md).
TAIL_PERCENTILE = 99.0

BLOCK = (
    "cert:id", "hull:member", "cover:1", "hull:random", "ext", "hull:member",
    "cover:2", "hull:random", "cert:y", "hull:member", "cover:4", "hull:random",
    "hull:member", "cover:single", "hull:random", "sweep",
)
BLOCKS = 16
CERT_SAMPLES = 50
EXT_SAMPLES = 10
CERT_INDICES = (1, 2, 3, 4, 8)
_COEFF_GRID = [Fraction(k, 8) for k in range(-16, 1)]


def _random_polytope(rng, dim, k):
    box = sampling.standard_box(dim)
    gens = []
    while len(gens) < k:
        g = sampling.random_point(rng, box)
        if g not in gens:
            gens.append(g)
    return TropPolytope(gens)


def _inside(rng, poly):
    """A point of the hull: a normalized combination of the generators."""
    coeffs = [scalar(rng.choice(_COEFF_GRID)) if rng.random() < 0.8 else NEG_INF for _ in poly.generators]
    coeffs[rng.randrange(len(coeffs))] = ZERO
    return poly.combination(coeffs)


def build(seed, workdir):
    rng = sampling.spawn(seed, "certify-geometry")
    box = sampling.standard_box(2)
    # Sizes cycle through their ranges, so the cost mix of a round is the
    # same for every seed; the seed draws the contents.
    cert_i = itertools.cycle(CERT_INDICES)
    hull_shape = itertools.cycle([(d, k) for d in (2, 3, 4) for k in range(2, 9)])
    ext_shape = itertools.cycle([(d, k) for d in (2, 3, 4) for k in range(3, 8)])
    ext_extra = itertools.cycle((1, 2, 3))
    atoms = itertools.cycle(range(1, 7))
    ops = []
    for _ in range(BLOCKS):
        for slot in BLOCK:
            if slot.startswith("cert:"):
                ops.append((slot, certificate, (slot[5:], next(cert_i), rng.randrange(10**6))))
            elif slot.startswith("hull:"):
                poly = _random_polytope(rng, *next(hull_shape))
                inside = slot == "hull:member"
                x = _inside(rng, poly) if inside else sampling.random_point(rng, sampling.standard_box(poly.dim))
                ops.append((slot, hull, (poly, x, inside)))
            elif slot == "ext":
                poly = _random_polytope(rng, *next(ext_shape))
                poly = TropPolytope(list(poly.generators) + [_inside(rng, poly) for _ in range(next(ext_extra))])
                ops.append((slot, extremal, (poly, rng.randrange(10**6))))
            elif slot.startswith("cover:"):
                mu = point_measure(rng, box, next(atoms))
                kind = slot[6:]
                cover = Cover.singletons(mu) if kind == "single" else Cover.grid(box, int(kind))
                ops.append((slot, approximate, (mu, cover)))
            else:
                mu = point_measure(rng, box, next(atoms))
                chain = [Cover.grid(box, 1), Cover.grid(box, 2), Cover.grid(box, 4), Cover.singletons(mu)]
                ops.append((slot, sweep, (mu, chain)))
    size = {
        "ops_per_round": len(ops),
        "block": list(BLOCK),
        "certificate_samples": CERT_SAMPLES,
        "certificate_indices": list(CERT_INDICES),
        "polytopes": "dim 2-4 x 2-8 generators in turn (ext: 3-7 plus 1-3 redundant)",
        "extremal_samples": EXT_SAMPLES,
        "cover_measures": "1-6 atoms in turn on the 1/8 lattice of [-2, 0]^2; grids 1, 2, 4 and singletons",
    }
    return ops, size


def certificate(tr, fault, which, i, seed):
    build_cert = certify_id_oplus_not_open if which == "id" else certify_y_beta_not_open
    cert = tr.call("geometry.certify", build_cert, i, samples=CERT_SAMPLES, seed=seed)
    replayed = tr.call("geometry.recheck", cert.recheck)
    data = cert.data
    if which == "id":
        counts = f"obstructed={data['obstructed']}"
        ok = data["obstructed"] == CERT_SAMPLES
    else:
        counts = f"feasible={data['feasible']} infeasible={data['infeasible_rejected']}"
        ok = data["feasible"] == CERT_SAMPLES
        tr.count("geometry.y_feasible", data["feasible"])
        tr.count("geometry.y_attempted", data["feasible"] + data["infeasible_rejected"])
    ok = ok and cert.verdict is True and replayed is True
    return ok, f"{cert.claim} i={i} seed={seed} verdict={cert.verdict} replayed={replayed} {counts}"


def hull(tr, fault, poly, x, inside):
    coeffs = tr.call("geometry.hull_membership", hull_membership, poly, x)
    tr.count("geometry.hull_tests")
    if coeffs is None:
        return not inside, "hull outside"
    tr.count("geometry.hull_members")
    ok = max(coeffs) == ZERO and poly.combination(coeffs) == x
    return ok, "hull inside " + " ".join(str(c) for c in coeffs)


def extremal(tr, fault, poly, seed):
    ext = tr.call("geometry.extremal_points", extremal_points, poly, samples=EXT_SAMPLES, seed=seed)
    kept = TropPolytope(ext)
    ok = bool(ext) and all(p in poly.generators for p in ext)
    for g in poly.generators:
        if g not in ext:
            ok = ok and tr.call("geometry.hull_membership", hull_membership, kept, g) is not None
    return ok, "ext " + " ".join(point_text(p) for p in ext)


def approximate(tr, fault, mu, cover):
    nu = tr.call("approximation.cover_approximation", cover_approximation, mu, cover)
    tr.count("approximation.atoms_in", mu.atom_count)
    tr.count("approximation.atoms_out", nu.atom_count)
    got = tr.call("barycenter.barycenter_point", barycenter_point, nu)
    want = tr.call("barycenter.barycenter_point", barycenter_point, mu)
    return got == want, "cover barycenter " + point_text(got)


def sweep(tr, fault, mu, chain):
    rows = tr.call("approximation.refinement_sweep", refinement_sweep, mu, chain)
    ok = [k for k, _ in rows] == list(range(len(chain))) and rows[-1][1] == 0.0
    return ok, f"sweep rows={len(rows)} last_zero={rows[-1][1] == 0.0}"
