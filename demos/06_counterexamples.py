#!/usr/bin/env python3
"""Two maps that are NOT open, each witnessed by a replayable
certificate: the pairwise max of measures on a two-point space, and the
barycenter map over a hook-shaped hull whose diagonal pins measures
away from a limit."""

from tropibary.geometry import (
    certify_id_oplus_not_open,
    certify_y_beta_not_open,
    extremal_points,
    render_polytope_svg,
    y_polytope,
)
from tropibary.io import certificate_to_json, dump_document, validate_document


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    section("Pairwise max on two-point measures")
    print("nu_t puts weight t at atom 0 and weight 0 at atom 1; nu_{-1/i} -> nu_0.")
    print("Splitting nu_{-1/i} as a pairwise max forces weight 0 at atom 1,")
    print("so one factor always evaluates the separating table to 1.")
    for i in (1, 4, 16):
        cert = certify_id_oplus_not_open(i, samples=300, seed=7)
        print(
            f"  i = {i:>2}: verdict {cert.verdict}, "
            f"{cert.data['obstructed']} sampled splits all obstructed"
        )
        assert cert.verdict and cert.recheck()
    sample = certify_id_oplus_not_open(4, samples=300, seed=7)
    ex = sample.data["exhibits"][0]
    print(f"  an exhibit: alpha weights ({ex['alpha0']}, 0) evaluate the table to {ex['alpha_phi']}")

    section("Barycenter over the hook hull")
    hull = y_polytope()
    ext = extremal_points(hull)
    print("generators:", [tuple(map(str, g.coords)) for g in hull.generators])
    print("extremal:  ", [tuple(map(str, g.coords)) for g in ext])
    print("Diagonal targets (-1+1/i, -1+1/i) approach the barycenter (-1,-1) of")
    print("nu = dirac(-2,-1) oplus dirac(-1,-2), but any measure with such a")
    print("barycenter keeps min(x, y) >= -1+1/i, while nu has min value -2:")
    for i in (2, 4, 8):
        cert = certify_y_beta_not_open(i, samples=120, seed=7)
        print(f"  i = {i}: verdict {cert.verdict}, gap >= {cert.data['gap']:.6f}")
        assert cert.verdict and cert.recheck()

    section("Certificates are files")
    doc = certificate_to_json(certify_y_beta_not_open(4, samples=40, seed=7))
    validate_document(doc, "certificate")
    text = dump_document(doc)
    print(f"a certificate document is {len(text)} bytes of schema-valid JSON;")
    print("recheck() reruns the construction from the stored seed and compares.")

    render_polytope_svg(hull, "hook_hull.svg", extremal=ext)
    print("wrote hook_hull.svg with the extremal points ringed")


if __name__ == "__main__":
    main()
