#!/usr/bin/env python3
"""The idempotent barycenter: each coordinate is the best weighted
coordinate over the atoms.  The map is affine, natural under coordinate
shifts, and flattens measures of measures into combinations."""

from tropibary.barycenter import barycenter_of_measures, barycenter_point
from tropibary.core import ConvexParams, TropVector, ZERO, s_point, scalar
from tropibary.geometry import TropPolytope, hull_membership
from tropibary.measures import FiniteSpace, IdemMeasure, combine


def section(title):
    print()
    print(title)
    print("-" * len(title))


def pm(*pairs):
    return IdemMeasure([(TropVector(coords), scalar(w)) for coords, w in pairs])


def main():
    section("Barycenter of a two-atom measure")
    mu = pm((("-1", "0"), "0"), (("0", "-2"), "-1/4"))
    print("atoms:", [(tuple(map(str, p.coords)), str(w)) for p, w in mu.atoms])
    center = barycenter_point(mu)
    print(f"coordinate 0: max(0 + -1, -1/4 + 0)  = {center[0]}")
    print(f"coordinate 1: max(0 +  0, -1/4 + -2) = {center[1]}")
    assert center == TropVector(("-1/4", "0"))

    section("Diracs map to their points")
    delta = pm((("-1/2", "-3"), "0"))
    print("barycenter(dirac at x) =", barycenter_point(delta))
    assert barycenter_point(delta) == TropVector(("-1/2", "-3"))

    section("Affinity: the barycenter commutes with combination")
    nu = pm((("0", "0"), "0"), (("-2", "-1"), "-1"))
    params = ConvexParams(scalar("-1/2"), ZERO)
    lhs = barycenter_point(combine(mu, nu, params))
    rhs = s_point(barycenter_point(mu), barycenter_point(nu), params)
    print(f"beta(combine) = {lhs}")
    print(f"s(beta, beta) = {rhs}")
    assert lhs == rhs

    section("Naturality under coordinate shifts")
    shift = TropVector(("-1", "-1/2"))
    moved = IdemMeasure(
        [(TropVector([p[0] + shift[0], p[1] + shift[1]]), w) for p, w in mu.atoms]
    )
    got = barycenter_point(moved)
    want = TropVector([center[0] + shift[0], center[1] + shift[1]])
    print(f"beta(shifted mu) = {got} = shifted beta(mu)")
    assert got == want

    section("Flattening a measure over measures")
    space = FiniteSpace(2, labels=("u", "v"), points=(TropVector(("-1", "0")), TropVector(("0", "-2"))))
    inner1 = IdemMeasure.from_weights(space, [ZERO, scalar("-1/4")])
    inner2 = IdemMeasure.from_weights(space, [scalar("-1"), ZERO])
    big = IdemMeasure([(inner1, ZERO), (inner2, scalar("-1/2"))])
    flat = barycenter_of_measures(big)
    same = combine(inner1, inner2, ConvexParams(ZERO, scalar("-1/2")))
    print("flatten(0 at m1, -1/2 at m2) == combine(m1, m2, (0, -1/2)):", flat == same)
    assert flat == same
    # and the flattening is itself barycenter-compatible
    assert barycenter_point(flat) == s_point(
        barycenter_point(inner1), barycenter_point(inner2), ConvexParams(ZERO, scalar("-1/2"))
    )

    section("The barycenter stays in the hull of the support")
    hull = TropPolytope([p for p, _ in mu.atoms])
    coeffs = hull_membership(hull, center)
    print(f"membership coefficients: {tuple(map(str, coeffs))}")
    assert coeffs is not None


if __name__ == "__main__":
    main()
