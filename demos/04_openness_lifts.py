#!/usr/bin/env python3
"""Constructive openness: every map in the library comes with a lift
that answers a perturbed target with an exact preimage close to the
original inputs.  This script walks all four lift families."""

from fractions import Fraction

from tropibary.core import ConvexParams, TropVector, ZERO, rho, s_point, scalar
from tropibary.errors import OutsideValidityRegion
from tropibary.lifting import (
    BoxHost,
    lift_beta,
    lift_fiber_surjection,
    lift_s_box,
    lift_s_finite,
    lift_s_interval,
    witness_distance,
)
from tropibary.geometry import Box
from tropibary.barycenter import barycenter_point
from tropibary.measures import FiniteSpace, IdemMeasure, SpaceMap, combine, measure_dist, pushforward


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    space = FiniteSpace(2, labels=("a", "b"))

    section("Lifting a combination of measures through perturbed targets")
    first = IdemMeasure.from_weights(space, [scalar("-1"), ZERO])
    second = IdemMeasure.from_weights(space, [ZERO, scalar("-2")])
    params = ConvexParams(0, 0)
    exact = combine(first, second, params)
    print("exact image:", [(space.labels[i], str(w)) for i, w in exact.atoms])
    print(f"{'depth':>5} {'target b-weight':>16} {'witness distance':>17} {'case':>22}")
    for depth in (4, 8, 12, 16, 20):
        # nudge the non-zero direction of the target by 2^-depth
        target = IdemMeasure.from_weights(space, [ZERO, scalar(Fraction(-1, 2**depth))])
        w = lift_s_finite(first, second, params, target)
        assert combine(w.lifted_first, w.lifted_second, w.params) == target
        d = witness_distance(w, first, second, params)
        print(f"{depth:>5} {str(Fraction(-1, 2**depth)):>16} {d:>17.3e} {w.case_tag:>22}")
    identity = lift_s_finite(first, second, params, exact)
    assert (identity.lifted_first, identity.lifted_second) == (first, second)
    print("the exact image lifts to the inputs themselves")

    section("Interval and box variants keep the parameters fixed")
    bounds = (scalar("-2"), ZERO)
    w = lift_s_interval(scalar("-1"), scalar("-3/2"), ConvexParams("-1/2", 0), scalar("-7/5"), bounds)
    print(f"interval witness: x' = {w.lifted_first}, y' = {w.lifted_second}  [{w.case_tag}]")
    assert w.params == ConvexParams("-1/2", 0)
    box = Box(TropVector(("-2", "-2")), TropVector(("0", "0")))
    x, y = TropVector(("-1", "-1")), TropVector(("-9/20", "-9/20"))
    bw = lift_s_box(x, y, ConvexParams("-1/10", 0), TropVector(("-2/5", "-9/20")), box)
    print(f"box witness:      x' = {bw.lifted_first}, y' = {bw.lifted_second}  [{bw.case_tag}]")
    assert s_point(bw.lifted_first, bw.lifted_second, bw.params) == TropVector(("-2/5", "-9/20"))

    section("A target outside the validity region is refused, not fudged")
    try:
        lift_s_interval(scalar("-1"), scalar("-3/2"), ConvexParams("-1/2", 0), scalar("-1/4"), bounds)
    except OutsideValidityRegion as exc:
        print(f"refused: {exc}")

    section("Lifting through a merge of two points")
    src = FiniteSpace(3, labels=("a", "b", "c"))
    tgt = FiniteSpace(2, labels=("a", "bc"))
    merge = SpaceMap(src, tgt, [0, 1, 1])
    nu = IdemMeasure.from_weights(src, [ZERO, scalar("-1"), scalar("-1/2")])
    mu = IdemMeasure.from_weights(tgt, [ZERO, scalar("-3/10")])
    a = IdemMeasure.from_weights(tgt, [ZERO, scalar("-1/2")])
    fiber_params = ConvexParams("-1/5", 0)
    lam, eta = lift_fiber_surjection(nu, mu, a, fiber_params, merge)
    print("lam:", [(src.labels[i], str(w)) for i, w in lam.atoms])
    print("eta:", [(src.labels[i], str(w)) for i, w in eta.atoms])
    assert pushforward(merge, lam) == mu
    assert pushforward(merge, eta) == a
    assert combine(lam, eta, fiber_params) == nu
    print("both pushforwards and the combination recombine exactly")

    section("Lifting the barycenter map over a box")
    host = BoxHost(box)
    nu2 = IdemMeasure([(TropVector(("-2", "-1")), ZERO), (TropVector(("-1", "-2")), ZERO)])
    start = barycenter_point(nu2)
    print(f"{'depth':>5} {'target':>24} {'rho to center':>14} {'dist to nu':>11}")
    for depth in (6, 10, 14, 18):
        eps = Fraction(-1, 2**depth)
        target = TropVector([start[0] + eps, start[1] + 2 * eps])
        lifted = lift_beta(nu2, target, host)
        assert barycenter_point(lifted) == target
        gap = max(rho(target[0], start[0]), rho(target[1], start[1]))
        print(
            f"{depth:>5} {str(tuple(map(str, target.coords))):>24} "
            f"{gap:>14.3e} {measure_dist(lifted, nu2):>11.3e}"
        )
    assert lift_beta(nu2, start, host) == nu2
    print("the exact barycenter lifts to nu itself")


if __name__ == "__main__":
    main()
