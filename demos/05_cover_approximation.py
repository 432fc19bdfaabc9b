#!/usr/bin/env python3
"""Approximating a measure through a cover: atoms inside one element
collapse to their conditional barycenter, the total barycenter is
preserved exactly, and refining the cover drives the error to zero."""

from tropibary.approximation import (
    Cover,
    cover_approximation,
    cover_pieces,
    cover_reconstruction,
    refinement_sweep,
)
from tropibary.barycenter import barycenter_point
from tropibary.core import TropVector, scalar
from tropibary.geometry import Box
from tropibary.measures import IdemMeasure


def section(title):
    print()
    print(title)
    print("-" * len(title))


def pm(*pairs):
    return IdemMeasure([(TropVector(coords), scalar(w)) for coords, w in pairs])


def box(lo, hi):
    return Box(TropVector(lo), TropVector(hi))


def halves():
    return Cover([box(("-2", "-2"), ("-1", "0")), box(("-1", "-2"), ("0", "0"))])


def singletons(mu):
    return Cover([Box(p, p) for p, _ in mu.atoms])


def main():
    mu = pm(
        (("-2", "-1"), "0"),
        (("-3/2", "-3/4"), "-1/4"),
        (("-1/2", "-1/2"), "-1/2"),
        (("-1/4", "-1"), "-1"),
    )

    section("Conditional pieces of a two-element cover")
    for piece in cover_pieces(mu, halves()):
        print(
            f"element {piece.element_index}: weight {piece.weight}, "
            f"conditional barycenter {tuple(map(str, piece.point.coords))}"
        )

    section("The approximation keeps the barycenter exactly")
    nu = cover_approximation(mu, halves())
    print("approximation:", [(tuple(map(str, p.coords)), str(w)) for p, w in nu.atoms])
    print("barycenter(mu) =", barycenter_point(mu))
    print("barycenter(nu) =", barycenter_point(nu))
    assert barycenter_point(mu) == barycenter_point(nu)

    section("Reconstruction from pieces gives back the original measure")
    assert cover_reconstruction(cover_pieces(mu, halves())) == mu
    print("weighted conditionals recombine to mu exactly")

    section("A refining chain of covers shrinks the distance to zero")
    # the collapse preserves every max-plus affine evaluation, so only
    # non-affine tests (pairwise min) can see it; this measure has one
    # min-crossing pair per scale
    crossing = pm(
        (("-7/4", "-1/8"), "0"),
        (("-1/8", "-7/4"), "0"),
        (("-7/8", "-9/16"), "-1/16"),
        (("-9/16", "-7/8"), "-1/16"),
    )
    square = box(("-2", "-2"), ("0", "0"))
    chain = [Cover.grid(square, 1), Cover.grid(square, 2), singletons(crossing)]
    rows = refinement_sweep(crossing, chain)
    for k, dist in rows:
        label = ("whole box", "2x2 grid", "one box per atom")[k]
        print(f"  cover {k} ({label:>16}): dist = {dist:.6f}")
    assert rows[0][1] > rows[1][1] > rows[2][1] == 0.0
    print("distances strictly decrease and end at exactly 0")


if __name__ == "__main__":
    main()
