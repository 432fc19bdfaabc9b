"""Helpers shared by the workloads: seeded point measures, canonical
renderings of outputs, and the fault used by the self-test.

A rendering uses only `str` of exact scalars, atom positions, case tags
and exception class names, so it changes only when an answer changes,
never with the library's internal representation.
"""

from __future__ import annotations

from fractions import Fraction

from tropibary import NEG_INF, ZERO, IdemMeasure, TropVector, odot, sampling, scalar

NUDGE = scalar(Fraction(-1, 16))


def point_measure(rng, box, k):
    """k distinct lattice points of the box with normalized lattice weights."""
    points = []
    while len(points) < k:
        p = sampling.random_point(rng, box)
        if p not in points:
            points.append(p)
    return IdemMeasure(list(zip(points, sampling.random_weights(rng, k, bottom_rate=0.0))))


def point_text(p):
    return "(" + " ".join(str(c) for c in p) + ")"


def atom_text(atom):
    return point_text(atom) if isinstance(atom, TropVector) else str(atom)


def weights_text(mu):
    return ",".join(f"{atom_text(a)}:{w}" for a, w in mu.atoms)


def params_text(params):
    return f"[{params.t},{params.p}]"


def witness_text(first, second, params, tag):
    def one(x):
        if isinstance(x, IdemMeasure):
            return weights_text(x)
        if isinstance(x, TropVector):
            return point_text(x)
        return str(x)

    return f"{tag} {one(first)} | {one(second)} {params_text(params)}"


class Fault:
    """Self-test switch: when an op receives one, it passes its witness
    measure through `fault_nudge` before checking it; `nudged` counts the
    witnesses actually changed."""

    def __init__(self):
        self.nudged = 0


def fault_nudge(mu, fault):
    """mu with one weight lowered by 1/16, still normalized.

    The lowest negative weight moves; with every weight at 0, the last
    of several atoms moves.  A one-atom measure at 0 has no such weight
    and is returned unchanged.
    """
    atoms = list(mu.atoms)
    neg = [k for k, (_, w) in enumerate(atoms) if NEG_INF < w < ZERO]
    if neg:
        k = min(neg, key=lambda j: atoms[j][1])
    elif len(atoms) > 1:
        k = len(atoms) - 1
    else:
        return mu
    atom, w = atoms[k]
    atoms[k] = (atom, odot(w, NUDGE))
    fault.nudged += 1
    return IdemMeasure(atoms, space=mu.space)
