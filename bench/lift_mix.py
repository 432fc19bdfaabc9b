"""lift-mix: one operation is one lift call on one target, followed by the
benchmark's exactness check and `witness_distance`.

The round repeats a fixed block of BLOCK slots, so every round and every
seed sees the same mix of lifts; the seed draws the instances.  Targets
move away from the image in both directions at dyadic depths, so a real
share is refused with OutsideValidityRegion.  Refusals count as passes
except where the paper's construction must succeed: the exact image
(which must also come back unchanged) and, for lift_s_finite, targets
moved only toward 0.  Two slots per block also ask a brute-force oracle
on a small instance, which must find a witness whenever the
constructive lift found one.
"""

from __future__ import annotations

import itertools

from tropibary import (
    BoxHost,
    FiniteSpace,
    IdemMeasure,
    NEG_INF,
    Rejection,
    barycenter_point,
    brute_force_lift_interval,
    brute_force_lift_s,
    combine,
    lift_beta,
    lift_s_box,
    lift_s_finite,
    lift_s_interval,
    measure_dist,
    odot,
    oplus,
    s_point,
    sampling,
    scalar,
    witness_distance,
)

from common import fault_nudge, point_measure, point_text, weights_text, witness_text

# Percentile of op_tail_ms (see bench/README.md).
TAIL_PERCENTILE = 99.0

# One block of slots; the round is BLOCKS copies with fresh instances.
BLOCK = (
    "finite:exact", "interval", "finite:up", "beta", "box", "finite:two",
    "finite:up", "interval", "finite:two", "finite:up", "oracle:finite", "box",
    "finite:two", "beta", "finite:up", "interval", "box", "finite:two",
    "finite:exact", "oracle:interval",
)
BLOCKS = 40
MAX_DEPTH = 20
# Two-sided finite targets move by up to 2^(1-j) at depth j <= this;
# deeper moves are almost never refused.
TWO_SIDED_DEPTH = 3


def _perturb_two_sided(rng, mu, delta):
    """Move weights, zeros included, up or down by dyadic shares of delta
    and renormalize; an atom missing from the image may appear at weight
    -2.  Unlike the one-sided sampler there is no lattice-gap cap, so far
    moves leave the lift's validity region and some targets are refused."""
    pairs = []
    for atom in range(mu.space.n):
        w = mu.weight_of(atom)
        if w == NEG_INF:
            if rng.random() < 0.5:
                w = scalar(-2)
        else:
            amount = delta * rng.randint(1, 8) / 4
            w = odot(w, scalar(amount if rng.random() < 0.5 else -amount))
        pairs.append((atom, w))
    return IdemMeasure(pairs, space=mu.space, renormalize=True)


def _finite_instance(rng, n, mode):
    space = FiniteSpace(n)
    first = sampling.random_measure_on_space(rng, space)
    second = sampling.random_measure_on_space(rng, space)
    params = sampling.random_params(rng)
    image = combine(first, second, params)
    if mode == "exact":
        target = image
    elif mode == "up":
        target = sampling.perturb_weights_toward_zero(rng, image, sampling.dyadic_delta(rng.randint(1, MAX_DEPTH)))
    else:
        target = _perturb_two_sided(rng, image, sampling.dyadic_delta(rng.randint(0, TWO_SIDED_DEPTH)))
    return first, second, params, target


def _point_instance(rng, dim):
    box = sampling.random_box(rng, dim)
    x = sampling.random_point(rng, box)
    y = sampling.random_point(rng, box)
    params = sampling.random_params(rng, bottom_rate=0.0)
    image = s_point(x, y, params)
    delta = sampling.dyadic_delta(rng.randint(1, MAX_DEPTH))
    target = rng.choice(sampling.lattice_targets_near(image, box, delta))
    return box, x, y, params, target, target == image


def _beta_instance(rng, k):
    box = sampling.standard_box(2)
    nu = point_measure(rng, box, k)
    center = barycenter_point(nu)
    delta = sampling.dyadic_delta(rng.randint(3, MAX_DEPTH))
    target = rng.choice(sampling.lattice_targets_near(center, box, delta))
    return nu, target, BoxHost(box), target == center


def build(seed, workdir):
    rng = sampling.spawn(seed, "lift-mix")
    # Instance sizes cycle through their ranges, so the cost mix of a
    # round is the same for every seed; the seed draws the contents.
    finite_n = itertools.cycle(range(1, 7))
    oracle_n = itertools.cycle(range(1, 4))
    box_dim = itertools.cycle((2, 3))
    beta_k = itertools.cycle(range(2, 9))
    ops = []
    for _ in range(BLOCKS):
        for slot in BLOCK:
            if slot.startswith("finite:"):
                mode = slot.split(":")[1]
                ops.append((slot, finite, _finite_instance(rng, next(finite_n), mode) + (mode, False)))
            elif slot == "oracle:finite":
                ops.append((slot, finite, _finite_instance(rng, next(oracle_n), "up") + ("up", True)))
            elif slot in ("interval", "oracle:interval"):
                box, x, y, params, target, exact = _point_instance(rng, 1)
                ops.append((slot, interval, (x[0], y[0], params, target[0], box.interval(0), exact, slot != "interval")))
            elif slot == "box":
                box, x, y, params, target, exact = _point_instance(rng, next(box_dim))
                ops.append((slot, box_lift, (x, y, params, target, box, exact)))
            else:
                ops.append((slot, beta, _beta_instance(rng, next(beta_k))))
    size = {
        "ops_per_round": len(ops),
        "block": list(BLOCK),
        "finite_space_points": "1-6 in turn (oracle: 1-3)",
        "box_dims": "1 (interval), 2 and 3 in turn (box)",
        "beta_atoms": "2-8 in turn, in [-2, 0]^2",
        "target_depths": f"2^-1 .. 2^-{MAX_DEPTH}, both directions",
    }
    return ops, size


def _refused(tr, exc, must_accept):
    tr.count("lifting.attempted")
    return not must_accept, "rejected " + type(exc).__name__


def _accepted(tr):
    tr.count("lifting.attempted")
    tr.count("lifting.accepted")


def finite(tr, fault, first, second, params, target, mode, oracle):
    must_accept = mode in ("exact", "up")
    try:
        w = tr.call("lifting.lift_s_finite", lift_s_finite, first, second, params, target)
    except Rejection as exc:
        return _refused(tr, exc, must_accept)
    _accepted(tr)
    lifted_first = w.lifted_first if fault is None else fault_nudge(w.lifted_first, fault)
    back = tr.call("measures.combine", combine, lifted_first, w.lifted_second, w.params)
    tr.count("measures.atoms_built", back.atom_count)
    tr.call("lifting.witness_distance", witness_distance, w, first, second, params)
    ok = back == target
    if mode == "exact":
        ok = ok and w.lifted_first == first and w.lifted_second == second and w.params == params
    text = witness_text(lifted_first, w.lifted_second, w.params, w.case_tag)
    if oracle:
        ok_o, text_o = _oracle(tr, brute_force_lift_s, first, second, params, target, mode="exists")
        ok, text = ok and ok_o, text + text_o
    return ok, text


def _oracle(tr, fn, *args, **kwargs):
    found = tr.call("lifting.oracle", fn, *args, **kwargs)
    tr.count("lifting.oracle.tried")
    if found is None:
        return False, " oracle none"
    tr.count("lifting.oracle.found")
    return True, " oracle found"


def interval(tr, fault, x, y, params, target, bounds, exact, oracle):
    try:
        w = tr.call("lifting.lift_s_interval", lift_s_interval, x, y, params, target, bounds)
    except Rejection as exc:
        return _refused(tr, exc, exact)
    _accepted(tr)
    left = tr.call("core.scalar", odot, w.params.t, w.lifted_first)
    right = tr.call("core.scalar", odot, w.params.p, w.lifted_second)
    ok = tr.call("core.scalar", oplus, left, right) == target
    tr.call("lifting.witness_distance", witness_distance, w, x, y, params)
    text = witness_text(w.lifted_first, w.lifted_second, w.params, w.case_tag)
    if oracle:
        ok_o, text_o = _oracle(tr, brute_force_lift_interval, x, y, params, target, bounds, mode="exists")
        ok, text = ok and ok_o, text + text_o
    return ok, text


def box_lift(tr, fault, x, y, params, target, box, exact):
    try:
        w = tr.call("lifting.lift_s_box", lift_s_box, x, y, params, target, box)
    except Rejection as exc:
        return _refused(tr, exc, exact)
    _accepted(tr)
    ok = tr.call("core.s_point", s_point, w.lifted_first, w.lifted_second, w.params) == target
    tr.call("lifting.witness_distance", witness_distance, w, x, y, params)
    return ok, witness_text(w.lifted_first, w.lifted_second, w.params, w.case_tag)


def beta(tr, fault, nu, target, host, exact):
    try:
        out = tr.call("lifting.lift_beta", lift_beta, nu, target, host)
    except Rejection as exc:
        return _refused(tr, exc, exact)
    _accepted(tr)
    ok = tr.call("barycenter.barycenter_point", barycenter_point, out) == target
    tr.call("measures.measure_dist", measure_dist, out, nu)
    return ok, "beta " + point_text(target) + " " + weights_text(out)
