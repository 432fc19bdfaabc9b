"""fiber-sweep: one operation is one cell of the merge-fiber lift.

A cell fixes (mu, a, params) on the 2-point space and a measure nu on
the 3-point space whose pushforward is combine(mu, a, params).  The op
builds nu, calls lift_merge_fiber and checks the three identities
pushforward(f, lam) == mu, pushforward(f, eta) == a and
combine(lam, eta, params) == nu.  Every CORRUPT_EVERY-th cell is followed
by a corrupted cell (one fiber weight lowered by 1/16) that must raise
Rejection.  The weights come from the 1/8 grid of the exhaustive verify
sweep; the seed picks which (mu, a, params) triples are used and in what
order.
"""

from __future__ import annotations

from fractions import Fraction

from tropibary import (
    ConvexParams,
    FiniteSpace,
    IdemMeasure,
    MergeMap,
    NEG_INF,
    Rejection,
    TropibaryError,
    ZERO,
    combine,
    lift_merge_fiber,
    odot,
    pushforward,
    sampling,
)

from common import NUDGE, fault_nudge, weights_text

# Percentile of op_tail_ms (see bench/README.md).
TAIL_PERCENTILE = 90.0

CELLS_PER_ROUND = 2000
CORRUPT_EVERY = 16


def build(seed, workdir):
    source, target = FiniteSpace(3), FiniteSpace(2)
    merge = MergeMap(source, target)
    f = merge.as_space_map()
    grid = sampling.weight_grid(lo=Fraction(-1))
    deep = sampling.weight_grid(lo=Fraction(-2))
    duos = sampling.normalized_pairs(grid)
    params_list = [ConvexParams(t, 0) for t in grid] + [ConvexParams(0, t) for t in grid if t != ZERO]
    triples = [(m, a, p) for m in range(len(duos)) for a in range(len(duos)) for p in range(len(params_list))]
    sampling.spawn(seed, "fiber-sweep").shuffle(triples)

    ops = []
    cells = 0
    for mi, ai, pi in triples:
        mu = IdemMeasure.from_weights(target, duos[mi])
        a = IdemMeasure.from_weights(target, duos[ai])
        params = params_list[pi]
        image = combine(mu, a, params)
        m = [image.weight_of(0), image.weight_of(1)]
        below = sorted(g for g in deep if g < m[1])
        pairs = [(m[1], m[1])] + [(m[1], v) for v in below] + [(v, m[1]) for v in below]
        for v1, v2 in pairs:
            ops.append(("cell", cell, (mu, a, params, (m[0], v1, v2), merge, f)))
            cells += 1
            if cells % CORRUPT_EVERY == 0:
                bad = [m[0], v1, v2]
                bad[1] = NUDGE if bad[1] == NEG_INF else odot(bad[1], NUDGE)
                try:
                    broken = IdemMeasure.from_weights(source, bad)
                except TropibaryError:
                    broken = None
                if broken is not None and pushforward(f, broken) != image:
                    ops.append(("corrupt", corrupt, (mu, a, params, tuple(bad), merge)))
            if cells == CELLS_PER_ROUND:
                break
        if cells == CELLS_PER_ROUND:
            break
    size = {
        "cells_per_round": cells,
        "corrupted_per_round": len(ops) - cells,
        "ops_per_round": len(ops),
        "spaces": "merge 3 -> 2 points",
        "weight_grid": "1/8 steps on [-1, 0] plus -inf; fiber weights on [-2, 0]",
    }
    return ops, size


def cell(tr, fault, mu, a, params, weights, merge, f):
    nu = tr.call("measures.from_weights", IdemMeasure.from_weights, merge.source, weights)
    tr.count("measures.atoms_built", nu.atom_count)
    lam, eta = tr.call("lifting.lift_merge_fiber", lift_merge_fiber, nu, mu, a, params, merge)
    if fault is not None:
        lam = fault_nudge(lam, fault)
    p_lam = tr.call("measures.pushforward", pushforward, f, lam)
    p_eta = tr.call("measures.pushforward", pushforward, f, eta)
    back = tr.call("measures.combine", combine, lam, eta, params)
    tr.count("measures.atoms_built", p_lam.atom_count + p_eta.atom_count + back.atom_count)
    ok = p_lam == mu and p_eta == a and back == nu
    return ok, "cell " + weights_text(lam) + " | " + weights_text(eta)


def corrupt(tr, fault, mu, a, params, weights, merge):
    nu = tr.call("measures.from_weights", IdemMeasure.from_weights, merge.source, weights)
    tr.count("measures.atoms_built", nu.atom_count)
    try:
        tr.call("lifting.lift_merge_fiber", lift_merge_fiber, nu, mu, a, params, merge)
    except Rejection as exc:
        return True, "corrupt rejected " + type(exc).__name__
    return False, "corrupt accepted"
