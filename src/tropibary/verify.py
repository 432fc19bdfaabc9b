"""Machine-checked verification suites.

Each suite re-runs one block of library invariants on seeded random (or
exhaustive) instances and reports rows instead of raising: a failed
check becomes a failing row with the first counterexample in its
detail.  The CLI `verify` subcommand and the acceptance tests both call
into this module, so there is exactly one source of truth for what
"verified" means.

A suite is a function decorated with `@suite(name)`.  It takes
`(rng, seed, knobs, tally)`: the suite's own random stream, the root
seed, the scale's knobs from `SCALES`, and `tally(case)`, which opens a
row counter.  It returns its rows.  The decorator registers the suite
in `SUITES`, in definition order, and turns a crash into one
`unexpected-error` row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .approximation import Cover, cover_approximation, cover_pieces, cover_reconstruction, refinement_sweep
from .barycenter import barycenter_point
from .core import NEG_INF, ZERO, ConvexParams, TropVector, _cmp, odot, oplus, s_point
from .errors import InexactWitness, Rejection, TropibaryError
from .geometry import (
    certify_id_oplus_not_open,
    certify_y_beta_not_open,
    extremal_points,
    y_polytope,
)
from .lifting import (
    BoxHost,
    brute_force_lift_s,
    lift_beta,
    lift_fiber_surjection,
    lift_s_box,
    lift_s_interval,
    lift_s_finite,
    recombine,
    witness_distance,
)
from .measures import (
    FiniteSpace,
    FunctionTable,
    IdemMeasure,
    SpaceMap,
    combine,
    measure_dist,
    pushforward,
)
from . import sampling
from .sampling import spawn

# Targets at depth j sit within e^(2^-j) - 1 of the image, and witnesses
# move no further than their target; at depth 20 this is below 1e-6.
def _final_bound(depth: int) -> float:
    return math.expm1(2.0**-depth) * (1 + 1e-9) + 1e-18


@dataclass(frozen=True)
class Row:
    suite: str
    case: str
    verdict: str  # "pass" or "fail"
    detail: str

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


SCALES = {
    "default": {
        "axioms": 1000,
        "naturality": 500,
        "affinity": 500,
        "lift_instances": 200,
        "lift_depth": 20,
        "oracle_instances": 40,
        "fiber_lo": Fraction(-1),
        "interval": 500,
        "box": 200,
        "beta": 100,
        "cover": 200,
        "ce_id_samples": 10000,
        "ce_y_samples": 10000,
    },
    "tiny": {
        "axioms": 60,
        "naturality": 40,
        "affinity": 40,
        "lift_instances": 12,
        "lift_depth": 12,
        "oracle_instances": 4,
        "fiber_lo": Fraction(-1, 2),
        "interval": 30,
        "box": 12,
        "beta": 8,
        "cover": 12,
        "ce_id_samples": 400,
        "ce_y_samples": 400,
    },
}


class _Tally:
    """Accumulates pass/fail counts for one row."""

    def __init__(self, suite: str, case: str):
        self.suite = suite
        self.case = case
        self.total = 0
        self.failed = 0
        self.first_failure = ""

    def check(self, ok: bool, detail: str = ""):
        self.total += 1
        if not ok:
            self.failed += 1
            if not self.first_failure:
                self.first_failure = detail

    def row(self) -> Row:
        if self.failed:
            return Row(
                self.suite,
                self.case,
                "fail",
                f"{self.failed}/{self.total} failed; first: {self.first_failure}",
            )
        return Row(self.suite, self.case, "pass", f"{self.total}/{self.total} exact")

    def verdict(self, ok: bool, detail: str) -> Row:
        """A one-check row whose detail reads the same pass or fail."""
        return Row(self.suite, self.case, "pass" if ok else "fail", detail)


SUITES: dict = {}


def suite(name: str):
    """Register the decorated body as the suite `name`; see the module
    docstring for the body's arguments."""

    def register(body):
        def run(seed: int, scale: str = "default") -> SuiteResult:
            try:
                rows = body(spawn(seed, name), seed, SCALES[scale], lambda case: _Tally(name, case))
            except Exception as exc:  # failures must surface as rows, not crashes
                rows = [Row(name, "unexpected-error", "fail", repr(exc))]
            return SuiteResult(name, tuple(rows))

        SUITES[name] = run
        return run

    return register


# -- suite: measure axioms ---------------------------------------------------


@suite("measures")
def suite_measures(rng, seed, knobs, tally) -> list:
    norm = tally("constant-normalization")
    shift = tally("shift-equivariance")
    madd = tally("max-additivity")
    for _ in range(knobs["axioms"]):
        space = sampling.random_space(rng, 6)
        mu = sampling.random_measure_on_space(rng, space)
        phi = sampling.random_function_table(rng, space)
        psi = sampling.random_function_table(rng, space)
        c = sampling.random_lattice(rng, Fraction(-2), Fraction(2))
        const = FunctionTable.constant(space, c)
        norm.check(mu(const) == c, f"mu(const {c}) = {mu(const)} on {mu!r}")
        lhs = mu(phi.shift(c))
        rhs = odot(c, mu(phi))
        shift.check(lhs == rhs, f"{lhs} != {rhs} for shift {c}")
        lhs = mu(phi.join(psi))
        rhs = oplus(mu(phi), mu(psi))
        madd.check(lhs == rhs, f"{lhs} != {rhs}")
    return [norm.row(), shift.row(), madd.row()]


# -- suite: pushforward naturality -------------------------------------------


@suite("naturality")
def suite_naturality(rng, seed, knobs, tally) -> list:
    commutes = tally("pushforward-commutes-with-combination")
    for _ in range(knobs["naturality"]):
        source = sampling.random_space(rng, 5)
        target = sampling.random_space(rng, 4)
        f = sampling.random_map(rng, source, target)
        first = sampling.random_measure_on_space(rng, source)
        second = sampling.random_measure_on_space(rng, source)
        params = sampling.random_params(rng)
        lhs = pushforward(f, combine(first, second, params))
        rhs = combine(pushforward(f, first), pushforward(f, second), params)
        commutes.check(lhs == rhs, f"{lhs!r} != {rhs!r}")
    return [commutes.row()]


# -- suite: barycenter affinity ----------------------------------------------


@suite("affinity")
def suite_affinity(rng, seed, knobs, tally) -> list:
    box = sampling.standard_box(2)
    binary = tally("barycenter-of-combination")
    nary = tally("barycenter-of-weighted-join")
    for _ in range(knobs["affinity"]):
        mu = sampling.random_point_measure(rng, box)
        nu = sampling.random_point_measure(rng, box)
        params = sampling.random_params(rng)
        lhs = barycenter_point(combine(mu, nu, params))
        rhs = s_point(barycenter_point(mu), barycenter_point(nu), params)
        binary.check(lhs == rhs, f"{lhs!r} != {rhs!r}")
    for _ in range(knobs["affinity"]):
        k = rng.randint(1, 4)
        parts = [sampling.random_point_measure(rng, box) for _ in range(k)]
        lams = sampling.random_weights(rng, k, bottom_rate=0.1)
        joined = IdemMeasure(
            [(a, odot(l, w)) for l, part in zip(lams, parts) for a, w in part.atoms]
        )
        lhs = barycenter_point(joined)
        rhs = TropVector(
            [
                max(odot(l, barycenter_point(p)[j]) for l, p in zip(lams, parts))
                for j in range(2)
            ]
        )
        nary.check(lhs == rhs, f"{lhs!r} != {rhs!r}")
    return [binary.row(), nary.row()]


# -- suite: combination lift on finite spaces ---------------------------------


@suite("combination-lift")
def suite_combination_lift(rng, seed, knobs, tally) -> list:
    identity = tally("identity-at-exact-target")
    accepted = tally("perturbed-targets-accepted")
    exact = tally("witness-recombines-exactly")
    final = tally("final-witness-distance-vanishes")
    oracle = tally("oracle-confirms-witness-exists")
    bound = _final_bound(knobs["lift_depth"])
    oracle_budget = knobs["oracle_instances"]
    for _ in range(knobs["lift_instances"]):
        space = sampling.random_space(rng, 5)
        first = sampling.random_measure_on_space(rng, space)
        second = sampling.random_measure_on_space(rng, space)
        params = sampling.random_params(rng)
        image = combine(first, second, params)
        w = lift_s_finite(first, second, params, image)
        identity.check(
            w.lifted_first == first and w.lifted_second == second and w.params == params,
            f"branch {w.case_tag} moved an exactly-hit input",
        )
        last_dist = None
        for j in range(1, knobs["lift_depth"] + 1):
            target = sampling.perturb_weights_toward_zero(
                rng, image, sampling.dyadic_delta(j)
            )
            try:
                w = lift_s_finite(first, second, params, target)
            except Rejection as exc:
                accepted.check(False, f"depth {j}: {exc}")
                continue
            accepted.check(True)
            got = combine(w.lifted_first, w.lifted_second, w.params)
            exact.check(got == target, f"depth {j}: {got!r} != {target!r}")
            last_dist = witness_distance(w, first, second, params)
        if last_dist is not None:
            final.check(
                last_dist <= bound,
                f"final witness distance {last_dist} exceeds {bound:.3g}",
            )
        if space.n <= 3 and oracle_budget > 0:
            oracle_budget -= 1
            target = sampling.perturb_weights_toward_zero(rng, image, Fraction(1, 64))
            try:
                lift_s_finite(first, second, params, target)
            except Rejection:
                continue
            found = brute_force_lift_s(first, second, params, target, mode="exists")
            oracle.check(
                found is not None,
                f"constructive lift succeeded but oracle found nothing for {target!r}",
            )
    return [identity.row(), accepted.row(), exact.row(), final.row(), oracle.row()]


# -- suite: fiber lift over the merge of two points ---------------------------


@suite("fiber")
def suite_fiber(rng, seed, knobs, tally) -> list:
    """Every cell of the weight grid.  The sweep is exhaustive, so the
    seed is irrelevant here.  The map merges the last two of three points;
    `lift_fiber_surjection` certifies the three identities (both
    pushforwards and the recombination) itself, so the identities row
    counts the cells that passed that gate."""
    source, target = FiniteSpace(3), FiniteSpace(2)
    f = SpaceMap(source, target, [0, 1, 1])
    grid = sampling.weight_grid(lo=knobs["fiber_lo"])
    deep_grid = sampling.weight_grid(lo=2 * knobs["fiber_lo"])
    duos = sampling.normalized_pairs(grid)
    params_list = [ConvexParams(t, 0) for t in grid] + [
        ConvexParams(0, t) for t in grid if t != ZERO
    ]
    consistent = tally("consistent-cells-accepted")
    identities = tally("all-three-exactness-identities")
    rejects = tally("corrupted-cells-rejected")
    cells = 0
    for mu_w in duos:
        mu = IdemMeasure.from_weights(target, mu_w)
        for a_w in duos:
            a = IdemMeasure.from_weights(target, a_w)
            for params in params_list:
                image = combine(mu, a, params)
                m = image.density()
                # deep_grid ascends, so this is the sorted grid below m[1]
                below = [g for g in deep_grid if _cmp(g, m[1]) < 0]
                pairs = [(m[1], v) for v in below] + [(m[1], m[1])] + [(v, m[1]) for v in below]
                for v1, v2 in pairs:
                    nu = IdemMeasure.from_weights(source, [m[0], v1, v2])
                    cells += 1
                    try:
                        lift_fiber_surjection(nu, mu, a, params, f)
                    except Rejection as exc:
                        consistent.check(False, f"cell {cells}: {exc}")
                        continue
                    except InexactWitness as exc:
                        identities.check(False, f"cell {cells}: {exc}")
                    else:
                        identities.check(True)
                    consistent.check(True)
                    if cells % 50 == 0:
                        bad = [m[0], v1, v2]
                        bad[1] = odot(bad[1], Fraction(-1, 16)) if bad[1] is not NEG_INF else Fraction(-1, 16)
                        try:
                            broken = IdemMeasure.from_weights(source, bad)
                        except TropibaryError:
                            continue
                        if pushforward(f, broken) == image:
                            continue
                        try:
                            lift_fiber_surjection(broken, mu, a, params, f)
                            rejects.check(False, f"cell {cells} accepted a corrupted fiber")
                        except Rejection:
                            rejects.check(True)
    return [consistent.row(), identities.row(), rejects.row()]


# -- suite: interval and box lifts -------------------------------------------


def _first_accepted(candidates, lift):
    """The first of `candidates` that `lift` accepts, with its witness,
    or None if it refuses them all."""
    for cand in candidates:
        try:
            return cand, lift(cand)
        except Rejection:
            continue
    return None


def _lift_on_interval(x, y, params, target, box):
    return lift_s_interval(x, y, params, target, box.interval(0))


@suite("point-lifts")
def suite_point_lifts(rng, seed, knobs, tally) -> list:
    """The interval lift on the scalar line and the box lift in the plane;
    `coords` reads a sampled point in the lift's own terms."""
    rows = []
    bound = _final_bound(knobs["lift_depth"])
    kinds = (
        ("interval", knobs["interval"], 1, itemgetter(0), _lift_on_interval),
        ("box", knobs["box"], 2, lambda v: v, lift_s_box),
    )
    for kind, count, dim, coords, lift in kinds:
        params_kept = tally(f"{kind}-params-returned-unchanged")
        exact = tally(f"{kind}-witness-hits-target")
        final = tally(f"{kind}-final-witness-distance-vanishes")
        for _ in range(count):
            box = sampling.random_box(rng, dim)
            x = sampling.random_point(rng, box)
            y = sampling.random_point(rng, box)
            params = sampling.random_params(rng, bottom_rate=0.0)
            image = s_point(x, y, params)
            first, second = coords(x), coords(y)
            last = None
            for j in range(1, knobs["lift_depth"] + 1):
                targets = sampling.lattice_targets_near(image, box, sampling.dyadic_delta(j))
                picked = _first_accepted(targets, lambda c: lift(first, second, params, coords(c), box))
                if picked is None:
                    exact.check(False, f"no target near depth {j} accepted")
                    continue
                target, w = coords(picked[0]), picked[1]
                params_kept.check(w.params == params, f"params moved to {w.params!r}")
                exact.check(
                    recombine(w.lifted_first, w.lifted_second, w.params) == target,
                    f"depth {j} witness missed its target",
                )
                last = witness_distance(w, first, second, params)
            if last is not None:
                final.check(last <= bound, f"final distance {last} exceeds {bound:.3g}")
        rows += [params_kept.row(), exact.row(), final.row()]
    return rows


# -- suite: barycenter lift ---------------------------------------------------


def _barycenter_lift_rows(host, rng, knobs, tally) -> list:
    """`lift_beta` at targets the host proposes near the barycenters of
    measures it samples; witnesses are measured by `measure_dist`."""
    exact = tally("lifted-measure-hits-target")
    near = tally("near-target-accepted")
    shrink = tally("witness-distance-shrinks-to-zero")
    for _ in range(knobs["beta"]):
        nu = host.sample(rng)
        center = host.bary(nu)
        picked = _first_accepted(host.near(center, Fraction(1, 128)), lambda c: lift_beta(nu, c, host))
        near.check(picked is not None, f"no target near {center!r} accepted")
        if picked is None:
            continue
        cand, out = picked
        exact.check(host.bary(out) == cand, f"{host.bary(out)!r} != {cand!r}")
        dists = []
        for j in range(7, knobs["lift_depth"] + 1):
            found = _first_accepted(host.near(center, Fraction(1, 2**j)), lambda c: lift_beta(nu, c, host))
            if found is None:
                shrink.check(False, f"depth {j}: nothing accepted")
                break
            cand_j, got = found
            exact.check(host.bary(got) == cand_j, f"depth {j}: witness barycenter missed")
            dists.append(measure_dist(got, nu))
        if dists:
            shrink.check(
                dists[-1] <= _final_bound(knobs["lift_depth"])
                and dists[-1] <= dists[0] + 1e-12,
                f"distances {dists[0]:.3g} -> {dists[-1]:.3g}",
            )
    return [near.row(), exact.row(), shrink.row()]


@suite("barycenter-lift")
def suite_barycenter_lift(rng, seed, knobs, tally) -> list:
    return _barycenter_lift_rows(BoxHost(sampling.standard_box(2)), rng, knobs, tally)


# -- suite: cover approximation ----------------------------------------------


@suite("cover")
def suite_cover(rng, seed, knobs, tally) -> list:
    box = sampling.standard_box(2)
    preserved = tally("barycenter-preserved-exactly")
    rebuilt = tally("weighted-conditionals-rebuild-measure")
    chain_rows = tally("refinement-chain-reaches-zero")
    for _ in range(knobs["cover"]):
        mu = sampling.random_point_measure(rng, box, k_max=5)
        choice = rng.randrange(4)
        if choice == 3:
            cover = Cover.singletons(mu)
        else:
            cover = Cover.grid(box, 2**choice)
        nu = cover_approximation(mu, cover)
        preserved.check(
            barycenter_point(nu) == barycenter_point(mu),
            f"{barycenter_point(nu)!r} != {barycenter_point(mu)!r}",
        )
        pieces = cover_pieces(mu, cover)
        rebuilt.check(cover_reconstruction(pieces) == mu, f"{cover!r}")
        if rng.random() < 0.25:
            chain = [Cover.grid(box, 1), Cover.grid(box, 2), Cover.grid(box, 4), Cover.singletons(mu)]
            rows = refinement_sweep(mu, chain)
            monotone = all(
                rows[k + 1][1] <= 2 * rows[k][1] + 1e-12 for k in range(len(rows) - 1)
            )
            chain_rows.check(
                monotone and rows[-1][1] == 0.0,
                f"distances {[f'{d:.3g}' for _, d in rows]}",
            )
    return [preserved.row(), rebuilt.row(), chain_rows.row()]


# -- suites: the two obstruction certificates ---------------------------------


@suite("counterexample-id")
def suite_counterexample_id(rng, seed, knobs, tally) -> list:
    rows = []
    for i in (1, 2, 4, 8):
        cert = certify_id_oplus_not_open(i, samples=knobs["ce_id_samples"], seed=seed)
        splits = f"{cert.data['obstructed']} splits all evaluate to 1"
        rows += [
            tally(f"splits-obstructed-i={i}").verdict(cert.verdict, splits),
            tally(f"certificate-replays-i={i}").verdict(cert.recheck(), f"digest {cert.data['digest'][:12]}"),
        ]
    return rows


@suite("counterexample-bary")
def suite_counterexample_bary(rng, seed, knobs, tally) -> list:
    ext = extremal_points(y_polytope(), samples=200, seed=seed)
    expected = {TropVector([-2, -1]), TropVector([-1, -2]), TropVector([0, 0])}
    rows = [tally("extremal-points-exact").verdict(set(ext) == expected, f"ext = {sorted(map(repr, ext))}")]
    for i in (2, 4, 8):
        cert = certify_y_beta_not_open(i, samples=knobs["ce_y_samples"], seed=seed)
        gap = f"gap >= {cert.data['gap']}, {cert.data['feasible']} feasible samples"
        rows += [
            tally(f"evaluation-gap-i={i}").verdict(cert.verdict, gap),
            tally(f"certificate-replays-i={i}").verdict(cert.recheck(), f"digest {cert.data['digest'][:12]}"),
        ]
    return rows


def run_suite(name: str, seed: int = 7, scale: str = "default") -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    return SUITES[name](seed, scale)


def run_all(seed: int = 7, scale: str = "default") -> list[SuiteResult]:
    return [run_suite(name, seed, scale) for name in SUITES]
