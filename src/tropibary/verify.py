"""Machine-checked verification suites.

Each suite re-runs one block of library invariants on seeded random (or
exhaustive) instances and reports rows instead of raising: a failed
check becomes a failing row with the first counterexample in its
detail.  The CLI `verify` subcommand and the acceptance tests both call
into this module, so there is exactly one source of truth for what
"verified" means.

`set_tamper` installs an intentional fault in the combination step used
by the affinity checks; the suite must then fail, which is how the test
suite convinces itself the runner can actually detect regressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .approximation import Cover, cover_approximation, cover_pieces, cover_reconstruction, refinement_sweep
from .barycenter import barycenter_point
from .core import NEG_INF, ZERO, ConvexParams, TropVector, odot, oplus, s_point
from .errors import Rejection, TropibaryError
from .geometry import (
    certify_id_oplus_not_open,
    certify_y_beta_not_open,
    extremal_points,
    y_polytope,
)
from .lifting import (
    BoxHost,
    MergeMap,
    brute_force_lift_s,
    lift_beta,
    lift_merge_fiber,
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

# Mutation-testing hook: when set, the combination used by the affinity
# suite is deliberately wrong and the suite must notice.
_TAMPER = {"mode": None}


def set_tamper(mode: Optional[str]):
    _TAMPER["mode"] = mode


def clear_tamper():
    _TAMPER["mode"] = None


def _combine(first: IdemMeasure, second: IdemMeasure, params: ConvexParams) -> IdemMeasure:
    if _TAMPER["mode"] == "swap-params":
        return combine(first, second, params.swapped())
    return combine(first, second, params)


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


def _guard(suite: str, fn: Callable[[], list]) -> list:
    try:
        return fn()
    except Exception as exc:  # failures must surface as rows, not crashes
        return [Row(suite, "unexpected-error", "fail", repr(exc))]


# -- suite: measure axioms ---------------------------------------------------


def suite_measures(seed: int, scale: str = "default") -> SuiteResult:
    knobs = SCALES[scale]

    def body():
        rng = spawn(seed, "measures")
        norm = _Tally("measures", "constant-normalization")
        shift = _Tally("measures", "shift-equivariance")
        madd = _Tally("measures", "max-additivity")
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

    return SuiteResult("measures", tuple(_guard("measures", body)))


# -- suite: pushforward naturality -------------------------------------------


def suite_naturality(seed: int, scale: str = "default") -> SuiteResult:
    knobs = SCALES[scale]

    def body():
        rng = spawn(seed, "naturality")
        tally = _Tally("naturality", "pushforward-commutes-with-combination")
        for _ in range(knobs["naturality"]):
            source = sampling.random_space(rng, 5)
            target = sampling.random_space(rng, 4)
            f = sampling.random_map(rng, source, target)
            first = sampling.random_measure_on_space(rng, source)
            second = sampling.random_measure_on_space(rng, source)
            params = sampling.random_params(rng)
            lhs = pushforward(f, _combine(first, second, params))
            rhs = combine(pushforward(f, first), pushforward(f, second), params)
            tally.check(lhs == rhs, f"{lhs!r} != {rhs!r}")
        return [tally.row()]

    return SuiteResult("naturality", tuple(_guard("naturality", body)))


# -- suite: barycenter affinity ----------------------------------------------


def suite_affinity(seed: int, scale: str = "default") -> SuiteResult:
    knobs = SCALES[scale]
    box = sampling.standard_box(2)

    def body():
        rng = spawn(seed, "affinity")
        binary = _Tally("affinity", "barycenter-of-combination")
        nary = _Tally("affinity", "barycenter-of-weighted-join")
        for _ in range(knobs["affinity"]):
            mu = sampling.random_point_measure(rng, box)
            nu = sampling.random_point_measure(rng, box)
            params = sampling.random_params(rng)
            lhs = barycenter_point(_combine(mu, nu, params))
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

    return SuiteResult("affinity", tuple(_guard("affinity", body)))


# -- suite: combination lift on finite spaces ---------------------------------


def suite_combination_lift(seed: int, scale: str = "default") -> SuiteResult:
    knobs = SCALES[scale]

    def body():
        rng = spawn(seed, "combination-lift")
        identity = _Tally("combination-lift", "identity-at-exact-target")
        accepted = _Tally("combination-lift", "perturbed-targets-accepted")
        exact = _Tally("combination-lift", "witness-recombines-exactly")
        final = _Tally("combination-lift", "final-witness-distance-vanishes")
        oracle = _Tally("combination-lift", "oracle-confirms-witness-exists")
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

    return SuiteResult("combination-lift", tuple(_guard("combination-lift", body)))


# -- suite: fiber lift over the merge of two points ---------------------------


def suite_fiber(seed: int, scale: str = "default") -> SuiteResult:
    knobs = SCALES[scale]

    def body():
        # The sweep is exhaustive, so the seed is irrelevant here.
        source, target = FiniteSpace(3), FiniteSpace(2)
        merge = MergeMap(source, target)
        f = merge.as_space_map()
        grid = sampling.weight_grid(lo=knobs["fiber_lo"])
        deep_grid = sampling.weight_grid(lo=2 * knobs["fiber_lo"])
        duos = sampling.normalized_pairs(grid)
        params_list = [ConvexParams(t, 0) for t in grid] + [
            ConvexParams(0, t) for t in grid if t != ZERO
        ]
        consistent = _Tally("fiber", "consistent-cells-accepted")
        identities = _Tally("fiber", "all-three-exactness-identities")
        rejects = _Tally("fiber", "corrupted-cells-rejected")
        cells = 0
        for mu_w in duos:
            mu = IdemMeasure.from_weights(target, mu_w)
            for a_w in duos:
                a = IdemMeasure.from_weights(target, a_w)
                for params in params_list:
                    image = combine(mu, a, params)
                    m = image.density()
                    fiber_vals = {m[1]} | {g for g in deep_grid if g < m[1]}
                    pairs = [(m[1], v) for v in sorted(fiber_vals)]
                    pairs += [(v, m[1]) for v in sorted(fiber_vals) if v != m[1]]
                    for v1, v2 in pairs:
                        nu = IdemMeasure.from_weights(source, [m[0], v1, v2])
                        cells += 1
                        try:
                            lam, eta = lift_merge_fiber(nu, mu, a, params, merge)
                        except Rejection as exc:
                            consistent.check(False, f"cell {cells}: {exc}")
                            continue
                        consistent.check(True)
                        identities.check(
                            pushforward(f, lam) == mu
                            and pushforward(f, eta) == a
                            and combine(lam, eta, params) == nu,
                            f"cell {cells}",
                        )
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
                                lift_merge_fiber(broken, mu, a, params, merge)
                                rejects.check(False, f"cell {cells} accepted a corrupted fiber")
                            except Rejection:
                                rejects.check(True)
        return [consistent.row(), identities.row(), rejects.row()]

    return SuiteResult("fiber", tuple(_guard("fiber", body)))


# -- suite: interval and box lifts -------------------------------------------


def suite_point_lifts(seed: int, scale: str = "default") -> SuiteResult:
    knobs = SCALES[scale]

    def body():
        rng = spawn(seed, "point-lifts")
        rows = []
        bound = _final_bound(knobs["lift_depth"])
        for kind, count, dim in (("interval", knobs["interval"], 1), ("box", knobs["box"], 2)):
            params_kept = _Tally("point-lifts", f"{kind}-params-returned-unchanged")
            exact = _Tally("point-lifts", f"{kind}-witness-hits-target")
            final = _Tally("point-lifts", f"{kind}-final-witness-distance-vanishes")
            for _ in range(count):
                box = sampling.random_box(rng, dim)
                x = sampling.random_point(rng, box)
                y = sampling.random_point(rng, box)
                params = sampling.random_params(rng, bottom_rate=0.0)
                image = s_point(x, y, params)
                first, second = (x[0], y[0]) if dim == 1 else (x, y)
                last = None
                for j in range(1, knobs["lift_depth"] + 1):
                    w = None
                    for cand in sampling.lattice_targets_near(image, box, sampling.dyadic_delta(j)):
                        try:
                            if dim == 1:
                                target = cand[0]
                                w = lift_s_interval(first, second, params, target, box.interval(0))
                            else:
                                target = cand
                                w = lift_s_box(first, second, params, target, box)
                            break
                        except Rejection:
                            w = None
                    if w is None:
                        exact.check(False, f"no target near depth {j} accepted")
                        continue
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

    return SuiteResult("point-lifts", tuple(_guard("point-lifts", body)))


# -- suite: barycenter lift ---------------------------------------------------


def suite_barycenter_lift(seed: int, scale: str = "default") -> SuiteResult:
    knobs = SCALES[scale]
    box = sampling.standard_box(2)
    host = BoxHost(box)

    def body():
        rng = spawn(seed, "barycenter-lift")
        exact = _Tally("barycenter-lift", "lifted-measure-hits-target")
        near = _Tally("barycenter-lift", "near-target-accepted")
        shrink = _Tally("barycenter-lift", "witness-distance-shrinks-to-zero")
        for _ in range(knobs["beta"]):
            nu = sampling.random_point_measure(rng, box, k_max=4)
            center = barycenter_point(nu)
            picked = None
            for cand in sampling.lattice_targets_near(center, box, Fraction(1, 128)):
                try:
                    out = lift_beta(nu, cand, host)
                    picked = (cand, out)
                    break
                except Rejection:
                    continue
            near.check(picked is not None, f"no target near {center!r} accepted")
            if picked is None:
                continue
            cand, out = picked
            exact.check(barycenter_point(out) == cand, f"{barycenter_point(out)!r} != {cand!r}")
            dists = []
            for j in range(7, knobs["lift_depth"] + 1):
                got = None
                for cand_j in sampling.lattice_targets_near(center, box, sampling.dyadic_delta(j)):
                    try:
                        got = lift_beta(nu, cand_j, host)
                        break
                    except Rejection:
                        continue
                if got is None:
                    shrink.check(False, f"depth {j}: nothing accepted")
                    break
                exact.check(
                    barycenter_point(got) == cand_j,
                    f"depth {j}: witness barycenter missed",
                )
                dists.append(measure_dist(got, nu))
            if dists:
                shrink.check(
                    dists[-1] <= _final_bound(knobs["lift_depth"])
                    and dists[-1] <= dists[0] + 1e-12,
                    f"distances {dists[0]:.3g} -> {dists[-1]:.3g}",
                )
        return [near.row(), exact.row(), shrink.row()]

    return SuiteResult("barycenter-lift", tuple(_guard("barycenter-lift", body)))


# -- suite: cover approximation ----------------------------------------------


def suite_cover(seed: int, scale: str = "default") -> SuiteResult:
    knobs = SCALES[scale]
    box = sampling.standard_box(2)

    def body():
        rng = spawn(seed, "cover")
        preserved = _Tally("cover", "barycenter-preserved-exactly")
        rebuilt = _Tally("cover", "weighted-conditionals-rebuild-measure")
        chain_rows = _Tally("cover", "refinement-chain-reaches-zero")
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

    return SuiteResult("cover", tuple(_guard("cover", body)))


# -- suites: the two obstruction certificates ---------------------------------


def suite_counterexample_id(seed: int, scale: str = "default") -> SuiteResult:
    knobs = SCALES[scale]

    def body():
        rows = []
        for i in (1, 2, 4, 8):
            cert = certify_id_oplus_not_open(i, samples=knobs["ce_id_samples"], seed=seed)
            rows.append(
                Row(
                    "counterexample-id",
                    f"splits-obstructed-i={i}",
                    "pass" if cert.verdict else "fail",
                    f"{cert.data['obstructed']} splits all evaluate to 1",
                )
            )
            rows.append(
                Row(
                    "counterexample-id",
                    f"certificate-replays-i={i}",
                    "pass" if cert.recheck() else "fail",
                    f"digest {cert.data['digest'][:12]}",
                )
            )
        return rows

    return SuiteResult("counterexample-id", tuple(_guard("counterexample-id", body)))


def suite_counterexample_bary(seed: int, scale: str = "default") -> SuiteResult:
    knobs = SCALES[scale]

    def body():
        rows = []
        ext = extremal_points(y_polytope(), samples=200, seed=seed)
        expected = {TropVector([-2, -1]), TropVector([-1, -2]), TropVector([0, 0])}
        rows.append(
            Row(
                "counterexample-bary",
                "extremal-points-exact",
                "pass" if set(ext) == expected else "fail",
                f"ext = {sorted(map(repr, ext))}",
            )
        )
        for i in (2, 4, 8):
            cert = certify_y_beta_not_open(i, samples=knobs["ce_y_samples"], seed=seed)
            rows.append(
                Row(
                    "counterexample-bary",
                    f"evaluation-gap-i={i}",
                    "pass" if cert.verdict else "fail",
                    f"gap >= {cert.data['gap']}, {cert.data['feasible']} feasible samples",
                )
            )
            rows.append(
                Row(
                    "counterexample-bary",
                    f"certificate-replays-i={i}",
                    "pass" if cert.recheck() else "fail",
                    f"digest {cert.data['digest'][:12]}",
                )
            )
        return rows

    return SuiteResult("counterexample-bary", tuple(_guard("counterexample-bary", body)))


SUITES = {
    "measures": suite_measures,
    "naturality": suite_naturality,
    "affinity": suite_affinity,
    "combination-lift": suite_combination_lift,
    "fiber": suite_fiber,
    "point-lifts": suite_point_lifts,
    "barycenter-lift": suite_barycenter_lift,
    "cover": suite_cover,
    "counterexample-id": suite_counterexample_id,
    "counterexample-bary": suite_counterexample_bary,
}


def run_suite(name: str, seed: int = 7, scale: str = "default") -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    return SUITES[name](seed, scale)


def run_all(seed: int = 7, scale: str = "default") -> list[SuiteResult]:
    return [run_suite(name, seed, scale) for name in SUITES]
