"""Lifts of the two-measure convex combination on a finite space.

The frozen table pins one instance per branch of the construction; each
expectation was computed by hand from the closed-form case formulas and
is cross-checked against the brute-force oracle where feasible.
"""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropibary import lifting
from tropibary.core import NEG_INF, ZERO, ConvexParams, TropVector, _cmp, odot, oplus_all, residual, scalar
from tropibary.errors import BudgetExceeded, OutsideValidityRegion, SpaceMismatch
from tropibary.lifting import LiftWitness, brute_force_lift_s, lift_s_finite, witness_distance
from tropibary.measures import FiniteSpace, IdemMeasure, combine
from tropibary.sampling import (
    perturb_weights_toward_zero,
    random_measure_on_space,
    random_params,
    spawn,
    standard_box,
)

S2 = FiniteSpace(2, labels=("a", "b"))


def m(ws, space=S2):
    return IdemMeasure.from_weights(space, ws)


# (first, second, params, target) -> (lifted_first, lifted_second, params', tag)
FROZEN_BRANCHES = {
    "pivot-tied": (
        (["0", "-2"], ["0", "-1"], ("0", "0"), ["0", "-3/4"]),
        (["0", "-2"], ["0", "-3/4"], ("0", "0"), "t=p=0/pivot-tied"),
    ),
    "pivot-lower": (
        (["-1", "0"], ["0", "-2"], ("0", "0"), ["0", "-1/2"]),
        (["-1", "0"], ["0", "-2"], ("-1/2", "0"), "t=p=0/pivot-lower"),
    ),
    "pivot-lower-swapped": (
        (["0", "-2"], ["-1", "0"], ("0", "0"), ["0", "-1/2"]),
        (["0", "-2"], ["-1", "0"], ("0", "-1/2"), "t=p=0/pivot-lower/swapped"),
    ),
    "t-bottom": (
        (["0", "-2"], ["0", "-1"], ("-inf", "0"), ["-1/3", "0"]),
        (["0", "-2"], ["-1/3", "0"], ("-inf", "0"), "t<p/t=-inf"),
    ),
    "empty-complement": (
        (["0", "-inf"], ["0", "0"], ("-1", "0"), ["0", "-3/4"]),
        (["0", "-inf"], ["0", "-3/4"], ("-1", "0"), "t<p/empty-complement"),
    ),
    "zero-anchored-lower": (
        (["0", "-1"], ["0", "-2"], ("-1/2", "0"), ["0", "-7/4"]),
        (["0", "-1"], ["0", "-2"], ("-3/4", "0"), "t<p/zero-anchored-lower"),
    ),
    "anchor-off-lower": (
        (["0", "-inf"], ["-inf", "0"], ("-1/10", "0"), ["-1/8", "0"]),
        (["0", "-inf"], ["-inf", "0"], ("-1/8", "0"), "t<p/anchor-off-lower"),
    ),
    "anchor-off-lower-swapped": (
        (["-inf", "0"], ["0", "-inf"], ("0", "-1/10"), ["-1/8", "0"]),
        (["-inf", "0"], ["0", "-inf"], ("0", "-1/8"), "t<p/anchor-off-lower/swapped"),
    ),
}


class TestFrozenBranches:
    @pytest.mark.parametrize("name", sorted(FROZEN_BRANCHES))
    def test_branch(self, name):
        (lam, bet, (t, p), alpha), (lam2, bet2, (t2, p2), tag) = FROZEN_BRANCHES[name]
        w = lift_s_finite(m(lam), m(bet), ConvexParams(t, p), m(alpha))
        assert w.case_tag == tag
        assert w.lifted_first == m(lam2)
        assert w.lifted_second == m(bet2)
        assert w.params == ConvexParams(t2, p2)
        assert combine(w.lifted_first, w.lifted_second, w.params) == m(alpha)

    @pytest.mark.parametrize("name", sorted(FROZEN_BRANCHES))
    def test_oracle_agrees_a_witness_exists(self, name):
        (lam, bet, (t, p), alpha), _ = FROZEN_BRANCHES[name]
        found = brute_force_lift_s(m(lam), m(bet), ConvexParams(t, p), m(alpha), mode="exists")
        assert found is not None
        assert combine(found.lifted_first, found.lifted_second, found.params) == m(alpha)


class TestIdentityAtExactTarget:
    @pytest.mark.parametrize("name", sorted(FROZEN_BRANCHES))
    def test_image_lifts_to_inputs(self, name):
        (lam, bet, (t, p), _), _ = FROZEN_BRANCHES[name]
        first, second, params = m(lam), m(bet), ConvexParams(t, p)
        w = lift_s_finite(first, second, params, combine(first, second, params))
        assert w.lifted_first == first
        assert w.lifted_second == second
        assert w.params == params

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_random_instances(self, seed):
        rng = spawn(seed, "lift-identity")
        space = FiniteSpace(rng.randint(1, 5))
        first = random_measure_on_space(rng, space)
        second = random_measure_on_space(rng, space)
        params = random_params(rng)
        w = lift_s_finite(first, second, params, combine(first, second, params))
        assert (w.lifted_first, w.lifted_second, w.params) == (first, second, params)


class TestPerturbedTargets:
    @given(st.integers(0, 10**6), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_small_weight_perturbations_lift_exactly(self, seed, depth):
        rng = spawn(seed, "lift-perturb")
        space = FiniteSpace(rng.randint(1, 5))
        first = random_measure_on_space(rng, space)
        second = random_measure_on_space(rng, space)
        params = random_params(rng)
        image = combine(first, second, params)
        target = perturb_weights_toward_zero(rng, image, delta=Fraction(1, 2**depth))
        w = lift_s_finite(first, second, params, target)
        assert combine(w.lifted_first, w.lifted_second, w.params) == target
        # witness stays near: perturbation <= 2^-depth bounds the drift
        assert witness_distance(w, first, second, params) <= 3 * 2.0 ** -depth + 1e-12


class TestRejections:
    def test_no_zero_atom_where_second_dominates(self):
        with pytest.raises(OutsideValidityRegion, match="no zero-weight atom"):
            lift_s_finite(
                m(["0", "-inf"]), m(["-inf", "0"]), ConvexParams("-1/10", "0"), m(["0", "-1/8"])
            )

    def test_pivot_tied_lower_set_violation(self):
        with pytest.raises(OutsideValidityRegion, match="on the lower set"):
            lift_s_finite(
                m(["0", "-1"]), m(["0", "-1/2"]), ConvexParams("0", "0"), m(["0", "-2"])
            )

    def test_pivot_lower_needs_weight_off_lower_set(self):
        with pytest.raises(OutsideValidityRegion, match="no weight off the lower set"):
            lift_s_finite(
                m(["-1", "0"]), m(["0", "-2"]), ConvexParams("0", "0"), m(["0", "-inf"])
            )

    def test_retained_support_must_carry_weight(self):
        with pytest.raises(OutsideValidityRegion, match="vanish on the retained support"):
            lift_s_finite(
                m(["0", "-inf"]), m(["-inf", "0"]), ConvexParams("-1/10", "0"), m(["-inf", "0"])
            )

    def test_combined_shift_above_zero(self):
        with pytest.raises(OutsideValidityRegion, match="exceeds 0"):
            lift_s_finite(
                m(["0", "-1"]), m(["0", "-2"]), ConvexParams("-1/2", "0"), m(["0", "-1/2"])
            )

    def test_target_off_first_support_capped_by_shift(self):
        space = FiniteSpace(3)

        def m3(ws):
            return IdemMeasure.from_weights(space, ws)

        with pytest.raises(OutsideValidityRegion, match="off the first support"):
            lift_s_finite(
                m3(["0", "-1", "-inf"]),
                m3(["0", "-2", "-inf"]),
                ConvexParams("-1/2", "0"),
                m3(["0", "-3/2", "-1/4"]),
            )

    def test_space_mismatch(self):
        other = FiniteSpace(2)
        with pytest.raises(SpaceMismatch):
            lift_s_finite(
                m(["0", "0"]),
                IdemMeasure.from_weights(other, ["0", "0"]),
                ConvexParams("0", "0"),
                m(["0", "0"]),
            )


class TestOracleAgreement:
    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_constructive_acceptance_implies_oracle_witness(self, seed):
        rng = spawn(seed, "lift-oracle")
        space = FiniteSpace(rng.randint(1, 3))
        first = random_measure_on_space(rng, space)
        second = random_measure_on_space(rng, space)
        params = random_params(rng)
        image = combine(first, second, params)
        target = perturb_weights_toward_zero(rng, image, delta=Fraction(1, 16))
        w = lift_s_finite(first, second, params, target)
        found = brute_force_lift_s(first, second, params, target, mode="exists")
        assert found is not None
        assert combine(found.lifted_first, found.lifted_second, found.params) == target
        assert witness_distance(w, first, second, params) <= (
            witness_distance(found, first, second, params) + 0.25
        )


class TestDegenerateShapes:
    def test_single_point_space(self):
        one = FiniteSpace(1)
        d = IdemMeasure.dirac(0, space=one)
        w = lift_s_finite(d, d, ConvexParams("0", "-1"), d)
        assert w.lifted_first == d and w.lifted_second == d

    def test_both_params_zero_idempotence(self):
        mu = m(["0", "-1/2"])
        w = lift_s_finite(mu, mu, ConvexParams("0", "0"), mu)
        assert w.lifted_first == mu and w.lifted_second == mu


class TestOracleBudget:
    """Every brute-force oracle gives up with BudgetExceeded once it has
    viewed more than lifting.ORACLE_BUDGET candidates.  Each budget below
    lets the search past the oracle's count of its candidate grid: P * (P
    + 1) parameter differences for the s, interval and box oracles (pools
    of P = 3, 4 and 4 values), and 5 * 5 * 5 (point, weight) pairs for the
    β oracle, whose two-atom measure makes it view pairs of them."""

    SEARCHES = {
        "s": (12, lambda: lifting.brute_force_lift_s(
            m(["0", "-1"]), m(["-1", "0"]), ConvexParams("0", "0"), m(["0", "-1/2"])
        )),
        "interval": (20, lambda: lifting.brute_force_lift_interval(
            scalar("-1"), scalar("-1/2"), ConvexParams("-1/4", "0"), scalar("-1/2"),
            (scalar("-2"), scalar("0")),
        )),
        "box": (20, lambda: lifting.brute_force_lift_box(
            TropVector(("-1", "-1")), TropVector(("-1/2", "-1/2")), ConvexParams("-1/4", "0"),
            TropVector(("-1/2", "-1/2")), standard_box(2),
        )),
        "beta": (125, lambda: lifting.brute_force_lift_beta(
            IdemMeasure([(TropVector(("-1", "-1")), scalar("0")), (TropVector(("-2", "-1")), scalar("-1"))]),
            TropVector(("-1", "-1")),
            standard_box(2),
        )),
    }

    @pytest.mark.parametrize("name", SEARCHES)
    def test_every_oracle_stops_at_the_budget(self, monkeypatch, name):
        budget, search = self.SEARCHES[name]
        assert search() is not None
        monkeypatch.setattr(lifting, "ORACLE_BUDGET", budget)
        with pytest.raises(BudgetExceeded, match=f"viewed more than {budget} candidates"):
            search()

    @pytest.mark.parametrize("name", ["s", "interval", "box"])
    def test_grid_oracles_count_their_parameters_first(self, monkeypatch, name):
        """One budget below the count, the search is refused before it
        views a candidate."""
        budget, search = self.SEARCHES[name]
        monkeypatch.setattr(lifting, "ORACLE_BUDGET", budget - 1)
        monkeypatch.setattr(lifting, "_tick", lambda viewed: pytest.fail("a candidate was viewed"))
        with pytest.raises(BudgetExceeded, match=f"has more than {budget - 1} candidates"):
            search()


# -- the construction as three functions, kept as a reference ----------------


def reference_lift_finite(first, second, params, target):
    """`lift_s_finite` as it was written before its branches shared one
    build step: params (0, 0) went through `_reference_equal_params` and
    `_reference_pivot`, finite t < 0 through `_reference_strict_params`;
    params with p < 0 lift the swapped inputs and mirror the witness."""

    def branches(first, second, params, target):
        if _cmp(params.p, ZERO) < 0:
            return lifting._mirrored(branches(second, first, params.swapped(), target))
        space = first.space
        lam, bet, alpha = first.density(), second.density(), target.density()
        t = params.t
        if _cmp(t, ZERO) == 0:
            return _reference_equal_params(space, lam, bet, alpha)
        if t is NEG_INF:
            return LiftWitness(first, target, ConvexParams(NEG_INF, 0), "t<p/t=-inf")
        return _reference_strict_params(space, lam, bet, alpha, t)

    return lifting._exact(branches(first, second, params, target), target)


def _reference_equal_params(space, lam, bet, alpha):
    n = space.n
    lower = {i for i in range(n) if _cmp(lam[i], bet[i]) < 0}
    higher = {i for i in range(n) if _cmp(lam[i], bet[i]) > 0}
    zeros = [i for i in range(n) if _cmp(alpha[i], ZERO) == 0]
    if any(i not in lower and i not in higher for i in zeros):
        return _reference_pivot(space, lam, bet, alpha, lower, higher, "tied")
    if any(i in lower for i in zeros):
        return _reference_pivot(space, lam, bet, alpha, lower, higher, "lower")
    return lifting._mirrored(_reference_pivot(space, bet, lam, alpha, higher, lower, "lower"))


def _reference_pivot(space, lam, bet, alpha, lower, higher, pivot):
    n = space.n
    c = oplus_all(alpha[i] for i in range(n) if i not in lower)
    if c is NEG_INF:
        raise OutsideValidityRegion("target carries no weight off the lower set")
    for i in sorted(lower):
        if _cmp(alpha[i], odot(c, lam[i])) < 0:
            floor = (
                f"first weight {lam[i]} on the lower set"
                if pivot == "tied"
                else f"shifted first weight {odot(c, lam[i])}"
            )
            raise OutsideValidityRegion(f"target[{i}] = {alpha[i]} < {floor}")
    for i in sorted(higher):
        if _cmp(alpha[i], bet[i]) < 0:
            raise OutsideValidityRegion(
                f"target[{i}] = {alpha[i]} < second weight {bet[i]} on the higher set"
            )
    lam2 = [lam[i] if i in lower else residual(alpha[i], c) for i in range(n)]
    bet2 = [bet[i] if i in higher else alpha[i] for i in range(n)]
    return LiftWitness(
        IdemMeasure.from_weights(space, lam2),
        IdemMeasure.from_weights(space, bet2),
        ConvexParams(c, 0),
        f"t=p=0/pivot-{pivot}",
    )


def _reference_strict_params(space, lam, bet, alpha, t):
    n = space.n
    shifted = [odot(t, lam[i]) for i in range(n)]
    in_lower = {i for i in range(n) if _cmp(shifted[i], bet[i]) < 0}
    in_higher = {i for i in range(n) if _cmp(shifted[i], bet[i]) > 0}
    if not any(_cmp(alpha[i], ZERO) == 0 for i in in_lower):
        raise OutsideValidityRegion(
            "target has no zero-weight atom where the second measure strictly dominates"
        )
    retained = [i for i in range(n) if i not in in_lower and lam[i] is not NEG_INF]
    if not retained:
        c = ZERO
        tag = "t<p/empty-complement"
    elif any(_cmp(lam[i], ZERO) == 0 for i in in_lower):
        c = oplus_all(residual(alpha[i], odot(t, lam[i])) for i in retained)
        tag = "t<p/zero-anchored-lower"
    else:
        c = oplus_all(residual(alpha[i], t) for i in retained)
        tag = "t<p/anchor-off-lower"
    if c is NEG_INF:
        raise OutsideValidityRegion("target weights vanish on the retained support")
    shift = odot(t, c)
    if _cmp(shift, ZERO) > 0:
        raise OutsideValidityRegion(f"combined shift {shift} exceeds 0")
    for i in range(n):
        if i in in_lower:
            if _cmp(alpha[i], odot(shift, lam[i])) < 0:
                raise OutsideValidityRegion(
                    f"target[{i}] = {alpha[i]} < shifted first weight {odot(shift, lam[i])}"
                )
        elif i in in_higher and _cmp(alpha[i], bet[i]) < 0:
            raise OutsideValidityRegion(
                f"target[{i}] = {alpha[i]} < second weight {bet[i]} on the higher set"
            )
        if i not in in_lower and lam[i] is NEG_INF and _cmp(alpha[i], shift) > 0:
            raise OutsideValidityRegion(
                f"target[{i}] = {alpha[i]} exceeds the shift {shift} off the first support"
            )
    lam2 = [
        lam[i]
        if i in in_lower
        else (NEG_INF if alpha[i] is NEG_INF else residual(alpha[i], shift))
        for i in range(n)
    ]
    bet2 = [bet[i] if i in in_higher else alpha[i] for i in range(n)]
    return LiftWitness(
        IdemMeasure.from_weights(space, lam2),
        IdemMeasure.from_weights(space, bet2),
        ConvexParams(shift, 0),
        tag,
    )


def refusal_class(message):
    """What a refusal says, without its numbers.  A target below a weight
    the witness keeps is one class on either set: the pivot branches name
    the first such index in index order, the reference named the lower
    set's first."""
    if " < " in message:
        return "below a kept weight"
    return re.sub(r"-inf|-?\d+(/\d+)?", "#", message)


def outcome(lift, first, second, params, target):
    """The witness as (measures, params, tag), or the refusal's class."""
    try:
        w = lift(first, second, params, target)
    except OutsideValidityRegion as err:
        return ("refused", refusal_class(str(err)))
    return (w.lifted_first, w.lifted_second, w.params, w.case_tag)


def normalized(space, values):
    """Every weight tuple over `values` whose largest weight is 0."""
    return [
        IdemMeasure.from_weights(space, ws)
        for ws in itertools.product(values, repeat=space.n)
        if any(w is not NEG_INF and w == 0 for w in ws)
    ]


def both_sides(taus):
    """(τ, 0) and (0, τ) for each τ, with (0, 0) once."""
    return list(dict.fromkeys(pair for tau in taus for pair in ((tau, ZERO), (ZERO, tau))))


ALL_TAGS = {
    tag + side
    for tag in (
        "t<p/t=-inf",
        "t<p/empty-complement",
        "t<p/zero-anchored-lower",
        "t<p/anchor-off-lower",
    )
    for side in ("", "/swapped")
} | {"t=p=0/pivot-tied", "t=p=0/pivot-lower", "t=p=0/pivot-lower/swapped"}


class TestOneBuildStep:
    """`lift_s_finite` gives the reference's witness, or refuses with the
    reference's class of refusal, on every instance tried."""

    def test_exhaustive_on_two_points(self):
        values = [ZERO, Fraction(-1, 2), Fraction(-1), Fraction(-2), NEG_INF]
        tags = set()
        for n in (1, 2):
            measures = normalized(FiniteSpace(n), values)
            for t, p in both_sides(values):
                params = ConvexParams(t, p)
                for first, second, target in itertools.product(measures, repeat=3):
                    got = outcome(lift_s_finite, first, second, params, target)
                    assert got == outcome(reference_lift_finite, first, second, params, target), (
                        first, second, params, target,
                    )
                    if got[0] != "refused":
                        tags.add(got[3])
        assert tags == ALL_TAGS

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_instances_up_to_four_points(self, data):
        weight = st.one_of(st.just(NEG_INF), st.integers(-16, 0).map(lambda k: Fraction(k, 8)))
        space = FiniteSpace(data.draw(st.integers(1, 4)))

        def measure():
            ws = data.draw(st.lists(weight, min_size=space.n, max_size=space.n))
            ws[data.draw(st.integers(0, space.n - 1))] = ZERO
            return IdemMeasure.from_weights(space, ws)

        first, second, target = measure(), measure(), measure()
        tau = data.draw(weight)
        params = ConvexParams(tau, 0) if data.draw(st.booleans()) else ConvexParams(0, tau)
        assert outcome(lift_s_finite, first, second, params, target) == outcome(
            reference_lift_finite, first, second, params, target
        )
