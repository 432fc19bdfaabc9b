"""Lifts of the two-measure convex combination on a finite space.

The frozen table pins one instance per branch of the construction; each
expectation was computed by hand from the closed-form case formulas and
is cross-checked against the brute-force oracle where feasible.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropibary import lifting
from tropibary.core import ConvexParams, TropVector, scalar
from tropibary.errors import BudgetExceeded, OutsideValidityRegion, SpaceMismatch
from tropibary.lifting import brute_force_lift_s, lift_s_finite, witness_distance
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
    viewed more than lifting.ORACLE_BUDGET candidates."""

    SEARCHES = {
        "s": lambda: lifting.brute_force_lift_s(
            m(["0", "-1"]), m(["-1", "0"]), ConvexParams("0", "0"), m(["0", "-1/2"])
        ),
        "interval": lambda: lifting.brute_force_lift_interval(
            scalar("-1"), scalar("-1/2"), ConvexParams("-1/4", "0"), scalar("-1/2"),
            (scalar("-2"), scalar("0")),
        ),
        "box": lambda: lifting.brute_force_lift_box(
            TropVector(("-1", "-1")), TropVector(("-1/2", "-1/2")), ConvexParams("-1/4", "0"),
            TropVector(("-1/2", "-1/2")), standard_box(2),
        ),
        "beta": lambda: lifting.brute_force_lift_beta(
            IdemMeasure([(TropVector(("-1", "-1")), scalar("0"))]), TropVector(("-1", "-1")),
            standard_box(2),
        ),
    }

    @pytest.mark.parametrize("name", SEARCHES)
    def test_every_oracle_stops_at_the_budget(self, monkeypatch, name):
        assert self.SEARCHES[name]() is not None
        monkeypatch.setattr(lifting, "ORACLE_BUDGET", 2)
        with pytest.raises(BudgetExceeded, match="more than 2 candidates"):
            self.SEARCHES[name]()
