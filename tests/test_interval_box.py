"""Two-point combination lifts on intervals and boxes.

The load-bearing invariant: these lifts never change the parameter
pair.  That is what lets the box version run one interval lift per
coordinate under a single shared pair.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropibary.core import NEG_INF, POS_INF, ConvexParams, TropVector, odot, oplus, s_point, scalar
from tropibary.errors import BadInput, OutsideValidityRegion
from tropibary.geometry import Box
from tropibary.lifting import brute_force_lift_box, brute_force_lift_interval, lift_s_box, lift_s_interval
from tropibary.sampling import random_box, random_params, random_point, spawn

BOUNDS = (scalar("-2"), scalar("0"))
BOX = Box(TropVector(("-2", "-2")), TropVector(("0", "0")))

grid_q = st.fractions(min_value=-2, max_value=0, max_denominator=16)


def interval_params(draw_q):
    return st.one_of(
        st.just(ConvexParams("0", "0")),
        draw_q.map(lambda q: ConvexParams(scalar(q), "0")),
        draw_q.map(lambda q: ConvexParams("0", scalar(q))),
    )


class TestIntervalFrozen:
    def test_second_absorbs_target(self):
        w = lift_s_interval(
            scalar("-1"), scalar("-9/20"), ConvexParams("-1/10", "0"),
            scalar("-2/5"), BOUNDS,
        )
        assert w.case_tag == "s=second"
        assert type(w.lifted_first) is type(w.lifted_second) is Fraction
        assert w.lifted_first == scalar("-1")
        assert w.lifted_second == scalar("-2/5")
        assert w.params == ConvexParams("-1/10", "0")

    def test_first_moves_by_residual(self):
        # shifted first dominates: x + t = -1/10 > y = -1
        w = lift_s_interval(
            scalar("0"), scalar("-1"), ConvexParams("-1/10", "0"),
            scalar("-1/5"), BOUNDS,
        )
        assert w.case_tag == "s=first"
        assert type(w.lifted_first) is type(w.lifted_second) is Fraction
        assert w.lifted_first == scalar("-1/10")
        assert w.lifted_second == scalar("-1")

    def test_tie_moves_both(self):
        w = lift_s_interval(
            scalar("-1"), scalar("-3/2"), ConvexParams("-1/2", "0"),
            scalar("-7/5"), BOUNDS,
        )
        assert w.case_tag == "s=tied"
        assert type(w.lifted_first) is type(w.lifted_second) is Fraction
        assert w.lifted_first == scalar("-9/10")
        assert w.lifted_second == scalar("-7/5")

    def test_swapped_mirror(self):
        w = lift_s_interval(
            scalar("-9/20"), scalar("-1"), ConvexParams("0", "-1/10"),
            scalar("-2/5"), BOUNDS,
        )
        assert w.case_tag.endswith("/swapped")
        assert type(w.lifted_first) is type(w.lifted_second) is Fraction
        assert w.lifted_first == scalar("-2/5")
        assert w.lifted_second == scalar("-1")


class TestIntervalInvariants:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_params_never_move_and_lift_is_exact(self, data):
        x = scalar(data.draw(grid_q))
        y = scalar(data.draw(grid_q))
        params = data.draw(interval_params(grid_q))
        image = oplus(odot(params.t, x), odot(params.p, y))
        bump = data.draw(st.sampled_from([Fraction(0), Fraction(1, 32), Fraction(-1, 32)]))
        target_q = image + bump
        if not (BOUNDS[0] <= target_q <= BOUNDS[1]):
            target_q = image
        target = scalar(target_q)
        try:
            w = lift_s_interval(x, y, params, target, BOUNDS)
        except OutsideValidityRegion:
            # refusal is legitimate for far targets; nothing more to check
            return
        assert w.params == params
        assert oplus(odot(w.params.t, w.lifted_first), odot(w.params.p, w.lifted_second)) == target
        assert BOUNDS[0] <= w.lifted_first <= BOUNDS[1]
        assert BOUNDS[0] <= w.lifted_second <= BOUNDS[1]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_identity_at_exact_target(self, data):
        x = scalar(data.draw(grid_q))
        y = scalar(data.draw(grid_q))
        params = data.draw(interval_params(grid_q))
        image = oplus(odot(params.t, x), odot(params.p, y))
        w = lift_s_interval(x, y, params, image, BOUNDS)
        assert w.params == params
        assert oplus(odot(params.t, w.lifted_first), odot(params.p, w.lifted_second)) == image


class TestIntervalRejections:
    def test_target_below_shifted_first(self):
        with pytest.raises(OutsideValidityRegion, match="does not exceed the shifted first"):
            lift_s_interval(
                scalar("-1"), scalar("-9/20"), ConvexParams("-1/10", "0"),
                scalar("-3/2"), BOUNDS,
            )

    def test_target_below_second(self):
        with pytest.raises(OutsideValidityRegion, match="does not exceed the second"):
            lift_s_interval(
                scalar("0"), scalar("-1"), ConvexParams("-1/10", "0"),
                scalar("-3/2"), BOUNDS,
            )

    def test_moved_point_must_stay_in_bounds(self):
        # tied case: moved = target - t = 1/4 escapes above the interval
        with pytest.raises(OutsideValidityRegion, match="leaves"):
            lift_s_interval(
                scalar("-1"), scalar("-3/2"), ConvexParams("-1/2", "0"),
                scalar("-1/4"), BOUNDS,
            )

    def test_malformed_inputs(self):
        with pytest.raises(BadInput):
            lift_s_interval(
                scalar("-3"), scalar("0"), ConvexParams("0", "0"),
                scalar("0"), BOUNDS,
            )
        with pytest.raises(BadInput):
            lift_s_interval(
                scalar("0"), scalar("0"), ConvexParams("0", "0"),
                scalar("0"), (scalar("0"), scalar("-1")),
            )


    @pytest.mark.parametrize("bounds", [(NEG_INF, scalar(0)), (scalar(-2), POS_INF)])
    def test_oracle_refuses_infinite_bounds(self, bounds):
        with pytest.raises(BadInput, match="has no rational value"):
            brute_force_lift_interval(scalar(-1), scalar(-1), ConvexParams("0", "0"), scalar(-1), bounds)

    @pytest.mark.parametrize(
        "x, y, target, message",
        [
            ("-1", "-1", "5", r"^target 5 outside \[-2, 0\]$"),
            ("1/2", "-1", "-1", r"^first point 1/2 outside \[-2, 0\]$"),
            ("-1", "-3", "-1", r"^second point -3 outside \[-2, 0\]$"),
            ("-1", "-inf", "-1", r"^second point must be finite$"),
        ],
        ids=["target-above", "first-above", "second-below", "second-minus-inf"],
    )
    def test_oracle_refuses_what_the_lift_refuses(self, x, y, target, message):
        # the oracle answers only where the constructive lift may: inside [lo, hi]
        args = (scalar(x), scalar(y), ConvexParams("0", "0"), scalar(target), BOUNDS)
        for call in (lift_s_interval, lambda *a: brute_force_lift_interval(*a, mode="exists")):
            with pytest.raises(BadInput, match=message):
                call(*args)


class TestBoxLift:
    def test_coordinatewise_tags_and_shared_params(self):
        w = lift_s_box(
            TropVector(("-1", "-1/2")), TropVector(("-1/2", "-1")),
            ConvexParams("0", "-1/4"), TropVector(("-1/2", "-5/8")), BOX,
        )
        assert w.params == ConvexParams("0", "-1/4")
        assert w.case_tag == "0:s=first/swapped;1:s=second/swapped"
        assert s_point(w.lifted_first, w.lifted_second, w.params) == TropVector(("-1/2", "-5/8"))

    def test_identity_at_exact_target(self):
        x = TropVector(("-1", "0"))
        y = TropVector(("0", "-2"))
        params = ConvexParams("0", "-1/2")
        image = s_point(x, y, params)
        w = lift_s_box(x, y, params, image, BOX)
        assert w.params == params
        assert s_point(w.lifted_first, w.lifted_second, params) == image

    def test_one_bad_coordinate_refuses_the_whole_lift(self):
        x = TropVector(("-1", "0"))
        y = TropVector(("-9/20", "-1"))
        params = ConvexParams("-1/10", "0")
        target = TropVector(("-3/2", "0"))
        with pytest.raises(OutsideValidityRegion):
            lift_s_box(x, y, params, target, BOX)

    def test_dimension_mismatch(self):
        with pytest.raises(BadInput):
            lift_s_box(
                TropVector(("0",)), TropVector(("0", "0")),
                ConvexParams("0", "0"), TropVector(("0", "0")), BOX,
            )

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_near_targets(self, seed):
        rng = spawn(seed, "box-lift")
        eighth = [Fraction(k, 8) for k in range(-16, 1)]
        x = TropVector([scalar(rng.choice(eighth)) for _ in range(2)])
        y = TropVector([scalar(rng.choice(eighth)) for _ in range(2)])
        q = scalar(rng.choice(eighth))
        params = ConvexParams("0", q) if rng.random() < 0.5 else ConvexParams(q, "0")
        image = s_point(x, y, params)
        coords = []
        for j in range(2):
            delta = rng.choice([Fraction(0), Fraction(1, 32)])
            c = image[j] + delta
            coords.append(scalar(min(c, Fraction(0))))
        target = TropVector(coords)
        try:
            w = lift_s_box(x, y, params, target, BOX)
        except OutsideValidityRegion:
            return
        assert w.params == params
        assert s_point(w.lifted_first, w.lifted_second, params) == target
        assert BOX.contains(w.lifted_first) and BOX.contains(w.lifted_second)

    @pytest.mark.parametrize(
        "y, target, message",
        [
            (("-1", "-3"), ("-1", "-1"), r"^second point -3 outside \[-2, 0\]$"),
            (("-1", "-1"), ("-1", "1/4"), r"^target 1/4 outside \[-2, 0\]$"),
        ],
        ids=["second-below", "target-above"],
    )
    def test_oracle_refuses_points_outside_the_box(self, y, target, message):
        args = (TropVector(("-1", "-1")), TropVector(y), ConvexParams("0", "0"), TropVector(target), BOX)
        for mode in ("exists", "best"):
            with pytest.raises(BadInput, match=message):
                brute_force_lift_box(*args, mode=mode)
        with pytest.raises(BadInput, match=message):
            lift_s_box(*args)

    def test_witness_points_are_what_the_checked_constructor_builds(self):
        # the lift builds its two points without TropVector's coercion
        # and checks; they must equal its output coordinate for coordinate
        accepted = at_neg_inf = 0
        for seed in range(200):
            rng = spawn(seed, "box-lift-points")
            box = random_box(rng, rng.randint(1, 3))
            x, y = random_point(rng, box), random_point(rng, box)
            params = random_params(rng, bottom_rate=0.3)
            for target in (s_point(x, y, params), random_point(rng, box)):
                try:
                    w = lift_s_box(x, y, params, target, box)
                except OutsideValidityRegion:
                    continue
                accepted += 1
                at_neg_inf += params.t is NEG_INF
                for point in (w.lifted_first, w.lifted_second):
                    checked = TropVector(list(point.coords))
                    assert all(type(c) is Fraction for c in point.coords)
                    assert [(c.numerator, c.denominator) for c in point.coords] == [
                        (c.numerator, c.denominator) for c in checked.coords
                    ]
                    assert point == checked and hash(point) == hash(checked)
                    assert box.contains(point)
        assert accepted > 200 and at_neg_inf > 0

    def test_oracle_agreement_on_frozen_instance(self):
        x = TropVector(("-1", "-1/2"))
        y = TropVector(("-1/2", "-1"))
        params = ConvexParams("0", "-1/4")
        target = TropVector(("-1/2", "-5/8"))
        found = brute_force_lift_box(x, y, params, target, BOX, mode="exists")
        assert found is not None
        assert s_point(found.lifted_first, found.lifted_second, found.params) == target
