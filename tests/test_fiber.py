"""Fiber lifts: splitting a measure over a surjection of finite spaces."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropibary.core import ConvexParams
from tropibary.errors import BadInput, InconsistentFiber, SpaceMismatch
from tropibary.lifting import MergeMap, lift_fiber_surjection, lift_merge_fiber
from tropibary.measures import FiniteSpace, IdemMeasure, SpaceMap, combine, pushforward
from tropibary.sampling import random_measure_on_space, random_params, spawn

SRC = FiniteSpace(3)
TGT = FiniteSpace(2)
MERGE = MergeMap(SRC, TGT)


def m(space, ws):
    return IdemMeasure.from_weights(space, ws)


class TestMergeFiber:
    def test_frozen_min_splitting(self):
        # shared fiber weights split by min against nu's fiber entries
        nu = m(SRC, ["0", "-1", "-1/2"])
        mu = m(TGT, ["0", "-3/10"])
        a = m(TGT, ["0", "-1/2"])
        lam, eta = lift_merge_fiber(nu, mu, a, ConvexParams("-1/5", "0"), MERGE)
        assert lam == m(SRC, ["0", "-4/5", "-3/10"])
        assert eta == m(SRC, ["0", "-1", "-1/2"])

    def test_postconditions_on_frozen_instance(self):
        nu = m(SRC, ["0", "-1", "-1/2"])
        mu = m(TGT, ["0", "-3/10"])
        a = m(TGT, ["0", "-1/2"])
        params = ConvexParams("-1/5", "0")
        lam, eta = lift_merge_fiber(nu, mu, a, params, MERGE)
        f = MERGE.as_space_map()
        assert pushforward(f, lam) == mu
        assert pushforward(f, eta) == a
        assert combine(lam, eta, params) == nu

    def test_inconsistent_fiber_rejected_with_coordinate(self):
        nu = m(SRC, ["0", "-1", "-1/2"])
        mu = m(TGT, ["0", "-3/10"])
        bad_a = m(TGT, ["0", "0"])
        with pytest.raises(InconsistentFiber, match="coordinate 1"):
            lift_merge_fiber(nu, mu, bad_a, ConvexParams("-1/5", "0"), MERGE)

    def test_mirror_when_p_negative(self):
        nu = m(SRC, ["0", "-1", "-1/2"])
        mu = m(TGT, ["0", "-1/2"])
        a = m(TGT, ["0", "-3/10"])
        params = ConvexParams("0", "-1/5")
        lam, eta = lift_merge_fiber(nu, mu, a, params, MERGE)
        assert lam == m(SRC, ["0", "-1", "-1/2"])
        assert eta == m(SRC, ["0", "-4/5", "-3/10"])
        f = MERGE.as_space_map()
        assert pushforward(f, lam) == mu
        assert pushforward(f, eta) == a
        assert combine(lam, eta, params) == nu

    def test_merge_map_arity(self):
        with pytest.raises(BadInput):
            MergeMap(FiniteSpace(4), TGT)

    def test_space_mismatch(self):
        nu = m(FiniteSpace(4), ["0", "0", "0", "0"])
        mu = m(TGT, ["0", "0"])
        with pytest.raises(SpaceMismatch):
            lift_merge_fiber(nu, mu, mu, ConvexParams("0", "0"), MERGE)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_consistent_instances_split(self, seed):
        rng = spawn(seed, "merge-fiber")
        n = rng.randint(1, 4)
        source, target = FiniteSpace(n + 1), FiniteSpace(n)
        merge = MergeMap(source, target)
        f = merge.as_space_map()
        lam0 = random_measure_on_space(rng, source)
        eta0 = random_measure_on_space(rng, source)
        params = random_params(rng)
        nu = combine(lam0, eta0, params)
        mu, a = pushforward(f, lam0), pushforward(f, eta0)
        lam, eta = lift_merge_fiber(nu, mu, a, params, merge)
        assert pushforward(f, lam) == mu
        assert pushforward(f, eta) == a
        assert combine(lam, eta, params) == nu


class TestSurjectionFiber:
    def test_bijection_is_a_relabeling(self):
        f = SpaceMap(TGT, FiniteSpace(2, labels=("u", "v")), [1, 0])
        lam0 = m(TGT, ["0", "-1"])
        eta0 = m(TGT, ["-1/2", "0"])
        params = ConvexParams("0", "-1/4")
        nu = combine(lam0, eta0, params)
        lam, eta = lift_fiber_surjection(nu, pushforward(f, lam0), pushforward(f, eta0), params, f)
        assert lam == lam0 and eta == eta0

    def test_multi_collapse_surjection(self):
        source = FiniteSpace(4)
        f = SpaceMap(source, TGT, [0, 1, 1, 0])
        lam0 = m(source, ["0", "-1", "-2", "-1/4"])
        eta0 = m(source, ["-3/4", "0", "-1/2", "-1"])
        params = ConvexParams("-1/8", "0")
        nu = combine(lam0, eta0, params)
        mu, a = pushforward(f, lam0), pushforward(f, eta0)
        lam, eta = lift_fiber_surjection(nu, mu, a, params, f)
        assert lam == m(source, ["0", "-1", "-1", "-1/4"])
        assert eta == m(source, ["-3/4", "0", "-1/2", "-3/4"])
        assert pushforward(f, lam) == mu
        assert pushforward(f, eta) == a
        assert combine(lam, eta, params) == nu

    def test_deep_collapse_onto_one_point(self):
        # 1,200 points over one target point: the split is one pass, with
        # no recursion whose depth grows with the fiber
        n = 1200
        source, point = FiniteSpace(n), FiniteSpace(1)
        f = SpaceMap(source, point, [0] * n)
        lam0 = m(source, ["0"] + [Fraction(-(i % 17), 8) for i in range(1, n)])
        eta0 = m(source, [Fraction(-(i % 13), 8) for i in range(n - 1)] + ["0"])
        params = ConvexParams("-1/4", "0")
        nu = combine(lam0, eta0, params)
        mu, a = pushforward(f, lam0), pushforward(f, eta0)
        lam, eta = lift_fiber_surjection(nu, mu, a, params, f)
        assert pushforward(f, lam) == mu
        assert pushforward(f, eta) == a
        assert combine(lam, eta, params) == nu

    def test_non_surjective_rejected(self):
        f = SpaceMap(SRC, TGT, [0, 0, 0])
        nu = m(SRC, ["0", "0", "0"])
        mu = m(TGT, ["0", "0"])
        with pytest.raises(BadInput, match="surjective"):
            lift_fiber_surjection(nu, mu, mu, ConvexParams("0", "0"), f)

    def test_inconsistency_detected_through_peeling(self):
        source = FiniteSpace(4)
        f = SpaceMap(source, TGT, [0, 1, 1, 0])
        nu = m(source, ["0", "-1", "-2", "-1/4"])
        mu = m(TGT, ["0", "0"])
        a = m(TGT, ["0", "-3"])
        with pytest.raises(InconsistentFiber):
            lift_fiber_surjection(nu, mu, a, ConvexParams("0", "0"), f)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_surjections(self, seed):
        rng = spawn(seed, "surjection-fiber")
        n_tgt = rng.randint(1, 3)
        n_src = n_tgt + rng.randint(0, 3)
        source, target = FiniteSpace(n_src), FiniteSpace(n_tgt)
        table = list(range(n_tgt)) + [rng.randrange(n_tgt) for _ in range(n_src - n_tgt)]
        rng.shuffle(table)
        f = SpaceMap(source, target, table)
        lam0 = random_measure_on_space(rng, source)
        eta0 = random_measure_on_space(rng, source)
        params = random_params(rng)
        nu = combine(lam0, eta0, params)
        mu, a = pushforward(f, lam0), pushforward(f, eta0)
        lam, eta = lift_fiber_surjection(nu, mu, a, params, f)
        assert pushforward(f, lam) == mu
        assert pushforward(f, eta) == a
        assert combine(lam, eta, params) == nu
