"""Fiber lifts: splitting a measure over a surjection of finite spaces."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropibary import sampling
from tropibary.core import NEG_INF, ZERO, ConvexParams, Scalar, _cmp, odot, residual, trop_min
from tropibary.errors import BadInput, InconsistentFiber, SpaceMismatch, TropibaryError, certify
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


def reference_lift_fiber_surjection(nu, mu, a, params, f):
    """`lift_fiber_surjection` as it was before it worked on weight tuples:
    three pushforwards, two combinations and both splits built as
    measures."""
    if not f.is_surjective:
        raise BadInput("fiber lifts need a surjective map")
    if nu.space != f.source or mu.space != f.target or a.space != f.target:
        raise SpaceMismatch("fiber data does not match the map")
    pushed = pushforward(f, nu).density()
    image = combine(mu, a, params).density()
    for j, (x, y) in enumerate(zip(pushed, image)):
        if _cmp(x, y):
            raise InconsistentFiber(f"coordinate {j}: pushforward gives {x}, combination gives {y}")

    def split(side: IdemMeasure, weight: Scalar) -> IdemMeasure:
        # one of t, p is 0, and nu_i - 0 is nu_i
        shifted = nu.density() if _cmp(weight, ZERO) == 0 else [residual(v, weight) for v in nu.density()]
        d = side.density()
        return IdemMeasure.from_weights(f.source, [trop_min(d[k], v) for k, v in zip(f.table, shifted)])

    lam, eta = split(mu, params.t), split(a, params.p)
    certify(
        pushforward(f, lam) == mu and pushforward(f, eta) == a and combine(lam, eta, params) == nu,
        "fiber witness does not push forward to (mu, a) or recombine to nu",
    )
    return lam, eta


def outcome(lift, *args):
    """The weight tuples of (lam, eta), or the refusal's class and message."""
    try:
        lam, eta = lift(*args)
    except TropibaryError as exc:
        return type(exc), str(exc)
    assert lam.space == eta.space == args[-1].source
    return lam.density(), eta.density()


def grid_cells(lo: Fraction, every: int = 1):
    """Every `every`-th cell of the fiber verify suite's merge grid with
    bound lo, as (nu, mu, a, params); every fourth of them is followed by
    the same cell with its first fiber weight lowered by 1/16, when that
    is still a measure."""
    grid = sampling.weight_grid(lo=lo)
    deep = sampling.weight_grid(lo=2 * lo)
    duos = sampling.normalized_pairs(grid)
    params_list = [ConvexParams(t, 0) for t in grid] + [ConvexParams(0, t) for t in grid if t != ZERO]
    cells = 0
    for mu_w in duos:
        mu = m(TGT, mu_w)
        for a_w in duos:
            a = m(TGT, a_w)
            for params in params_list:
                image = combine(mu, a, params).density()
                below = [g for g in deep if g < image[1]]
                pairs = [(image[1], v) for v in below + [image[1]]] + [(v, image[1]) for v in below]
                for v1, v2 in pairs:
                    cells += 1
                    if cells % every:
                        continue
                    yield m(SRC, [image[0], v1, v2]), mu, a, params
                    if cells % (4 * every) == 0 and ZERO in (image[0], v2):
                        lowered = Fraction(-1, 16) if v1 is NEG_INF else odot(v1, Fraction(-1, 16))
                        yield m(SRC, [image[0], lowered, v2]), mu, a, params


WEIGHTS = st.sampled_from([NEG_INF] + [Fraction(-k, 8) for k in range(17)])


@st.composite
def fiber_instances(draw):
    """A surjection and (nu, mu, a, params) on it: consistent by
    construction, or three free measures that mostly are not."""
    n_tgt = draw(st.integers(1, 3))
    extra = draw(st.lists(st.integers(0, n_tgt - 1), max_size=3))
    table = draw(st.permutations(list(range(n_tgt)) + extra))
    f = SpaceMap(FiniteSpace(len(table)), FiniteSpace(n_tgt), table)

    def measure(space):
        ws = draw(st.lists(WEIGHTS, min_size=space.n, max_size=space.n))
        ws[draw(st.integers(0, space.n - 1))] = ZERO
        return m(space, ws)

    tau = draw(WEIGHTS)
    params = draw(st.sampled_from([ConvexParams(tau, 0), ConvexParams(0, tau)]))
    if draw(st.booleans()):
        lam0, eta0 = measure(f.source), measure(f.source)
        return combine(lam0, eta0, params), pushforward(f, lam0), pushforward(f, eta0), params, f
    return measure(f.source), measure(f.target), measure(f.target), params, f


class TestAgainstTheMeasureLevelLift:
    """The weight-tuple lift gives the measure-level lift's (lam, eta),
    or its refusal with the same class and message."""

    @pytest.mark.parametrize(
        "lo, every, suite_cells",
        [(Fraction(-1, 2), 1, 22131), (Fraction(-1), 16, 213139)],
        ids=["whole-tiny-grid", "every-16th-default-cell"],
    )
    def test_verify_grid(self, lo, every, suite_cells):
        f = MERGE.as_space_map()
        seen = 0
        for nu, mu, a, params in grid_cells(lo, every):
            args = (nu, mu, a, params, f)
            assert outcome(lift_fiber_surjection, *args) == outcome(reference_lift_fiber_surjection, *args), args
            seen += 1
        assert seen > suite_cells // every

    @given(fiber_instances())
    @settings(max_examples=300, deadline=None)
    def test_drawn_surjections(self, instance):
        assert outcome(lift_fiber_surjection, *instance) == outcome(reference_lift_fiber_surjection, *instance)

    @pytest.mark.parametrize(
        "f, spaces",
        [
            (SpaceMap(SRC, TGT, [0, 0, 0]), (SRC, TGT, TGT)),
            (MERGE.as_space_map(), (FiniteSpace(4), TGT, TGT)),
            (MERGE.as_space_map(), (SRC, SRC, TGT)),
        ],
        ids=["not-surjective", "nu-off-source", "mu-off-target"],
    )
    def test_same_refusal_before_any_weight_is_read(self, f, spaces):
        nu, mu, a = (m(space, [ZERO] * space.n) for space in spaces)
        args = (nu, mu, a, ConvexParams(0, 0), f)
        assert outcome(lift_fiber_surjection, *args) == outcome(reference_lift_fiber_surjection, *args)
        assert isinstance(outcome(lift_fiber_surjection, *args)[1], str)
