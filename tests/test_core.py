import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropibary.core import (
    NEG_INF,
    POS_INF,
    ZERO,
    ConvexParams,
    TropScalar,
    TropVector,
    odot,
    oplus,
    oplus_all,
    point_dist,
    residual,
    rho,
    s_point,
    scalar,
    trop_min,
    vector,
)
from tropibary.errors import BadInput, DimensionMismatch

finite_q = st.fractions(min_value=-8, max_value=8, max_denominator=64)
any_scalar = st.one_of(finite_q.map(TropScalar), st.just(NEG_INF))


class TestScalarConstruction:
    def test_parses_fraction_strings(self):
        assert TropScalar("-1/2").q == Fraction(-1, 2)
        assert TropScalar("3").q == Fraction(3)
        assert TropScalar("0.25").q == Fraction(1, 4)

    def test_parses_minus_inf(self):
        assert TropScalar("-inf").is_bottom
        assert str(NEG_INF) == "-inf"

    def test_accepts_int_and_fraction(self):
        assert TropScalar(-2) == TropScalar(Fraction(-2))

    def test_refuses_floats_and_bools(self):
        with pytest.raises(BadInput):
            TropScalar(0.5)
        with pytest.raises(BadInput):
            TropScalar(True)
        with pytest.raises(BadInput):
            scalar(float("nan"))

    @pytest.mark.parametrize(
        "text", ["abc", "1/0", "nan", "Infinity", "", " 1", "1_000", "0\n", "1e3", "inf", "-Inf"]
    )
    def test_refuses_malformed_strings(self, text):
        with pytest.raises(BadInput):
            TropScalar(text)

    def test_scalar_is_idempotent_on_scalars(self):
        s = TropScalar("-1/3")
        assert scalar(s) is s


class TestSemiring:
    @given(any_scalar, any_scalar)
    def test_oplus_is_max(self, a, b):
        assert oplus(a, b) == max(a, b)

    @given(any_scalar, any_scalar, any_scalar)
    def test_odot_associative(self, a, b, c):
        assert odot(odot(a, b), c) == odot(a, odot(b, c))

    @given(any_scalar)
    def test_units(self, a):
        assert oplus(a, NEG_INF) == a
        assert odot(a, ZERO) == a

    @given(any_scalar, any_scalar, any_scalar)
    def test_distributivity(self, a, b, c):
        assert odot(a, oplus(b, c)) == oplus(odot(a, b), odot(a, c))

    def test_bottom_absorbs_even_top(self):
        assert odot(POS_INF, NEG_INF) == NEG_INF

    def test_oplus_all(self):
        assert oplus_all([NEG_INF, TropScalar("-1"), ZERO]) == ZERO


class TestResiduation:
    @given(finite_q.map(TropScalar), finite_q.map(TropScalar))
    def test_finite_residual_is_difference(self, a, b):
        assert residual(a, b).q == a.q - b.q

    def test_bottom_cases(self):
        assert residual(NEG_INF, TropScalar("-1")) == NEG_INF
        assert residual(ZERO, NEG_INF) == POS_INF
        assert residual(NEG_INF, NEG_INF) == POS_INF

    @given(any_scalar, any_scalar)
    def test_galois_adjunction(self, a, b):
        # residual(a, b) is the largest c with c + b <= a
        r = residual(a, b)
        if not r.is_top:
            assert odot(r, b) <= a

    def test_trop_min_clamps_top(self):
        assert trop_min(POS_INF, TropScalar("-1")) == TropScalar("-1")
        assert trop_min(TropScalar("-2"), TropScalar("-1")) == TropScalar("-2")


class TestMetric:
    def test_rho_against_exponentials(self):
        assert rho(NEG_INF, ZERO) == 1.0
        assert math.isclose(rho(TropScalar("-1"), TropScalar("-2")), math.exp(-1) - math.exp(-2))

    @given(any_scalar, any_scalar, any_scalar)
    def test_triangle_inequality(self, a, b, c):
        assert rho(a, c) <= rho(a, b) + rho(b, c) + 1e-12

    @given(any_scalar, any_scalar)
    def test_symmetry_and_identity(self, a, b):
        assert rho(a, b) == rho(b, a)
        assert rho(a, a) == 0.0


class TestVectors:
    def test_construction_and_indexing(self):
        v = vector(["-1", "0"])
        assert v.dim == 2
        assert v[0] == TropScalar("-1")
        assert list(v) == [TropScalar("-1"), ZERO]

    def test_refuses_top_coordinate(self):
        with pytest.raises(BadInput):
            TropVector(("0", "+inf"))

    def test_shift_and_join(self):
        v = vector(["-1", "0"])
        w = vector(["0", "-2"])
        assert v.shift(TropScalar("-1")) == vector(["-2", "-1"])
        assert v.join(w) == vector(["0", "0"])

    def test_shift_refuses_plus_inf(self):
        with pytest.raises(BadInput, match=r"^\+inf cannot be stored in a vector$"):
            TropVector([0]).shift(POS_INF)

    @given(st.lists(any_scalar, min_size=1, max_size=4), any_scalar, st.data())
    def test_shift_and_join_equal_checked_vectors(self, coords, t, data):
        v = TropVector(coords)
        w = TropVector(data.draw(st.lists(any_scalar, min_size=len(coords), max_size=len(coords))))
        shifted = v.shift(t)
        joined = v.join(w)
        assert shifted == TropVector([odot(t, c) for c in coords])
        assert joined == TropVector([oplus(a, b) for a, b in zip(v, w)])
        for out in (shifted, joined):
            assert type(out.coords) is tuple
            assert hash(out) == hash(TropVector(out.coords))

    def test_leq_is_coordinatewise(self):
        assert vector(["-2", "-1"]).leq(vector(["-1", "-1"]))
        assert not vector(["0", "-1"]).leq(vector(["-1", "0"]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vector(["0"]).join(vector(["0", "0"]))

    def test_point_dist_is_sup_of_rho(self):
        d = point_dist(vector(["-1", "0"]), vector(["-1", "-1"]))
        assert math.isclose(d, rho(ZERO, TropScalar("-1")))


class TestConvexParams:
    def test_normalization_enforced(self):
        with pytest.raises(BadInput):
            ConvexParams("-1", "-1/2")
        with pytest.raises(BadInput):
            ConvexParams("1", "0")

    def test_swapped_mirrors_the_pair(self):
        assert ConvexParams("0", "-1").swapped() == ConvexParams("-1", "0")
        assert ConvexParams("0", "0").swapped() == ConvexParams("0", "0")

    def test_accepts_bottom_side(self):
        p = ConvexParams("-inf", "0")
        assert p.t.is_bottom and p.p == ZERO

    def test_dist(self):
        a = ConvexParams("0", "-1")
        b = ConvexParams("0", "-2")
        assert math.isclose(a.dist(b), rho(TropScalar("-1"), TropScalar("-2")))


class TestPointCombination:
    def test_matches_join_of_shifts(self):
        x = vector(["-1", "0"])
        y = vector(["0", "-2"])
        p = ConvexParams("0", "-1/2")
        assert s_point(x, y, p) == x.join(y.shift(TropScalar("-1/2")))

    @given(
        st.lists(finite_q, min_size=2, max_size=2),
        st.lists(finite_q, min_size=2, max_size=2),
    )
    def test_idempotent_at_equal_args(self, xs, ys):
        x = TropVector([TropScalar(c) for c in xs])
        p = ConvexParams("0", "0")
        assert s_point(x, x, p) == x

    def test_degenerate_params_project(self):
        x = vector(["-1", "0"])
        y = vector(["0", "-2"])
        assert s_point(x, y, ConvexParams("0", "-inf")) == x
        assert s_point(x, y, ConvexParams("-inf", "0")) == y


# Reference order: kind first (-inf < finite < +inf), then the rational.
KINDED = {"-inf": (-1, 0), "+inf": (1, 0)}
SAMPLE_TEXTS = ["-inf", "-1", "-1/2", "0", "1/3", "+inf"]


def kind_q(text):
    return KINDED[text] if text in KINDED else (0, Fraction(text))


@pytest.mark.parametrize("x", SAMPLE_TEXTS)
@pytest.mark.parametrize("y", SAMPLE_TEXTS)
def test_kernel_matches_kind_q_definition(x, y):
    a, b = TropScalar(x), TropScalar(y)
    ka, kb = kind_q(x), kind_q(y)
    assert (a < b, a <= b, a > b, a >= b, a == b) == (ka < kb, ka <= kb, ka > kb, ka >= kb, ka == kb)
    if a == b:
        assert hash(a) == hash(b)
    if ka[0] == -1 or kb[0] == -1:
        expect = NEG_INF
    elif ka[0] == 1 or kb[0] == 1:
        expect = POS_INF
    else:
        expect = TropScalar(ka[1] + kb[1])
    assert odot(a, b) == expect
    if ka[0] == 1 or kb[0] == 1:
        with pytest.raises(BadInput):
            residual(a, b)
        return
    if kb[0] == -1:
        expect = POS_INF
    elif ka[0] == -1:
        expect = NEG_INF
    else:
        expect = TropScalar(ka[1] - kb[1])
    got = residual(a, b)
    assert got == expect
    assert got.is_finite == expect.is_finite
    if got.is_finite:
        assert type(got.q) is Fraction and str(got) == str(expect.q)
