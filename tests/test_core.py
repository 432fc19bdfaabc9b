import copy
import itertools
import math
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropibary.core import (
    NEG_INF,
    POS_INF,
    ZERO,
    ConvexParams,
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
any_scalar = st.one_of(finite_q, st.just(NEG_INF))


class TestScalarConstruction:
    def test_parses_fraction_strings(self):
        assert scalar("-1/2") == Fraction(-1, 2)
        assert scalar("3") == Fraction(3)
        assert scalar("0.25") == Fraction(1, 4)

    def test_parses_minus_inf(self):
        assert scalar("-inf") is NEG_INF
        assert scalar("+inf") is POS_INF
        assert str(NEG_INF) == "-inf"
        assert str(POS_INF) == "+inf"
        assert float(NEG_INF) == -math.inf and float(POS_INF) == math.inf

    def test_accepts_int_and_fraction(self):
        assert scalar(-2) == scalar(Fraction(-2))

    def test_refuses_floats_and_bools(self):
        with pytest.raises(BadInput):
            scalar(0.5)
        with pytest.raises(BadInput):
            scalar(True)
        with pytest.raises(BadInput):
            scalar(float("nan"))

    @pytest.mark.parametrize(
        "text", ["abc", "1/0", "nan", "Infinity", "", " 1", "1_000", "0\n", "1e3", "inf", "-Inf"]
    )
    def test_refuses_malformed_strings(self, text):
        with pytest.raises(BadInput):
            scalar(text)

    def test_scalar_is_idempotent_on_scalars(self):
        s = scalar("-1/3")
        assert scalar(s) is s
        assert scalar(NEG_INF) is NEG_INF and scalar(POS_INF) is POS_INF

    def test_sentinels_survive_copy_and_pickle(self):
        for s in (NEG_INF, POS_INF):
            assert copy.copy(s) is s
            assert copy.deepcopy(s) is s
            assert pickle.loads(pickle.dumps(s)) is s


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
        assert oplus_all([NEG_INF, scalar("-1"), ZERO]) == ZERO


class TestResiduation:
    @given(finite_q, finite_q)
    def test_finite_residual_is_difference(self, a, b):
        assert residual(a, b) == a - b

    def test_bottom_cases(self):
        assert residual(NEG_INF, scalar("-1")) == NEG_INF
        assert residual(ZERO, NEG_INF) == POS_INF
        assert residual(NEG_INF, NEG_INF) == POS_INF

    @given(any_scalar, any_scalar)
    def test_galois_adjunction(self, a, b):
        # residual(a, b) is the largest c with c + b <= a
        r = residual(a, b)
        if r is not POS_INF:
            assert odot(r, b) <= a

    def test_trop_min_clamps_top(self):
        assert type(trop_min(POS_INF, scalar("-1"))) is Fraction and trop_min(POS_INF, scalar("-1")) == scalar("-1")
        assert type(trop_min(scalar("-2"), scalar("-1"))) is Fraction and trop_min(scalar("-2"), scalar("-1")) == scalar("-2")


class TestMetric:
    def test_rho_against_exponentials(self):
        assert rho(NEG_INF, ZERO) == 1.0
        assert math.isclose(rho(scalar("-1"), scalar("-2")), math.exp(-1) - math.exp(-2))

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
        assert type(v[0]) is Fraction and v[0] == scalar("-1")
        assert list(v) == [scalar("-1"), ZERO]

    def test_refuses_top_coordinate(self):
        with pytest.raises(BadInput):
            TropVector(("0", "+inf"))

    def test_shift_and_join(self):
        v = vector(["-1", "0"])
        w = vector(["0", "-2"])
        assert v.shift(scalar("-1")) == vector(["-2", "-1"])
        assert v.join(w) == vector(["0", "0"])

    def test_shift_refuses_plus_inf(self):
        with pytest.raises(BadInput, match=r"^\+inf cannot be stored in a vector$"):
            TropVector([0]).shift(POS_INF)

    def test_shift_refuses_floats_and_coerces_text(self):
        with pytest.raises(BadInput, match="inexact"):
            TropVector([0]).shift(0.5)
        assert TropVector([0]).shift("-1/2").coords == (Fraction(-1, 2),)

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
        assert math.isclose(d, rho(ZERO, scalar("-1")))


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
        assert p.t is NEG_INF and p.p == ZERO

    def test_dist(self):
        a = ConvexParams("0", "-1")
        b = ConvexParams("0", "-2")
        assert math.isclose(a.dist(b), rho(scalar("-1"), scalar("-2")))


class TestPointCombination:
    def test_matches_join_of_shifts(self):
        x = vector(["-1", "0"])
        y = vector(["0", "-2"])
        p = ConvexParams("0", "-1/2")
        assert s_point(x, y, p) == x.join(y.shift(scalar("-1/2")))

    @given(
        st.lists(finite_q, min_size=2, max_size=2),
        st.lists(finite_q, min_size=2, max_size=2),
    )
    def test_idempotent_at_equal_args(self, xs, ys):
        x = TropVector([scalar(c) for c in xs])
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


# Both orders of every pair are drawn, so each comparison runs with the
# Fraction on the left of a sentinel (through the reflected methods) and
# on its right.
@pytest.mark.parametrize("x", SAMPLE_TEXTS)
@pytest.mark.parametrize("y", SAMPLE_TEXTS)
def test_kernel_matches_kind_q_definition(x, y):
    a, b = scalar(x), scalar(y)
    ka, kb = kind_q(x), kind_q(y)
    assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == (
        ka < kb, ka <= kb, ka > kb, ka >= kb, ka == kb, ka != kb
    )
    if a == b:
        assert hash(a) == hash(b)
    assert (max(a, b), min(a, b)) == (oplus(a, b), trop_min(a, b))
    if ka[0] == -1 or kb[0] == -1:
        expect = NEG_INF
    elif ka[0] == 1 or kb[0] == 1:
        expect = POS_INF
    else:
        expect = ka[1] + kb[1]
    got = odot(a, b)
    assert got == expect
    assert type(got) is Fraction or got is expect
    if ka[0] == 1 or kb[0] == 1:
        with pytest.raises(BadInput):
            residual(a, b)
        return
    if kb[0] == -1:
        expect = POS_INF
    elif ka[0] == -1:
        expect = NEG_INF
    else:
        expect = ka[1] - kb[1]
    got = residual(a, b)
    assert got == expect
    assert type(got) is Fraction or got is expect
    assert str(got) == str(expect)


def test_sorted_mixed_lists_follow_the_reference_order():
    want = [scalar(t) for t in SAMPLE_TEXTS]
    for perm in itertools.permutations(want):
        got = sorted(perm)
        assert all(g is w or (type(g) is Fraction and g == w) for g, w in zip(got, want))
        assert sorted(perm, reverse=True) == want[::-1]
        assert (max(perm), min(perm)) == (POS_INF, NEG_INF)
        assert sorted(perm, key=lambda s: kind_q(str(s))) == got


@pytest.mark.parametrize("value", [0, -3, 7, "0", "-1/2", "0.25", "+3", Fraction(0), Fraction(-5, 4)])
def test_finite_scalars_are_plain_fractions(value):
    s = scalar(value)
    assert type(s) is Fraction and s == Fraction(value)


def test_sentinel_hashes_ignore_the_hash_seed(child_env):
    code = (
        "from fractions import Fraction\n"
        "from tropibary.core import NEG_INF, POS_INF\n"
        "print(hash(NEG_INF), hash(POS_INF), [str(s) for s in {NEG_INF, POS_INF, Fraction(1, 2)}])"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**child_env, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(outs) == 1
