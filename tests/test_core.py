import copy
import itertools
import math
import pickle
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tropibary import core, measures
from tropibary.core import (
    NEG_INF,
    PARSE_TABLE_CAP,
    PARSE_TEXT_CAP,
    POS_INF,
    SCALAR_TEXT,
    ZERO,
    ConvexParams,
    TropVector,
    _dot,
    _vector,
    odot,
    oplus,
    oplus_all,
    point_dist,
    residual,
    rho,
    s_point,
    scalar,
    trop_min,
)
from tropibary.errors import QUOTE_CAP, BadInput, DimensionMismatch
from tropibary.geometry import TropPolytope

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

    def test_exponents_below_the_float_range_read_zero(self):
        deep = scalar("-1" + "0" * 400)
        assert rho(deep, ZERO) == rho(ZERO, deep) == 1.0
        assert rho(deep, NEG_INF) == rho(deep, scalar(-2000)) == rho(deep, deep - 1) == 0.0
        assert rho(deep, scalar("-1/2")) == math.exp(-0.5)

    def test_equal_arguments_far_up_are_at_zero(self):
        for text in ("800", "1" + "0" * 400, "7101/10"):
            assert rho(scalar(text), scalar(text)) == 0.0

    @pytest.mark.parametrize(
        "a, b",
        [("800", "700"), ("1" + "0" * 400, "0"), ("800", "-inf"), ("-1" + "0" * 400, "710")],
        ids=["800,700", "10^400,0", "800,-inf", "-10^400,710"],
    )
    def test_a_distance_above_the_float_range_is_refused(self, a, b):
        with pytest.raises(BadInput, match="is above the float range$") as info:
            rho(scalar(a), scalar(b))
        assert info.value.__cause__ is None and info.value.__suppress_context__
        assert len(str(info.value)) < 2 * QUOTE_CAP + 50

    def test_close_values_far_up_are_floats(self):
        top = scalar(710)
        assert math.isclose(rho(top, top - Fraction(1, 100)), decimal_rho(top, top - Fraction(1, 100)), rel_tol=1e-12)
        tiny = Fraction(1, 10**500)
        assert math.isclose(rho(top, top - tiny), math.exp(710 - 500 * math.log(10)), rel_tol=1e-12)
        below = scalar(709)
        assert rho(below, scalar("-1" + "0" * 400)) == rho(below, NEG_INF) == math.exp(709)


class TestVectors:
    def test_construction_and_indexing(self):
        v = TropVector(["-1", "0"])
        assert v.dim == 2
        assert type(v[0]) is Fraction and v[0] == scalar("-1")
        assert list(v) == [scalar("-1"), ZERO]

    def test_refuses_top_coordinate(self):
        with pytest.raises(BadInput):
            TropVector(("0", "+inf"))

    def test_shift_and_join(self):
        v = TropVector(["-1", "0"])
        w = TropVector(["0", "-2"])
        assert v.shift(scalar("-1")) == TropVector(["-2", "-1"])
        assert v.join(w) == TropVector(["0", "0"])

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
        assert TropVector(["-2", "-1"]).leq(TropVector(["-1", "-1"]))
        assert not TropVector(["0", "-1"]).leq(TropVector(["-1", "0"]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            TropVector(["0"]).join(TropVector(["0", "0"]))

    def test_point_dist_is_sup_of_rho(self):
        d = point_dist(TropVector(["-1", "0"]), TropVector(["-1", "-1"]))
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
        x = TropVector(["-1", "0"])
        y = TropVector(["0", "-2"])
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
        x = TropVector(["-1", "0"])
        y = TropVector(["0", "-2"])
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


# -- the kernel is pinned to Fraction's own operators ------------------------

# Denominators the kernel's gcd steps treat differently: dyadic (the
# samplers' lattice), odd, a huge prime-like one, and small ones.
wide_denominator = st.one_of(
    st.integers(0, 64).map(lambda k: 2**k),
    st.integers(0, 10**6).map(lambda k: 2 * k + 1),
    st.just(10**30 + 7),
    st.integers(1, 60),
)
wide_q = st.builds(Fraction, st.integers(-(10**40), 10**40), wide_denominator)
wide_scalar = st.one_of(wide_q, st.sampled_from([NEG_INF, POS_INF]))
# A pair whose sum or difference is 0 goes through the kernel's last
# reduction step, and a tie between two equal objects shows which one
# oplus and trop_min hand back, so some pairs are (a, -a) or (a, copy of a).
wide_pair = st.one_of(
    st.tuples(wide_scalar, wide_scalar),
    wide_q.map(lambda a: (a, -a)),
    wide_q.map(lambda a: (a, Fraction(a.numerator, a.denominator))),
)


def same_scalar(got, want):
    """Identical sentinel, or a Fraction equal to want in every reading."""
    if not isinstance(want, Fraction):
        return got is want
    return (type(got), got.numerator, got.denominator, hash(got), str(got)) == (
        Fraction, want.numerator, want.denominator, hash(want), str(want)
    )


def reference_rho(a, b):
    try:
        return abs(
            (0.0 if a is NEG_INF else math.exp(float(a))) - (0.0 if b is NEG_INF else math.exp(float(b)))
        )
    except OverflowError:
        return OverflowError


def decimal_rho(a, b):
    """|e^a - e^b| to 120 digits, None when it is above the float range.

    Defined for exponents up to 10^5.  Two distinct exponents of
    `wide_q` differ by at least 10^-61, so e^a and e^b are told apart
    with room to spare.
    """
    with localcontext() as ctx:
        ctx.prec = 120
        ea, eb = (Decimal(0) if x is NEG_INF else (Decimal(x.numerator) / x.denominator).exp() for x in (a, b))
        d = abs(ea - eb)
        return None if d > Decimal(sys.float_info.max) else float(d)


def check_rho_outside(a, b):
    """rho where e^a or e^b overflows a float: 0.0 for equal arguments,
    the float of |e^a - e^b| when it is one, BadInput when it is not.
    Above 10^5 two distinct `wide_q` exponents always land above the
    float range."""
    if a == b:
        assert rho(a, b) == 0.0
        return
    want = decimal_rho(a, b) if max(a, b) <= 10**5 else None
    if want is None:
        with pytest.raises(BadInput, match="is above the float range$"):
            rho(a, b)
    else:
        assert math.isclose(rho(a, b), want, rel_tol=1e-12)


@given(wide_pair, wide_pair)
@example((Fraction(-3, 2**40), Fraction(5, 2**12)), (Fraction(7, 3**5), Fraction(-2, 15)))
@example((Fraction(1, 10**30 + 7), Fraction(-1, 10**30 + 7)), (Fraction(-5, 8), Fraction(5, 8)))
@example((Fraction(10**40, 2**64), Fraction(-3, 10**30 + 7)), (Fraction(0), Fraction(0)))
@example((NEG_INF, Fraction(1, 3)), (Fraction(-1, 2), POS_INF))
@example((POS_INF, NEG_INF), (NEG_INF, NEG_INF))
def test_kernel_results_are_the_fraction_operators_results(ab, cd):
    a, b = ab
    c, d = cd
    if a is NEG_INF or b is NEG_INF:
        want_sum = NEG_INF
    elif a is POS_INF or b is POS_INF:
        want_sum = POS_INF
    else:
        want_sum = a + b
    assert same_scalar(odot(a, b), want_sum)
    if a is POS_INF or b is POS_INF:
        with pytest.raises(BadInput):
            residual(a, b)
        with pytest.raises(BadInput):
            rho(a, b)
    else:
        want_diff = POS_INF if b is NEG_INF else NEG_INF if a is NEG_INF else a - b
        assert same_scalar(residual(a, b), want_diff)
        want_rho = reference_rho(a, b)
        if want_rho is OverflowError:
            check_rho_outside(a, b)
        else:
            assert rho(a, b) == want_rho
    assert oplus(a, b) is max(a, b)
    assert trop_min(a, b) is min(a, b)
    assert oplus_all([a, NEG_INF, b, c, d]) is max(a, b, c, d)
    assert oplus_all([]) is NEG_INF
    if POS_INF not in (a, b, c, d):
        assert TropVector([a, c]).leq(TropVector([b, d])) is (a <= b and c <= d)


NON_SCALARS = [0.5, 1, True, "1/2", None]
BINARY_KERNEL = [odot, oplus, residual, trop_min, rho]


@pytest.mark.parametrize("bad", NON_SCALARS, ids=repr)
@pytest.mark.parametrize("fn", BINARY_KERNEL, ids=lambda f: f.__name__)
def test_kernel_refuses_non_scalars(fn, bad):
    for args in ((Fraction(1, 2), bad), (bad, Fraction(-3))):
        with pytest.raises(BadInput, match=r"is not a scalar; build scalars with scalar\(\)$") as info:
            fn(*args)
        assert info.value.__cause__ is None and info.value.__suppress_context__
    with pytest.raises(BadInput, match="not a scalar"):
        oplus_all([Fraction(0), bad])
    with pytest.raises(BadInput, match="not a scalar"):
        oplus_all([NEG_INF, bad])


@pytest.mark.parametrize("bad", NON_SCALARS, ids=repr)
def test_operands_a_sentinel_hands_back_are_refused_too(bad):
    for call in (
        lambda: oplus(NEG_INF, bad),
        lambda: oplus(bad, NEG_INF),
        lambda: trop_min(POS_INF, bad),
        lambda: trop_min(bad, POS_INF),
    ):
        with pytest.raises(BadInput, match="not a scalar"):
            call()
    # -inf absorbs the other operand of odot without reading it
    assert odot(NEG_INF, bad) is NEG_INF


def test_errors_from_the_callers_items_keep_their_wording():
    def items():
        yield Fraction(1)
        raise AttributeError("the caller's own fault")

    with pytest.raises(AttributeError, match="^the caller's own fault$"):
        oplus_all(items())
    with pytest.raises(BadInput, match="^residual is undefined for \\+inf operands$"):
        oplus_all(residual(Fraction(0), x) for x in (Fraction(1), POS_INF))


# -- the max-plus product kernel against the fold it replaces -----------------

# Values far above and below the float range, on the wide denominators.
huge_q = st.builds(
    lambda sign, k, d: Fraction(sign * 10**400 + k, d),
    st.sampled_from([-1, 1]),
    st.integers(-(10**6), 10**6),
    wide_denominator,
)
dot_scalar = st.one_of(wide_q, huge_q, st.sampled_from([ZERO, NEG_INF, POS_INF]))
# Now and then a term holds a non-scalar.
dot_term = st.one_of(dot_scalar, dot_scalar, dot_scalar, st.sampled_from(NON_SCALARS))


def reference_dot(coeffs, values):
    """The product as one odot per term, folded by oplus_all."""
    return oplus_all(map(odot, coeffs, values))


@given(st.lists(st.tuples(dot_term, dot_term), max_size=6))
@example([])
@example([(NEG_INF, Fraction(1)), (Fraction(1), NEG_INF)])
@example([(ZERO, Fraction(-1, 3)), (Fraction(-1, 6), Fraction(-1, 6))])
@example([(Fraction(10**400 + 1, 3), Fraction(-(10**400), 3)), (ZERO, Fraction(1, 3))])
@example([(POS_INF, ZERO), (Fraction(1), 0.5)])
@example([(ZERO, "1/2"), (NEG_INF, None), (POS_INF, 1)])
@example([(Fraction(-1, 2), True)])
def test_dot_is_the_fold_of_odot_and_oplus_all(terms):
    coeffs = [c for c, _ in terms]
    values = [v for _, v in terms]
    try:
        want = reference_dot(coeffs, values)
    except BadInput as exc:
        with pytest.raises(BadInput) as info:
            _dot(coeffs, values)
        assert str(info.value) == str(exc)
        assert info.value.__cause__ is None and info.value.__suppress_context__
        return
    assert same_scalar(_dot(coeffs, values), want)
    assert same_scalar(_dot(iter(coeffs), iter(values)), want)


def test_dot_keeps_a_zero_coefficient_term_and_the_callers_errors():
    v = Fraction(-1, 3)
    assert _dot([ZERO, Fraction(-1)], [v, Fraction(0)]) is v

    def values():
        yield Fraction(1)
        raise AttributeError("the caller's own fault")

    with pytest.raises(AttributeError, match="^the caller's own fault$"):
        _dot([ZERO, ZERO], values())


# -- the point layer's fast paths against the Fraction semantics they replace --

# Every finite spelling SCALAR_TEXT allows: signs, leading zeros, -0, p/q
# with any denominator (0 too), decimals with or without a whole part.
rational_text = st.from_regex(r"[+-]?[0-9]{1,24}(/[0-9]{1,24})?|[+-]?[0-9]{0,12}\.[0-9]{1,12}", fullmatch=True)


@given(rational_text)
@example("-0")
@example("+0/5")
@example("007/014")
@example("-12/0")
@example("0/0")
@example("-.50")
@example("+00.000")
@example("3.")  # not a SCALAR_TEXT string: refused like any other
@example("-" + "1" * 5000)  # more digits than int() converts
def test_scalar_text_is_read_as_fraction_reads_it(text):
    assert_read_as_fraction_reads_it(text)


def assert_read_as_fraction_reads_it(text):
    """scalar() and measures._finite_q give Fraction(text), or refuse
    the text with their own wording where Fraction or SCALAR_TEXT does."""
    try:
        want = Fraction(text) if SCALAR_TEXT.fullmatch(text) else None
    except (ZeroDivisionError, ValueError):
        want = None
    # a refusal quotes the text cut at QUOTE_CAP characters
    quoted = repr(text) if len(repr(text)) <= QUOTE_CAP else repr(text)[:QUOTE_CAP] + "..."
    for parse, words in ((scalar, "is not a rational or -inf"), (measures._finite_q, "is not a finite rational")):
        if want is None:
            with pytest.raises(BadInput) as info:
                parse(text)
            assert str(info.value) == f"{quoted} {words}"
        else:
            assert same_scalar(parse(text), want)


# -- the parse table behind scalar() and measures._finite_q --


@given(rational_text)
@example("-0")
@example("-12/0")
@example("3.")
@example("-" + "1" * 5000)
def test_parse_table_reads_each_text_as_fraction_reads_it(text):
    """Read twice, the second time from the table, then again once the
    table has been filled past its cap with other texts."""
    assert_read_as_fraction_reads_it(text)
    assert_read_as_fraction_reads_it(text)
    for k in range(PARSE_TABLE_CAP + 1):
        core._parse(f"x{k}")  # never a rational_text string
    assert core._parse_table.cache_info().currsize == PARSE_TABLE_CAP
    assert_read_as_fraction_reads_it(text)


def test_parse_table_keeps_short_texts_only_and_at_most_its_cap():
    table = core._parse_table
    table.cache_clear()
    long_refused = "-" + "1" * 5000
    long_read = "-" + "1" * PARSE_TEXT_CAP + "/3"
    for text in (long_refused, long_read, long_read):
        assert_read_as_fraction_reads_it(text)
    assert table.cache_info().currsize == 0
    at_cap = "-" + "1" * (PARSE_TEXT_CAP - 1)
    assert_read_as_fraction_reads_it(at_cap)
    assert table.cache_info().currsize == 1
    for k in range(2 * PARSE_TABLE_CAP):
        assert same_scalar(scalar(f"-{k}/8"), Fraction(-k, 8))
        assert table.cache_info().currsize <= PARSE_TABLE_CAP
    assert table.cache_info().currsize == PARSE_TABLE_CAP


@pytest.mark.parametrize(
    "value, words",
    [
        ("-inf", "'-inf' is not a finite rational"),
        ("+inf", "'+inf' is not a finite rational"),
        (NEG_INF, "-inf is not finite"),
        (None, "None is not a finite rational"),
        (0.5, "refusing inexact value 0.5"),
    ],
)
def test_table_values_refuse_what_is_not_a_finite_rational(value, words):
    with pytest.raises(BadInput) as info:
        measures._finite_q(value)
    assert str(info.value) == words


def rebuilt(q):
    """An equal scalar that is a different object."""
    return q if q is NEG_INF else Fraction(q.numerator, q.denominator)


coordinate_lists = st.lists(any_scalar, min_size=1, max_size=4)


@given(coordinate_lists, st.one_of(coordinate_lists, coordinate_lists.map(lambda cs: [rebuilt(c) for c in cs])))
@example([ZERO, NEG_INF], [Fraction(0), NEG_INF])
@example([NEG_INF], [ZERO])
@example([Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)])
@example([Fraction(1, 2), Fraction(-1, 3)], [Fraction(1, 2), Fraction(-1, 4)])
def test_vector_equality_and_hash_are_the_coordinate_tuples(a, b):
    for make in (TropVector, lambda cs: _vector(tuple(cs))):
        v, w = make(a), make(b)
        assert (v == w) is (tuple(a) == tuple(b))
        assert (v != w) is (tuple(a) != tuple(b))
        assert hash(v) == hash(tuple(a)) and hash(w) == hash(tuple(b))
        for copied in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            # v's hash is cached by now; a copy hashes its own coordinates
            assert copied._hash is None
            assert copied == v and hash(copied) == hash(tuple(a))
            assert (copied == w) is (tuple(a) == tuple(b))


def folded_combination(points, coeffs):
    """The combination as two-vector shifts and joins, one point at a time."""
    out = points[0].shift(coeffs[0])
    for point, c in zip(points[1:], coeffs[1:]):
        out = out.join(point.shift(c))
    return out


combination_coefficient = st.one_of(any_scalar, st.just(ZERO))
points_and_coefficients = st.integers(1, 3).flatmap(
    lambda dim: st.lists(
        st.lists(finite_q, min_size=dim, max_size=dim).map(TropVector), min_size=1, max_size=5, unique=True
    )
).flatmap(
    lambda points: st.tuples(
        st.just(points), st.lists(combination_coefficient, min_size=len(points), max_size=len(points))
    )
)


@given(points_and_coefficients)
@example(([TropVector([0, -1]), TropVector([-1, 0])], [NEG_INF, NEG_INF]))
@example(([TropVector([0, -1]), TropVector([-1, 0])], [ZERO, ZERO]))
@example(([TropVector(["-1/2"]), TropVector(["1/3"])], [NEG_INF, Fraction(-1, 6)]))
def test_combination_is_the_fold_of_shifts_and_joins(case):
    points, coeffs = case
    want = folded_combination(points, coeffs)
    got = TropPolytope(points).combination(coeffs)
    assert len(got.coords) == len(want.coords)
    assert all(map(same_scalar, got.coords, want.coords))
    assert hash(got) == hash(want.coords)


@given(coordinate_lists, st.data(), st.sampled_from([("0", "0"), ("0", "-inf"), ("-inf", "0"), ("-1/3", "0")]))
def test_s_point_is_the_join_of_two_shifts(xs, data, tp):
    x = TropVector(xs)
    y = TropVector(data.draw(st.lists(any_scalar, min_size=len(xs), max_size=len(xs))))
    params = ConvexParams(*tp)
    want = x.shift(params.t).join(y.shift(params.p))
    assert all(map(same_scalar, s_point(x, y, params).coords, want.coords))


def test_combination_refusals_keep_their_wording():
    poly = TropPolytope([TropVector([0, -1]), TropVector([-1, 0])])
    with pytest.raises(BadInput, match=r"^one coefficient per generator$"):
        poly.combination([ZERO])
    with pytest.raises(BadInput, match=r"^\+inf cannot be stored in a vector$"):
        poly.combination([NEG_INF, POS_INF])
    with pytest.raises(BadInput, match="inexact"):
        poly.combination([ZERO, 0.5])
    assert poly.combination(["0", "-1/2"]) == TropVector(["0", "-1/2"])
