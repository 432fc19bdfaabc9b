import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropibary.barycenter import barycenter_of_measures, barycenter_point
from tropibary.core import ConvexParams, TropVector, odot, oplus, oplus_all, s_point, scalar
from tropibary.errors import BadInput, NonConvexElement, SpaceMismatch
from tropibary.geometry import Box
from tropibary.lifting import BoxHost
from tropibary.measures import FiniteSpace, IdemMeasure, combine

coord_q = st.fractions(min_value=-4, max_value=0, max_denominator=16)
weight_q = st.fractions(min_value=-4, max_value=0, max_denominator=16)


def random_affine(dim: int, rng: random.Random):
    """p -> c oplus max_j (a_j odot p_j), coefficients on the grid -2..0 by 1/8."""
    grid = [Fraction(k, 8) for k in range(-16, 1)]
    coeffs = [rng.choice(grid) for _ in range(dim)]
    const = rng.choice(grid)
    return lambda p: oplus(oplus_all(map(odot, coeffs, p.coords)), const)


def point_measures(dim=2, k_max=4):
    def build(raw):
        pairs = [
            (TropVector([scalar(c) for c in cs]), scalar(w)) for cs, w in raw
        ]
        return IdemMeasure(pairs, renormalize=True)

    entry = st.tuples(st.lists(coord_q, min_size=dim, max_size=dim), weight_q)
    return st.lists(entry, min_size=1, max_size=k_max).map(build)


class TestBarycenterPoint:
    def test_frozen_value(self):
        mu = IdemMeasure(
            [(TropVector(("-1", "0")), "0"), (TropVector(("0", "-2")), "-1/4")]
        )
        assert barycenter_point(mu) == TropVector(("-1/4", "0"))

    def test_embedded_space_resolves_indices(self, plane_space):
        mu = IdemMeasure([(0, "0"), (1, "-1/4")], space=plane_space)
        assert barycenter_point(mu) == TropVector(("-1/4", "0"))

    def test_dirac_is_identity(self):
        p = TropVector(("-1", "-1/2"))
        assert barycenter_point(IdemMeasure([(p, "0")])) == p

    def test_unembedded_space_rejected(self, three_space):
        mu = IdemMeasure([(0, "0")], space=three_space)
        with pytest.raises(BadInput):
            barycenter_point(mu)

    def test_host_membership_check(self):
        mu = IdemMeasure([(TropVector(("-1", "0")), "0")])
        box = Box(TropVector(("-2", "-2")), TropVector(("0", "0")))
        assert BoxHost(box).bary(mu) == TropVector(("-1", "0"))
        tight = Box(TropVector(("0", "0")), TropVector(("0", "0")))
        with pytest.raises(NonConvexElement, match="escaped the host"):
            BoxHost(tight).bary(mu)

    @given(point_measures())
    def test_barycenter_in_coordinate_envelope(self, mu):
        # each coordinate is a max of (weight + coordinate) with some weight 0
        b = barycenter_point(mu)
        for j in range(2):
            hi = max(p[j] for p, _ in mu.atoms)
            assert b[j] <= hi
            assert any(odot(w, p[j]) == b[j] for p, w in mu.atoms)


class TestAffinity:
    @given(point_measures(), point_measures(), weight_q)
    @settings(max_examples=60)
    def test_binary_affinity(self, mu, nu, q):
        params = ConvexParams("0", scalar(q))
        lhs = barycenter_point(combine(mu, nu, params))
        rhs = s_point(barycenter_point(mu), barycenter_point(nu), params)
        assert lhs == rhs

    @given(st.lists(st.tuples(point_measures(), weight_q), min_size=2, max_size=4))
    @settings(max_examples=40)
    def test_nary_affinity(self, entries):
        # weighted join of measures vs weighted join of barycenters
        top = max(q for _, q in entries)
        coeffs = [scalar(q - top) for _, q in entries]
        mixed = IdemMeasure(
            [(a, odot(c, w)) for (m, _), c in zip(entries, coeffs) for a, w in m.atoms]
        )
        expect = barycenter_point(mixed)
        folded = None
        for (m, _), c in zip(entries, coeffs):
            shifted = [(p, odot(c, w)) for p, w in m.atoms]
            folded = shifted if folded is None else folded + shifted
        assert barycenter_point(IdemMeasure(folded)) == expect
        coords = []
        for j in range(2):
            coords.append(
                max(odot(c, barycenter_point(m)[j]) for (m, _), c in zip(entries, coeffs))
            )
        assert expect == TropVector(coords)


class TestNaturality:
    @given(point_measures(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_affine_maps_commute(self, mu, seed):
        rng = random.Random(seed)
        coords = [random_affine(2, rng), random_affine(2, rng)]

        def f(p: TropVector) -> TropVector:
            return TropVector([c(p) for c in coords])

        image = IdemMeasure([(f(a), w) for a, w in mu.atoms])
        assert barycenter_point(image) == f(barycenter_point(mu))


class TestMeasureOfMeasures:
    def test_flattening_matches_weighted_combination(self, three_space):
        inner1 = IdemMeasure([(0, "0"), (1, "-1")], space=three_space)
        inner2 = IdemMeasure([(2, "0")], space=three_space)
        big = IdemMeasure([(inner1, "0"), (inner2, "-1/2")])
        flat = barycenter_of_measures(big)
        assert flat == combine(inner1, inner2, ConvexParams("0", "-1/2"))

    def test_dirac_flattens_to_itself(self, three_space):
        inner = IdemMeasure([(0, "0"), (2, "-3/4")], space=three_space)
        assert barycenter_of_measures(IdemMeasure([(inner, "0")])) == inner

    def test_mixed_inner_spaces_rejected(self, three_space):
        a = IdemMeasure([(0, "0")], space=three_space)
        b = IdemMeasure([(0, "0")], space=FiniteSpace(2))
        with pytest.raises(SpaceMismatch):
            barycenter_of_measures(IdemMeasure([(a, "0"), (b, "0")]))

    @given(st.data())
    def test_affinity_of_flattening(self, data):
        space = FiniteSpace(3)

        def rand_measure():
            qs = [data.draw(weight_q) for _ in range(3)]
            return IdemMeasure(list(enumerate(map(scalar, qs))), space=space, renormalize=True)

        m1, m2, m3 = rand_measure(), rand_measure(), rand_measure()
        params = ConvexParams("0", scalar(data.draw(weight_q)))
        big1 = IdemMeasure([(m1, "0"), (m2, "-1/4")])
        big2 = IdemMeasure([(m3, "0")])
        lhs = barycenter_of_measures(combine(big1, big2, params))
        rhs = combine(barycenter_of_measures(big1), barycenter_of_measures(big2), params)
        assert lhs == rhs
