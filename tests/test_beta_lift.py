"""Lifting the barycenter map itself: witnesses by induction on atoms,
run as one pass, against the recursive construction it replaced."""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropibary.barycenter import barycenter_of_measures, barycenter_point
from tropibary.core import NEG_INF, ZERO, ConvexParams, TropVector, _cmp
from tropibary.errors import QUOTE_CAP, BadInput, Rejection, TropibaryError, certify
from tropibary.geometry import Box
from tropibary.lifting import BoxHost, MeasureHost, brute_force_lift_beta, lift_beta
from tropibary.measures import FiniteSpace, IdemMeasure, combine, measure_dist
from tropibary.sampling import (
    dyadic_delta,
    lattice_targets_near,
    random_measure_on_space,
    random_point_measure,
    random_weights,
    spawn,
    standard_box,
)

BOX = standard_box(2)
HOST = BoxHost(BOX)


def pm(*pairs):
    return IdemMeasure([(TropVector(coords), w) for coords, w in pairs])


def recursive_lift_beta(nu: IdemMeasure, target, host) -> IdemMeasure:
    """The recursive lift that the one-pass `lift_beta` replaced, as it
    was, except that the hosts' former `dirac` (IdemMeasure.dirac on both)
    is called directly and its unreachable no-zero-weight branch raises
    plain BadInput."""
    if not host.contains(target):
        raise BadInput(f"target {target!r} is not a point of the host")
    atoms = list(nu.atoms)
    if len(atoms) == 1:
        out = IdemMeasure.dirac(target)
    else:
        z = next((k for k, (_, w) in enumerate(atoms) if _cmp(w, ZERO) == 0), None)
        if z is None:
            raise BadInput("no zero-weight atom to lead the split")
        atoms = [atoms[z]] + atoms[:z] + atoms[z + 1 :]
        last_atom, last_weight = atoms[-1]
        nu1 = IdemMeasure(atoms[:-1], space=nu.space)
        y0 = host.bary(nu1)
        w = host.lift_s(y0, last_atom, ConvexParams(0, last_weight), target)
        nu1_lift = recursive_lift_beta(nu1, w.lifted_first, host)
        out = combine(nu1_lift, IdemMeasure.dirac(w.lifted_second), w.params)
    certify(host.bary(out) == target, "lifted measure's barycenter misses the target")
    return out


def outcome(lift, nu, target, host):
    """The witness with its exact text, or the error's class and text."""
    try:
        out = lift(nu, target, host)
    except TropibaryError as exc:
        return type(exc).__name__, str(exc)
    return out, repr(out)


MOVES = [ZERO] + [sign * dyadic_delta(j) for j in range(1, 9) for sign in (1, -1)]


def box_instance(rng):
    """A point measure of up to 8 atoms in BOX and its barycenter moved
    both ways, coordinate by coordinate (it may leave the box)."""
    nu = random_point_measure(rng, BOX, k_max=8)
    center = barycenter_point(nu)
    return nu, TropVector([c + rng.choice(MOVES) for c in center.coords]), HOST


def measure_instance(rng):
    """A measure of up to 6 measures on a space of up to 4 points and its
    barycenter with every weight moved both ways, renormalized."""
    space = FiniteSpace(rng.randint(1, 4))
    inner = [random_measure_on_space(rng, space) for _ in range(rng.randint(1, 6))]
    big = IdemMeasure(list(zip(inner, random_weights(rng, len(inner), bottom_rate=0.0))))
    moved = [
        w if w is NEG_INF else w + rng.choice(MOVES)
        for w in barycenter_of_measures(big).density()
    ]
    if all(w is NEG_INF for w in moved):
        moved[0] = ZERO
    target = IdemMeasure.from_weights(space, moved, renormalize=True)
    return big, target, MeasureHost(space)


class TestBoxHostLift:
    def test_frozen_two_atom_lift(self):
        nu = pm((("-2", "-1"), "0"), (("-1", "-2"), "0"))
        out = lift_beta(nu, TropVector(("-9/10", "-99/100")), HOST)
        assert out == pm((("-2", "-99/100"), "0"), (("-9/10", "-2"), "0"))
        assert barycenter_point(out) == TropVector(("-9/10", "-99/100"))

    def test_single_atom_lifts_to_dirac(self):
        nu = pm((("-1", "-1"), "0"))
        target = TropVector(("-1/2", "-3/4"))
        assert lift_beta(nu, target, HOST) == IdemMeasure.dirac(target)

    def test_identity_at_exact_barycenter(self):
        nu = pm((("-2", "-1"), "0"), (("-1", "-2"), "-1/4"), (("-1/2", "-3/2"), "-1"))
        assert lift_beta(nu, barycenter_point(nu), HOST) == nu

    def test_target_outside_host_rejected(self):
        nu = pm((("-1", "-1"), "0"))
        with pytest.raises(BadInput, match="not a point of the host"):
            lift_beta(nu, TropVector(("1", "0")), HOST)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_identity(self, seed):
        rng = spawn(seed, "beta-identity")
        nu = random_point_measure(rng, BOX, k_max=4)
        assert lift_beta(nu, barycenter_point(nu), HOST) == nu

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_near_targets_lift_exactly_and_stay_close(self, seed):
        rng = spawn(seed, "beta-near")
        nu = random_point_measure(rng, BOX, k_max=4)
        center = barycenter_point(nu)
        for cand in lattice_targets_near(center, BOX, dyadic_delta(8)):
            try:
                out = lift_beta(nu, cand, HOST)
            except Rejection:
                continue
            assert barycenter_point(out) == cand
            assert all(BOX.contains(p) for p, _ in out.atoms)
            assert measure_dist(out, nu) <= 1e-2
            return
        pytest.fail("no lattice target near the barycenter was accepted")

    def test_oracle_confirms_frozen_instance(self):
        nu = pm((("-2", "-1"), "0"), (("-1", "-2"), "0"))
        target = TropVector(("-7/8", "-1"))
        found = brute_force_lift_beta(nu, target, BOX, mode="exists")
        assert found is not None
        assert barycenter_point(found) == target

    @pytest.mark.parametrize("mode", ["exists", "best"])
    def test_oracle_refuses_a_target_outside_the_box(self, mode):
        # the oracle used to answer this target with a dirac at (1/2, -1)
        nu = pm((("-1", "-1"), "0"))
        target = TropVector(("1/2", "-1"))
        with pytest.raises(BadInput, match=r"^target TropVector\(\[1/2, -1\]\) is not a point of the box$"):
            brute_force_lift_beta(nu, target, BOX, mode=mode)
        with pytest.raises(BadInput, match="is not a point of the host"):
            lift_beta(nu, target, HOST)

    @pytest.mark.parametrize("mode", ["exists", "best"])
    def test_oracle_refuses_an_atom_outside_the_box(self, mode):
        nu = pm((("-1", "-1"), "0"), (("-3", "-1"), "-1/2"))
        target = TropVector(("-1", "-1"))
        with pytest.raises(BadInput, match=r"^atom TropVector\(\[-3, -1\]\) is not a point of the box$"):
            brute_force_lift_beta(nu, target, BOX, mode=mode)
        with pytest.raises(BadInput, match="is not a point of the host"):
            lift_beta(nu, target, HOST)


class TestMeasureHostLift:
    def test_frozen_measure_of_measures_lift(self):
        space = FiniteSpace(2)
        m1 = IdemMeasure.from_weights(space, ["0", "-1"])
        m2 = IdemMeasure.from_weights(space, ["-1/2", "0"])
        big = IdemMeasure([(m1, "0"), (m2, "-1/4")])
        target = IdemMeasure.from_weights(space, ["0", "-1/5"])
        out = lift_beta(big, target, MeasureHost(space))
        assert out == IdemMeasure([(m1, "0"), (m2, "-1/5")])
        assert barycenter_of_measures(out) == target

    def test_identity_for_measure_host(self):
        space = FiniteSpace(3)
        m1 = IdemMeasure.from_weights(space, ["0", "-1", "-2"])
        m2 = IdemMeasure.from_weights(space, ["-1/2", "0", "-inf"])
        big = IdemMeasure([(m1, "0"), (m2, "-3/4")])
        flat = barycenter_of_measures(big)
        out = lift_beta(big, flat, MeasureHost(space))
        assert barycenter_of_measures(out) == flat

    def test_wrong_host_space_rejected(self):
        space = FiniteSpace(2)
        m1 = IdemMeasure.from_weights(space, ["0", "0"])
        big = IdemMeasure([(m1, "0")])
        stranger = IdemMeasure.from_weights(FiniteSpace(3), ["0", "0", "0"])
        with pytest.raises(BadInput):
            lift_beta(big, stranger, MeasureHost(space))


class TestWitnessQualityDecay:
    def test_distance_shrinks_with_target_distance(self):
        nu = pm((("-2", "-1"), "0"), (("-1", "-2"), "0"), (("-3/2", "-3/2"), "-1/2"))
        center = barycenter_point(nu)
        dists = []
        for j in (6, 10, 14, 18):
            out = None
            for cand in lattice_targets_near(center, BOX, Fraction(1, 2**j)):
                try:
                    out = lift_beta(nu, cand, HOST)
                    break
                except Rejection:
                    continue
            assert out is not None
            dists.append(measure_dist(out, nu))
        assert dists[-1] <= dists[0] + 1e-12
        assert dists[-1] <= 1e-4


class TestOnePassAgainstRecursion:
    @given(st.integers(0, 10**9), st.sampled_from([box_instance, measure_instance]))
    @settings(max_examples=400, deadline=None)
    def test_same_witness_or_same_error(self, seed, instance):
        nu, target, host = instance(spawn(seed, "beta-one-pass"))
        assert outcome(lift_beta, nu, target, host) == outcome(recursive_lift_beta, nu, target, host)

    def test_box_measure_deeper_than_the_recursion_limit(self):
        k = sys.getrecursionlimit() + 100
        grid = [Fraction(-n, 32) for n in range(64)]
        points = [TropVector(c) for c in itertools.islice(itertools.product(grid, grid), k)]
        rng = spawn(0, "beta-deep-box")
        nu = IdemMeasure(list(zip(points, random_weights(rng, k, bottom_rate=0.0))))
        assert nu.atom_count == k
        center = barycenter_point(nu)
        assert lift_beta(nu, center, HOST) == nu
        for target in lattice_targets_near(center, BOX, dyadic_delta(10)):
            try:
                out = lift_beta(nu, target, HOST)
            except Rejection:
                continue
            assert barycenter_point(out) == target
            break

    def test_measure_of_measures_deeper_than_the_recursion_limit(self):
        k = sys.getrecursionlimit() + 100
        space = FiniteSpace(4)
        grid = [Fraction(-n, 8) for n in range(17)]
        weights = (w for w in itertools.product(grid, repeat=4) if ZERO in w)
        inner = [IdemMeasure.from_weights(space, w) for w in itertools.islice(weights, k)]
        rng = spawn(0, "beta-deep-measures")
        big = IdemMeasure(list(zip(inner, random_weights(rng, k, bottom_rate=0.0))))
        assert big.atom_count == k
        flat = barycenter_of_measures(big)
        out = lift_beta(big, flat, MeasureHost(space))
        assert barycenter_of_measures(out) == flat

    def test_atom_outside_the_box_host_refused(self):
        nu = pm((("-1", "-1"), "0"), (("1/2", "-1"), "-1/2"))
        with pytest.raises(BadInput) as caught:
            lift_beta(nu, TropVector(("-1", "-1")), HOST)
        assert type(caught.value) is BadInput
        assert str(caught.value) == "atom TropVector([1/2, -1]) is not a point of the host"

    def test_single_atom_outside_the_host_refused(self):
        # the recursion returned the dirac at the target without a look at the atom
        with pytest.raises(BadInput, match="^atom TropVector"):
            lift_beta(pm((("1", "1"), "0")), TropVector(("-1", "-1")), HOST)

    def test_atom_on_another_space_refused(self):
        space = FiniteSpace(2)
        stranger = IdemMeasure.from_weights(FiniteSpace(3), ["0", "-1", "-2"])
        big = IdemMeasure([(IdemMeasure.from_weights(space, ["0", "0"]), "0"), (stranger, "-1")])
        target = IdemMeasure.from_weights(space, ["0", "0"])
        with pytest.raises(BadInput) as caught:
            lift_beta(big, target, MeasureHost(space))
        assert str(caught.value) == "atom IdemMeasure({0: 0, 1: -1, 2: -2}) is not a point of the host"

    def test_a_long_atom_is_quoted_up_to_the_cap(self):
        low, high = TropVector([-2] * 60), TropVector([0] * 60)
        far = TropVector([Fraction(1, 3**k) for k in range(1, 61)])
        nu = IdemMeasure([(low, "0"), (far, "-1")])
        with pytest.raises(BadInput) as caught:
            lift_beta(nu, low, BoxHost(Box(low, high)))
        quoted = repr(far)[:QUOTE_CAP] + "..."
        assert str(caught.value) == f"atom {quoted} is not a point of the host"
