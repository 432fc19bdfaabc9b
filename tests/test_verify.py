"""The verification runner itself: suites pass, and tampering is caught."""

from fractions import Fraction

import pytest

from tropibary import lifting, verify
from tropibary.core import NEG_INF, TropVector
from tropibary.geometry import Box
from tropibary.lifting import BoxHost
from tropibary.measures import combine
from tropibary.sampling import spawn, standard_box
from tropibary.verify import (
    SCALES,
    SUITES,
    Row,
    run_all,
    run_suite,
    _final_bound,
)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_at_tiny_scale(name):
    result = run_suite(name, seed=7, scale="tiny")
    assert result.name == name
    assert result.rows
    assert result.ok, [r for r in result.rows if not r.ok]


def test_run_all_covers_every_suite():
    results = run_all(seed=3, scale="tiny")
    assert [r.name for r in results] == list(SUITES)


def test_rows_are_deterministic_for_a_seed():
    a = run_suite("affinity", seed=7, scale="tiny")
    b = run_suite("affinity", seed=7, scale="tiny")
    assert a.rows == b.rows


def test_unknown_names_raise():
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("nonsense")
    with pytest.raises(KeyError, match="unknown scale"):
        run_suite("measures", scale="huge")


def test_row_ok_property():
    assert Row("s", "c", "pass", "").ok
    assert not Row("s", "c", "fail", "boom").ok


def test_final_bound_meets_the_tolerance():
    # depth-20 targets must land within 1e-6 of exact
    assert _final_bound(20) < 1e-6
    assert _final_bound(7) > _final_bound(12) > _final_bound(20) > 0


def _swapped_combine(first, second, params):
    return combine(first, second, params.swapped())


class TestTamperHook:
    def test_swapped_params_fail_the_affinity_suite(self, monkeypatch):
        monkeypatch.setattr(verify, "combine", _swapped_combine)
        result = run_suite("affinity", seed=7, scale="tiny")
        assert not result.ok
        bad = [r for r in result.rows if not r.ok]
        assert bad
        assert any("failed" in r.detail for r in bad)

    def test_clearing_restores_green(self, monkeypatch):
        monkeypatch.setattr(verify, "combine", _swapped_combine)
        monkeypatch.undo()
        assert run_suite("affinity", seed=7, scale="tiny").ok


def test_fiber_identities_row_fails_per_cell_under_a_sabotaged_gate(monkeypatch):
    """The identities row counts the passes of lift_merge_fiber's own
    exactness gate, so a lift that builds a wrong witness fails that row
    cell by cell while the other rows are still reported."""
    honest_min = lifting.trop_min

    def nudged_min(a, b):
        out = honest_min(a, b)
        return out - Fraction(1, 16) if out is not NEG_INF and out < 0 else out

    monkeypatch.setattr(lifting, "trop_min", nudged_min)
    result = run_suite("fiber", seed=7, scale="tiny")
    rows = {r.case: r for r in result.rows}
    assert list(rows) == [
        "consistent-cells-accepted",
        "all-three-exactness-identities",
        "corrupted-cells-rejected",
    ]
    identities = rows["all-three-exactness-identities"]
    assert not identities.ok
    assert "failed; first: cell " in identities.detail
    assert "does not push forward" in identities.detail
    assert rows["consistent-cells-accepted"].ok
    assert rows["corrupted-cells-rejected"].ok


def test_crash_inside_a_suite_becomes_a_row(monkeypatch):
    import tropibary.sampling as sampling

    def boom(rng, bound):
        raise RuntimeError("forced crash")

    monkeypatch.setattr(sampling, "random_space", boom)
    result = run_suite("measures", seed=7, scale="tiny")
    assert not result.ok
    assert result.rows[0].case == "unexpected-error"
    assert "forced crash" in result.rows[0].detail


def test_scales_expose_default_and_tiny():
    assert {"default", "tiny"} <= set(SCALES)
    for knob, small in SCALES["tiny"].items():
        if isinstance(small, int):  # fiber_lo is a grid bound, not a count
            assert small <= SCALES["default"][knob]


class _NothingNearHost(BoxHost):
    """A box host that proposes no target at all."""

    def near(self, point, delta):
        return []


def _barycenter_rows(host) -> dict:
    rows = verify._barycenter_lift_rows(
        host, spawn(7, "barycenter-lift"), SCALES["tiny"], lambda case: verify._Tally("barycenter-lift", case)
    )
    return {r.case: r for r in rows}


@pytest.mark.parametrize(
    "box",
    [standard_box(1), standard_box(3), Box(TropVector(["-3/2", "-1"]), TropVector(["-1/2", "0"]))],
    ids=["1-d", "3-d", "off-origin"],
)
def test_barycenter_lift_rows_run_on_any_box_host(box):
    # the suite body reaches the box only through the host
    rows = _barycenter_rows(BoxHost(box))
    assert list(rows) == ["near-target-accepted", "lifted-measure-hits-target", "witness-distance-shrinks-to-zero"]
    assert all(r.ok for r in rows.values()), [r for r in rows.values() if not r.ok]


def test_a_host_with_no_near_target_fails_the_near_row():
    near = _barycenter_rows(_NothingNearHost(standard_box(2)))["near-target-accepted"]
    assert not near.ok
    assert near.detail.split("; first: ", 1)[1].startswith("no target near")
