"""The exactness gate: a construction step that goes wrong ends in
InexactWitness, also under `python -O`, which strips `assert`.

Run as a script, this file prints what each sabotaged call raised; the
-O test below reads that output from a child interpreter.
"""

import ast
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from tropibary import approximation, lifting
from tropibary.approximation import Cover, cover_approximation
from tropibary.core import ZERO, ConvexParams, TropVector, odot, scalar
from tropibary.errors import InexactWitness
from tropibary.geometry import Box
from tropibary.lifting import (
    BoxHost,
    MergeMap,
    lift_beta,
    lift_fiber_surjection,
    lift_merge_fiber,
    lift_s_box,
    lift_s_finite,
    lift_s_interval,
)
from tropibary.measures import FiniteSpace, IdemMeasure, SpaceMap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tropibary"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
NUDGE = scalar(Fraction(-1, 16))
S2, S3, S4 = FiniteSpace(2), FiniteSpace(3), FiniteSpace(4)
BOX = Box(TropVector([-2, -2]), TropVector([0, 0]))
HALF = ConvexParams("-1/2", 0)


def nudged(fn, by=NUDGE):
    """fn with every negative finite result moved by `by`: down by 1/16
    unless told otherwise."""

    def wrong(*args):
        out = fn(*args)
        return odot(out, by) if type(out) is Fraction and out < ZERO else out

    return wrong


def weights(space, *ws):
    return IdemMeasure.from_weights(space, ws)


def sabotage_residual(mp):
    mp.setattr(lifting, "residual", nudged(lifting.residual))


class NudgedWitness(IdemMeasure):
    """lift_beta's witness assembly with every lifted point moved by NUDGE."""

    __slots__ = ()

    def __init__(self, pairs):
        super().__init__([(point.shift(NUDGE), w) for point, w in pairs])


# The measure of the cover_approximation cases: one atom in each of two
# grid cells, the second below 0.
COVER_MU = IdemMeasure([(TropVector(["-2", "-1"]), ZERO), (TropVector(["-1/2", "-1/2"]), scalar("-1/2"))])


def unshifted_conditionals(mp):
    """The conditional constructor drops its shift: each conditional keeps
    the weights its atoms have in the measure."""
    cut = approximation._conditional

    def wrong(pairs, space):
        conditional = cut(pairs, space)
        conditional.atoms = tuple(pairs)
        return conditional

    mp.setattr(approximation, "_conditional", wrong)


def conditionals_with_next_atom(mp):
    """Each conditional also keeps the atom of COVER_MU after its last
    one, which the next piece holds."""
    cut = approximation._conditional

    def wrong(pairs, space):
        atoms = list(COVER_MU.atoms)
        return cut(list(pairs) + atoms[atoms.index(pairs[-1]) + 1 :][:1], space)

    mp.setattr(approximation, "_conditional", wrong)


# name -> (sabotage of one construction step, call that is exact without it)
CASES = {
    "lift_s_finite": (
        sabotage_residual,
        lambda: lift_s_finite(weights(S2, 0, -1), weights(S2, 0, -2), HALF, weights(S2, 0, "-3/2")),
    ),
    "lift_merge_fiber": (
        lambda mp: mp.setattr(lifting, "trop_min", nudged(lifting.trop_min)),
        lambda: lift_merge_fiber(
            weights(S3, 0, "-1/4", "-1/2"),
            weights(S2, 0, "-1/2"),
            weights(S2, 0, "-1/4"),
            HALF,
            MergeMap(S3, S2),
        ),
    ),
    "lift_fiber_surjection": (
        lambda mp: mp.setattr(lifting, "trop_min", nudged(lifting.trop_min)),
        lambda: lift_fiber_surjection(
            weights(S4, "-1/8", 0, "-1/2", "-3/8"),
            weights(S2, 0, "-1"),
            weights(S2, "-3/4", 0),
            ConvexParams("-1/8", 0),
            SpaceMap(S4, S2, [0, 1, 1, 0]),
        ),
    ),
    "lift_fiber_surjection/raised": (
        lambda mp: mp.setattr(lifting, "trop_min", nudged(lifting.trop_min, -NUDGE)),
        lambda: lift_fiber_surjection(
            weights(S4, "-1/8", 0, "-1/2", "-3/8"),
            weights(S2, 0, "-1"),
            weights(S2, "-3/4", 0),
            ConvexParams("-1/8", 0),
            SpaceMap(S4, S2, [0, 1, 1, 0]),
        ),
    ),
    "lift_s_interval": (
        sabotage_residual,
        lambda: lift_s_interval(scalar(-1), scalar(-2), HALF, scalar("-7/5"), (scalar(-2), ZERO)),
    ),
    "lift_s_box": (
        sabotage_residual,
        lambda: lift_s_box(
            TropVector([-1, -1]), TropVector([-2, -2]), HALF, TropVector(["-7/5", "-7/5"]), BOX
        ),
    ),
    "lift_beta": (
        lambda mp: mp.setattr(lifting, "IdemMeasure", NudgedWitness),
        lambda: lift_beta(IdemMeasure.dirac(TropVector(["-1/2", "-3/2"])), TropVector([-1, -1]), BoxHost(BOX)),
    ),
    "cover_approximation": (
        lambda mp: mp.setattr(approximation, "oplus_all", nudged(approximation.oplus_all)),
        lambda: cover_approximation(
            IdemMeasure(
                [
                    (TropVector(["-2", "-1"]), ZERO),
                    (TropVector(["-1/2", "-1/2"]), scalar("-1/2")),
                ]
            ),
            Cover.grid(BOX, 2),
        ),
    ),
    "cover_approximation/unshifted": (
        unshifted_conditionals,
        lambda: cover_approximation(COVER_MU, Cover.grid(BOX, 2)),
    ),
    "cover_approximation/next_atom": (
        conditionals_with_next_atom,
        lambda: cover_approximation(COVER_MU, Cover.grid(BOX, 2)),
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_sabotaged_step_raises_inexact_witness(monkeypatch, name):
    sabotage, call = CASES[name]
    call()
    sabotage(monkeypatch)
    with pytest.raises(InexactWitness):
        call()


def outcomes() -> list:
    """'name: <what the sabotaged call raised>' for every case."""
    lines = []
    for name, (sabotage, call) in CASES.items():
        with pytest.MonkeyPatch.context() as mp:
            sabotage(mp)
            try:
                call()
                lines.append(f"{name}: nothing")
            except Exception as exc:
                lines.append(f"{name}: {type(exc).__name__}")
    return lines


def test_gate_runs_under_optimize(child_env):
    proc = subprocess.run(
        [sys.executable, "-O", __file__], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["__debug__ False"] + [f"{n}: InexactWitness" for n in CASES]


def test_verify_prints_the_same_rows_under_optimize(child_env):
    # the plain run is pinned in process by test_cli's verify-tiny golden
    argv = ["-m", "tropibary.cli", "verify", "--suite", "all", "--scale", "tiny", "--seed", "7"]
    proc = subprocess.run([sys.executable, "-O", *argv], capture_output=True, env=child_env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "verify-tiny.out").read_bytes()


def test_library_has_no_assert():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


if __name__ == "__main__":
    print("__debug__", __debug__)
    print("\n".join(outcomes()))
