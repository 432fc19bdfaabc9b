"""The benchmark's fault injection: its checks must catch a corrupted witness."""

import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_bench_selftest(child_env):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--selftest"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("-> ok") == 2, proc.stdout
