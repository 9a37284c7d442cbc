"""Canonical matrices and witnesses against the recorded benchmark digests.

The decompose-sweep workload of the benchmark checks every output it
produces (validity, reduced form) and compares its digest, which covers
the canonical matrix, the witness, the pointer support and the profile,
with the digest recorded in perfbench/digests.json.  Its tiny scale runs
each recorded instance in about two seconds, so any change to the
echelon arithmetic that moves an output fails here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_decompose_sweep_outputs_match_recorded_digests():
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", "decompose-sweep", "--scale", "tiny",
        "--seconds", "0.5", "--trace", "0", "--seed", "0",
    ]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["correct"], run.stdout
    assert report["failed"] == 0, run.stdout
    assert report["attempted"] > 0
