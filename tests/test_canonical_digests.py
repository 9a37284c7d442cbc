"""Canonical matrices and witnesses against the recorded benchmark digests.

The decompose-sweep workload of the benchmark checks every output it
produces (validity, reduced form) and compares its digest, which covers
the canonical matrix, the witness, the pointer support and the profile,
with the digest recorded in perfbench/digests.json.  Its tiny scale runs
each recorded instance in about two seconds, so any change to the
echelon arithmetic that moves an output fails here.  The seed only
re-presents each catalog code by a change of basis, and the canonical
form does not depend on the basis, so the held-out seed 7919 must hit
the digests recorded at seed 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _check_decompose_sweep(seed: int) -> None:
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", "decompose-sweep", "--scale", "tiny",
        "--seconds", "0.5", "--trace", "0", "--seed", str(seed),
    ]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["correct"], run.stdout
    assert report["failed"] == 0, run.stdout
    assert report["attempted"] > 0


def test_decompose_sweep_outputs_match_recorded_digests():
    _check_decompose_sweep(0)


def test_decompose_sweep_held_out_seed_matches_recorded_digests():
    _check_decompose_sweep(7919)
