"""Benchmark outputs against the digests recorded in perfbench/digests.json.

Every in-process workload of the benchmark checks each output it
produces and compares its digest with the recorded one; a tiny-scale run
takes a few seconds.  Canonical matrices and witnesses reach all three:

- decompose-sweep digests the canonical matrix, the witness, the pointer
  support and the profile, so any change to the echelon arithmetic that
  moves an output fails there.  The seed only re-presents each catalog
  code by a change of basis, and the canonical form does not depend on
  the basis, so the held-out seed 7919 must hit the digests recorded at
  seed 0.
- radius-bracket takes its upper bound over the components of the
  maximal decomposition.
- decode-stream builds its leveled decode plans over the maximal
  decomposition, so a witness change shows in the decoded words.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, seed",
    [
        ("decompose-sweep", 0),
        ("decompose-sweep", 7919),
        ("radius-bracket", 0),
        ("decode-stream", 0),
    ],
)
def test_workload_outputs_match_recorded_digests(workload, seed):
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--scale", "tiny",
        "--seconds", "0.5", "--trace", "0", "--seed", str(seed),
    ]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["correct"], run.stdout
    assert report["failed"] == 0, run.stdout
    assert report["attempted"] > 0
