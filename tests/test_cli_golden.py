"""Whole CLI calls against recorded outputs.

Each case runs `posetcode.cli.main` in process, from `tests/golden/`,
and compares its exit code, stdout and stderr with the file
`tests/golden/<case>.txt`.  Help text is rendered for a program named
`posetcode` on an 80-column terminal, whatever runs the tests.

To record the files anew (only when an output is meant to change):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import os
import shlex
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from posetcode.cli import main

GOLDEN = Path(__file__).parent / "golden"

FIXTURES = {
    "f2": {"q": "2", "vec": "1 0 1 1 0 1", "bad_vec": "1 0 2 1 0 1"},
    "f3": {"q": "3", "vec": "2 2 1 0 1", "bad_vec": "2 2 1 0"},
}
CODE_COMMANDS = ("canonicalize", "decompose", "profile", "degree", "mindist", "table-plan")
COMMANDS = (
    "validate", "canonicalize", "decompose", "profile", "degree", "neighbors", "weight",
    "mindist", "radius", "table-plan", "decode", "selftest", "bench",
)


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for name, fx in FIXTURES.items():
        poset = ["--poset", f"inputs/{name}.poset"]
        both = poset + ["--code", f"inputs/{name}.code"]
        runs = {
            "validate": ["validate", *both],
            "neighbors": ["neighbors", *poset],
            "weight": ["weight", *poset, "--vec", fx["vec"], "--q", fx["q"]],
            "radius-exact": ["radius", *both, "--exact"],
            "radius-bounds": ["radius", *both, "--bounds"],
        }
        runs.update({cmd: [cmd, *both] for cmd in CODE_COMMANDS})
        for alg in ("full", "leveled1", "leveled2"):
            runs[f"decode-{alg}"] = [
                "decode", *both, "--vec", fx["vec"],
                "--vectors", f"inputs/{name}.vec", "--algorithm", alg,
            ]
        for label, argv in runs.items():
            cases[f"{name}-{label}"] = argv
            cases[f"{name}-{label}-json"] = argv + ["--json"]
    cases["selftest"] = ["selftest"]
    cases["selftest-json"] = ["selftest", "--json"]
    cases["help"] = ["--help"]
    cases.update({f"help-{cmd}": [cmd, "--help"] for cmd in COMMANDS})
    f2, f3 = ["--poset", "inputs/f2.poset"], ["--poset", "inputs/f3.poset"]
    cases.update({
        "error-size-mismatch": ["canonicalize", *f2, "--code", "inputs/f3.code"],
        "error-size-mismatch-validate": ["validate", *f2, "--code", "inputs/f3.code"],
        "error-bad-residue": ["decompose", *f2, "--code", "inputs/bad_residue.code"],
        "error-bad-token": ["profile", *f3, "--code", "inputs/bad_token.code"],
        "error-short-row": ["degree", *f2, "--code", "inputs/short_row.code"],
        "error-wrong-row-count": ["mindist", *f2, "--code", "inputs/wrong_rows.code"],
        "error-bad-header": ["table-plan", *f2, "--code", "inputs/bad_header.code"],
        "error-not-prime": ["radius", *f3, "--code", "inputs/not_prime.code"],
        "error-missing-file": ["canonicalize", *f2, "--code", "inputs/absent.code"],
        "error-radius-over-budget": [
            "radius", *f2, "--code", "inputs/f2.code", "--exact", "--budget", "1",
        ],
        "error-missing-vec": ["weight", *f2],
        "error-decode-no-vectors": ["decode", *f2, "--code", "inputs/f2.code"],
        "error-decode-bad-vec": [
            "decode", *f2, "--code", "inputs/f2.code", "--vec", FIXTURES["f2"]["bad_vec"],
        ],
        "error-decode-short-vec": [
            "decode", *f3, "--code", "inputs/f3.code",
            "--vec", FIXTURES["f3"]["bad_vec"], "--algorithm", "leveled1",
        ],
    })
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> str:
    """Run the CLI on argv from the golden directory; render the outcome."""
    out, err = io.StringIO(), io.StringIO()
    saved = (os.getcwd(), sys.argv, sys.modules["__main__"], os.environ.get("COLUMNS"))
    os.chdir(GOLDEN)
    # click names the program after sys.argv[0] unless __main__ has a package
    sys.argv = ["posetcode"]
    sys.modules["__main__"] = types.ModuleType("__main__")
    os.environ["COLUMNS"] = "80"
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main(list(argv))
    finally:
        os.chdir(saved[0])
        sys.argv, sys.modules["__main__"] = saved[1], saved[2]
        if saved[3] is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved[3]
    return (
        f"$ posetcode {shlex.join(argv)}\nexit {status}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert run_case(CASES[case]) == expected


def test_golden_files_are_all_cases():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)


def test_golden_cases_cover_every_command_and_exit_code():
    from posetcode.cli import cli

    assert set(cli.commands) == set(COMMANDS)
    exits = {(GOLDEN / f"{case}.txt").read_text().split("\n")[1] for case in CASES}
    assert exits == {"exit 0", "exit 1", "exit 2"}


if __name__ == "__main__":
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.txt").write_text(run_case(argv))
    print(f"recorded {len(CASES)} cases in {GOLDEN}")
