"""Mutant catalogue: known ways to break `src/`, each with the checks
that must catch it.

    python tests/mutants.py

Each entry names a file under `src/posetcode/`, an exact `old` text that
occurs there once, the `new` text that replaces it, and its checks:
`selftest:SEED` runs `posetcode selftest --seed SEED`, anything else is
a pytest node id; `tests/conftest.py` derandomizes Hypothesis, so every
run draws the same examples.  For each mutant the script copies `src`,
`tests`, `perfbench` and `pyproject.toml` to a temporary directory
(pytest then imports the package from the copy), applies the one
replacement there and runs each check in its own interpreter.  A check
kills the mutant when it fails.

A mutant prints `killed` when every one of its checks kills it, and
`SURVIVED` with the checks that passed otherwise.  An equivalent mutant
changes no output, so no check can kill it; it runs the checks listed
for it, prints `survived (equivalent)` when all pass, and `KILLED` when
one fails, which means it was not equivalent after all.  The script
exits 1 when any mutant's result differs from what its entry expects,
and 0 otherwise.

The tier-1 test `tests/test_mutants.py` only checks that every `old`
text occurs exactly once, so a refactor that moves the text must update
the catalogue instead of losing the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "posetcode"
CHECK_TIMEOUT_S = 900  # a check that runs longer is counted as failing

SELFTEST = ("selftest:0", "selftest:9")
SLICE = "tests/test_identity_corpus.py::test_identity_corpus_slice_matches_recorded_digests"
CANONICAL = "tests/test_decomp.py::TestCanonicalForm::"
LINEAR = "tests/test_linear.py::"
PINNED = CANONICAL + "test_pinned_outputs"
LEADERS = "tests/test_decode.py::TestSyndromeTable::"
PRUNED_REFERENCE = CANONICAL + "test_pruned_search_matches_reference"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    checks: tuple[str, ...]
    equivalent: bool = False


MUTANTS = (
    Mutant(
        "rereduce-sign", "decomp.py",
        "tag = (p - 1) * scratch.unit(k + len(basis))",
        "tag = 1 * scratch.unit(k + len(basis))",
        (*SELFTEST, SLICE),
    ),
    Mutant(
        "add-odd-p-bias", "linear.py",
        "bias = ones * ((1 << (w - 1)) - p)",
        "bias = ones * ((1 << (w - 1)) - p + 1)",
        SELFTEST,
    ),
    Mutant(
        "leader-added", "decode.py",
        "[-c % p for c in leader.coords]",
        "[c % p for c in leader.coords]",
        (*SELFTEST, SLICE),
    ),
    Mutant(
        "leader-scan-lte", "decode.py",
        "if score < get(s, heaviest):",
        "if score // ranks <= get(s, heaviest) // ranks:",
        (SLICE, LEADERS + "test_leaders_match_reference_enumeration"),
    ),
    Mutant(
        "leader-scan-stops-without-bound", "decode.py",
        "if len(best) == size and max(best.values()) < (bound + 1) * ranks:",
        "if len(best) == size:",
        (SLICE, LEADERS + "test_leaders_match_reference_enumeration"),
    ),
    Mutant(
        "leader-order-from-the-left", "decode.py",
        "for j in reversed(range(n)):",
        "for j in range(n):",
        (SLICE, LEADERS + "test_leaders_match_reference_enumeration"),
    ),
    Mutant(
        "leader-bounds-over-lengths", "decode.py",
        "for bound in sorted(head_layers.keys() | tail_layers.keys()):",
        "for bound in range(n + 1):",
        (LEADERS + "test_group_leaders_can_outweigh_the_group_length",),
    ),
    Mutant(
        "sources-reversed", "decomp.py",
        "(multiples(self.cols[j]) for j in sources[r])",
        "(multiples(self.cols[j]) for j in reversed(sources[r]))",
        (SLICE, PINNED),
    ),
    Mutant(
        "candidates-reversed", "decomp.py",
        "candidates_at[r] = [(h & coords, h) for h in out]",
        "candidates_at[r] = [(h & coords, h) for h in reversed(out)]",
        (SLICE, PINNED),
    ),
    Mutant(
        "gray-walk-base-2", "linear.py",
        "while t % q ** (digit + 1) == 0:",
        "while t % 2 ** (digit + 1) == 0:",
        SELFTEST,
    ),
    Mutant(
        "back-substitution-first-row-first", "linear.py",
        "for shift, row in reversed(basis):",
        "for shift, row in basis:",
        (*SELFTEST, LINEAR + "test_reduction_matches_known_form_exactly"),
    ),
    Mutant(
        "back-substitution-without-tags", "linear.py",
        "done.append((shift, kernel.reduce(row, done)))",
        "done.append((shift, kernel.reduce(row, done) & kernel.coords))",
        (LINEAR + "test_kernel_tags_carry_the_inverse",),
    ),
    Mutant(
        "side-zero-cut-at-dim-minus-one", "decomp.py",
        "if len(b1) == dim:",
        "if len(b1) >= dim - 1:",
        ("selftest:0", SLICE, PINNED),
    ),
    Mutant(
        "zero-column-skip-every-fifth", "decomp.py",
        "if self.ups[r] and cols[r] & coords:",
        "if self.ups[r] and cols[r] & coords and r % 5:",
        (*SELFTEST, SLICE, PINNED),
    ),
    Mutant(
        "pivot-column-plus-tag", "decomp.py",
        "pivots[j] = scale(tag, p - 1) >> shift",
        "pivots[j] = tag >> shift",
        (*SELFTEST, CANONICAL + "test_rereduce_matches_reducing_every_column"),
    ),
    Mutant(
        "coset-passes-stop-after-any-rereduce", "decomp.py",
        "if self.cols == cols:",
        "if True:",
        (CANONICAL + "test_coset_passes_stop_once_rereduction_changes_nothing",),
    ),
    Mutant(
        "matrix-width-check-dropped", "linear.py",
        "if n is not None and n != width:",
        "if False:",
        (LINEAR + "test_residue_matrix_keeps_the_width_checks",),
    ),
    Mutant(
        "scale-ladder-with-leading-digit", "linear.py",
        "bin(c)[3:]",
        "bin(c)[2:]",
        (*SELFTEST, LINEAR + "test_kernel_scale_matches_multiples_for_every_multiplier"),
    ),
    Mutant(
        "split-path-keys-kept", "decomp.py",
        "seen.discard(key)",
        "seen.add(key)",
        ("selftest:0", SLICE, PRUNED_REFERENCE),
    ),
    Mutant(
        "dead-column-check-never-on-a-child", "decomp.py",
        "if b2 and grown and _dead_column(",
        "if b2 and False and _dead_column(",
        (PRUNED_REFERENCE,
         CANONICAL + "test_split_search_work_on_the_n24_tail",
         CANONICAL + "test_split_search_work_on_the_gf3_n20_tail"),
    ),
    Mutant(
        "product-without-empty-columns", "linear.py",
        "list(zip(*other.rows)) or [()] * other.n",
        "list(zip(*other.rows))",
        (LINEAR + "test_matrix_handles_an_empty_dimension",),
    ),
    Mutant(
        "contains-without-guard", "linear.py",
        "        if v.field != self.field or len(v) != self.n:\n            return False\n",
        "",
        (LINEAR + "test_contains_rejects_a_word_of_another_field_or_length",),
    ),
    Mutant(
        "contains-rebuilds-its-basis", "linear.py",
        "        if self._basis is None:\n",
        "        if True:\n",
        (LINEAR + "test_contains_builds_its_basis_once",),
    ),
    # Equivalent: no output tells them from the program.  Visiting the
    # components by smallest column changed no output on 120,589 random
    # instances; a state keyed by position is completable exactly when
    # its placed-column key is (CHANGES.md gives both).  Split
    # sources read from the live column list, once a third equivalent
    # mutant, have no code left: a split assigns the whole columns the
    # search built, so no column is read back from a copy.
    Mutant(
        "components-by-smallest-column", "decomp.py",
        "components.append((rows & -rows, support))",
        "components.append((min(support), support))",
        (*SELFTEST, SLICE, PINNED),
        equivalent=True,
    ),
    Mutant(
        "split-keys-by-position", "decomp.py",
        "key = (placed[idx], b1, b2)",
        "key = (idx, b1, b2)",
        (*SELFTEST, SLICE, PRUNED_REFERENCE),
        equivalent=True,
    ),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's `old` text occurs in its file."""
    return (PACKAGE / mutant.file).read_text().count(mutant.old)


def _command(check: str) -> list[str]:
    if check.startswith("selftest:"):
        seed = check.split(":", 1)[1]
        script = ("import sys; from posetcode.cli import main; "
                  f"sys.exit(main(['selftest', '--seed', '{seed}']))")
        return [sys.executable, "-c", script]
    return [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", check]


def _passes(check: str, root: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(_command(check), cwd=root, env=env, capture_output=True,
                              timeout=CHECK_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    if done.returncode in (4, 5):  # pytest found no such test: a broken entry, not a kill
        raise SystemExit(f"error: check {check} names no test")
    return done.returncode == 0


def run(mutant: Mutant) -> bool:
    """Apply the mutant to a copy of the tree and run its checks; True
    when the result is the one the entry expects."""
    with tempfile.TemporaryDirectory(prefix="posetcode-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, root / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        target = root / "src" / "posetcode" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            print(f"{mutant.name}: `old` occurs {text.count(mutant.old)} times in {mutant.file}")
            return False
        target.write_text(text.replace(mutant.old, mutant.new))
        passed = [check for check in mutant.checks if _passes(check, root)]
    if mutant.equivalent:
        ok = len(passed) == len(mutant.checks)
        verdict = "survived (equivalent)" if ok else "KILLED (listed as equivalent)"
    else:
        ok = not passed
        verdict = "killed" if ok else "SURVIVED " + " ".join(passed)
    print(f"{mutant.name}: {verdict}", flush=True)
    return ok


def main() -> int:
    start = time.monotonic()
    failures = [m.name for m in MUTANTS if not run(m)]
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} as expected "
          f"in {time.monotonic() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
