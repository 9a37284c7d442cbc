"""The mutant catalogue stays applicable: every `old` text of
`tests/mutants.py` occurs exactly once in its file, so each mutant
still breaks the code it names, and every check names a selftest seed
or a test that exists.  Running the mutants themselves is
`python tests/mutants.py`, outside tier-1."""

import re

import pytest

from mutants import MUTANTS, ROOT, occurrences


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once_and_names_existing_checks(mutant):
    assert occurrences(mutant) == 1
    assert mutant.old != mutant.new and mutant.checks
    for check in mutant.checks:
        if check.startswith("selftest:"):
            assert check.split(":", 1)[1].isdigit()
            continue
        path, *scopes = check.split("::")
        text = (ROOT / path).read_text()
        for scope in scopes:
            assert re.search(rf"^\s*(def|class) {scope}\b", text, re.M), check
