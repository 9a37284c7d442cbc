"""Output-identity corpus: one sha256 per output family over a fixed,
seeded set of codes and orders.

    python tests/identity_corpus.py                  # the full corpus
    python tests/identity_corpus.py --slice          # the slice the tier-1 test pins
    python tests/identity_corpus.py --against REV    # this tree against git revision REV

Run alone, it prints one `family digest` line per family.  It imports
the package from PYTHONPATH, else from this checkout's `src`.  With
`--against REV` it extracts `git archive REV src` into a temporary
directory, runs the corpus once
with this checkout's `src` and once with that one (each in its own
interpreter, with the given `src` alone on PYTHONPATH), prints each
family as `same` or `DIFFERENT`, and exits 1 on any difference: a
refactor that keeps every output keeps every digest.  When git cannot
archive REV (outside a checkout, or an unknown revision) it prints
`error:` with git's message and exits 2.  Only public
outputs are read, so private layout is free to change.

The corpus is every (q, order kind) cell below, with n up to 9, 6, 5
and 4 over GF(2), GF(3), GF(5) and GF(7).  Each cell draws its own
instances from its own seed, so the slice (the first eight instances
of each cell) is a prefix of the full corpus.  The families over it:

- `instances`: the generator rows and order relations themselves;
- `leaders.full`, `leaders.groups`: every leader, key and word, in
  insertion order, of the full table and of each plan group's table;
- `plan`: `table_sizes`, the groups (components and support) and the
  pointer support of the plan with its witness and of the plan without;
- `decode.full`, `decode.alg1`, `decode.alg2`: each decoder's output on
  a fixed sample of words (all words up to 256 of them, else 96 drawn
  ones), through the plan with the witness and the plan without;
- `syndrome`: the full table's syndrome of every sampled word, and each
  group table's syndrome of the word's projection onto its support;
- `canonical`: the canonical matrix and witness, and `is_p_canonical`
  of the output and of the input;
- `profile` and `degree` of the maximal decomposition;
- `groups`: its `independent_groups` and `hierarchical_groups`;
- `order`: the relations of both hierarchical neighbors, and the
  complete cuts;
- `radius`: `packing_radius_exact`, `packing_radius_bounds` and
  `min_distance`.

A sparse cell, the same in the slice and the full corpus, feeds
`canonical` alone: sparse random orders over GF(2) (n from 10 to 14)
and GF(3) (n from 7 to 10), k = n // 2.  There the split search meets
components it can split in several ways, so the order in which it
tries candidates shows in the output.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Iterator

# a package on PYTHONPATH comes first; this checkout's is the fallback
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from posetcode.decode import (  # noqa: E402
    build_plan,
    build_table,
    decode_full,
    decode_leveled_alg1,
    decode_leveled_alg2,
    hierarchical_groups,
    independent_groups,
    project_support,
    table_sizes,
)
from posetcode.decomp import canonical_form, degree, is_p_canonical, maximal_p_decomposition, profile
from posetcode.field import PrimeField
from posetcode.linear import Vector, min_distance
from posetcode.poset import complete_cuts, lower_neighbor, upper_neighbor
from posetcode.radius import packing_radius_bounds, packing_radius_exact
from posetcode.randgen import random_code, random_hierarchical_poset, random_poset

FIELDS = ((2, 9), (3, 6), (5, 5), (7, 4))  # (p, largest n)
KINDS = (0.0, 0.2, 0.5, 0.9, "hierarchical")  # random-order densities, then levels
PER_CELL = 40  # instances per (p, kind) cell in the full corpus
SLICE_PER_CELL = 8  # and in the slice
ALL_WORDS_UP_TO = 256
SAMPLED_WORDS = 96
SPARSE_FIELDS = ((2, 10, 14), (3, 7, 10))  # (p, smallest n, largest n)
SPARSE_DENSITIES = (0.1, 0.2)
SPARSE_PER_FIELD = 12

FAMILIES = (
    "instances",
    "leaders.full",
    "leaders.groups",
    "plan",
    "decode.full",
    "decode.alg1",
    "decode.alg2",
    "syndrome",
    "canonical",
    "profile",
    "degree",
    "groups",
    "order",
    "radius",
)


def instances(per_cell: int) -> Iterator[tuple]:
    """(code, order, word sample) for the first `per_cell` instances of
    every cell."""
    for cell, ((p, max_n), kind) in enumerate(itertools.product(FIELDS, KINDS)):
        rng = random.Random(9000 + cell)
        field = PrimeField(p)
        for _ in range(per_cell):
            n = rng.randint(2, max_n)
            code = random_code(rng, field, n, rng.randint(1, n))
            if kind == "hierarchical":
                poset = random_hierarchical_poset(rng, n)
            else:
                poset = random_poset(rng, n, kind)
            if p**n <= ALL_WORDS_UP_TO:
                words = [Vector(field, c) for c in itertools.product(range(p), repeat=n)]
            else:
                words = [
                    Vector(field, [rng.randrange(p) for _ in range(n)])
                    for _ in range(SAMPLED_WORDS)
                ]
            yield code, poset, words


def sparse_instances() -> Iterator[tuple]:
    """(code, order) for every instance of the sparse cell."""
    for cell, (p, min_n, max_n) in enumerate(SPARSE_FIELDS):
        rng = random.Random(9100 + cell)
        field = PrimeField(p)
        for _ in range(SPARSE_PER_FIELD):
            n = rng.randint(min_n, max_n)
            poset = random_poset(rng, n, rng.choice(SPARSE_DENSITIES))
            yield random_code(rng, field, n, n // 2), poset


def _plan_outputs(plan) -> tuple:
    groups = tuple((g.indices, g.support) for g in plan.groups)
    return tuple(table_sizes(plan).items()), groups, tuple(sorted(plan.pointer_support))


def _leaders(table) -> tuple:
    return tuple((s, leader.coords) for s, leader in table.leaders.items())


def _canonical(code, poset) -> tuple:
    gstar, witness = canonical_form(code.gen, poset)
    return gstar.rows, witness.rows, is_p_canonical(gstar, poset), is_p_canonical(code.gen, poset)


def digests(per_cell: int = PER_CELL) -> dict[str, str]:
    """The sha256 of each family over the first `per_cell` instances of
    every cell, and over the sparse cell."""
    hashes = {family: hashlib.sha256() for family in FAMILIES}

    def feed(family: str, value: object) -> None:
        hashes[family].update(repr(value).encode() + b"\n")

    for code, poset, words in instances(per_cell):
        feed("instances", (code.field.p, code.gen.rows, sorted(poset.relations())))
        table = build_table(code, poset)
        pd = maximal_p_decomposition(code, poset)
        with_witness = build_plan(pd.decomposition, poset, witness=pd.witness)
        bare = build_plan(pd.decomposition, poset)
        feed("leaders.full", _leaders(table))
        for plan in (with_witness, bare):
            feed("plan", _plan_outputs(plan))
            for group in plan.groups:
                feed("leaders.groups", _leaders(group.table))
        for y in words:
            feed("decode.full", decode_full(table, y).coords)
            feed("syndrome", table.syndrome(y))
            for group in with_witness.groups:
                feed("syndrome", group.table.syndrome(project_support(list(group.support), y)))
            for plan in (with_witness, bare):
                feed("decode.alg1", decode_leveled_alg1(plan, y).coords)
                feed("decode.alg2", decode_leveled_alg2(plan, y).coords)
        feed("canonical", _canonical(code, poset))
        feed("profile", tuple(profile(pd.decomposition)))
        feed("degree", degree(pd))
        feed("groups", (independent_groups(pd.decomposition, poset),
                        hierarchical_groups(pd.decomposition, poset)))
        feed("order", (sorted(upper_neighbor(poset).relations()),
                       sorted(lower_neighbor(poset).relations()),
                       [sorted(cut) for cut in complete_cuts(poset)]))
        bounds = packing_radius_bounds(code, poset)
        feed("radius", (packing_radius_exact(code, poset),
                        (bounds.lower, bounds.upper, bounds.exact),
                        min_distance(code, poset)))
    for code, poset in sparse_instances():
        feed("canonical", _canonical(code, poset))
    return {family: h.hexdigest() for family, h in hashes.items()}


def _digests_of(src: Path, per_cell_flag: list[str]) -> dict[str, str]:
    """The digests printed by this script run on the package under `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, *per_cell_flag], env=env,
                          capture_output=True, text=True, check=True)
    return dict(line.split() for line in done.stdout.splitlines())


def against(rev: str, per_cell_flag: list[str]) -> int:
    """Print each family as `same` or `DIFFERENT` between this checkout
    and revision `rev`; 1 on any difference, 2 when git cannot archive
    `rev` (no checkout, or an unknown revision)."""
    root = Path(__file__).resolve().parents[1]
    try:
        archive = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev, "src"],
                                 capture_output=True, check=True).stdout
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        theirs = _digests_of(Path(tmp) / "src", per_cell_flag)
    ours = _digests_of(root / "src", per_cell_flag)
    differ = False
    for family in FAMILIES:
        same = ours[family] == theirs.get(family)
        differ |= not same
        print(f"{family} {'same' if same else 'DIFFERENT'}")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tests/identity_corpus.py")
    parser.add_argument("--slice", action="store_true", help="the slice the tier-1 test pins")
    parser.add_argument("--against", metavar="REV", help="compare with a git revision")
    args = parser.parse_args(argv)
    per_cell_flag = ["--slice"] if args.slice else []
    if args.against is not None:
        return against(args.against, per_cell_flag)
    for family, digest in digests(SLICE_PER_CELL if args.slice else PER_CELL).items():
        print(f"{family} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
