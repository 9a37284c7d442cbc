"""Output-identity corpus: one sha256 per output family over a fixed,
seeded set of codes and orders.

    python tests/identity_corpus.py          # the full corpus
    python tests/identity_corpus.py --slice  # the slice the tier-1 test pins

Run it in two checkouts (say this tree and a `git archive` copy of its
parent, each with its own `src` on PYTHONPATH) and compare the lines: a
refactor that keeps every output keeps every digest.  Only public
outputs are read, so private layout is free to change.

The corpus is every (q, order kind) cell below, with n up to 9, 6, 5
and 4 over GF(2), GF(3), GF(5) and GF(7).  Each cell draws its own
instances from its own seed, so the slice (the first eight instances
of each cell) is a prefix of the full corpus.  The families cover decoding:

- `instances`: the generator rows and order relations themselves;
- `leaders.full`, `leaders.groups`: every leader, key and word, in
  insertion order, of the full table and of each plan group's table;
- `plan`: `table_sizes`, the groups (components and support) and the
  pointer support of the plan with its witness and of the plan without;
- `decode.full`, `decode.alg1`, `decode.alg2`: each decoder's output on
  a fixed sample of words (all words up to 256 of them, else 96 drawn
  ones), through the plan with the witness and the plan without;
- `syndrome`: the full table's syndrome of every sampled word, and each
  group table's syndrome of the word's projection onto its support.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from typing import Iterator

from posetcode.decode import (
    build_plan,
    build_plan_for_code,
    build_table,
    decode_full,
    decode_leveled_alg1,
    decode_leveled_alg2,
    project_support,
    table_sizes,
)
from posetcode.decomp import maximal_p_decomposition
from posetcode.field import PrimeField
from posetcode.linear import Vector
from posetcode.randgen import random_code, random_hierarchical_poset, random_poset

FIELDS = ((2, 9), (3, 6), (5, 5), (7, 4))  # (p, largest n)
KINDS = (0.0, 0.2, 0.5, 0.9, "hierarchical")  # random-order densities, then levels
PER_CELL = 40  # instances per (p, kind) cell in the full corpus
SLICE_PER_CELL = 8  # and in the slice
ALL_WORDS_UP_TO = 256
SAMPLED_WORDS = 96

FAMILIES = (
    "instances",
    "leaders.full",
    "leaders.groups",
    "plan",
    "decode.full",
    "decode.alg1",
    "decode.alg2",
    "syndrome",
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


def _plan_outputs(plan) -> tuple:
    groups = tuple((g.indices, g.support) for g in plan.groups)
    return tuple(table_sizes(plan).items()), groups, tuple(sorted(plan.pointer_support))


def _leaders(table) -> tuple:
    return tuple((s, leader.coords) for s, leader in table.leaders.items())


def digests(per_cell: int = PER_CELL) -> dict[str, str]:
    """The sha256 of each family over the first `per_cell` instances of
    every cell."""
    hashes = {family: hashlib.sha256() for family in FAMILIES}

    def feed(family: str, value: object) -> None:
        hashes[family].update(repr(value).encode() + b"\n")

    for code, poset, words in instances(per_cell):
        feed("instances", (code.field.p, code.gen.rows, sorted(poset.relations())))
        table = build_table(code, poset)
        with_witness = build_plan_for_code(code, poset)
        bare = build_plan(maximal_p_decomposition(code, poset).decomposition, poset)
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
    return {family: h.hexdigest() for family, h in hashes.items()}


def main(argv: list[str]) -> int:
    if argv not in ([], ["--slice"]):
        print("usage: python tests/identity_corpus.py [--slice]", file=sys.stderr)
        return 1
    for family, digest in digests(SLICE_PER_CELL if argv else PER_CELL).items():
        print(f"{family} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
