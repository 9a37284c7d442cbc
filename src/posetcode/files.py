"""Text formats for posets, codes and vectors.

Poset files: a header line ``poset n=<n>`` followed by one relation
``a b`` per line, meaning a is below b; the closure is applied on load.
Code files: a header ``code q=<p> k=<k> n=<n>`` followed by k generator
rows of n space-separated residues.  Vectors: space-separated residues,
one vector per line.  ``#`` starts a comment anywhere.
"""

from __future__ import annotations

import re
from pathlib import Path

from .field import PrimeField
from .linear import Code, Matrix, Vector
from .poset import Poset

_HEADERS = {
    "poset": (re.compile(r"^poset\s+n=(\d+)$"), "poset n=<n>"),
    "code": (re.compile(r"^code\s+q=(\d+)\s+k=(\d+)\s+n=(\d+)$"), "code q=<p> k=<k> n=<n>"),
}


def _meaningful_lines(path: str | Path) -> list[tuple[int, str]]:
    out = []
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_ints(tokens: list[str], what: str, *where) -> list[int]:
    """The tokens as integers; on failure the error names `what`, the
    location parts `where` and the column of the bad token, joined by
    colons."""
    values: list[int] = []
    try:
        for tok in tokens:
            values.append(int(tok))
    except ValueError:
        col = len(values) + 1
        location = ":".join(map(str, (*where, col)))
        raise ValueError(f"{location}: expected {what}, got {tokens[col - 1]!r}") from None
    return values


def _read_header(path: str | Path, kind: str) -> tuple[int, list[int], list[tuple[int, str]]]:
    """The line number and integers of the header of a `kind` file, then
    the meaningful lines after it."""
    lines = _meaningful_lines(path)
    if not lines:
        raise ValueError(f"{path}:1: empty {kind} file")
    header, shape = _HEADERS[kind]
    lineno, line = lines[0]
    m = header.match(line)
    if not m:
        raise ValueError(f"{path}:{lineno}: expected header '{shape}', got {line!r}")
    return lineno, [int(g) for g in m.groups()], lines[1:]


def load_poset(path: str | Path) -> Poset:
    _, (n,), body = _read_header(path, "poset")
    pairs = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(
                f"{path}:{lineno}: expected a relation 'a b', got {len(tokens)} tokens"
            )
        a, b = _parse_ints(tokens, "an element", path, lineno)
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"{path}:{lineno}: relation ({a}, {b}) outside [1, {n}]")
        pairs.append((a, b))
    try:
        return Poset.from_relations(n, pairs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_code(path: str | Path) -> Code:
    lineno, (q, k, n), body = _read_header(path, "code")
    try:
        field = PrimeField(q)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(body) != k:
        raise ValueError(f"{path}: expected {k} generator rows, found {len(body)}")
    rows = [parse_vector(line, field, n, where=f"{path}:{lineno}").coords for lineno, line in body]
    try:
        return Code(Matrix(field, rows, n=n))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def parse_vector(text: str, field: PrimeField, n: int, where: str = "vector") -> Vector:
    tokens = text.split()
    if len(tokens) != n:
        raise ValueError(f"{where}: expected {n} residues, got {len(tokens)}")
    coords = _parse_ints(tokens, "a residue", where)
    for col, value in enumerate(coords, start=1):
        if not 0 <= value < field.p:
            raise ValueError(f"{where}:{col}: residue {value} outside [0, {field.p})")
    return Vector(field, coords)


def load_vectors(path: str | Path, field: PrimeField, n: int) -> list[Vector]:
    return [
        parse_vector(line, field, n, where=f"{path}:{lineno}")
        for lineno, line in _meaningful_lines(path)
    ]
