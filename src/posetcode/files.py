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

_POSET_HEADER = re.compile(r"^poset\s+n=(\d+)$")
_CODE_HEADER = re.compile(r"^code\s+q=(\d+)\s+k=(\d+)\s+n=(\d+)$")


def _meaningful_lines(path: str | Path) -> list[tuple[int, str]]:
    out = []
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_int(token: str, path, lineno: int, col: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{path}:{lineno}:{col}: expected {what}, got {token!r}") from None


def load_poset(path: str | Path) -> Poset:
    lines = _meaningful_lines(path)
    if not lines:
        raise ValueError(f"{path}:1: empty poset file")
    lineno, header = lines[0]
    m = _POSET_HEADER.match(header)
    if not m:
        raise ValueError(f"{path}:{lineno}: expected header 'poset n=<n>', got {header!r}")
    n = int(m.group(1))
    pairs = []
    for lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(
                f"{path}:{lineno}: expected a relation 'a b', got {len(tokens)} tokens"
            )
        a = _parse_int(tokens[0], path, lineno, 1, "an element")
        b = _parse_int(tokens[1], path, lineno, 2, "an element")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"{path}:{lineno}: relation ({a}, {b}) outside [1, {n}]")
        pairs.append((a, b))
    try:
        return Poset.from_relations(n, pairs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_code(path: str | Path) -> Code:
    lines = _meaningful_lines(path)
    if not lines:
        raise ValueError(f"{path}:1: empty code file")
    lineno, header = lines[0]
    m = _CODE_HEADER.match(header)
    if not m:
        raise ValueError(
            f"{path}:{lineno}: expected header 'code q=<p> k=<k> n=<n>', got {header!r}"
        )
    q, k, n = (int(g) for g in m.groups())
    try:
        field = PrimeField(q)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    body = lines[1:]
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
    coords = []
    for col, tok in enumerate(tokens, start=1):
        try:
            value = int(tok)
        except ValueError:
            raise ValueError(f"{where}:{col}: expected a residue, got {tok!r}") from None
        if not 0 <= value < field.p:
            raise ValueError(f"{where}:{col}: residue {value} outside [0, {field.p})")
        coords.append(value)
    return Vector(field, coords)


def load_vectors(path: str | Path, field: PrimeField, n: int) -> list[Vector]:
    return [
        parse_vector(line, field, n, where=f"{path}:{lineno}")
        for lineno, line in _meaningful_lines(path)
    ]
