"""Vectors, generator matrices and linear codes over GF(p).

Provides the order-weighted weight/distance pair, the right-most-pivot
reduced row echelon form and its permutation-closed variant, the image
of a vector under a matrix, and exhaustive minimum distance.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .budget import DEFAULT_BUDGET, check_budget
from .field import PrimeField
from .poset import Poset


class Vector:
    """A fixed-length tuple of residues over a prime field."""

    __slots__ = ("field", "coords")

    def __init__(self, field: PrimeField, coords: Iterable[int]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", tuple(c % field.p for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Vector)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coords))

    def __repr__(self) -> str:
        return f"Vector({list(self.coords)} over {self.field})"

    def _check(self, other: "Vector") -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        if len(self.coords) != len(other.coords):
            raise ValueError(f"length mismatch: {len(self.coords)} vs {len(other.coords)}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        p = self.field.p
        return Vector(self.field, ((a + b) % p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        p = self.field.p
        return Vector(self.field, ((a - b) % p for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        p = self.field.p
        return Vector(self.field, ((-a) % p for a in self.coords))

    def scale(self, c: int) -> "Vector":
        p = self.field.p
        return Vector(self.field, (a * c % p for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def support_mask(self) -> int:
        mask = 0
        for i, c in enumerate(self.coords):
            if c:
                mask |= 1 << i
        return mask


def support(v: Vector) -> frozenset[int]:
    """1-indexed positions of the nonzero coordinates."""
    return frozenset(i + 1 for i, c in enumerate(v.coords) if c)


def p_weight(v: Vector, p: Poset) -> int:
    """Size of the order ideal generated by the support of v."""
    if len(v) != p.n:
        raise ValueError(f"vector length {len(v)} does not match ground set size {p.n}")
    return bin(p.ideal_mask(v.support_mask())).count("1")


def p_distance(u: Vector, v: Vector, p: Poset) -> int:
    """Order-weighted distance: the weight of the difference."""
    return p_weight(u - v, p)


class Matrix:
    """A dense k x n matrix of residues over a prime field."""

    __slots__ = ("field", "rows", "k", "n")

    def __init__(self, field: PrimeField, rows: Iterable[Iterable[int]], n: int | None = None):
        frozen = tuple(tuple(c % field.p for c in row) for row in rows)
        if frozen:
            width = len(frozen[0])
            if any(len(r) != width for r in frozen):
                raise ValueError("matrix rows must all have the same length")
            if n is not None and n != width:
                raise ValueError(f"declared width {n} does not match rows of length {width}")
            n = width
        elif n is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", frozen)
        object.__setattr__(self, "k", len(frozen))
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.rows))

    def __repr__(self) -> str:
        body = "\n".join(" ".join(str(c) for c in row) for row in self.rows)
        return f"Matrix over {self.field}, {self.k}x{self.n}:\n{body}"

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def row_vectors(self) -> list[Vector]:
        return [Vector(self.field, r) for r in self.rows]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, zip(*self.rows), n=self.k) if self.rows else Matrix(
            self.field, [[] for _ in range(self.n)], n=0
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch in matrix product")
        if self.n != other.k:
            raise ValueError(f"shape mismatch: {self.k}x{self.n} @ {other.k}x{other.n}")
        p = self.field.p
        cols = list(zip(*other.rows)) if other.rows else []
        out = []
        for row in self.rows:
            if cols:
                out.append([sum(a * b for a, b in zip(row, col)) % p for col in cols])
            else:
                out.append([])
        return Matrix(self.field, out, n=other.n)

    def apply_to_rows(self, g: "Matrix") -> "Matrix":
        """Image of each row of g under the map this matrix represents.

        Columns of this matrix hold the images of the basis vectors, so
        a row vector v maps to v times the transpose.
        """
        return g @ self.transpose()

    def rank(self) -> int:
        return len(_echelon(self.field, [list(r) for r in self.rows])[0])


def _echelon(field: PrimeField, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Classical reduced row echelon form; returns nonzero rows and pivot columns."""
    p = field.p
    work = [r[:] for r in rows]
    pivots: list[int] = []
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = field.inv(work[rank][col])
        work[rank] = [c * inv % p for c in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [(a - factor * b) % p for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


def classical_rref(g: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Left-most-pivot reduced row echelon form, zero rows dropped."""
    rows, pivots = _echelon(g.field, [list(r) for r in g.rows])
    return Matrix(g.field, rows, n=g.n), tuple(pivots)


def invert_matrix(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises on singular input."""
    if m.k != m.n:
        raise ValueError(f"cannot invert a {m.k}x{m.n} matrix")
    augmented = [list(row) + [1 if i == j else 0 for j in range(m.n)] for i, row in enumerate(m.rows)]
    rows, pivots = _echelon(m.field, augmented)
    if list(pivots) != list(range(m.n)):
        raise ValueError("matrix is singular")
    return Matrix(m.field, [r[m.n:] for r in rows], n=m.n)


def row_reduce_inverse(g: Matrix) -> Matrix:
    """Reduced row echelon form under the right-most pivot convention.

    Row i has its right-most nonzero entry in column j(i) with
    j(1) > j(2) > ... > j(k); each pivot column carries a single
    nonzero entry, normalized to 1.  Rejects rank-deficient input.
    """
    reversed_rows = [list(r)[::-1] for r in g.rows]
    rows, _ = _echelon(g.field, reversed_rows)
    if len(rows) != g.k:
        raise ValueError(f"rank deficiency: rank {len(rows)} < {g.k} rows")
    return Matrix(g.field, [r[::-1] for r in rows], n=g.n)


def _pivot_columns_rightmost(g: Matrix) -> list[int] | None:
    """0-indexed right-most nonzero column per row; None if a row is zero."""
    out = []
    for row in g.rows:
        j = next((c for c in range(g.n - 1, -1, -1) if row[c]), None)
        if j is None:
            return None
        out.append(j)
    return out


def is_generalized_rref(g: Matrix) -> bool:
    """Whether some row permutation of g is in right-most-pivot reduced form.

    Each row's right-most nonzero column must contain no other nonzero
    entry; the rows can then always be permuted into decreasing pivot
    order.
    """
    if g.k == 0:
        return True
    pivots = _pivot_columns_rightmost(g)
    if pivots is None or len(set(pivots)) != g.k:
        return False
    for row_idx, j in enumerate(pivots):
        for other in range(g.k):
            if other != row_idx and g.rows[other][j]:
                return False
    return True


class Code:
    """A k-dimensional subspace of GF(q)^n given by a full-rank generator."""

    __slots__ = ("gen", "field", "n", "k")

    def __init__(self, gen: Matrix):
        if gen.k < 1:
            raise ValueError("a code needs at least one generator row")
        if gen.rank() != gen.k:
            raise ValueError(f"rank deficiency: generator has rank {gen.rank()} < {gen.k} rows")
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "field", gen.field)
        object.__setattr__(self, "n", gen.n)
        object.__setattr__(self, "k", gen.k)

    def __setattr__(self, name, value):
        raise AttributeError("Code is immutable")

    @property
    def q(self) -> int:
        return self.field.p

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Iterable[Iterable[int]]) -> "Code":
        return cls(Matrix(field, rows))

    def support(self) -> frozenset[int]:
        """1-indexed coordinates where some codeword is nonzero."""
        out = set()
        for row in self.gen.rows:
            out.update(i + 1 for i, c in enumerate(row) if c)
        return frozenset(out)

    def codewords(self, budget: int = DEFAULT_BUDGET) -> Iterator[Vector]:
        """All q**k codewords, enumerated deterministically."""
        check_budget("codeword enumeration", self.q ** self.k, budget)
        p = self.field.p
        for coeffs in itertools.product(range(p), repeat=self.k):
            acc = [0] * self.n
            for c, row in zip(coeffs, self.gen.rows):
                if c:
                    for i, a in enumerate(row):
                        if a:
                            acc[i] = (acc[i] + c * a) % p
            yield Vector(self.field, acc)

    def codeword_set(self, budget: int = DEFAULT_BUDGET) -> frozenset[Vector]:
        return frozenset(self.codewords(budget))

    def contains(self, v: Vector) -> bool:
        if v.field != self.field or len(v) != self.n:
            return False
        rows, pivots = _echelon(self.field, [list(r) for r in self.gen.rows])
        residue = _reduce_against(self.field, list(v.coords), rows, pivots)
        return not any(residue)


def _reduce_against(
    field: PrimeField, vec: list[int], echelon_rows: list[list[int]], pivots: Sequence[int]
) -> list[int]:
    p = field.p
    for row, col in zip(echelon_rows, pivots):
        if vec[col]:
            factor = vec[col]
            vec = [(a - factor * b) % p for a, b in zip(vec, row)]
    return vec


def apply_map(m: Matrix, v: Vector) -> Vector:
    """Image of v under the map whose basis images are the columns of m."""
    p = m.field.p
    return Vector(
        m.field,
        (sum(row[j] * c for j, c in enumerate(v.coords) if c) % p for row in m.rows),
    )


def min_distance(code: Code, p: Poset, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum weight of a nonzero codeword, by exhaustive enumeration."""
    if p.n != code.n:
        raise ValueError(f"poset ground set {p.n} does not match code length {code.n}")
    best: int | None = None
    for c in code.codewords(budget):
        if c.is_zero():
            continue
        w = p_weight(c, p)
        if best is None or w < best:
            best = w
    if best is None:
        raise ValueError("zero-dimensional code has no minimum distance")
    return best
