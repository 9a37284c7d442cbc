"""Vectors, generator matrices and linear codes over GF(p).

Provides the order-weighted weight/distance pair, the right-most-pivot
reduced row echelon form and its permutation-closed variant, the image
of a vector under a matrix, and exhaustive minimum distance.

Every row reduction runs on one packed-row kernel, `RowKernel`.  A row
of GF(p)^m is a single Python int holding coordinate i in bits
[i*w, (i+1)*w), with w = 1 over GF(2) and w = (2p-2).bit_length() + 1
over odd p.  The kernel adds rows slotwise, takes multiples, reduces a
row against a basis and grows a basis by one row.  Every basis is
triangular (`RowKernel.adjoin`); the echelon forms and inversion
back-substitute one once it is complete (`_echelon`).  In the canonical
form each packed int holds one column of the generator, with the
matching witness row in tag slots.
Columns are packed by one helper, `_packed_columns`.  One enumerator,
`_lexicographic`, lists a start row plus every combination of some
packed columns in the lexicographic (`itertools.product`) order of the
coefficients: that order picks the coset leader a syndrome table
keeps, fills the decoders' chunk tables, and sets the order in which
the split search tries candidates.  The decoders read their packed
output back as a residue tuple, one table lookup per run of slots
(`RowKernel.residues`), into a `Vector` that is not reduced again
(`_residue_vector`).  The canonical form reads its generator and witness
the same way, into matrices that are not reduced again either
(`_residue_matrix`), as are the decomposition's components; those
components, whose rows are known to be independent, become codes
without a rank pass (`_independent_code`).
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Iterator, Sequence

from .budget import DEFAULT_BUDGET, check_budget
from .field import PrimeField
from .poset import Poset, _mask_to_set, _nonzero_mask


class Vector:
    """A fixed-length tuple of residues over a prime field."""

    __slots__ = ("field", "coords")

    def __init__(self, field: PrimeField, coords: Iterable[int]):
        p = field.p
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", tuple(c % p for c in coords))

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

    # the constructor reduces mod p
    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.field, (a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.field, (a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return Vector(self.field, (-a for a in self.coords))

    def scale(self, c: int) -> "Vector":
        return Vector(self.field, (a * c for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def support_mask(self) -> int:
        return _nonzero_mask(self.coords)


_set_field, _set_coords = Vector.field.__set__, Vector.coords.__set__


def _residue_vector(field: PrimeField, coords: tuple[int, ...]) -> Vector:
    """A Vector of residues already in [0, p), kept as given; the public
    constructor would reduce every one of them mod p again."""
    v = object.__new__(Vector)
    _set_field(v, field)
    _set_coords(v, coords)
    return v


def support(v: Vector) -> frozenset[int]:
    """1-indexed positions of the nonzero coordinates."""
    return _mask_to_set(v.support_mask())


def p_weight(v: Vector, p: Poset) -> int:
    """Size of the order ideal generated by the support of v."""
    if len(v) != p.n:
        raise ValueError(f"vector length {len(v)} does not match ground set size {p.n}")
    return bin(p.ideal_mask(v.support_mask())).count("1")


def p_distance(u: Vector, v: Vector, p: Poset) -> int:
    """Order-weighted distance: the weight of the difference."""
    return p_weight(u - v, p)


# -- packed rows ------------------------------------------------------------

def _chunk_slots(p: int) -> int:
    """The most residues c with p^c <= 256, and at least 1: the length of
    the runs that one table lookup reads or writes."""
    c = 1
    while p ** (c + 1) <= 256:
        c += 1
    return c


@functools.lru_cache(maxsize=256)
def _residue_runs(p: int, length: int) -> tuple[tuple[int, ...], ...]:
    """Every tuple of `length` residues mod p, in lexicographic order."""
    return tuple(itertools.product(range(p), repeat=length))


def _lexicographic(add: Callable[[int, int], int], start: int,
                   multiples: Iterable[Sequence[int]]) -> list[int]:
    """start plus every combination of packed columns, given their multiples
    0..p-1, in `itertools.product` order of the coefficients (`_residue_runs`):
    the one order fixing the leaders a table keeps and the split candidates."""
    images = [start]
    for column in multiples:
        images = [add(image, multiple) for image in images for multiple in column]
    return images


@functools.lru_cache(maxsize=256)
def _residue_table(p: int, w: int, length: int) -> dict[int, tuple[int, ...]]:
    """Every run of `length` residues mod p, packed in slots of w bits,
    mapped to its tuple."""
    return {sum(c << (i * w) for i, c in enumerate(run)): run for run in _residue_runs(p, length)}


Basis = tuple[tuple[int, int], ...]
"""A basis of packed rows as (shift, row) pairs.  Each row's pivot, its
lowest nonzero coordinate slot, starts at bit `shift`, holds 1, and is
zero in every later row; `RowKernel.adjoin` keeps the rows in the order
they came (triangular).  The pivots depend only on the span, and so does
the int a row reduces to, tags included: one combination of the
independent basis rows clears those pivots."""


class RowKernel:
    """Echelon arithmetic on rows of GF(p)^m packed into Python ints.

    Coordinate i of a row sits in bits [i*w, (i+1)*w).  Over GF(2),
    w = 1 and slotwise addition is xor.  Over odd p, w leaves room for
    the sum of two residues under a guard bit: addition adds the ints
    and subtracts p from every slot whose sum reached p, which it finds
    by adding 2^(w-1) - p to every slot and reading the guard bits.  No
    carry crosses a slot.  Choosing w and the addition is the only place
    p = 2 differs; everything else is one code path.  Every slot of a
    sum is normalized: below p, guard bit clear.

    A row may carry `tags` further slots after its m coordinates.  They
    take part in every addition, so they can record which combination
    of input rows a row is, but they never hold a pivot.  `coords`
    masks the m coordinate slots.

    `add`, `scale`, `reduce` and `adjoin` are closures bound once per
    kernel, so the hot loops load no attribute per call.
    """

    __slots__ = ("p", "m", "w", "slot", "add", "scale", "reduce", "adjoin",
                 "coords", "_fill", "_top", "_reads")

    def __init__(self, p: int, m: int, tags: int = 0):
        self.p, self.m = p, m
        if p == 2:
            w = 1
            add = operator.xor
        else:
            w = (2 * p - 2).bit_length() + 1
            ones = ((1 << (w * (m + tags))) - 1) // ((1 << w) - 1)  # bit 0 of every slot
            high = ones << (w - 1)
            bias = ones * ((1 << (w - 1)) - p)
            top = w - 1

            def add(a: int, c: int) -> int:
                s = a + c
                return s - (((s + bias) & high) >> top) * p

        self.w, self.add = w, add
        self.slot = slot = (1 << w) - 1
        self.coords = coords = (1 << (w * m)) - 1
        ones = coords // slot  # bit 0 of every coordinate slot
        self._fill, self._top = ones * (slot >> 1), ones << (w - 1)
        minus_one = p - 1
        # c -> the binary digits of c after its leading 1, as booleans; set
        # on the first use of each c, so GF(65521) builds no 65,520 ladders
        ladders: dict[int, tuple[bool, ...]] = {}

        def scale(row: int, c: int) -> int:
            """c * row for 0 < c < p, by doubling and adding: one doubling
            per digit of c's ladder, then row added when the digit is 1."""
            try:
                ladder = ladders[c]
            except KeyError:
                ladder = ladders[c] = tuple(bit == "1" for bit in bin(c)[3:])
            out = row
            for one in ladder:
                out = add(out, out)
                if one:
                    out = add(out, row)
            return out

        def reduce(row: int, basis: Basis) -> int:
            """row minus the combination of basis rows that clears its pivot slots."""
            for shift, b in basis:
                f = row >> shift & slot
                if f:
                    row = add(row, b if f == minus_one else scale(b, p - f))
            return row

        def adjoin(basis: Basis, row: int) -> Basis | None:
            """basis plus row, reduced by it and scaled to a unit pivot, as
            its last row; None if the coordinates of row depend on basis."""
            row = reduce(row, basis)
            if not row & coords:
                return None
            bit = (row & -row).bit_length() - 1
            shift = bit - bit % w
            f = row >> shift & slot
            return basis + ((shift, row if f == 1 else scale(row, pow(f, -1, p))),)

        self.scale, self.reduce, self.adjoin = scale, reduce, adjoin

    def pack(self, coords: Sequence[int]) -> int:
        """One int from residues in [0, p), coordinate 0 in the lowest slot."""
        w = self.w
        row = 0
        for c in reversed(coords):
            row = row << w | c
        return row

    def unpack(self, row: int) -> list[int]:
        """The m coordinate slots of a row."""
        w, slot = self.w, self.slot
        return [row >> shift & slot for shift in range(0, self.m * w, w)]

    def residues(self, row: int) -> tuple[int, ...]:
        """The m coordinates of a row whose coordinate slots are normalized,
        as a tuple: one table read per run of c slots, with c as in
        `_chunk_slots`.  The runs mask exactly the m coordinate slots, so
        the tag slots may hold anything.

        The (shift, mask, table) of each run are set on the first read,
        so kernels that never read residues build no tables.
        """
        try:
            reads = self._reads
        except AttributeError:
            p, w, m, c = self.p, self.w, self.m, _chunk_slots(self.p)
            reads = self._reads = tuple(
                (a * w, (1 << (w * min(c, m - a))) - 1, _residue_table(p, w, min(c, m - a)))
                for a in range(0, m, c)
            )
        out = ()
        for shift, mask, table in reads:
            out += table[row >> shift & mask]
        return out

    def unit(self, i: int) -> int:
        """The row with 1 in slot i and 0 elsewhere."""
        return 1 << (i * self.w)

    def nonzero(self, row: int) -> int:
        """The top bit of every nonzero coordinate slot, and no other bit.

        Filling each slot with 2^(w-1) - 1 carries a nonzero residue
        into the slot's top bit and leaves a zero one below it.
        """
        return ((row & self.coords) + self._fill) & self._top

    def support(self, row: int) -> int:
        """The coordinate mask of row: bit i set when slot i is nonzero.

        Shifted down, the `nonzero` flags sit w bits apart from bit 0,
        so every w-th binary digit, read lowest first, is one slot's.
        """
        flags = self.nonzero(row) >> (self.w - 1)
        return int(bin(flags)[:1:-1][:: self.w][::-1], 2)

    def multiples(self, row: int) -> list[int]:
        """c * row for c = 0, ..., p - 1."""
        add = self.add
        out = [0, row]
        for _ in range(self.p - 2):
            out.append(add(out[-1], row))
        return out


row_kernel = functools.lru_cache(maxsize=256)(RowKernel)
"""RowKernel(p, m, tags), shared between calls of the same shape."""


def _packed_columns(kernel: RowKernel, rows: Sequence[Sequence[int]], n: int) -> list[int]:
    """The n columns of the rows, each packed as one kernel row."""
    return [kernel.pack([row[j] for row in rows]) for j in range(n)]


class Matrix:
    """A dense k x n matrix of residues over a prime field."""

    __slots__ = ("field", "rows", "k", "n")

    def __init__(self, field: PrimeField, rows: Iterable[Iterable[int]], n: int | None = None):
        modulus = itertools.repeat(field.p)  # endless, so every row can share it
        self._store(field, tuple(tuple(map(operator.mod, row, modulus)) for row in rows), n)

    def _store(self, field: PrimeField, frozen: tuple[tuple[int, ...], ...], n: int | None) -> None:
        """Check the widths of rows of residues in [0, p) and keep them."""
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
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n=n)

    def row_vectors(self) -> list[Vector]:
        return [Vector(self.field, r) for r in self.rows]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows)) or [()] * self.n, n=self.k)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch in matrix product")
        if self.n != other.k:
            raise ValueError(f"shape mismatch: {self.k}x{self.n} @ {other.k}x{other.n}")
        p = self.field.p
        cols = list(zip(*other.rows)) or [()] * other.n  # n empty columns when k = 0
        out = [[sum(a * b for a, b in zip(row, col)) % p for col in cols] for row in self.rows]
        return Matrix(self.field, out, n=other.n)

    def apply_to_rows(self, g: "Matrix") -> "Matrix":
        """Image of each row of g under the map this matrix represents.

        Columns of this matrix hold the images of the basis vectors, so
        a row vector v maps to v times the transpose.
        """
        return g @ self.transpose()

    def rank(self) -> int:
        return len(_triangular(self.field, self.rows, self.n)[1])


def _residue_matrix(field: PrimeField, rows: tuple[tuple[int, ...], ...],
                    n: int | None = None) -> Matrix:
    """A Matrix of residue tuples already in [0, p), kept as given, with the
    public constructor's width checks; that constructor would reduce every
    entry mod p again.  The matrix counterpart of `_residue_vector`."""
    m = object.__new__(Matrix)
    m._store(field, rows, n)
    return m


def _triangular(field: PrimeField, rows: Sequence[Sequence[int]], m: int) -> tuple[RowKernel, Basis]:
    """A triangular basis of the span of the rows with pivots among the
    first m coordinates; rows dependent there are dropped, and
    coordinates past m ride along as tags."""
    kernel = row_kernel(field.p, m, (len(rows[0]) if rows else m) - m)
    basis: Basis = ()
    for row in rows:
        basis = kernel.adjoin(basis, kernel.pack(row)) or basis
    return kernel, basis


def _echelon(field: PrimeField, rows: Sequence[Sequence[int]], m: int) -> tuple[RowKernel, Basis]:
    """The reduced echelon basis of `_triangular`'s span, sorted by pivot.

    Each triangular row is zero at every earlier pivot, so walking the
    rows last first and reducing each against the rows already finished
    clears every other pivot.  The rows, tags included, depend only on
    the span, as the kept rows are independent on their coordinates.
    """
    kernel, basis = _triangular(field, rows, m)
    done: list[tuple[int, int]] = []
    for shift, row in reversed(basis):
        done.append((shift, kernel.reduce(row, done)))
    return kernel, tuple(sorted(done))


def classical_rref(g: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Left-most-pivot reduced row echelon form, zero rows dropped."""
    kernel, basis = _echelon(g.field, g.rows, g.n)
    rows = tuple(kernel.residues(b) for _, b in basis)
    return _residue_matrix(g.field, rows, g.n), tuple(shift // kernel.w for shift, _ in basis)


def invert_matrix(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises on singular input."""
    if m.k != m.n:
        raise ValueError(f"cannot invert a {m.k}x{m.n} matrix")
    n = m.n
    augmented = [row + tuple(1 if i == j else 0 for j in range(n)) for i, row in enumerate(m.rows)]
    kernel, basis = _echelon(m.field, augmented, n)
    if len(basis) != n:
        raise ValueError("matrix is singular")
    # the inverse sits in the tag slots, which a width-n kernel reads once shifted down
    tags, shift = row_kernel(m.field.p, n), kernel.w * n
    return _residue_matrix(m.field, tuple(tags.residues(b >> shift) for _, b in basis), n)


def row_reduce_inverse(g: Matrix) -> Matrix:
    """Reduced row echelon form under the right-most pivot convention.

    Row i has its right-most nonzero entry in column j(i) with
    j(1) > j(2) > ... > j(k); each pivot column carries a single
    nonzero entry, normalized to 1.  Rejects rank-deficient input.
    """
    kernel, basis = _echelon(g.field, [r[::-1] for r in g.rows], g.n)
    if len(basis) != g.k:
        raise ValueError(f"rank deficiency: rank {len(basis)} < {g.k} rows")
    return _residue_matrix(g.field, tuple(kernel.residues(b)[::-1] for _, b in basis), g.n)


def is_generalized_rref(g: Matrix) -> bool:
    """Whether some row permutation of g is in right-most-pivot reduced form.

    Each row's right-most nonzero column must contain no other nonzero
    entry (so no two rows share one); the rows can then always be
    permuted into decreasing pivot order.
    """
    for row_idx, row in enumerate(g.rows):
        j = next((c for c in range(g.n - 1, -1, -1) if row[c]), None)
        if j is None or any(other[j] for o, other in enumerate(g.rows) if o != row_idx):
            return False
    return True


class Code:
    """A k-dimensional subspace of GF(q)^n given by a full-rank generator."""

    __slots__ = ("gen", "field", "n", "k", "_basis", "_support")

    def __init__(self, gen: Matrix):
        if gen.k < 1:
            raise ValueError("a code needs at least one generator row")
        rank = gen.rank()
        if rank != gen.k:
            raise ValueError(f"rank deficiency: generator has rank {rank} < {gen.k} rows")
        self._store(gen, None)

    def _store(self, gen: Matrix, support: int | None) -> None:
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "field", gen.field)
        object.__setattr__(self, "n", gen.n)
        object.__setattr__(self, "k", gen.k)
        object.__setattr__(self, "_basis", None)  # contains' basis, built on its first call
        object.__setattr__(self, "_support", support)  # support()'s mask, None until computed

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
        if self._support is None:
            mask = functools.reduce(operator.or_, map(_nonzero_mask, self.gen.rows))
            object.__setattr__(self, "_support", mask)
        return _mask_to_set(self._support)

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
        if self._basis is None:
            object.__setattr__(self, "_basis", _triangular(self.field, self.gen.rows, self.n))
        kernel, basis = self._basis
        return not kernel.reduce(kernel.pack(v.coords), basis)


def _independent_code(gen: Matrix, support: int | None = None) -> Code:
    """A Code of rows known to be independent, with the mask of their
    support when it is known: no rank pass, and `support()` reads the
    mask as given.  The code counterpart of `_residue_matrix`."""
    code = object.__new__(Code)
    code._store(gen, support)
    return code


def apply_map(m: Matrix, v: Vector) -> Vector:
    """Image of v under the map whose basis images are the columns of m."""
    return m.apply_to_rows(Matrix(m.field, [v.coords])).row_vectors()[0]


def _word_supports(code: Code) -> Iterator[int]:
    """Coordinate masks of the supports of the nonzero codewords whose
    first nonzero coefficient is 1, one word per scalar class.

    Behind leading row j, the combinations of the later rows follow the
    modular q-ary Gray order: step t adds the row at the lowest nonzero
    base-q digit of t, so each word costs one packed row addition.
    """
    q = code.q
    kernel = row_kernel(q, code.n)
    add, support = kernel.add, kernel.support
    rows = [kernel.pack(r) for r in code.gen.rows]
    for j, word in enumerate(rows):
        tail = rows[j + 1 :]
        yield support(word)
        for t in range(1, q ** len(tail)):
            digit = 0
            while t % q ** (digit + 1) == 0:
                digit += 1
            word = add(word, tail[digit])
            yield support(word)


def min_distance(code: Code, p: Poset, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum weight of a nonzero codeword, by exhaustive enumeration.

    A weight depends only on the support, and scalar multiples share
    it, so one word per scalar class suffices.  The budget is charged
    all q^k codewords.
    """
    p._check_ground_set(code.n)
    check_budget("codeword enumeration", code.q**code.k, budget)
    return min(p.ideal_mask(s).bit_count() for s in _word_supports(code))
