"""Exact dense linear algebra: RREF, kernels, subspace lattice.

Vectors are coordinate tuples in every result (a residual is a list).  A
linear map is the tuple of its rows and acts on the right, v |-> v * M, so
row i is the image of the i-th basis vector; Matrix is only the immutable
record of such rows that a derivation stores.  Subspaces keep a canonical
reduced-row-echelon basis, which makes equality, hashing and deduplication
exact.

Each vector job has one kernel per representation.  Row reduction clears
the pivot columns of a vector against echelon rows: _eliminate on tuples
over Q and GF(p) for p > 2, _xor_reduce on packed rows over GF(2).  RREF,
membership and incremental spans are built on them, coordinates in an RREF
basis are read at its pivots, and linear_combination is the one place
vectors are summed, brackets and derivation actions included.
stabiliser is the one "which combination of these maps sends a basis
into B" kernel, behind centralisers, normalisers, cores, intersections and
stabilising derivations.  It takes one echelon pass over the rows [reduced
images | identity] and returns the coefficient vectors as a subspace,
already in RREF; Subspace.combinations maps such coefficients over an RREF
basis back to a canonical basis without a second elimination.

Over GF(p) every result is reduced mod p.  Over Q every result keeps the
payload contract of fields (an int when integral, a Fraction otherwise),
through canonical_q, and the loops skip entries where the row being added
is zero, so integral work stays in int arithmetic and no Fraction is built
for a zero.  Over GF(2) the kernel holds a vector as one integer with a
byte per coordinate, the first coordinate most significant (gf2_pack):
adding two rows is one XOR, and a row's leading coordinate is its highest
set bit.  EchelonAccumulator keeps its rows packed and a Subspace its
basis, packed on first use; linear_combination XORs packed rows too.  The
packed form never leaves this module: entries are reduced mod 2 as they are
packed, and results are unpacked to tuples.  Each primitive branches on the
field once, outside its loop, because the verification sweeps spend most
of their time here.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    DimensionMismatchError,
    UnsupportedFieldError,
)
from .fields import Field, canonical_q


_PARITY = bytes(k & 1 for k in range(256))


def gf2_pack(vec: Sequence) -> int:
    """A GF(2) vector as an integer with one byte per coordinate, each entry reduced mod 2."""
    try:
        raw = bytes(vec).translate(_PARITY)
    except ValueError:
        # bytes() takes entries in 0..255 only
        raw = bytes(x % 2 for x in vec)
    return int.from_bytes(raw, "big")


def gf2_unpack(v: int, n: int) -> tuple:
    """The n coordinates of a packed GF(2) vector."""
    return tuple(v.to_bytes(n, "big"))


def _xor_reduce(v: int, rows: Sequence[int]) -> int:
    """Packed v with the pivot coordinates of packed echelon rows cleared.

    XOR with a row changes no bit above the row's leading one and flips
    that one, so it lowers v exactly when v has the row's pivot set.
    """
    for row in rows:
        w = v ^ row
        if w < v:
            v = w
    return v


def _check_length(vec: Sequence, n: int) -> None:
    if len(vec) != n:
        raise AmbientMismatchError("vector length %d in ambient %d" % (len(vec), n))


def _eliminate(vec: Sequence, rows: Sequence, pivots: Sequence, p) -> list:
    """The residual of vec with its pivot columns cleared by the matching echelon rows.

    The residual is zero exactly when vec lies in the span of the rows.  p
    is the field characteristic, None over Q; GF(2) never comes here, it
    has _xor_reduce.
    """
    if p is None:
        # a caller's Fraction(k, 1) becomes k here, so every output keeps the contract
        v = list(map(canonical_q, vec))
        for row, c in zip(rows, pivots):
            f = v[c]
            if f:
                v = [canonical_q(a - f * b) if b else a for a, b in zip(v, row)]
    else:
        # an entry outside 0..p-1 is reduced here, so every output is too
        v = [x % p for x in vec]
        for row, c in zip(rows, pivots):
            f = v[c]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, row)]
    return v


def linear_combination(field: Field, coeffs: Sequence, rows: Sequence, n: int) -> tuple:
    """The vector sum of coeffs[i] * rows[i], of length n."""
    p = field.p
    if p == 2:
        packed = 0
        for c, row in zip(coeffs, rows):
            if c % 2:
                packed ^= gf2_pack(row)
        return gf2_unpack(packed, n)
    out = [field.zero()] * n
    if p is None:
        for c, row in zip(coeffs, rows):
            if c:
                out = [a + c * b if b else a for a, b in zip(out, row)]
        return tuple(map(canonical_q, out))
    for c, row in zip(coeffs, rows):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    out = [a % p for a in out]
    return tuple(out)


def rref(rows: Iterable[Sequence], field: Field) -> tuple:
    """Full reduced row echelon form.

    Returns (rows, pivots) where rows is a tuple of row tuples of the same
    shape as the input (zero rows at the bottom).
    """
    work = [tuple(r) for r in rows]
    ncols = len(work[0]) if work else 0
    if any(len(r) != ncols for r in work):
        raise DimensionMismatchError("ragged rows")
    acc = EchelonAccumulator(field, ncols, work)
    zero_rows = ((field.zero(),) * ncols,) * (len(work) - acc.rank)
    return tuple(tuple(r) for r in acc.rows) + zero_rows, tuple(acc.pivots)


def null_space(rows: Sequence[Sequence], field: Field, ncols: int | None = None) -> list:
    """Basis of {x : A x = 0} with x read as a coordinate tuple."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise DimensionMismatchError("empty matrix needs explicit column count")
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    zero = field.zero()
    one = field.one()
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero] * ncols
        v[free] = one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][free])
        basis.append(tuple(v))
    return basis


class Matrix:
    """The immutable record of a linear map that a Derivation stores.

    Row i is the image of the i-th basis vector.  It has no arithmetic of
    its own: code that combines maps works on the row tuples.
    """

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows: Iterable[Sequence], ncols: int | None = None):
        self.field = field
        rs = tuple(tuple(r) for r in rows)
        if rs:
            ncols = len(rs[0])
            for r in rs:
                if len(r) != ncols:
                    raise DimensionMismatchError("ragged rows")
        elif ncols is None:
            ncols = 0
        self.rows = rs
        self.nrows = len(rs)
        self.ncols = ncols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self) -> str:
        return "Matrix(%s, %d x %d)" % (self.field, self.nrows, self.ncols)


class Subspace:
    """Subspace of F^n with a canonical RREF basis.

    Canonicality makes == and hash structural: two spans are equal exactly
    when they reduce to the same rows.  Over GF(2) the basis is also held
    packed, from the accumulator that built it or packed on first use.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_packed")

    def __init__(self, field: Field, ambient_dim: int, basis: tuple, pivots: tuple, packed=None):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots
        self._packed = packed

    @staticmethod
    def span(field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        """The span of the vectors, in one echelon pass; AmbientMismatchError on a wrong length."""
        return EchelonAccumulator(field, ambient_dim, vectors).to_subspace()

    @staticmethod
    def zero_space(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, (), ())

    @staticmethod
    def full_space(field: Field, ambient_dim: int) -> "Subspace":
        zero, one = field.zero(), field.one()
        basis = tuple(
            tuple(one if i == j else zero for j in range(ambient_dim)) for i in range(ambient_dim)
        )
        return Subspace(field, ambient_dim, basis, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    def _check_ambient(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise AmbientMismatchError(
                "%s^%d vs %s^%d" % (self.field, self.ambient_dim, other.field, other.ambient_dim)
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return "Subspace(%s^%d, dim %d)" % (self.field, self.ambient_dim, self.dim)

    def _packed_basis(self) -> tuple:
        """The basis packed over GF(2), packed once on first use."""
        if self._packed is None:
            self._packed = tuple(map(gf2_pack, self.basis))
        return self._packed

    def reduce(self, vec: Sequence) -> list:
        """Residual of vec after elimination by the basis; zero iff contained."""
        _check_length(vec, self.ambient_dim)
        if self.field.p == 2:
            return list(_xor_reduce(gf2_pack(vec), self._packed_basis()).to_bytes(len(vec), "big"))
        return _eliminate(vec, self.basis, self.pivots, self.field.p)

    def contains(self, vec: Sequence) -> bool:
        if self.field.p == 2:
            _check_length(vec, self.ambient_dim)
            return not _xor_reduce(gf2_pack(vec), self._packed_basis())
        return not any(self.reduce(vec))

    def coordinates(self, vec: Sequence):
        """Coefficients of vec in the canonical RREF basis (its entries at the pivots), or None if outside."""
        if not self.contains(vec):
            return None
        p = self.field.p
        if p is None:
            return tuple(canonical_q(vec[c]) for c in self.pivots)
        return tuple(vec[c] % p for c in self.pivots)

    def __le__(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if self.dim > other.dim:
            return False
        return all(other.contains(v) for v in self.basis)

    def __lt__(self, other: "Subspace") -> bool:
        return self.dim < other.dim and self.__le__(other)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if not self.basis:
            return other
        if not other.basis:
            return self
        return Subspace.span(self.field, self.ambient_dim, self.basis + other.basis)

    def __and__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero_space(self.field, self.ambient_dim)
        if self.dim <= other.dim and self <= other:
            return self
        if other.dim < self.dim and other <= self:
            return other
        # combinations c of A's basis with c*A in B
        return self.combinations(stabiliser(self.field, [[v] for v in self.basis], other))

    def combinations(self, coefficients: "Subspace") -> "Subspace":
        """The combinations of this basis whose coefficient rows span `coefficients`.

        Both bases are in RREF and this one is the identity at its pivot
        columns, so the combined rows are already the canonical basis, with
        pivots at this basis's pivots picked by the coefficients' pivots.
        """
        if coefficients.field != self.field or coefficients.ambient_dim != self.dim:
            raise AmbientMismatchError(
                "coefficients in %s^%d for a basis of %d vectors over %s"
                % (coefficients.field, coefficients.ambient_dim, self.dim, self.field)
            )
        rows = tuple(
            linear_combination(self.field, c, self.basis, self.ambient_dim)
            for c in coefficients.basis
        )
        return Subspace(
            self.field, self.ambient_dim, rows, tuple(self.pivots[k] for k in coefficients.pivots)
        )


class EchelonAccumulator:
    """Grows a subspace one vector at a time, keeping the basis in RREF.

    The workhorse behind rref, closure computations and spanning checks;
    add() reports whether the vector enlarged the span.  Over GF(2) the
    rows are kept packed.
    """

    __slots__ = ("field", "ambient_dim", "_rows", "pivots")

    def __init__(self, field: Field, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows: list = []
        self.pivots: list = []
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list:
        """The echelon rows as coordinate sequences."""
        if self.field.p == 2:
            return [gf2_unpack(r, self.ambient_dim) for r in self._rows]
        return self._rows

    def add(self, vec: Sequence) -> bool:
        """Insert vec; True when the rank grew."""
        if self.field.p == 2:
            _check_length(vec, self.ambient_dim)
            v = _xor_reduce(gf2_pack(vec), self._rows)
            if not v:
                return False
            # the leading coordinate is the highest set bit; back-substitute as below
            top = v.bit_length() - 1
            for k, row in enumerate(self._rows):
                if row >> top & 1:
                    self._rows[k] = row ^ v
            self._insert(v, self.ambient_dim - 1 - top // 8)
            return True
        _check_length(vec, self.ambient_dim)
        v = _eliminate(vec, self._rows, self.pivots, self.field.p)
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            return False
        if v[c] != 1:
            v = list(linear_combination(self.field, (self.field.inv(v[c]),), (v,), self.ambient_dim))
        # back-substitute so the other rows stay zero in the new pivot column
        for k, row in enumerate(self._rows):
            if row[c]:
                self._rows[k] = _eliminate(row, (v,), (c,), self.field.p)
        self._insert(v, c)
        return True

    def _insert(self, row, c: int) -> None:
        pos = bisect(self.pivots, c)
        self._rows.insert(pos, row)
        self.pivots.insert(pos, c)

    def to_subspace(self) -> Subspace:
        packed = tuple(self._rows) if self.field.p == 2 else None
        return Subspace(
            self.field, self.ambient_dim, tuple(map(tuple, self.rows)), tuple(self.pivots), packed
        )


def stabiliser(field: Field, images: Sequence[Sequence[Sequence]], into: Subspace) -> Subspace:
    """The coefficient vectors c for which sum_t c_t f_t maps a basis into `into`.

    images[t] lists the images of one fixed basis under the map f_t.
    Reduction mod `into` is linear, so the answer is the left kernel of the
    reduced images laid side by side, one row per map.  One echelon pass
    over the rows [reduced images of f_t | e_t] finds it: a row whose pivot
    lies in the identity block has a zero image part, and the identity
    parts of those rows are the left kernel, already in RREF.  It is
    returned as a subspace of F^t, t the number of maps.
    """
    t = len(images)
    zero, one = field.zero(), field.one()
    rows = []
    for k, row in enumerate(images):
        unit = [zero] * t
        unit[k] = one
        rows.append([x for v in row for x in into.reduce(v)] + unit)
    width = len(rows[0]) - t if rows else 0
    acc = EchelonAccumulator(field, width + t, rows)
    kept = [(row, c) for row, c in zip(acc.rows, acc.pivots) if c >= width]
    return Subspace(
        field,
        t,
        tuple(tuple(row[width:]) for row, _ in kept),
        tuple(c - width for _, c in kept),
    )


def enumerate_subspaces(field: Field, ambient_dim: int, dim: int | None = None) -> Iterator[Subspace]:
    """All subspaces of F_p^n, each exactly once via its canonical RREF basis.

    Pivot columns are chosen first; the remaining entries of each row (to
    the right of its pivot, off the other pivot columns) range freely.
    Deterministic order: dimension, then pivot choice, then free entries.
    """
    if field.p is None:
        raise UnsupportedFieldError("subspace enumeration needs a finite field")
    p = field.p
    dims = (dim,) if dim is not None else tuple(range(ambient_dim + 1))
    for k in dims:
        if k < 0 or k > ambient_dim:
            continue
        for pivots in combinations(range(ambient_dim), k):
            pivot_set = set(pivots)
            slots = [
                [c for c in range(pv + 1, ambient_dim) if c not in pivot_set]
                for pv in pivots
            ]
            positions = [(r, c) for r in range(k) for c in slots[r]]
            for values in product(range(p), repeat=len(positions)):
                rows = [[0] * ambient_dim for _ in range(k)]
                for r in range(k):
                    rows[r][pivots[r]] = 1
                for (r, c), v in zip(positions, values):
                    rows[r][c] = v
                yield Subspace(field, ambient_dim, tuple(tuple(r) for r in rows), pivots)


def close(acc: "EchelonAccumulator", images: Callable[[Sequence], Iterable[Sequence]]) -> Subspace:
    """Grow acc until it holds images(v) for every vector v it holds.

    Each vector is expanded once, after every vector before it was added,
    so images(v) may read the current rows: bracketing v with them checks
    a bilinear rule on every pair.  acc grows in place.
    """
    fresh = list(acc.rows)
    while fresh:
        for w in images(fresh.pop()):
            if acc.add(w):
                fresh.append(w)
    return acc.to_subspace()


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for t in range(k):
        num *= p ** (n - t) - 1
        den *= p ** (t + 1) - 1
    return num // den


# Exhaustive loops (subspaces scanned, vectors spun into closures) are
# refused above this many steps, before any work starts.  It is the number
# of subspaces of GF(3)^5, the largest space the tests and the benchmark
# enumerate: about a second of subalgebra checks per algebra.
WORK_BUDGET = sum(gaussian_binomial(5, k, 3) for k in range(6))


def check_budget(steps: int, what: str) -> None:
    """Raise BudgetExceededError when an exhaustive loop would exceed WORK_BUDGET.

    The message gives the exact step count up to 20 digits and otherwise
    its order of magnitude, so a refusal stays one short line.
    """
    if steps > WORK_BUDGET:
        count = "%d" % steps if steps < 10**20 else "at least 10^%d" % (len(str(steps)) - 1)
        raise BudgetExceededError(
            "%s takes %s steps, over the budget of %d" % (what, count, WORK_BUDGET)
        )
