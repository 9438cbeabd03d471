"""Exact dense linear algebra: RREF, kernels, subspace lattice.

A linear map is the tuple of its rows and acts on the right, v |-> v * M,
so row i is the image of the i-th basis vector; Matrix is only the
immutable record of such rows that a derivation stores.  A subspace stores
its canonical reduced-row-echelon basis once, as rows in kernel form (see
below), which makes equality, hashing and deduplication exact.

Each vector job has one kernel per form: packed rows over GF(2), integer
rows over GF(p > 2) and Q.  Row reduction clears the pivot columns of a
vector against echelon rows: _xor_reduce on packed rows, _residual on
integer rows, reduced mod p once at the end over GF(p).  RREF, membership
and incremental spans are built on them, coordinates in an RREF basis are
read at its pivots, and vectors are summed in one loop per form:
linear_combination on integer rows, kernel_sum on packed rows
(kernel_images XORs the same packed rows for many maps).  stabiliser is
the one "which combination of these maps sends a basis into B" kernel,
behind centralisers, normalisers, cores, intersections and stabilising
derivations.  It takes one echelon pass over the rows [reduced images |
identity] and returns the coefficient vectors, which refer to the maps as
given, as a subspace already in RREF; Subspace.combinations maps such
coefficients over a subspace's rows back to canonical rows without a
second elimination.  A stabiliser row may be scaled only together with
its identity part: a map given as s times another has its coefficients
scaled by 1/s.

Over GF(p) every result is reduced mod p.  Outside GF(2) long-lived rows
are held as integers and combined in int arithmetic; an RREF row over
GF(p > 2) has pivot entry 1, so it is a Q row of scale 1 reduced mod p.
The accumulator eliminates fraction-free (Bareiss, Math. Comp. 1968): a
vector coming in over Q is scaled to integers once, by the lcm of its
denominators, a reduction step is a v - f row, and a row is made
canonical once, when it is stored (_normalised): a leading 1 over GF(p),
primitive and positive at its pivot over Q.  Its rows, zero at the other
pivots, are the subspace's rows as they are (to_subspace and the kept
rows of stabiliser); close hands them to its images callback.
Subspace.basis is the payload view: each row divided by its pivot entry,
over Q an int when integral and a Fraction otherwise, the payload
contract of fields.  A value leaves linalg as Q payloads (reduce,
coordinates, basis, rref, null_space, from_kernel with the scale it
carries): linear_combination and reduce put a Fraction result through
canonical_q, and an all-int result, the usual case, needs nothing.  Over
GF(2) a vector is packed as one integer with a byte per coordinate, the
first coordinate most significant (gf2_pack): adding two rows is one
XOR, and a row's leading coordinate is its highest set bit.

The kernel form of a vector is that packed int over GF(2), and otherwise
a tuple that is a positive multiple of the vector: the coordinate tuple
over GF(p > 2), and over Q integral wherever the inputs are.  A
subspace stores its rows in kernel form (Subspace.rows) as the
accumulator builds them, and Subspace.basis reads them as coordinate
tuples; over GF(2) int order on packed rows is tuple order on their
coordinates, so sorting by rows sorts by coordinates.  Over Q equal spaces
still have equal rows, but their order is not that of their bases; no Q
listing is sorted by rows.  The structure table (LieAlgebra.kernel_table)
and a derivation's rows (Matrix.kernel_rows) are put in kernel form once
each: packed over GF(2), and over Q integer, one scale per table and one
per matrix (kernel_scale).  Brackets with basis vectors and derivation
images come out of kernel_images in kernel form, and Subspace.reduce,
residuals, contains, coordinates and vector, EchelonAccumulator.add,
stabiliser and close take them without conversion; residuals laid side
by side are joined by shifting over GF(2), and over Q each is
Subspace.scale times the residual.  Callers that allow a free scale
(spans, membership, stabilisers of maps with one scale) use kernel forms
as they are; callers that need exact values divide the scale out once,
through from_kernel.  kernel_form, kernel_rows, kernel_scale, kernel_sum,
kernel_images and from_kernel hold the field fork, so their callers never
test the field.  A packed int is checked to fit its ambient space
(AmbientMismatchError otherwise).  rref, brackets and derivation values
return tuples.  Each primitive branches on the field once, outside its
loop, because the verification sweeps spend most of their time here.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
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


def _packed(vec, n: int) -> int:
    """vec of GF(2)^n packed: a packed int is checked to fit, a sequence for length and packed."""
    if isinstance(vec, int):
        # (1 << 8n) // 255 has bit 0 of each of the n bytes set; any other bit
        # is a byte above 1 or a coordinate beyond n
        if vec & ~((1 << 8 * n) // 255):
            raise AmbientMismatchError("packed vector does not fit GF(2)^%d" % n)
        return vec
    _check_length(vec, n)
    return gf2_pack(vec)


def _residual(vec: Sequence, rows: Sequence, pivots: Sequence, a: int, p: int | None) -> list:
    """a times the residual of vec modulo integer echelon rows, a the lcm of their pivot entries; reduced mod p over GF(p).

    Each row is zero at the other pivots, so the residual is one
    combination, vec - sum_i vec[c_i] row_i / row_i[c_i], and a times it
    takes no division: integer entries stay ints.  Over GF(p) for p > 2
    every pivot entry is 1, so a is 1, and the one reduction mod p at the
    end also reduces an entry of vec outside 0..p-1.  Over Q a Fraction
    entry of vec may leave a Fraction(k, 1), which canonical_q mends where
    a value leaves linalg.  GF(2) never comes here, it has _xor_reduce.
    """
    v = list(vec) if a == 1 else [a * x for x in vec]
    for row, c in zip(rows, pivots):
        f = vec[c]
        if f:
            if a != 1:
                f *= a // row[c]
            v = [x - f * y if y else x for x, y in zip(v, row)]
    return v if p is None else [x % p for x in v]


def _normalised(v: Sequence, p: int | None) -> tuple:
    """The integer row v in canonical form, () when it is zero.

    Over GF(p) it is reduced mod p and scaled to a leading 1; over Q it is
    divided by the gcd of its entries, signed so the leading entry is
    positive.
    """
    if p is not None:
        v = [x % p for x in v]
    lead = next(filter(None, v), 0)
    if not lead or lead == 1:
        return tuple(v) if lead else ()
    if p is not None:
        inverse = pow(lead, -1, p)
        return tuple([x * inverse % p for x in v])
    g = gcd(*v) if lead > 0 else -gcd(*v)
    return tuple(v) if g == 1 else tuple([x // g for x in v])


def _integral(vec: Sequence) -> list:
    """A rational vector as integers: times the lcm of its denominators."""
    return list(vec) if set(map(type, vec)) <= {int} else _times(vec, _denominator((vec,)))


def _times(vec: Sequence, d: int) -> list:
    """d times a rational vector whose denominators divide d, as ints."""
    return [x * d if type(x) is int else x.numerator * (d // x.denominator) for x in vec]


def _combine(a: int, v: Sequence, f: int, row: Sequence) -> list:
    """a v - f row over the integers, for a > 0, with a and f divided by their gcd first."""
    if a == 1:
        return [x - f * y if y else x for x, y in zip(v, row)]
    g = gcd(a, f)
    a, f = a // g, f // g
    return [a * x - f * y if y else a * x for x, y in zip(v, row)]


def _q_payloads(row: Sequence, a: int) -> tuple:
    """The rational row divided by a > 0, as payloads; a Fraction only where a does not divide, the row as a tuple for a = 1."""
    if a == 1:
        return tuple(row)
    return tuple(x // a if x % a == 0 else Fraction(x, a) for x in row)


def _denominator(vectors: Iterable[Sequence]) -> int:
    """The lcm of the denominators of the entries of rational vectors: 1 when every entry is an int."""
    return lcm(*{x.denominator for v in vectors for x in v if type(x) is not int})


def linear_combination(field: Field, coeffs: Sequence, rows: Sequence, n: int) -> tuple:
    """The vector sum of coeffs[i] * rows[i], of length n."""
    p = field.p
    # one accumulator; zero coefficients and zero row entries add nothing
    out = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            for j, b in enumerate(row):
                if b:
                    out[j] += c * b
    if p is None:
        return tuple(out) if set(map(type, out)) <= {int} else tuple(map(canonical_q, out))
    return tuple([a % p for a in out])


def kernel_form(field: Field, vec, n: int):
    """A vector of F^n as the kernels take it: packed over GF(2), as given otherwise.

    Over GF(2) a sequence is checked for length and packed, and a packed
    int is checked to fit: AmbientMismatchError otherwise.
    """
    return _packed(vec, n) if field.p == 2 else vec


def kernel_rows(field: Field, rows: Iterable[Sequence], scale: int | None = None) -> tuple:
    """The rows in kernel form, unchecked: the caller knows their length.

    Over GF(2) each row is packed.  Otherwise they are integer rows: scale
    times the rows, by default kernel_scale(field, rows) (1 over GF(p)),
    so a sum of them by integer coefficients stays in int arithmetic; a
    given scale must be a multiple of it.
    """
    if field.p == 2:
        return tuple(map(gf2_pack, rows))
    rows = tuple(rows)
    if scale in (None, 1) and all(set(map(type, r)) <= {int} for r in rows):
        # integer rows are their own kernel form, shared rather than copied
        return tuple(map(tuple, rows))
    d = _denominator(rows) if scale is None else scale
    return tuple(tuple(_times(r, d)) for r in rows)


def kernel_scale(field: Field, rows: Iterable[Sequence]) -> int:
    """The positive d with kernel_rows(field, rows) equal to d times the rows: 1 except over Q."""
    return 1 if field.p is not None else _denominator(rows)


def kernel_sum(field: Field, coeffs, rows: Sequence, n: int):
    """The sum of coeffs[i] * rows[i] over rows in kernel form, itself in kernel form.

    Over GF(2) it XORs the packed rows whose coefficient is odd.
    Otherwise it is linear_combination.
    """
    if field.p != 2:
        return linear_combination(field, coeffs, rows, n)
    packed = 0
    for c, row in zip(coeffs, rows):
        if c & 1:
            packed ^= row
    return packed


def kernel_images(field: Field, vectors: Sequence, maps: Iterable[Sequence], n: int) -> Iterator[list]:
    """For each map of F^n, given by its n rows in kernel form, the images of the vectors.

    The image of v is sum_j v_j rows[j], in kernel form.  A vector is a
    sequence or, over GF(2), a packed int; there the odd coordinates of
    each vector are found once and the rows at them XORed for every map.
    """
    if field.p != 2:
        for rows in maps:
            yield [linear_combination(field, v, rows, n) for v in vectors]
        return
    supports = [
        [j for j, c in enumerate(_packed(v, n).to_bytes(n, "big") if isinstance(v, int) else v) if c & 1]
        for v in vectors
    ]
    for rows in maps:
        images = []
        for support in supports:
            image = 0
            for j in support:
                image ^= rows[j]
            images.append(image)
        yield images


def from_kernel(field: Field, vec, n: int, scale: int = 1) -> tuple:
    """A kernel-form vector of F^n as a coordinate tuple; over Q divided by the positive scale it carries."""
    return gf2_unpack(vec, n) if field.p == 2 else _q_payloads(vec, scale)


def rref(rows: Iterable[Sequence], field: Field) -> tuple:
    """Full reduced row echelon form.

    Returns (rows, pivots) where rows is a tuple of row tuples of the same
    shape as the input (zero rows at the bottom).
    """
    work = [tuple(r) for r in rows]
    ncols = len(work[0]) if work else 0
    if any(len(r) != ncols for r in work):
        raise DimensionMismatchError("ragged rows")
    space = EchelonAccumulator(field, ncols, work).to_subspace()
    zero_rows = ((field.zero(),) * ncols,) * (len(work) - space.dim)
    return space.basis + zero_rows, space.pivots


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
    its own: code that combines maps works on the row tuples, or on
    kernel_rows, which over GF(2) are packed once per matrix.
    """

    __slots__ = ("field", "rows", "nrows", "ncols", "_kernel")

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
        self._kernel = None

    def kernel_rows(self) -> tuple:
        """The rows in kernel form, built once, on first use: packed over GF(2), kernel_scale() times the rows as integers over Q."""
        if self._kernel is None:
            self._kernel = kernel_rows(self.field, self.rows)
        return self._kernel

    def kernel_scale(self) -> int:
        """The positive d with kernel_rows() equal to d times the rows: the lcm of their denominators over Q, else 1."""
        return kernel_scale(self.field, self.rows)

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
    """Subspace of F^n with a canonical RREF basis, stored once as rows in kernel form.

    Canonicality makes == and hash structural: two spans are equal exactly
    when they reduce to the same rows.  rows holds packed ints over GF(2)
    and otherwise integer multiples of the RREF rows, zero at the other
    pivots: the RREF rows themselves over GF(p > 2), pivot entry 1, and
    over Q primitive, positive at the pivot.  basis reads them as
    coordinate tuples, each divided by its pivot entry.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field: Field, ambient_dim: int, rows: tuple, pivots: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

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
        # the identity rows are integral, so only GF(2) has another kernel form
        rows = kernel_rows(field, basis) if field.p == 2 else basis
        return Subspace(field, ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def basis(self) -> tuple:
        """The RREF rows as coordinate tuples: each integer row divided by its pivot entry, 1 over GF(p > 2)."""
        if self.field.p == 2:
            return tuple(gf2_unpack(r, self.ambient_dim) for r in self.rows)
        return tuple(_q_payloads(row, row[c]) for row, c in zip(self.rows, self.pivots))

    @property
    def scale(self) -> int:
        """Over Q the lcm a of the pivot entries of rows, 1 otherwise.

        a times a combination of the basis is an integer combination of
        the rows (vector), and reduce's kernel leaves a times the residual.
        """
        return lcm(*[row[c] for row, c in zip(self.rows, self.pivots)]) if self.field.p is None else 1

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

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
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        return "Subspace(%s^%d, dim %d)" % (self.field, self.ambient_dim, self.dim)

    def reduce(self, vec):
        """Residual of vec after elimination by the basis; zero iff contained.

        Over GF(2) a packed int gives a packed residual, a sequence a list.
        Over Q the elimination is on the integer rows and the residual is
        divided by scale once, at the end.
        """
        n, p = self.ambient_dim, self.field.p
        if p == 2:
            residual = _xor_reduce(_packed(vec, n), self.rows)
            return residual if isinstance(vec, int) else list(residual.to_bytes(n, "big"))
        _check_length(vec, n)
        a = self.scale
        residual = _residual(vec, self.rows, self.pivots, a, p)
        return residual if p is not None else list(map(canonical_q, _q_payloads(residual, a)))

    def residuals(self, vectors: Iterable) -> list | int:
        """The residuals of the vectors laid side by side, one vector of F^(n k) in kernel form.

        Over GF(2) the packed residuals are joined by shifting, so none is
        unpacked; otherwise the residual lists are concatenated, over Q
        each one scale times the residual, so the whole is too.
        """
        n, p = self.ambient_dim, self.field.p
        if p != 2:
            rows, pivots, a = self.rows, self.pivots, self.scale
            joined = []
            for v in vectors:
                _check_length(v, n)
                joined += _residual(v, rows, pivots, a, p)
            return joined
        shift, joined = 8 * n, 0
        for v in vectors:
            joined = joined << shift | _xor_reduce(_packed(v, n), self.rows)
        return joined

    def contains(self, vec) -> bool:
        n, p = self.ambient_dim, self.field.p
        if p == 2:
            return not _xor_reduce(_packed(vec, n), self.rows)
        _check_length(vec, n)
        return not any(_residual(vec, self.rows, self.pivots, self.scale, p))

    def vector(self, coords: Sequence):
        """scale times the combination of the basis by coords, in kernel form: packed over GF(2), integral over Q.

        Over Q basis row i is row i over its pivot entry, so coefficient i
        goes to row i times scale over that entry.
        """
        rows, n = self.rows, self.ambient_dim
        if self.field.p is None:
            a = self.scale
            coords = [x * (a // row[c]) for x, row, c in zip(coords, rows, self.pivots)]
        return kernel_sum(self.field, coords, rows, n)

    def coordinates(self, vec):
        """Coefficients of vec in the canonical RREF basis (its entries at the pivots), or None if outside."""
        if not self.contains(vec):
            return None
        p = self.field.p
        if p is None:
            return tuple(canonical_q(vec[c]) for c in self.pivots)
        if isinstance(vec, int):
            # a packed GF(2) vector: coordinate c is bit 0 of byte c, counted from the top
            last = self.ambient_dim - 1
            return tuple(vec >> 8 * (last - c) & 1 for c in self.pivots)
        return tuple(vec[c] % p for c in self.pivots)

    def __le__(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if self.dim > other.dim:
            return False
        return all(other.contains(v) for v in self.rows)

    def __lt__(self, other: "Subspace") -> bool:
        return self.dim < other.dim and self.__le__(other)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if not self.rows:
            return other
        if not other.rows:
            return self
        return Subspace.span(self.field, self.ambient_dim, self.rows + other.rows)

    def __and__(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero_space(self.field, self.ambient_dim)
        if self.dim <= other.dim and self <= other:
            return self
        if other.dim < self.dim and other <= self:
            return other
        # combinations c of A's basis with c*A in B
        return self.combinations(stabiliser(self.field, [[v] for v in self.rows], other))

    def combinations(self, coefficients: "Subspace") -> "Subspace":
        """The combinations of these rows whose coefficient rows span `coefficients`.

        The coefficients are on rows, as stabiliser gives them for the rows'
        images: the integer rows (the basis over GF(p > 2)), over GF(2) the
        basis.  Both sets of rows are in RREF and these are zero at each
        other's pivot columns, so the combined rows are already in RREF,
        with pivots at these rows' pivots picked by the coefficients'
        pivots; _normalised makes each canonical, as the accumulator does.
        """
        if coefficients.field != self.field or coefficients.ambient_dim != self.dim:
            raise AmbientMismatchError(
                "coefficients in %s^%d for a basis of %d vectors over %s"
                % (coefficients.field, coefficients.ambient_dim, self.dim, self.field)
            )
        field, n = self.field, self.ambient_dim
        if field.p == 2:
            rows = tuple(kernel_sum(field, c, self.rows, n) for c in coefficients.basis)
        else:
            rows = tuple(_normalised(linear_combination(field, c, self.rows, n), field.p) for c in coefficients.rows)
        return Subspace(field, n, rows, tuple(self.pivots[k] for k in coefficients.pivots))


class EchelonAccumulator:
    """Grows a subspace one vector at a time, keeping the basis in RREF.

    The workhorse behind rref, closure computations and spanning checks;
    add() reports whether the vector enlarged the span.  Its rows are kept
    in kernel form, packed over GF(2) and otherwise the integer rows of
    Subspace.rows, which to_subspace hands over as they are.
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

    def add(self, vec) -> bool:
        """Insert vec, a sequence or over GF(2) also a packed int; True when the rank grew."""
        if self.field.p == 2:
            v = _xor_reduce(_packed(vec, self.ambient_dim), self._rows)
            if not v:
                return False
            # the leading coordinate is the highest set bit; back-substitute as below
            top = v.bit_length() - 1
            for k, row in enumerate(self._rows):
                if row >> top & 1:
                    self._rows[k] = row ^ v
            self._insert(v, self.ambient_dim - 1 - top // 8)
            return True
        p = self.field.p
        _check_length(vec, self.ambient_dim)
        v = _integral(vec) if p is None else vec
        for row, c in zip(self._rows, self.pivots):
            f = v[c]
            if f:
                v = _combine(row[c], v, f, row)
        v = _normalised(v, p)
        if not v:
            return False
        # the first nonzero value is first found at its own position
        c = v.index(next(filter(None, v)))
        # back-substitute so the other rows stay zero in the new pivot
        # column; a > 0 keeps each of them positive at its own pivot
        a = v[c]
        for k, row in enumerate(self._rows):
            f = row[c]
            if f:
                self._rows[k] = _normalised(_combine(a, row, f, v), p)
        self._insert(v, c)
        return True

    def _insert(self, row, c: int) -> None:
        pos = bisect(self.pivots, c)
        self._rows.insert(pos, row)
        self.pivots.insert(pos, c)

    def to_subspace(self) -> Subspace:
        return Subspace(self.field, self.ambient_dim, tuple(self._rows), tuple(self.pivots))


def stabiliser(field: Field, images: Sequence[Sequence[Sequence]], into: Subspace) -> Subspace:
    """The coefficient vectors c for which sum_t c_t f_t maps a basis into `into`.

    images[t] lists the images of one fixed basis under the map f_t, each a
    sequence or, over GF(2), a packed int.
    Reduction mod `into` is linear, so the answer is the left kernel of the
    reduced images laid side by side, one row per map.  One echelon pass
    over the rows [reduced images of f_t | e_t] finds it: a row whose pivot
    lies in the identity block has a zero image part, and the identity
    parts of those rows are the left kernel, already in RREF.  It is
    returned as a subspace of F^t, t the number of maps.
    """
    t = len(images)
    k = len(images[0]) if images else 0
    if any(len(row) != k for row in images):
        raise DimensionMismatchError("every map needs the images of the same basis")
    width = into.ambient_dim * k
    if field.p == 2:
        # e_k packed is byte k of t, the low 8t bits of the row
        rows = [into.residuals(row) << 8 * t | 1 << 8 * (t - 1 - k) for k, row in enumerate(images)]
    else:
        units = Subspace.full_space(field, t).rows
        rows = [into.residuals(row) + list(unit) for row, unit in zip(images, units)]
    acc = EchelonAccumulator(field, width + t, rows)
    # the rows with a pivot in the identity block come last; a packed one
    # is zero in its image part, so it already is its identity part
    start = bisect_left(acc.pivots, width)
    kept, pivots = acc._rows[start:], acc.pivots[start:]
    if field.p != 2:
        kept = [row[width:] for row in kept]
    return Subspace(field, t, tuple(kept), tuple(c - width for c in pivots))


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
                yield Subspace(field, ambient_dim, kernel_rows(field, map(tuple, rows)), pivots)


def close(acc: "EchelonAccumulator", images: Callable[[Sequence], Iterable[Sequence]]) -> Subspace:
    """Grow acc until it holds images(v) for every vector v it holds.

    Each vector is expanded once, after every vector before it was added,
    so images(v) may read the current rows: bracketing v with them checks
    a bilinear rule on every pair.  images gets and returns vectors in
    kernel form, so over GF(2) nothing is unpacked.  acc grows in place.
    """
    fresh = list(acc._rows)
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


def check_budget(steps: int, what: str, budget: int | None = None, least: bool = False) -> None:
    """Raise BudgetExceededError when an exhaustive loop would exceed its budget, WORK_BUDGET by default.

    least says that steps is a lower bound.  The message gives the step
    count exactly up to 20 digits and otherwise its order of magnitude, so
    a refusal stays one short line.
    """
    budget = WORK_BUDGET if budget is None else budget
    if steps > budget:
        count = "%d" % steps if steps < 10**20 else "10^%d" % (len(str(steps)) - 1)
        raise BudgetExceededError(
            "%s takes %s%s steps, over the budget of %d"
            % (what, "at least " if least or steps >= 10**20 else "", count, budget)
        )
