"""Lie algebras given by exact structure constants.

An algebra is a field, a dimension n, and the brackets [e_i, e_j] of basis
pairs; everything else (series, centralisers, cores, quotients) is linear
algebra over that table.  A bracket [e_k, v] with a basis vector is the
rows table[k] combined by v: kernel_brackets reads it for every e_k, and
formations._complement_space only for the e_k it needs.  bracket pairs two
general vectors as one sum of table entries.  Both work on kernel_table,
the table in linalg's kernel form, cached through memo under one key, so
release drops it: over GF(2) every entry packed once per algebra, over Q
integers, the table times one scale per algebra (kernel_scale), which
bracket divides out once; an integral table, as over GF(p > 2), is its
own kernel form and is not cached.  The callers that
only feed a kernel (is_ideal, the lower central series,
centralizer_of_factor, core, chief._spin, formations._centralised, the
derivation criteria) hand a subspace's kernel-form rows (Subspace.rows)
to kernel_brackets and take its brackets in kernel form, over Q a
positive multiple of the exact ones, which spans and membership allow;
FactorView.coords takes a packed vector or an exact one, and bracket,
coords and lift return exact tuples.
Instances are interned on (field, table), so while an algebra is
interned, structurally equal algebras are the same object and share its
cache of derived data.  That sharing is what keeps the exhaustive sweeps
fast.  LieAlgebra.release drops one algebra's cache and intern entry once
nothing later will ask for it again; a sweep releases each algebra of its
top dimension after checking it.
LieAlgebra.memo is the one per-algebra cache: every derived value (full
space, series, centre, cores, quotients, derivations, chief series,
the F-centrality of its chief factors, subalgebra listings,
classifications, normalisers) is stored through it, under a fixed key.
FactorView is the one coordinate map on a subquotient A/B: restrict and
quotient return one with the algebra they build, and chief factors are
views.

Parsed documents are refused above MAX_DIM, before any table is allocated.

JSON form (1-based indices, i < j, scalars as strings):

    {"field": "GF(3)", "dim": 2,
     "brackets": [{"i": 1, "j": 2, "value": ["0", "1"]}]}

Omitted pairs bracket to zero; antisymmetry and [x, x] = 0 are implicit.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    JacobiViolationError,
    NotAnIdealError,
    NotASubalgebraError,
    NotNestedError,
    NotSolubleError,
    ParseError,
    ZeroDenominatorError,
)
from .fields import Field, canonical_q, quote
from .linalg import (
    Subspace,
    from_kernel,
    kernel_form,
    kernel_images,
    kernel_rows,
    kernel_scale,
    kernel_sum,
    stabiliser,
)

# Largest dimension from_dict accepts.  The table alone takes dim^3
# scalars, and derivation_algebra solves a dim^2-unknown system: at dim 14
# over GF(3) that is already about a third of a second.
MAX_DIM = 16


def _coerce(field: Field, x):
    if isinstance(x, bool):
        raise ParseError("bool is not a scalar")
    if isinstance(x, int):
        return field.from_int(x)
    if isinstance(x, Fraction):
        if field.p is not None:
            if x.denominator % field.p == 0:
                raise ZeroDenominatorError("denominator divisible by %d" % field.p)
            return (x.numerator * pow(x.denominator, -1, field.p)) % field.p
        return canonical_q(x)
    raise ParseError("unsupported scalar %r" % (x,))


def _kernel_table(field: Field, table: tuple) -> tuple:
    """The table with its entries in kernel form: packed over GF(2), over Q integers, all times one scale."""
    scale = kernel_scale(field, (v for row in table for v in row))
    return tuple(kernel_rows(field, row, scale) for row in table)


def _check_jacobi(field: Field, table: tuple) -> None:
    """Raise JacobiViolationError at the first basis triple that breaks Jacobi."""
    n = len(table)
    # one scale for every entry, so each sum below is a multiple of the exact one
    rows = _kernel_table(field, table)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # minus [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
                s = kernel_sum(
                    field,
                    table[i][j] + table[j][k] + table[k][i],
                    rows[k] + rows[i] + rows[j],
                    n,
                )
                if any(from_kernel(field, s, n)):
                    raise JacobiViolationError((i + 1, j + 1, k + 1))


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q or GF(p).

    table[i][j] is the coordinate tuple of [e_i, e_j]; the full table is
    stored with antisymmetry filled in.  Construction checks the Jacobi
    identity only with validate=True, before the table is interned, so a
    rejected table is never kept; from_dict does this on untrusted input.
    Constructing a table that is interned returns the interned instance;
    after release() the same table gives a new one.
    """

    __slots__ = ("field", "dim", "table", "_cache")

    _interned: dict = {}

    def __new__(cls, field: Field, dim: int, brackets=(), validate: bool = False):
        if not isinstance(dim, int) or dim < 0:
            raise ParseError("dimension must be a non-negative integer")
        zero_row = tuple([field.zero()] * dim)
        rows = [[zero_row] * dim for _ in range(dim)]
        items = brackets.items() if isinstance(brackets, Mapping) else brackets
        for (i, j), value in items:
            if not (0 <= i < j < dim):
                raise ParseError("bracket pair (%d, %d) out of range for dim %d" % (i, j, dim))
            vec = tuple(_coerce(field, x) for x in value)
            if len(vec) != dim:
                raise DimensionMismatchError("bracket value length %d, dim %d" % (len(vec), dim))
            rows[i][j] = vec
            rows[j][i] = tuple(field.neg(x) for x in vec)
        table = tuple(tuple(r) for r in rows)
        if validate:
            _check_jacobi(field, table)
        return cls._from_table(field, table)

    @classmethod
    def _from_table(cls, field: Field, table: tuple) -> "LieAlgebra":
        key = (field, table)
        inst = cls._interned.get(key)
        if inst is None:
            inst = object.__new__(cls)
            inst.field = field
            inst.dim = len(table)
            inst.table = table
            inst._cache = {}
            cls._interned[key] = inst
        return inst

    def release(self) -> None:
        """Drop the cached derived data and, if this instance is the interned one, its intern entry.

        The algebra stays usable and recomputes what it is asked for.  A
        stale instance never evicts the live one interned for its table.
        """
        self._cache.clear()
        key = (self.field, self.table)
        if LieAlgebra._interned.get(key) is self:
            del LieAlgebra._interned[key]

    # Interning makes identity and structural equality coincide.

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, LieAlgebra) and self.field == other.field and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.field, self.table))

    def __repr__(self) -> str:
        return "LieAlgebra(%s, dim %d)" % (self.field, self.dim)

    # Construction helpers

    @staticmethod
    def abelian(field: Field, dim: int) -> "LieAlgebra":
        return LieAlgebra(field, dim)

    @staticmethod
    def from_dict(data, validate: bool = True) -> "LieAlgebra":
        if not isinstance(data, dict):
            raise ParseError("algebra document must be a JSON object")
        missing = {"field", "dim", "brackets"} - set(data)
        if missing:
            raise ParseError("missing keys: %s" % ", ".join(sorted(missing)))
        field = Field.from_string(data["field"]) if isinstance(data["field"], str) else None
        if field is None:
            raise ParseError("field must be a string")
        dim = data["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise ParseError("dim must be a non-negative integer")
        if dim > MAX_DIM:
            raise ParseError("dim %d is above the limit of %d" % (dim, MAX_DIM))
        entries = data["brackets"]
        if not isinstance(entries, list):
            raise ParseError("brackets must be a list")
        seen = set()
        brackets = []
        for entry in entries:
            if not isinstance(entry, dict) or {"i", "j", "value"} - set(entry):
                raise ParseError("each bracket needs keys i, j, value")
            i, j, value = entry["i"], entry["j"], entry["value"]
            if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
                raise ParseError("bracket indices must be integers")
            if not (1 <= i < j <= dim):
                raise ParseError("bracket pair (%d, %d) must satisfy 1 <= i < j <= %d" % (i, j, dim))
            if (i, j) in seen:
                raise ParseError("duplicate bracket pair (%d, %d)" % (i, j))
            seen.add((i, j))
            if not isinstance(value, list) or len(value) != dim:
                raise ParseError("bracket value must be a list of %d scalars" % dim)
            vec = []
            for s in value:
                if not isinstance(s, str):
                    raise ParseError("scalars must be strings, got %s" % quote(s))
                vec.append(field.parse(s))
            brackets.append(((i - 1, j - 1), tuple(vec)))
        return LieAlgebra(field, dim, brackets, validate=validate)

    def to_dict(self) -> dict:
        fmt = self.field.format
        brackets = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                vec = self.table[i][j]
                if any(vec):
                    brackets.append({"i": i + 1, "j": j + 1, "value": [fmt(x) for x in vec]})
        return {"field": str(self.field), "dim": self.dim, "brackets": brackets}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(", ", ": "))

    # Bracket and validation

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """[x, y] in coordinates: the entries [e_i, e_j] summed with coefficients x_i y_j."""
        field, n = self.field, self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatchError("vectors must have length %d" % n)
        # only the pairs with x_i and y_j both nonzero contribute
        live = [(j, yj) for j, yj in enumerate(y) if yj]
        coeffs = [xi * yj for xi in x if xi for _, yj in live]
        rows = [ti[j] for xi, ti in zip(x, self.kernel_table()) if xi for j, _ in live]
        return from_kernel(field, kernel_sum(field, coeffs, rows, n), n, self.kernel_scale())

    # [e_k, v] is the rows table[k] combined by v.  kernel_brackets reads
    # every bracket with a basis vector off the table this way, so the
    # series, ideals, centralisers and cores below bracket no standard vector.

    def validate(self) -> None:
        """Check the Jacobi identity on all basis triples; raises on failure."""
        _check_jacobi(self.field, self.table)

    def kernel_table(self) -> tuple:
        """The table with its entries in kernel form, built once and cached through memo.

        Over GF(2) every entry is packed.  Over Q the entries are integers,
        kernel_scale() times the table, so brackets of integer vectors stay
        in int arithmetic; an integral table is its own, as is the table
        over GF(p > 2), and is not cached.
        """
        if self.field.p != 2 and self.kernel_scale() == 1:
            # payloads are canonical, so a table with scale 1 is all ints
            return self.table
        return self.memo("kernel_table", lambda: _kernel_table(self.field, self.table))

    def kernel_scale(self) -> int:
        """The positive D with kernel_table() equal to D times the table: the lcm of its denominators over Q, else 1."""
        if self.field.p is not None:
            return 1
        return self.memo("table_scale", lambda: kernel_scale(self.field, (v for row in self.table for v in row)))

    def kernel_brackets(self, vectors: Sequence) -> list:
        """For each basis vector e_k, the list of [e_k, v] over the vectors, in kernel form.

        A vector is a coordinate sequence or, over GF(2), a packed int.
        """
        return list(kernel_images(self.field, vectors, self.kernel_table(), self.dim))

    # Subspaces of the algebra

    def full_space(self) -> Subspace:
        return self.memo("full_space", lambda: Subspace.full_space(self.field, self.dim))

    def zero_space(self) -> Subspace:
        return Subspace.zero_space(self.field, self.dim)

    def span(self, vectors: Iterable[Sequence]) -> Subspace:
        return Subspace.span(self.field, self.dim, vectors)

    def is_subalgebra(self, s: Subspace) -> bool:
        basis = s.basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                if not s.contains(self.bracket(basis[i], basis[j])):
                    return False
        return True

    def is_ideal(self, s: Subspace) -> bool:
        return all(s.contains(v) for row in self.kernel_brackets(s.rows) for v in row)

    # Series and structural subspaces.  Results are cached per instance;
    # interning makes the cache shared across every appearance of the same
    # structure-constant table.

    def memo(self, key, compute):
        """The value cached under key, computed by compute() and stored on first use."""
        cache = self._cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    def _series(self, key: str, products) -> list:
        # s_0 = L, s_{t+1} the span of products(s_t), until the terms stop shrinking
        def compute():
            series = [self.full_space()]
            while not series[-1].is_zero():
                nxt = self.span(products(series[-1]))
                if nxt.dim == series[-1].dim:
                    break
                series.append(nxt)
            return series

        return list(self.memo(key, compute))

    def derived_series(self) -> list:
        # [s, s] is spanned by the brackets of the basis pairs i < j, by antisymmetry
        return self._series(
            "derived_series", lambda s: (self.bracket(x, y) for x, y in combinations(s.basis, 2))
        )

    def lower_central_series(self) -> list:
        # [L, s] is spanned by the [e_k, y] over s's basis
        return self._series(
            "lower_central_series", lambda s: (v for row in self.kernel_brackets(s.rows) for v in row)
        )

    def is_soluble(self) -> bool:
        return self.derived_series()[-1].is_zero()

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].is_zero()

    def derived_subalgebra(self) -> Subspace:
        series = self.derived_series()
        return series[1] if len(series) > 1 else series[0]

    def centralizer(self, s: Subspace) -> Subspace:
        """{x : [x, s] = 0}."""
        return self.centralizer_of_factor(s, self.zero_space())

    def centralizer_of_factor(self, a: Subspace, b: Subspace) -> Subspace:
        """{x : [x, a] <= b}; for b = 0 the ordinary centraliser."""
        if not b.is_zero() and not b <= a:
            raise NotNestedError("factor requires b <= a")
        if a.is_zero():
            return self.full_space()
        # [x, a_j] = sum_k c_k [e_k, a_j] for x = sum_k c_k e_k, so the
        # coefficients c form the stabiliser of the maps a_j |-> [e_k, a_j]
        return stabiliser(self.field, self.kernel_brackets(a.rows), b)

    def centre(self) -> Subspace:
        return self.memo("centre", lambda: self.centralizer(self.full_space()))

    def core(self, s: Subspace) -> Subspace:
        """Largest ideal of the algebra contained in s.

        Starting from K = s, each step keeps the x in K with [e_k, x] in K
        for every basis vector e_k.  For x = sum_j c_j b_j over K's basis,
        [e_k, x] = sum_j c_j [e_k, b_j], so the coefficients c are one
        stabiliser in K's own coordinates, F^(dim K), mapped back by
        Subspace.combinations.  The steps stop when K stops shrinking.
        """

        def compute():
            current = s
            while not current.is_zero():
                # images[j][k] = [e_k, b_j]: the basis brackets, one map per b_j
                images = list(zip(*self.kernel_brackets(current.rows)))
                nxt = current.combinations(stabiliser(self.field, images, current))
                if nxt.dim == current.dim:
                    break
                current = nxt
            return current

        return self.memo(("core", s), compute)

    def nilradical(self) -> Subspace:
        """Largest nilpotent ideal: the meet of the centralisers of the chief factors.

        With A the bottom factor of the chief series, this is C_L(A) meet
        the lift of the nilradical of L/A: every factor above A is a factor
        of L/A, and its centraliser in L contains A.
        """

        def compute():
            if not self.is_soluble():
                raise NotSolubleError("nilradical computed for soluble algebras only")
            from .chief import chief_series

            ideals = chief_series(self).ideals
            if len(ideals) == 1:
                return self.full_space()
            quo, view = self.quotient(ideals[1])
            return self.centralizer(ideals[1]) & view.lift_subspace(quo.nilradical())

        return self.memo("nilradical", compute)

    # Algebras on subquotients.  Both build their table through one routine
    # and return it with the FactorView that gives its coordinates.

    def _factor_algebra(self, view: "FactorView") -> "LieAlgebra":
        """The algebra on a factor: coordinates of the brackets of its basis pairs."""
        basis = view.space.basis
        m = len(basis)
        brackets = []
        for i in range(m):
            for j in range(i + 1, m):
                coords = view.coords(self.bracket(basis[i], basis[j]))
                if any(coords):
                    brackets.append(((i, j), coords))
        return LieAlgebra(self.field, m, brackets)

    def restrict(self, s: Subspace) -> tuple:
        """Algebra structure on a subalgebra s; returns (algebra, FactorView s/0).

        Raises NotASubalgebraError when s is not bracket-closed.
        """

        def compute():
            view = FactorView(self, s, self.zero_space())
            try:
                return self._factor_algebra(view), view
            except NotNestedError:
                raise NotASubalgebraError("bracket leaves the subspace") from None

        return self.memo(("restrict", s), compute)

    def quotient(self, ideal: Subspace) -> tuple:
        """Quotient by an ideal; returns (algebra, FactorView L/ideal)."""

        def compute():
            if not self.is_ideal(ideal):
                raise NotAnIdealError("quotient requires an ideal")
            view = FactorView(self, self.full_space(), ideal)
            return self._factor_algebra(view), view

        return self.memo(("quotient", ideal), compute)


def leibniz_defect(algebra: LieAlgebra, rows: Sequence) -> tuple | None:
    """First basis pair (1-based) where a matrix breaks the Leibniz rule, or None.

    Row i of the matrix is d(e_i).  The rule d[e_i, e_j] = [d e_i, e_j] +
    [e_i, d e_j] is compared as combinations of table rows, with
    [d e_i, e_j] = -[e_j, d e_i] moved to the left-hand side.
    """
    field, n, table = algebra.field, algebra.dim, algebra.table
    rows = tuple(tuple(r) for r in rows)
    kernel, kernel_table = kernel_rows(field, rows), algebra.kernel_table()
    if field.p is None:
        # the integer forms as coefficients too: D times the table and d
        # times the matrix, so both sides are D d times the exact ones
        table, rows = kernel_table, kernel
    for i in range(n):
        for j in range(i + 1, n):
            lhs = kernel_sum(field, table[i][j] + rows[i], kernel + kernel_table[j], n)
            if lhs != kernel_sum(field, rows[j], kernel_table[i], n):
                return (i + 1, j + 1)
    return None


class FactorView:
    """Coordinates on a subquotient top/bottom of nested subspaces of an algebra.

    The one coordinate map: restrict returns the view s/0, quotient the view
    L/I, and a chief factor is a view.  The basis is the rows of top's
    echelon basis whose pivots are not bottom's: bottom's pivots are among
    top's, so those rows vanish at them and are already reduced mod bottom.
    They are the echelon basis of top reduced mod bottom, so coords and lift
    are exact mutual inverses modulo bottom.  For top = L and an ideal I
    they are the standard vectors at I's free columns.
    """

    __slots__ = ("algebra", "top", "bottom", "space")

    def __init__(self, algebra: LieAlgebra, top: Subspace, bottom: Subspace):
        if not bottom <= top:
            raise NotNestedError("factor requires bottom <= top")
        self.algebra = algebra
        self.top = top
        self.bottom = bottom
        kept = [k for k, c in enumerate(top.pivots) if c not in bottom.pivots]
        self.space = Subspace(
            algebra.field,
            algebra.dim,
            tuple(top.rows[k] for k in kept),
            tuple(top.pivots[k] for k in kept),
        )

    @property
    def dim(self) -> int:
        return self.space.dim

    def coords(self, vec) -> tuple:
        """Factor coordinates of a vector of the top space, packed or as a sequence of its exact entries.

        The vector is put in kernel form once: over GF(2) it is packed,
        reduced by bottom, tested against space and read at its pivots
        as one packed int.  Over Q bottom.reduce gives the exact residual,
        so a vector that carries a scale (a kernel_brackets image) gets
        its coordinates times that scale.
        """
        field, n = self.algebra.field, self.algebra.dim
        coeffs = self.space.coordinates(self.bottom.reduce(kernel_form(field, vec, n)))
        if coeffs is None:
            raise NotNestedError("vector lies outside the factor's top space")
        return coeffs

    def lift(self, coords: Sequence) -> tuple:
        """A representative in the algebra of factor coordinates."""
        space = self.space
        return from_kernel(self.algebra.field, space.vector(coords), self.algebra.dim, space.scale)

    def project_subspace(self, s: Subspace) -> Subspace:
        """The span of the coordinates of a subspace of the top space."""
        return Subspace.span(self.algebra.field, self.dim, [self.coords(v) for v in s.rows])

    def lift_subspace(self, s: Subspace) -> Subspace:
        """Full preimage: the lifted basis, in kernel form, together with the bottom."""
        vecs = [self.space.vector(v) for v in s.basis] + list(self.bottom.rows)
        return Subspace.span(self.algebra.field, self.algebra.dim, vecs)

