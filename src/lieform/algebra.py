"""Lie algebras given by exact structure constants.

An algebra is a field, a dimension n, and the brackets [e_i, e_j] of basis
pairs; everything else (series, centralisers, cores, quotients) is linear
algebra over that table.  Instances are interned on (field, table), so
while an algebra is interned, structurally equal algebras are the same
object and share its cache of derived data.  That sharing is what keeps
the exhaustive sweeps fast.  LieAlgebra.release drops one algebra's cache
and intern entry once nothing later will ask for it again; a sweep
releases each algebra of its top dimension after checking it.
LieAlgebra.memo is the one per-algebra cache: every derived value (full
space, series, centre, cores, quotients, derivations, chief series,
subalgebra listings, classifications, normalisers) is stored through it,
under a fixed key.  FactorView is the one coordinate map on a subquotient
A/B: restrict and quotient return one with the algebra they build, and
chief factors are views.

Parsed documents are refused above MAX_DIM, before any table is allocated.

JSON form (1-based indices, i < j, scalars as strings):

    {"field": "GF(3)", "dim": 2,
     "brackets": [{"i": 1, "j": 2, "value": ["0", "1"]}]}

Omitted pairs bracket to zero; antisymmetry and [x, x] = 0 are implicit.
"""

from __future__ import annotations

import json
from fractions import Fraction
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
from .linalg import EchelonAccumulator, Subspace, linear_combination, stabiliser

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


def _check_jacobi(field: Field, table: tuple) -> None:
    """Raise JacobiViolationError at the first basis triple that breaks Jacobi."""
    n = len(table)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # minus [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
                s = linear_combination(
                    field,
                    table[i][j] + table[j][k] + table[k][i],
                    table[k] + table[i] + table[j],
                    n,
                )
                if any(s):
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
        """[x, y] in coordinates."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatchError("vectors must have length %d" % n)
        p = self.field.p
        out = [0] * n
        table = self.table
        for i, xi in enumerate(x):
            if not xi:
                continue
            ti = table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                row = ti[j]
                for k, rk in enumerate(row):
                    if rk:
                        out[k] += c * rk
        if p is not None:
            return tuple(v % p for v in out)
        return tuple(map(canonical_q, out))

    # [v, e_k] = -[e_k, v] is minus the rows table[k] combined by v; the
    # table-driven checks below read the table this way instead of
    # bracketing standard vectors.

    def validate(self) -> None:
        """Check the Jacobi identity on all basis triples; raises on failure."""
        _check_jacobi(self.field, self.table)

    def basis_brackets(self, vectors: Sequence) -> list:
        """For each basis vector e_k, the list of [e_k, v] over the vectors."""
        field, n = self.field, self.dim
        return [[linear_combination(field, v, row, n) for v in vectors] for row in self.table]

    # Subspaces of the algebra

    def full_space(self) -> Subspace:
        return self.memo("full_space", lambda: Subspace.full_space(self.field, self.dim))

    def zero_space(self) -> Subspace:
        return Subspace.zero_space(self.field, self.dim)

    def span(self, vectors: Iterable[Sequence]) -> Subspace:
        return Subspace.span(self.field, self.dim, vectors)

    def basis_vectors(self) -> list:
        return list(self.full_space().basis)

    def product_space(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [a, b] over basis pairs."""
        acc = EchelonAccumulator(self.field, self.dim)
        for x in a.basis:
            for y in b.basis:
                acc.add(self.bracket(x, y))
        return acc.to_subspace()

    def is_subalgebra(self, s: Subspace) -> bool:
        basis = s.basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                if not s.contains(self.bracket(basis[i], basis[j])):
                    return False
        return True

    def is_ideal(self, s: Subspace) -> bool:
        for x in self.basis_vectors():
            for y in s.basis:
                if not s.contains(self.bracket(x, y)):
                    return False
        return True

    # Series and structural subspaces.  Results are cached per instance;
    # interning makes the cache shared across every appearance of the same
    # structure-constant table.

    def memo(self, key, compute):
        """The value cached under key, computed by compute() and stored on first use."""
        cache = self._cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    def _series(self, key: str, left) -> list:
        # s_0 = L, s_{t+1} = [left(s_t), s_t], until the terms stop shrinking
        def compute():
            series = [self.full_space()]
            while not series[-1].is_zero():
                nxt = self.product_space(left(series[-1]), series[-1])
                if nxt.dim == series[-1].dim:
                    break
                series.append(nxt)
            return series

        return list(self.memo(key, compute))

    def derived_series(self) -> list:
        return self._series("derived_series", lambda s: s)

    def lower_central_series(self) -> list:
        return self._series("lower_central_series", lambda s: self.full_space())

    def is_soluble(self) -> bool:
        return self.derived_series()[-1].is_zero()

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].is_zero()

    def is_abelian(self) -> bool:
        return all(not any(vec) for row in self.table for vec in row)

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
        return stabiliser(self.field, self.basis_brackets(a.basis), b)

    def centre(self) -> Subspace:
        return self.memo("centre", lambda: self.centralizer(self.full_space()))

    def normalizer(self, s: Subspace) -> Subspace:
        """{x : [x, s] <= s}; the idealiser of the subspace."""
        return self.centralizer_of_factor(s, s)

    def core(self, s: Subspace) -> Subspace:
        """Largest ideal of the algebra contained in s.

        Starting from K = s, each step keeps the x in K with [e_k, x] in K
        for every basis vector e_k.  For x = sum_j c_j b_j over K's basis,
        [e_k, x] = sum_j c_j [e_k, b_j], so the coefficients c are one
        stabiliser in K's own coordinates, F^(dim K), mapped back by
        Subspace.combinations.  The steps stop when K stops shrinking.
        """

        def compute():
            field, n, table = self.field, self.dim, self.table
            current = s
            while not current.is_zero():
                images = [
                    [linear_combination(field, b, row, n) for row in table] for b in current.basis
                ]
                nxt = current.combinations(stabiliser(field, images, current))
                if nxt.dim == current.dim:
                    break
                current = nxt
            return current

        return self.memo(("core", s), compute)

    def nilradical(self) -> Subspace:
        """Largest nilpotent ideal, via centralisers of a chief series."""

        def compute():
            if not self.is_soluble():
                raise NotSolubleError("nilradical computed for soluble algebras only")
            from .chief import chief_series

            out = self.full_space()
            for factor in chief_series(self).factors:
                out = out & self.centralizer_of_factor(factor.top, factor.bottom)
            return out

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
    for i in range(n):
        for j in range(i + 1, n):
            lhs = linear_combination(field, table[i][j] + rows[i], rows + table[j], n)
            if lhs != linear_combination(field, rows[j], table[i], n):
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
            tuple(top.basis[k] for k in kept),
            tuple(top.pivots[k] for k in kept),
        )

    @property
    def dim(self) -> int:
        return self.space.dim

    def coords(self, vec: Sequence) -> tuple:
        """Factor coordinates of a vector of the top space."""
        coeffs = self.space.coordinates(self.bottom.reduce(vec))
        if coeffs is None:
            raise NotNestedError("vector lies outside the factor's top space")
        return coeffs

    def lift(self, coords: Sequence) -> tuple:
        """A representative in the algebra of factor coordinates."""
        return linear_combination(self.algebra.field, coords, self.space.basis, self.algebra.dim)

    def project_subspace(self, s: Subspace) -> Subspace:
        """The span of the coordinates of a subspace of the top space."""
        return Subspace.span(self.algebra.field, self.dim, [self.coords(v) for v in s.basis])

    def lift_subspace(self, s: Subspace) -> Subspace:
        """Full preimage: the lifted basis together with the bottom."""
        vecs = [self.lift(v) for v in s.basis] + list(self.bottom.basis)
        return Subspace.span(self.algebra.field, self.algebra.dim, vecs)

    def action(self, x: Sequence) -> tuple:
        """The rows of ad x on the factor: row i is the coordinates of [x, b_i]."""
        return tuple(self.coords(self.algebra.bracket(x, row)) for row in self.space.basis)
