"""Derivation algebras and the two intravariance criteria.

Der(L) is the null space of the linear system expressing the Leibniz rule
over all basis pairs.  Internally a derivation matrix acts on the right of
a row coordinate vector (row i is the image of e_i); for subspace
arithmetic matrices are flattened row-major into F^(n^2), where Der(L) is
kept as an echelon subspace.

A subalgebra U is intravariant when every derivation splits as inner plus
U-stabilising.  The linear criterion tests that as a subspace identity in
Der-basis coordinates, F^(dim Der): the U-stabilising derivations are one
stabiliser's coefficient space, and an inner derivation's coordinates are
its flattened entries at Der(L)'s pivots.  The second, extension-style
criterion adjoins one outer generator x per basis derivation d, in
D = L + Fx with [x, y] = d(y), and asks that the normaliser N_D(U)
together with L fill D.  That holds exactly when d restricted to U agrees
mod U with some u |-> [y, u], y in L, so it is decided in Hom(U, L/U):
once per (L, U) the maps u |-> [e_k, u] mod U, read off L's structure
constants, are echelonised into one span W, and each derivation then costs
one reduce of d|U mod U against W.  D itself is never built, and the check
never touches the Der-basis coordinates of the linear criterion, so the
two stay independent computations.  The decomposable derivations form a
subspace, so checking a basis of Der(L) settles both criteria exactly.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import LieAlgebra, leibniz_defect
from .errors import DimensionMismatchError, NotADerivationError
from .fields import Field
from .linalg import EchelonAccumulator, Matrix, Subspace, null_space, stabiliser


class Derivation:
    """A derivation of a fixed algebra, stored as its matrix."""

    __slots__ = ("parent", "matrix")

    def __init__(self, parent: LieAlgebra, matrix: Matrix, check: bool = True):
        parent.field.check_same(matrix.field)
        if matrix.nrows != parent.dim or matrix.ncols != parent.dim:
            raise DimensionMismatchError("derivation matrix must be %d x %d" % (parent.dim, parent.dim))
        if check:
            defect = leibniz_defect(parent, matrix.rows)
            if defect is not None:
                raise NotADerivationError("Leibniz identity fails on pair (%d, %d)" % defect)
        self.parent = parent
        self.matrix = matrix

    def __call__(self, vec: Sequence) -> tuple:
        return self.matrix.act(vec)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Derivation)
            and self.parent == other.parent
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.matrix))

    def __repr__(self) -> str:
        return "Derivation(dim %d algebra)" % self.parent.dim

    def flatten(self) -> tuple:
        return tuple(x for row in self.matrix.rows for x in row)


def _unflatten(field: Field, vec: Sequence, n: int) -> Matrix:
    return Matrix(field, [vec[i * n : (i + 1) * n] for i in range(n)], ncols=n)


class DerivationAlgebra:
    """All derivations of one algebra: a basis plus the flattened subspace."""

    __slots__ = ("parent", "subspace", "basis")

    def __init__(self, parent: LieAlgebra, subspace: Subspace):
        self.parent = parent
        self.subspace = subspace
        self.basis = [
            Derivation(parent, _unflatten(parent.field, row, parent.dim), check=False)
            for row in subspace.basis
        ]

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def contains(self, d) -> bool:
        flat = d.flatten() if isinstance(d, Derivation) else tuple(x for row in d.rows for x in row)
        return self.subspace.contains(flat)

    def __repr__(self) -> str:
        return "DerivationAlgebra(dim %d over %s)" % (self.dim, self.parent.field)


def derivation_algebra(algebra: LieAlgebra) -> DerivationAlgebra:
    """Solve the Leibniz system; the null space is Der(L).

    Unknowns are the n^2 matrix entries D[m][k], row-major.  For each basis
    pair i < j and each coordinate k the rule contributes one equation:
    sum_m t_m D[m][k] - sum_m D[i][m] c_mjk - sum_m D[j][m] c_imk = 0,
    where t = [e_i, e_j] and c are the structure constants.
    """

    def compute():
        n = algebra.dim
        field = algebra.field
        zero = field.zero()
        equations = []
        for i in range(n):
            for j in range(i + 1, n):
                t = algebra.table[i][j]
                for k in range(n):
                    row = [zero] * (n * n)
                    for m in range(n):
                        if t[m]:
                            row[m * n + k] = field.add(row[m * n + k], t[m])
                        c1 = algebra.table[m][j][k]
                        if c1:
                            row[i * n + m] = field.sub(row[i * n + m], c1)
                        c2 = algebra.table[i][m][k]
                        if c2:
                            row[j * n + m] = field.sub(row[j * n + m], c2)
                    if any(row):
                        equations.append(row)
        basis = null_space(equations, field, ncols=n * n)
        return DerivationAlgebra(algebra, Subspace.span(field, n * n, basis))

    return algebra.memo("derivation_algebra", compute)


def inner_derivations(algebra: LieAlgebra) -> Subspace:
    """Span of the ad matrices, flattened; dim n - dim Z(L)."""
    # ad(e_i) has rows [e_i, e_k], which is table[i]
    n = algebra.dim
    return algebra.memo(
        "inner_derivations",
        lambda: Subspace.span(algebra.field, n * n, [sum(rows, ()) for rows in algebra.table]),
    )


def _stabilising_coordinates(der: DerivationAlgebra, subalgebra: Subspace) -> Subspace:
    """The coefficients c over the Der basis with (sum_t c_t d_t)(U) <= U, in F^(dim Der)."""
    algebra = der.parent
    if subalgebra.ambient_dim != algebra.dim:
        raise DimensionMismatchError("subalgebra lives in the wrong ambient space")
    if der.dim == 0 or subalgebra.is_zero() or subalgebra.is_full():
        return Subspace.full_space(algebra.field, der.dim)
    images = [[d(u) for u in subalgebra.basis] for d in der.basis]
    return stabiliser(algebra.field, images, subalgebra)


def is_intravariant_linear(algebra: LieAlgebra, subalgebra: Subspace) -> bool:
    """Every derivation is inner plus U-stabilising, as a subspace identity.

    In Der-basis coordinates: the stabilising coefficients and the inner
    derivations' entries at Der(L)'s pivots must together span F^(dim Der).
    """
    der = derivation_algebra(algebra)
    acc = EchelonAccumulator(algebra.field, der.dim, _stabilising_coordinates(der, subalgebra).basis)
    pivots = der.subspace.pivots
    # ad(e_k) has rows [e_k, e_m], which is table[k]
    for rows in algebra.table:
        flat = sum(rows, ())
        acc.add(tuple(flat[c] for c in pivots))
    return acc.rank == der.dim


def _extension_residuals(algebra: LieAlgebra, subalgebra: Subspace, derivations):
    """Residual of each d|U mod U against W, the span of u |-> [e_k, u] mod U.

    A map of U is flattened into (L/U)^dim U as its images of U's basis,
    each reduced mod U.  W is echelonised once, however many derivations
    follow; a residual is zero exactly when d|U lies in W mod U.
    """
    basis = subalgebra.basis

    def flat(images):
        return [x for v in images for x in subalgebra.reduce(v)]

    span = EchelonAccumulator(
        algebra.field, algebra.dim * len(basis), map(flat, algebra.basis_brackets(basis))
    )
    for d in derivations:
        yield span.reduce(flat(d(u) for u in basis))


def normalizer_fills_extension(
    algebra: LieAlgebra, subalgebra: Subspace, derivation: Derivation
) -> bool:
    """In D = L + Fx with [x, y] = d(y), N_D(U) + L = D.

    An element y + c x of D, y in L, sends u in U to [y, u] + c d(u), which
    lies in L.  It fills D with L exactly when some normalising element has
    c != 0, that is when d(u) = -[y, u] mod U for one y and every u:
    d|U mod U lies in the span of the maps u |-> [e_k, u] mod U, read off
    the table.  D is never built; the Derivation constructor has already
    checked the Leibniz rule.
    """
    if derivation.parent != algebra or subalgebra.ambient_dim != algebra.dim:
        raise DimensionMismatchError("derivation and subalgebra must belong to the algebra")
    return not any(next(_extension_residuals(algebra, subalgebra, (derivation,))))


def extension_defect(algebra: LieAlgebra, subalgebra: Subspace):
    """First basis derivation whose extension breaks N_D(U) + L = D, or None.

    One echelonised span per (L, U) serves every basis derivation.
    """
    basis = derivation_algebra(algebra).basis
    residuals = _extension_residuals(algebra, subalgebra, basis)
    return next((d for d, r in zip(basis, residuals) if any(r)), None)


def is_intravariant_extension(algebra: LieAlgebra, subalgebra: Subspace) -> bool:
    """For each basis derivation d, adjoining d leaves N_D(U) + L = D.

    D is the one-generator extension; U embeds with a zero last coordinate.
    """
    return extension_defect(algebra, subalgebra) is None


def derivation_matrix_strings(d: Derivation) -> list:
    """JSON form: entry [i][j] is the e_i coefficient of d(e_j).

    The matrix in this form acts on column coordinate vectors.
    """
    m = d.matrix
    fmt = d.parent.field.format
    n = d.parent.dim
    return [[fmt(m.rows[j][i]) for j in range(n)] for i in range(n)]


def derivation_from_strings(algebra: LieAlgebra, rows: list) -> Derivation:
    """Inverse of derivation_matrix_strings; validates the Leibniz rule."""
    n = algebra.dim
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatchError("derivation matrix must be %d x %d" % (n, n))
    parse = algebra.field.parse
    internal = [[parse(rows[i][j]) for i in range(n)] for j in range(n)]
    return Derivation(algebra, Matrix(algebra.field, internal, ncols=n))
