"""Chief series, minimal ideals, irreducibility and split extensions.

A chief series is a maximal chain of ideals 0 = I_0 < ... < I_k = L; each
factor I_{t+1}/I_t is a minimal ideal of L/I_t.  Over GF(p) one spinning
loop, _spin, closes every nonzero vector of a factor A/B, with B, into an
ideal: the smallest closure from the last derived term is a minimal ideal,
and A/B is irreducible when every closure is A.  Over Q the search refines
the part of that term killed by [L, L] into simultaneous rational
eigenspaces of the commuting induced operators; when no rational invariant
line exists the computation is refused rather than approximated.

A chief factor is an algebra.FactorView.  The dimensions dim(U + I_t)
along the series come from one rank pass (ChiefSeries.ranks); whether a
subspace covers or avoids each factor is read off them
(ChiefSeries.cover_avoid), and covers and avoids are the definitional,
intersection-based predicates for one factor.  The one split-extension
builder, split_extension_by_derivation, writes the table of L + Fx, with
[x, y] = d(y), straight from L's table and the rows of d after the
Leibniz check.  Enumeration adjoins one derivation at a time through it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Sequence

from .algebra import FactorView, LieAlgebra, leibniz_defect
from .errors import (
    DimensionMismatchError,
    NotADerivationError,
    NotNestedError,
    NotSolubleError,
    UnsupportedFieldError,
    ZeroAlgebraError,
)
from .fields import canonical_q
from .linalg import EchelonAccumulator, Matrix, Subspace, check_budget, close, linear_combination, stabiliser


class ChiefFactor(FactorView):
    """One factor top/bottom of a chief series, with its cached F-centrality verdicts."""

    __slots__ = ("_central",)

    def __init__(self, algebra: LieAlgebra, top: Subspace, bottom: Subspace):
        if not bottom < top:
            raise NotNestedError("chief factor requires bottom < top")
        super().__init__(algebra, top, bottom)
        self._central = {}

    def __repr__(self) -> str:
        return "ChiefFactor(dim %d over dim %d)" % (self.top.dim, self.bottom.dim)


class ChiefSeries:
    """Ascending chain of ideals with irreducible factors."""

    __slots__ = ("algebra", "ideals", "factors")

    def __init__(self, algebra: LieAlgebra, ideals: Sequence[Subspace]):
        self.algebra = algebra
        self.ideals = tuple(ideals)
        self.factors = tuple(
            ChiefFactor(algebra, top, bottom)
            for bottom, top in zip(self.ideals, self.ideals[1:])
        )

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def ranks(self, subspace: Subspace) -> list:
        """dim(U + I_t) for t = 0, ..., k, from one rank pass along the series.

        One accumulator, seeded with U, takes each factor's basis in turn;
        that basis together with I_t spans I_{t+1}.
        """
        acc = EchelonAccumulator(self.algebra.field, self.algebra.dim, subspace.basis)
        ranks = [acc.rank]
        for factor in self.factors:
            for v in factor.space.basis:
                acc.add(v)
            ranks.append(acc.rank)
        return ranks

    def cover_avoid(self, subspace: Subspace) -> list:
        """(covered, avoided) for every factor, read off ranks(U).

        With r_t = dim(U + I_t), U covers I_{t+1}/I_t exactly when
        r_{t+1} = r_t and avoids it exactly when r_{t+1} - r_t is the
        factor's dimension, since dim(U meet A) = dim U + dim A - dim(U + A).
        """
        ranks = self.ranks(subspace)
        return [
            (high == low, high - low == factor.dim)
            for factor, low, high in zip(self.factors, ranks, ranks[1:])
        ]


def _last_derived_term(algebra: LieAlgebra) -> Subspace:
    series = algebra.derived_series()
    for term in reversed(series):
        if not term.is_zero():
            return term
    return series[0]


def _spin(algebra: LieAlgebra, top: Subspace, bottom: Subspace):
    """Ideal closures of bottom + v, one per nonzero vector v of the factor top/bottom.

    Over GF(p), in a fixed order, after one budget check on the p^k vectors.
    """
    field, n, table = algebra.field, algebra.dim, algebra.table
    basis = FactorView(algebra, top, bottom).space.basis
    check_budget(field.p ** len(basis), "spinning over %s in dimension %d" % (field, len(basis)))
    for coeffs in product(range(field.p), repeat=len(basis)):
        if any(coeffs):
            vec = linear_combination(field, coeffs, basis, n)
            acc = EchelonAccumulator(field, n, bottom.basis + (vec,))
            # [e_k, v] is the rows table[k] combined by v
            yield close(acc, lambda v: [linear_combination(field, v, row, n) for row in table])


def _minimal_ideal_gfp(algebra: LieAlgebra, last: bool = False) -> Subspace:
    # The smallest-dimension ideal closure of a vector of the last nonzero
    # derived term is a minimal ideal; ties are broken by canonical basis.
    # With last=True the basis tie-break flips, giving an alternate choice
    # for series cross-validation.
    w = _last_derived_term(algebra)
    closures = {(ideal.dim, ideal.basis): ideal for ideal in _spin(algebra, w, algebra.zero_space())}
    least_dim = min(key[0] for key in closures)
    candidates = sorted(key for key in closures if key[0] == least_dim)
    return closures[candidates[-1] if last else candidates[0]]


def is_irreducible(factor: FactorView) -> bool:
    """No ideal lies strictly between the bottom and top ideals of a chief factor.

    Decided over GF(p) by spinning every nonzero factor vector into an
    ideal closure; over Q only the one-dimensional case is decidable here.
    """
    if factor.dim <= 1:
        return factor.dim == 1
    if factor.algebra.field.p is None:
        raise UnsupportedFieldError("irreducibility over Q is only decided in dimension 1")
    return all(ideal == factor.top for ideal in _spin(factor.algebra, factor.top, factor.bottom))


def _char_poly(rows: list) -> list:
    """Monic characteristic polynomial coefficients [1, c1, ..., ck] of a rational matrix.

    Faddeev-LeVerrier; the coefficients are exact Q payloads.
    """
    k = len(rows)
    coeffs = [1]
    m = [row[:] for row in rows]
    for step in range(1, k + 1):
        tr = sum(m[i][i] for i in range(k))
        c = canonical_q(Fraction(-tr, step))
        coeffs.append(c)
        if step == k:
            break
        for i in range(k):
            m[i][i] += c
        m = [
            [sum(rows[i][t] * m[t][j] for t in range(k)) for j in range(k)]
            for i in range(k)
        ]
    return coeffs


def _divisors(n: int) -> list:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _rational_roots(coeffs: list) -> list:
    """All rational roots, as Q payloads, of a monic polynomial with rational coefficients."""
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    # trailing zero coefficients mean 0 is a root; deflate them away
    roots = set()
    while len(ints) > 1 and ints[-1] == 0:
        roots.add(0)
        ints = ints[:-1]
    if len(ints) > 1:
        lead, const = ints[0], ints[-1]
        for num in _divisors(const):
            for den in _divisors(lead):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    acc = Fraction(0)
                    for c in ints:
                        acc = acc * cand + c
                    if acc == 0:
                        roots.add(canonical_q(cand))
    return sorted(roots)


def _is_scalar(rows: list) -> bool:
    k = len(rows)
    for i in range(k):
        for j in range(k):
            if i != j and rows[i][j]:
                return False
    return all(rows[i][i] == rows[0][0] for i in range(k))


def _minimal_ideal_q(algebra: LieAlgebra) -> Subspace:
    centre = algebra.centre()
    if not centre.is_zero():
        return Subspace.span(algebra.field, algebra.dim, [centre.basis[0]])
    # A non-central invariant line lies in every lower central term and is
    # killed by [L, L], so refine inside that ideal; the induced operators
    # commute there.
    residual = algebra.lower_central_series()[-1]
    w1 = residual & algebra.centralizer(algebra.derived_subalgebra())
    if w1.is_zero():
        raise UnsupportedFieldError("no rational invariant line available")
    field = algebra.field
    queue = [w1]
    while queue:
        space = queue.pop(0)
        split = False
        # ad(e_i) on the invariant subspace, in its canonical basis
        view = FactorView(algebra, space, algebra.zero_space())
        zero = Subspace.zero_space(field, view.dim)
        for x in algebra.basis_vectors():
            rows = [list(r) for r in view.action(x)]
            if _is_scalar(rows):
                continue
            branches = []
            for lam in _rational_roots(_char_poly(rows)):
                # the left eigenvectors: the combinations of the rows of
                # ad(x) - lam that vanish
                shifted = [
                    [field.sub(a, lam) if i == j else a for j, a in enumerate(row)]
                    for i, row in enumerate(rows)
                ]
                eig = stabiliser(field, [[row] for row in shifted], zero).basis
                sub = algebra.span(view.lift(coords) for coords in eig)
                if not sub.is_zero():
                    branches.append(sub)
            queue.extend(branches)
            split = True
            break
        if not split:
            # every basis operator acts as a scalar here: any line is an ideal
            return Subspace.span(algebra.field, algebra.dim, [space.basis[0]])
    raise UnsupportedFieldError("no rational invariant line available")


def minimal_ideal(algebra: LieAlgebra, alternate: bool = False) -> Subspace:
    """A minimal ideal, chosen deterministically.

    Requires a soluble nonzero algebra.  Over Q the search finds an
    invariant line and raises UnsupportedFieldError when none exists, which
    happens exactly when every minimal ideal has dimension above 1.  Over
    GF(p), alternate=True flips the tie-break among candidates, supplying a
    second choice for series cross-validation.
    """
    if algebra.dim == 0:
        raise ZeroAlgebraError("the zero algebra has no minimal ideal")
    if not algebra.is_soluble():
        raise NotSolubleError("minimal ideal search implemented for soluble algebras")
    if algebra.field.p is None:
        return _minimal_ideal_q(algebra)
    return _minimal_ideal_gfp(algebra, last=alternate)


def chief_series(algebra: LieAlgebra, alternate: bool = False) -> ChiefSeries:
    """Chief series built by repeatedly lifting a minimal ideal of the quotient."""

    def compute():
        if not algebra.is_soluble():
            raise NotSolubleError("chief series implemented for soluble algebras")
        ideals = [algebra.zero_space()]
        while ideals[-1].dim < algebra.dim:
            quo, view = algebra.quotient(ideals[-1])
            bottom_up = minimal_ideal(quo, alternate=alternate)
            ideals.append(view.lift_subspace(bottom_up))
        return ChiefSeries(algebra, ideals)

    return algebra.memo("chief_series_alt" if alternate else "chief_series", compute)


def covers(subspace: Subspace, factor: ChiefFactor) -> bool:
    """U covers A/B: U + B contains A."""
    return factor.top <= (subspace + factor.bottom)


def avoids(subspace: Subspace, factor: ChiefFactor) -> bool:
    """U avoids A/B: U meet A lies inside B."""
    return (subspace & factor.top) <= factor.bottom


def split_extension_by_derivation(algebra: LieAlgebra, derivation) -> LieAlgebra:
    """Adjoin one outer generator x acting as the given derivation.

    The derivation is a Matrix over the algebra's field (else
    FieldMismatchError) or a sequence of rows of its field's payloads, row
    i being d(e_i).
    The original algebra keeps coordinates 0..n-1 and its brackets; x is
    the last basis vector, with [x, y] = d(y), so the table gains
    [e_u, x] = -d(e_u).  Raises NotADerivationError unless the Leibniz
    identity holds, and the table is checked for Jacobi before it is
    interned, so a rejected extension is never kept.
    """
    if isinstance(derivation, Matrix):
        algebra.field.check_same(derivation.field)
        rows = derivation.rows
    else:
        rows = tuple(tuple(r) for r in derivation)
    n = algebra.dim
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatchError("derivation matrix must be %d x %d" % (n, n))
    defect = leibniz_defect(algebra, rows)
    if defect is not None:
        raise NotADerivationError("Leibniz identity fails on pair (%d, %d)" % defect)
    field = algebra.field
    zero = (field.zero(),)
    brackets = [((i, j), algebra.table[i][j] + zero) for i, j in combinations(range(n), 2)]
    brackets += [((u, n), tuple(map(field.neg, row)) + zero) for u, row in enumerate(rows)]
    return LieAlgebra(field, n + 1, brackets, validate=True)
