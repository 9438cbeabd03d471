"""Chief series, minimal ideals and split extensions.

A chief series is a maximal chain of ideals 0 = I_0 < ... < I_k = L; each
factor I_{t+1}/I_t is a minimal ideal of L/I_t.  chief_series takes a
minimal ideal A = I_1 of L and lifts the chief series of the interned
quotient L/A, so the series of every quotient up the tower is computed
once and shared by all algebras with that quotient.  Over GF(p) one
spinning loop, _spin, closes every nonzero vector of the last nonzero
derived term into an ideal, and the smallest closure is a minimal ideal.  Over Q the
search refines the part of that term killed by [L, L] into simultaneous
rational eigenspaces of the commuting induced operators; when no rational
invariant line exists the computation is refused rather than approximated.

A chief factor is an algebra.FactorView.  The dimensions dim(U + I_t)
along the series come from one rank pass (ChiefSeries.ranks); whether a
subspace covers or avoids each factor is read off them
(ChiefSeries.cover_avoid).  The one split-extension builder,
split_extension_by_derivation, writes the table of L + Fx, with
[x, y] = d(y), straight from L's table and the rows of d after the
Leibniz check.  Enumeration adjoins one derivation at a time through it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product, zip_longest
from math import gcd, lcm
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
from .fields import Field, canonical_q
from .linalg import (
    EchelonAccumulator,
    Matrix,
    Subspace,
    check_budget,
    close,
    from_kernel,
    kernel_sum,
    linear_combination,
    stabiliser,
)


class ChiefSeries:
    """Ascending chain of ideals with irreducible factors, each a FactorView."""

    __slots__ = ("algebra", "ideals", "factors")

    def __init__(self, algebra: LieAlgebra, ideals: Sequence[Subspace]):
        self.algebra = algebra
        self.ideals = tuple(ideals)
        pairs = tuple(zip(self.ideals, self.ideals[1:]))
        # FactorView refuses a pair that is not nested; a chain must also grow
        if any(bottom.dim >= top.dim for bottom, top in pairs):
            raise NotNestedError("chief factor requires bottom < top")
        self.factors = tuple(FactorView(algebra, top, bottom) for bottom, top in pairs)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def ranks(self, subspace: Subspace) -> list:
        """dim(U + I_t) for t = 0, ..., k, from one rank pass along the series.

        One accumulator, seeded with U, takes each factor's basis in turn;
        that basis together with I_t spans I_{t+1}.
        """
        acc = EchelonAccumulator(self.algebra.field, self.algebra.dim, subspace.rows)
        ranks = [acc.rank]
        for factor in self.factors:
            for v in factor.space.rows:
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


def _spin(algebra: LieAlgebra, space: Subspace):
    """Ideal closures of v, one per nonzero vector v of the space.

    Over GF(p), in a fixed order, after one budget check on the p^k vectors.
    """
    field, n = algebra.field, algebra.dim
    basis = space.rows
    check_budget(field.p ** len(basis), "spinning over %s in dimension %d" % (field, len(basis)))
    for coeffs in product(range(field.p), repeat=len(basis)):
        if any(coeffs):
            acc = EchelonAccumulator(field, n, (kernel_sum(field, coeffs, basis, n),))
            yield close(acc, lambda v: [w for row in algebra.kernel_brackets((v,)) for w in row])


def _minimal_ideal_gfp(algebra: LieAlgebra) -> Subspace:
    # The smallest-dimension ideal closure of a vector of the last nonzero
    # derived term is a minimal ideal; ties are broken by canonical rows.
    w = _last_derived_term(algebra)
    closures = {(ideal.dim, ideal.rows): ideal for ideal in _spin(algebra, w)}
    return closures[min(closures)]


def _char_poly(field: Field, rows: list) -> list:
    """Monic characteristic polynomial coefficients [1, c1, ..., ck] of a rational matrix.

    Faddeev-LeVerrier; the coefficients are exact Q payloads.
    """
    k = len(rows)
    coeffs = [1]
    m = [list(row) for row in rows]
    for step in range(1, k + 1):
        tr = sum(m[i][i] for i in range(k))
        c = canonical_q(Fraction(-tr, step))
        coeffs.append(c)
        if step == k:
            break
        for i in range(k):
            m[i][i] += c
        # row i of rows * m is the rows of m combined by row i
        m = [list(linear_combination(field, row, m, k)) for row in rows]
    return coeffs


def _horner(poly: list, num: int, den: int = 1) -> int:
    """den^d poly(num / den) for an integer polynomial of degree d, coefficients highest first."""
    acc, scale = 0, 1
    for c in poly:
        acc = acc * num + c * scale
        scale *= den
    return acc


def _integer_roots(poly: list) -> list:
    """The integer roots of a monic integer polynomial of positive degree, coefficients highest first.

    By Sturm's theorem an interval whose ends are not roots holds
    V(a) - V(b) distinct real roots, V(x) being the sign changes along the
    Sturm sequence at x.  The ends here are half-integers, never roots of a
    monic integer polynomial.  Bisection keeps the intervals that hold a
    root until each has one integer left, which is then tested; nothing is
    factored, so the steps grow with the digits of the roots, not their size.
    """
    seq = [poly, [c * (len(poly) - 1 - i) for i, c in enumerate(poly[:-1])]]
    while len(seq[-1]) > 1:
        # a positive multiple of -(a mod b), kept integral and primitive
        a, b = seq[-2], seq[-1]
        lead, sign = abs(b[0]), (1 if b[0] > 0 else -1)
        while len(a) >= len(b):
            f = a[0] * sign
            a = [lead * x - f * y for x, y in zip_longest(a, b, fillvalue=0)][1:]
        if not any(a):
            break
        g = gcd(*a)
        seq.append([-x // g for x in a[next(i for i, x in enumerate(a) if x):]])

    def changes(m: int) -> int:
        # at m / 2, for odd m
        signs = [v > 0 for v in (_horner(p, m, 2) for p in seq) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    # every root is below 2 max |c_i|^(1/i), c_i the coefficient of x^(k-i)
    # (Fujiwara's bound), so below 2^e; the search starts at +-(2^e + 1/2)
    e = 1 + max(-(-abs(c).bit_length() // i) for i, c in enumerate(poly[1:], 1))
    bound = 2 ** (e + 1) + 1
    roots, stack = [], [(-bound, bound, changes(-bound), changes(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 2:
            if _horner(poly, (lo + 1) // 2) == 0:
                roots.append((lo + 1) // 2)
            continue
        mid = (lo + hi) // 2 | 1
        v_mid = changes(mid)
        stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return roots


def _rational_roots(coeffs: list) -> list:
    """All rational roots, as Q payloads, of a monic polynomial with rational coefficients.

    Cleared to integers a_k, ..., a_0, the polynomial p has the root x
    exactly when the monic integer polynomial a_k^(k-1) p(y / a_k) has the
    root y = a_k x, and a rational root of that one is an integer.
    """
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    # trailing zero coefficients mean 0 is a root; deflate them away
    roots = set()
    while len(ints) > 1 and ints[-1] == 0:
        roots.add(0)
        ints.pop()
    if len(ints) > 1:
        lead = ints[0]
        monic = [1] + [c * lead**j for j, c in enumerate(ints[1:])]
        roots.update(canonical_q(Fraction(y, lead)) for y in _integer_roots(monic))
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
        # ad(e_i) on the invariant subspace, in its canonical basis: the
        # exact values, with the table's scale divided out, so the
        # eigenvalues are ad(e_i)'s own
        view = FactorView(algebra, space, algebra.zero_space())
        zero = Subspace.zero_space(field, view.dim)
        scale = algebra.kernel_scale()
        for images in algebra.kernel_brackets(space.basis):
            rows = [list(view.coords(from_kernel(field, v, algebra.dim, scale))) for v in images]
            if _is_scalar(rows):
                continue
            branches = []
            for lam in _rational_roots(_char_poly(field, rows)):
                # the left eigenvectors: the combinations of the rows of
                # ad(x) - lam that vanish
                shifted = [
                    [field.sub(a, lam) if i == j else a for j, a in enumerate(row)]
                    for i, row in enumerate(rows)
                ]
                # each eigenvector up to scale: the integer coefficient rows
                eig = stabiliser(field, [[row] for row in shifted], zero).rows
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


def minimal_ideal(algebra: LieAlgebra) -> Subspace:
    """A minimal ideal, chosen deterministically.

    Requires a soluble nonzero algebra.  Over Q the search finds an
    invariant line and raises UnsupportedFieldError when none exists, which
    happens exactly when every minimal ideal has dimension above 1.
    """
    if algebra.dim == 0:
        raise ZeroAlgebraError("the zero algebra has no minimal ideal")
    if not algebra.is_soluble():
        raise NotSolubleError("minimal ideal search implemented for soluble algebras")
    if algebra.field.p is None:
        return _minimal_ideal_q(algebra)
    return _minimal_ideal_gfp(algebra)


def chief_series(algebra: LieAlgebra) -> ChiefSeries:
    """0 followed by the lifts of the chief series of L/A, for A = minimal_ideal(L).

    This is the series that lifts a minimal ideal of each quotient L/I_t in
    turn: for an ideal J containing A, (L/A)/(J/A) has the same table as
    L/J, both written in the standard vectors at the free columns, so each
    step picks the same minimal ideal.  L/A is interned, so its series is
    computed once for every algebra with that quotient.
    """

    def compute():
        if not algebra.is_soluble():
            raise NotSolubleError("chief series implemented for soluble algebras")
        zero = algebra.zero_space()
        if algebra.dim == 0:
            return ChiefSeries(algebra, [zero])
        quo, view = algebra.quotient(minimal_ideal(algebra))
        return ChiefSeries(algebra, [zero] + [view.lift_subspace(j) for j in chief_series(quo).ideals])

    return algebra.memo("chief_series", compute)


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
