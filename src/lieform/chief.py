"""Chief series, minimal ideals, factor modules and split extensions.

A chief series is a maximal chain of ideals 0 = I_0 < ... < I_k = L; each
factor I_{t+1}/I_t is a minimal ideal of L/I_t, equivalently an irreducible
L-module.  Over GF(p) a minimal ideal is found by closing every nonzero
vector of the last derived term into an ideal and keeping the smallest.
Over Q the search refines the part of that term killed by [L, L] into
simultaneous rational eigenspaces of the commuting induced operators; when
no rational invariant line exists the computation is refused rather than
approximated.

A chief factor is an algebra.FactorView, the one subquotient coordinate
map, so its module action and F-centrality are read off the factor itself.
Module action convention matches the bracket: x acts on v as v * R_x, so
the representation identity reads R_[x,y] = R_y R_x - R_x R_y.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from typing import Sequence

from .algebra import FactorView, LieAlgebra, leibniz_defect
from .errors import (
    DimensionMismatchError,
    InvalidModuleError,
    NotADerivationError,
    NotNestedError,
    NotSolubleError,
    UnsupportedFieldError,
    ZeroAlgebraError,
)
from .fields import Field
from .linalg import EchelonAccumulator, Matrix, Subspace, check_budget, close, linear_combination


class LModule:
    """Finite-dimensional module over a Lie algebra, one action matrix per
    basis element of the acting algebra."""

    __slots__ = ("algebra", "dim", "actions")

    def __init__(self, algebra: LieAlgebra, actions: Sequence[Matrix], dim: int | None = None):
        actions = tuple(actions)
        if len(actions) != algebra.dim:
            raise InvalidModuleError("need one action matrix per basis element")
        if actions:
            dim = actions[0].nrows
        elif dim is None:
            raise InvalidModuleError("zero-dimensional acting algebra needs explicit module dim")
        for m in actions:
            algebra.field.check_same(m.field)
            if m.nrows != dim or m.ncols != dim:
                raise DimensionMismatchError("action matrices must be %d x %d" % (dim, dim))
        self.algebra = algebra
        self.dim = dim
        self.actions = actions

    def action_of(self, x: Sequence) -> Matrix:
        out = Matrix.zero(self.algebra.field, self.dim, self.dim)
        for c, m in zip(x, self.actions):
            if c:
                out = out + m.scale(c)
        return out

    def validate(self) -> None:
        """Representation identity on basis pairs; raises InvalidModuleError."""
        alg = self.algebra
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                lhs = self.action_of(alg.table[i][j])
                ri, rj = self.actions[i], self.actions[j]
                if lhs != rj * ri - ri * rj:
                    raise InvalidModuleError(
                        "action violates the bracket on basis pair (%d, %d)" % (i + 1, j + 1)
                    )

    def submodule_closure(self, vectors) -> Subspace:
        acc = EchelonAccumulator(self.algebra.field, self.dim, vectors)
        return close(acc, lambda v: [m.act(v) for m in self.actions])


def is_irreducible(module: LModule) -> bool:
    """No proper nonzero submodule.

    Decided by spinning every nonzero vector over GF(p); over Q only the
    one-dimensional case is decidable here.
    """
    if module.dim == 0:
        return False
    if module.dim == 1:
        return True
    field = module.algebra.field
    if field.p is None:
        raise UnsupportedFieldError("irreducibility over Q is only decided in dimension 1")
    p = field.p
    check_budget(p**module.dim, "irreducibility test over %s in dimension %d" % (field, module.dim))
    for coords in product(range(p), repeat=module.dim):
        if not any(coords):
            continue
        if module.submodule_closure([coords]).dim < module.dim:
            return False
    return True


class ChiefFactor(FactorView):
    """One factor top/bottom of a chief series, with its cached F-centrality verdicts."""

    __slots__ = ("_central",)

    def __init__(self, algebra: LieAlgebra, top: Subspace, bottom: Subspace):
        if not bottom < top:
            raise NotNestedError("chief factor requires bottom < top")
        super().__init__(algebra, top, bottom)
        self._central = {}

    def module(self) -> LModule:
        """The factor as a module over the full algebra."""
        actions = [self.action_matrix(x) for x in self.algebra.basis_vectors()]
        return LModule(self.algebra, actions, dim=self.dim)

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


def _last_derived_term(algebra: LieAlgebra) -> Subspace:
    series = algebra.derived_series()
    for term in reversed(series):
        if not term.is_zero():
            return term
    return series[0]


def _minimal_ideal_gfp(algebra: LieAlgebra, last: bool = False) -> Subspace:
    # The smallest-dimension ideal closure of a vector of the last nonzero
    # derived term is a minimal ideal; ties are broken by canonical basis.
    # With last=True the basis tie-break flips, giving an alternate choice
    # for series cross-validation.
    w = _last_derived_term(algebra)
    field = algebra.field
    check_budget(field.p**w.dim, "minimal ideal search over %s in dimension %d" % (field, w.dim))
    closures = {}
    for coeffs in product(range(field.p), repeat=w.dim):
        if not any(coeffs):
            continue
        vec = linear_combination(field, coeffs, w.basis, algebra.dim)
        ideal = close(EchelonAccumulator(field, algebra.dim, [vec]), lambda v: algebra.ad(v).rows)
        closures[(ideal.dim, ideal.basis)] = ideal
    least_dim = min(key[0] for key in closures)
    candidates = sorted(key for key in closures if key[0] == least_dim)
    return closures[candidates[-1] if last else candidates[0]]


def _char_poly(rows: list) -> list:
    """Monic characteristic polynomial coefficients [1, c1, ..., ck]."""
    k = len(rows)
    coeffs = [Fraction(1)]
    m = [row[:] for row in rows]
    for step in range(1, k + 1):
        tr = sum(m[i][i] for i in range(k))
        c = -tr / step
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
    """All rational roots of a monic polynomial with Fraction coefficients."""
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    # trailing zero coefficients mean 0 is a root; deflate them away
    roots = set()
    while len(ints) > 1 and ints[-1] == 0:
        roots.add(Fraction(0))
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
                        roots.add(cand)
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
    queue = [w1]
    while queue:
        space = queue.pop(0)
        split = False
        # ad(e_i) on the invariant subspace, in its canonical basis
        view = FactorView(algebra, space, algebra.zero_space())
        identity = Matrix.identity(algebra.field, view.dim)
        for x in algebra.basis_vectors():
            action = view.action_matrix(x)
            rows = [list(r) for r in action.rows]
            if _is_scalar(rows):
                continue
            branches = []
            for lam in _rational_roots(_char_poly(rows)):
                eig = (action - identity.scale(lam)).left_kernel()
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


def _padded_brackets(algebra: LieAlgebra, pad: int) -> list:
    """The algebra's nonzero brackets, each followed by pad zero coordinates."""
    zeros = (algebra.field.zero(),) * pad
    n, table = algebra.dim, algebra.table
    pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    return [((i, j), table[i][j] + zeros) for i, j in pairs if any(table[i][j])]


class SplitExtension:
    """Split extension of a module by its acting algebra.

    Coordinates: acting algebra first, module second.  The module sits
    inside the extension as an abelian ideal.
    """

    __slots__ = ("module", "algebra", "acting_dim", "module_dim")

    def __init__(self, module: LModule):
        module.validate()
        acting = module.algebra
        a, m = acting.dim, module.dim
        field = acting.field
        brackets = _padded_brackets(acting, m)
        zero_a = tuple([field.zero()] * a)
        for i in range(a):
            rows = module.actions[i].rows
            for u in range(m):
                vec = rows[u]
                if any(vec):
                    brackets.append(((i, a + u), zero_a + tuple(vec)))
        self.module = module
        self.acting_dim = a
        self.module_dim = m
        self.algebra = LieAlgebra(field, a + m, brackets)


def split_extension_by_derivation(algebra: LieAlgebra, derivation) -> LieAlgebra:
    """Adjoin one outer generator x acting as the given derivation.

    The original algebra keeps coordinates 0..n-1; x is the last basis
    vector, with [x, y] = d(y).  Requires the Leibniz identity.
    """
    rows = derivation.rows if isinstance(derivation, Matrix) else tuple(tuple(r) for r in derivation)
    n = algebra.dim
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatchError("derivation matrix must be %d x %d" % (n, n))
    defect = leibniz_defect(algebra, rows)
    if defect is not None:
        raise NotADerivationError("Leibniz identity fails on pair (%d, %d)" % defect)
    field = algebra.field
    brackets = _padded_brackets(algebra, 1)
    for i in range(n):
        img = rows[i]
        if any(img):
            # [e_i, x] = -d(e_i)
            brackets.append(((i, n), tuple(field.neg(c) for c in img) + (field.zero(),)))
    return LieAlgebra(field, n + 1, brackets)
