"""Generation of soluble algebras and exhaustive subalgebra/ideal listings.

Every soluble algebra of dimension k+1 over F has a codimension-1 ideal
(any hyperplane containing [L, L]), so it is a one-dimensional split
extension of a soluble algebra of dimension k by a derivation.  Growing
dimension by dimension from the 1-dimensional algebra and extending by
every derivation therefore reaches every isomorphism type, with repetition
and without isomorphism deduplication.  When a step would exceed the
per-parent cap, a seeded sample of the derivation space keeps runs
reproducible.
"""

from __future__ import annotations

import random
from typing import Iterator

from .algebra import MAX_DIM, LieAlgebra
from .chief import split_extension_by_derivation
from .derivations import derivation_algebra
from .errors import BudgetExceededError, ParseError, UnsupportedFieldError
from .fields import Field
from .linalg import check_budget, enumerate_subspaces, from_kernel, gaussian_binomial, kernel_sum


# The most algebras one stream may hold.  The largest stream swept in full,
# GF(2) to dimension 5 uncapped, holds 198,071 at about 3.7 ms of CPU each;
# this is the power of two above it, about 16 minutes of CPU.
STREAM_BUDGET = 2**18


class EnumerationBudget:
    """Bounds for the algebra stream: dimension, field, sampling."""

    __slots__ = ("max_dim", "field", "per_step_cap", "seed")

    def __init__(
        self,
        max_dim: int,
        field: Field,
        per_step_cap: int | None = None,
        seed: int = 0,
    ):
        if not isinstance(max_dim, int) or max_dim < 1:
            raise ParseError("max_dim must be a positive integer")
        if field.p is None:
            raise UnsupportedFieldError("the algebra stream needs a prime field")
        if per_step_cap is not None and (not isinstance(per_step_cap, int) or per_step_cap < 1):
            raise ParseError("per_step_cap must be a positive integer")
        self.max_dim = max_dim
        self.field = field
        self.per_step_cap = per_step_cap
        self.seed = seed


def _mix(seed: int, p: int, level: int, parent_index: int) -> int:
    # plain integer mixing; never the builtin hash, whose string behaviour
    # varies between runs
    h = seed & 0xFFFFFFFFFFFFFFFF
    for part in (p, level, parent_index):
        h = (h * 1000003 + part + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF
    return h


def _derivation_from_index(der, index: int, p: int) -> list:
    """The rows of the derivation whose base-p digits of index are its Der-basis coordinates."""
    coeffs = []
    for _ in range(der.dim):
        coeffs.append(index % p)
        index //= p
    field, n = der.parent.field, der.parent.dim
    matrices = [d.matrix.kernel_rows() for d in der.basis]
    return [
        from_kernel(field, kernel_sum(field, coeffs, [rows[r] for rows in matrices], n), n)
        for r in range(n)
    ]


def enumerate_soluble(budget: EnumerationBudget, index: int = 0, stride: int = 1) -> Iterator[LieAlgebra]:
    """Stream soluble algebras per the budget, dimension by dimension.

    Only the stream positions congruent to index mod stride are yielded.
    Every lower level is built whole, as the parents of the next, but an
    algebra of dimension max_dim at another position is never built, so
    forked workers that each take one residue class share out the top
    level.  Only the current level is held; the algebras of dimension
    max_dim are yielded and not kept, so a caller may release each of them
    once it is done with it.

    Before a level is built, its size (the sum over its parents of
    min(p^dim Der, cap)) is known; if the stream through it, plus the least
    the levels above it can hold (min(p^2, cap) times the level below
    each, as dim Der >= 2 from dimension 2 on), exceeds STREAM_BUDGET
    algebras, the walk raises BudgetExceededError.
    """
    field = budget.field
    p = field.p
    cap = budget.per_step_cap
    # every algebra of dimension n >= 2 has at least this many children,
    # as dim Der >= 2: an abelian one has dim Der = n^2 >= 4, and otherwise
    # Inn(L), isomorphic to L/Z(L), has dimension at least 2, since
    # L = Fx + Z(L) for one x would make L abelian.  The levels counted
    # with it below all lie in dimension 3 and up.
    least = p**2 if cap is None else min(p**2, cap)
    level = [LieAlgebra.abelian(field, 1)]
    position = 0
    size = 1
    if index == 0:
        yield level[0]
    for k in range(1, budget.max_dim):
        top = k + 1 == budget.max_dim
        plan = []
        for parent_index, parent in enumerate(level):
            der = derivation_algebra(parent)
            total = p**der.dim
            if cap is not None and total > cap:
                rng = random.Random(_mix(budget.seed, p, k, parent_index))
                plan.append((parent, der, sorted(rng.sample(range(total), cap))))
            else:
                plan.append((parent, der, range(total)))
        count = sum(len(indices) for _, _, indices in plan)
        size += count
        # the levels above this one hold at least least^j times as many
        check_budget(
            size + sum(count * least**j for j in range(1, budget.max_dim - k)),
            "sweeping %s to dimension %d" % (field, budget.max_dim),
            STREAM_BUDGET,
            least=True,
        )
        next_level = []
        for parent, der, indices in plan:
            for derivation_index in indices:
                position += 1
                wanted = position % stride == index
                if top and not wanted:
                    continue
                d = _derivation_from_index(der, derivation_index, p)
                child = split_extension_by_derivation(parent, d)
                if not top:
                    next_level.append(child)
                if wanted:
                    yield child
        level = next_level


def check_stream(budget: EnumerationBudget) -> None:
    """Raise BudgetExceededError unless enumerate_soluble(budget) stays within STREAM_BUDGET.

    It walks the stream as enumerate_soluble does, building and interning
    the levels below max_dim, which a sweep needs anyway, but no algebra of
    the top level; index -1 matches no position.  A max_dim above MAX_DIM
    is refused before anything is built.
    """
    if budget.max_dim > MAX_DIM:
        raise BudgetExceededError(
            "sweeping %s to dimension %d is over the budget: dimension above the limit of %d"
            % (budget.field, budget.max_dim, MAX_DIM)
        )
    for _ in enumerate_soluble(budget, index=-1):
        pass


def check_enumerable(field: Field, n: int) -> None:
    """Raise unless the subspaces of field^n can be listed within the work budget."""
    if field.p is None:
        raise UnsupportedFieldError("exhaustive enumeration needs a finite field")
    what = "enumerating the subspaces of %s^%d" % (field, n)
    if n > MAX_DIM:
        # far over the budget: refused before a count that could take
        # unbounded time to add up, or be too long to print
        raise BudgetExceededError(
            "%s is over the budget: dimension above the limit of %d" % (what, MAX_DIM)
        )
    subspaces = sum(gaussian_binomial(n, k, field.p) for k in range(n + 1))
    check_budget(subspaces, what)


def enumerate_subalgebras(algebra: LieAlgebra) -> list:
    """Every bracket-closed subspace, canonical and duplicate-free."""
    check_enumerable(algebra.field, algebra.dim)

    def compute():
        spaces = enumerate_subspaces(algebra.field, algebra.dim)
        return [s for s in spaces if algebra.is_subalgebra(s)]

    return list(algebra.memo("all_subalgebras", compute))


def enumerate_ideals(algebra: LieAlgebra) -> list:
    """Every bracket-invariant subspace, canonical and duplicate-free."""
    check_enumerable(algebra.field, algebra.dim)

    def compute():
        return [s for s in enumerate_subalgebras(algebra) if algebra.is_ideal(s)]

    return list(algebra.memo("all_ideals", compute))
