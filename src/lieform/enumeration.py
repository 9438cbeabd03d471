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
from .linalg import check_budget, enumerate_subspaces, gaussian_binomial, linear_combination


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
    return [
        linear_combination(field, coeffs, [d.matrix.rows[r] for d in der.basis], n)
        for r in range(n)
    ]


def enumerate_soluble(budget: EnumerationBudget) -> Iterator[LieAlgebra]:
    """Stream soluble algebras per the budget, dimension by dimension.

    Only the current level is held, as the parents of the next one; the
    algebras of dimension max_dim are yielded and not kept, so a caller
    may release each of them once it is done with it.
    """
    field = budget.field
    p = field.p
    level = [LieAlgebra.abelian(field, 1)]
    yield level[0]
    for k in range(1, budget.max_dim):
        next_level = []
        for parent_index, parent in enumerate(level):
            der = derivation_algebra(parent)
            total = p**der.dim
            if budget.per_step_cap is not None and total > budget.per_step_cap:
                rng = random.Random(_mix(budget.seed, p, k, parent_index))
                indices = sorted(rng.sample(range(total), budget.per_step_cap))
            else:
                indices = range(total)
            for index in indices:
                d = _derivation_from_index(der, index, p)
                child = split_extension_by_derivation(parent, d)
                if k + 1 < budget.max_dim:
                    next_level.append(child)
                yield child
        level = next_level


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


def minimal_ideals_exhaustive(algebra: LieAlgebra) -> list:
    """All minimal nonzero ideals, straight from the ideal listing."""
    nonzero = [s for s in enumerate_ideals(algebra) if not s.is_zero()]
    return [a for a in nonzero if not any(b.dim < a.dim and b <= a for b in nonzero)]
