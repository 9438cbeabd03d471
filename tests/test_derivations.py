"""Derivation algebras and both intravariance criteria."""

import pytest

from lieform import (
    Derivation,
    EnumerationBudget,
    Field,
    LieAlgebra,
    Matrix,
    NotADerivationError,
    Subspace,
    derivation_algebra,
    derivation_from_strings,
    derivation_matrix_strings,
    enumerate_soluble,
    enumerate_subalgebras,
    extension_defect,
    inner_derivations,
    is_intravariant_extension,
    is_intravariant_linear,
    normalizer_fills_extension,
    split_extension_by_derivation,
)
from lieform.linalg import linear_combination
from support import (
    abelian,
    algebra,
    brute_force_derivations,
    flatten,
    gf3_rotation,
    h3,
    identity_rows,
    r2,
    small_streams,
    stabilizing_derivations,
)

F2 = Field(2)
F3 = Field(3)


def test_derivation_dim_against_brute_force():
    for a, expected in ((r2("GF(2)"), 2), (abelian("GF(2)", 2), 4)):
        der = derivation_algebra(a)
        assert der.dim == expected
        assert len(brute_force_derivations(a)) == 2 ** der.dim


def test_h3_derivations_brute_force():
    a = h3("GF(2)")
    der = derivation_algebra(a)
    assert der.dim == 6
    assert len(brute_force_derivations(a)) == 2 ** 6
    assert inner_derivations(a).dim == 2


def test_r2_derivations_all_inner():
    a = r2()
    der = derivation_algebra(a)
    inner = inner_derivations(a)
    assert der.dim == 2
    assert inner.dim == 2
    assert der.subspace == inner
    assert all(inner.contains(flatten(d.matrix.rows)) for d in der.basis)


def test_inner_dim_is_codim_of_centre():
    for a in (r2(), h3(), abelian("GF(3)", 3), h3("GF(2)")):
        assert inner_derivations(a).dim == a.dim - a.centre().dim


def row_product(field, a, b):
    """The rows of A * B for row tuples A and B: row i of A acted on by B."""
    return [linear_combination(field, row, b, len(row)) for row in a]


def test_derivation_commutator_closure():
    # [d, e] = e*d - d*e in the right-action convention; the checked
    # constructor raises unless the commutator satisfies the Leibniz rule
    der = derivation_algebra(h3())
    field = der.parent.field
    for d in der.basis:
        for e in der.basis:
            a, b = d.matrix.rows, e.matrix.rows
            ba, ab = row_product(field, b, a), row_product(field, a, b)
            rows = [[field.sub(x, y) for x, y in zip(r, s)] for r, s in zip(ba, ab)]
            Derivation(der.parent, Matrix(field, rows), check=True)
            assert der.subspace.contains(flatten(rows))


def test_derivation_validation():
    a = r2()
    with pytest.raises(NotADerivationError):
        Derivation(a, Matrix(F3, identity_rows(2)))
    d = Derivation(a, Matrix(F3, [[0, 0], [0, 1]]))
    assert d((0, 1)) == (0, 1)
    assert inner_derivations(a).contains(flatten(d.matrix.rows))


def test_stabilizing_derivations():
    a = h3()
    der = derivation_algebra(a)
    # the centre is characteristic: every derivation maps it into itself
    centre = a.centre()
    assert stabilizing_derivations(der, centre) == der.subspace
    assert stabilizing_derivations(der, a.full_space()) == der.subspace
    e1 = Subspace.span(F3, 3, [(1, 0, 0)])
    stab = stabilizing_derivations(der, e1)
    assert stab.dim < der.dim
    for row in stab.basis:
        m = Matrix(F3, [row[0:3], row[3:6], row[6:9]], ncols=3)
        assert e1.contains(Derivation(a, m)((1, 0, 0)))


def test_abelian_line_not_intravariant():
    # inner = 0 and a derivation moves e1 off the line: both criteria fail
    a = abelian("GF(3)", 2)
    u = Subspace.span(F3, 2, [(1, 0)])
    assert not is_intravariant_linear(a, u)
    assert not is_intravariant_extension(a, u)
    defect = extension_defect(a, u)
    assert defect is not None
    assert not normalizer_fills_extension(a, u, defect)


def test_ideals_and_normalisers_intravariant_in_r2():
    a = r2()
    for rows in ([(0, 1)], [(1, 0)], [(1, 1)], [(1, 2)]):
        u = Subspace.span(F3, 2, rows)
        assert is_intravariant_linear(a, u)
        assert is_intravariant_extension(a, u)


def test_trivial_subalgebras_intravariant():
    for a in (r2(), h3(), abelian("GF(2)", 2)):
        assert is_intravariant_linear(a, a.full_space())
        assert is_intravariant_extension(a, a.full_space())
        zero = Subspace.zero_space(a.field, a.dim)
        assert is_intravariant_linear(a, zero)
        assert is_intravariant_extension(a, zero)


def test_criteria_agree_on_all_subalgebras_of_fixtures():
    for a in (r2("GF(2)"), h3("GF(2)"), abelian("GF(2)", 3)):
        for u in enumerate_subalgebras(a):
            assert is_intravariant_linear(a, u) == is_intravariant_extension(a, u)


def _fills_extension_by_construction(a, u, d):
    # D = L + Fx with [x, y] = d(y), built as an algebra; U and L embed with
    # a zero last coordinate
    big = split_extension_by_derivation(a, d.matrix)
    zero = a.field.zero()
    embedded = big.span(tuple(v) + (zero,) for v in u.basis)
    ambient = big.span(tuple(v) + (zero,) for v in a.full_space().basis)
    return (big.centralizer_of_factor(embedded, embedded) + ambient).dim == a.dim + 1


def test_extension_criterion_matches_explicit_extension():
    for a in (r2("GF(2)"), h3("GF(2)"), abelian("GF(2)", 3), gf3_rotation()):
        der = derivation_algebra(a)
        for u in enumerate_subalgebras(a):
            for d in der.basis:
                expected = _fills_extension_by_construction(a, u, d)
                assert normalizer_fills_extension(a, u, d) == expected


def test_extension_defect_is_first_failing_basis_derivation():
    # the one span per (L, U) must name the same derivation as checking each
    # basis derivation against its explicitly built extension, in basis order
    algebras = [r2("GF(2)"), h3("GF(2)"), abelian("GF(2)", 3), gf3_rotation()]
    for field in (F2, F3):
        algebras += enumerate_soluble(EnumerationBudget(max_dim=3, field=field))
    failing = 0
    for a in algebras:
        basis = derivation_algebra(a).basis
        for u in enumerate_subalgebras(a):
            expected = next(
                (d for d in basis if not _fills_extension_by_construction(a, u, d)), None
            )
            assert extension_defect(a, u) == expected
            failing += expected is not None
    assert failing > 0


def test_extension_defect_interns_nothing():
    # an algebra no other test extends, so no extension of it is interned yet
    a = algebra("GF(5)", 3, {(1, 2): (0, 1, 0), (1, 3): (0, 0, 2)})
    derivation_algebra(a)
    before = len(LieAlgebra._interned)
    for u in (a.derived_subalgebra(), a.span([(1, 0, 0)]), a.span([(0, 1, 0)]), a.full_space()):
        extension_defect(a, u)
    assert len(LieAlgebra._interned) == before


def test_matrix_strings_roundtrip():
    a = h3()
    der = derivation_algebra(a)
    for d in der.basis:
        rows = derivation_matrix_strings(d)
        back = derivation_from_strings(a, rows)
        assert back.matrix == d.matrix
    # the JSON form is the transpose: entry [i][j] is the e_i part of d(e_j)
    d = Derivation(r2(), Matrix(F3, [[0, 0], [0, 1]]))
    assert derivation_matrix_strings(d) == [["0", "0"], ["0", "1"]]
    d2 = Derivation(r2(), Matrix(F3, [[0, 0], [1, 0]]), check=False)
    assert derivation_matrix_strings(d2) == [["0", "1"], ["0", "0"]]


def test_linear_criterion_matches_flattened_identity():
    # Der-basis coordinates against inner + stabilising = Der(L) in F^(n^2)
    for a in small_streams():
        der = derivation_algebra(a)
        inner = inner_derivations(a)
        for u in enumerate_subalgebras(a):
            expected = (inner + stabilizing_derivations(der, u)).dim == der.dim
            assert is_intravariant_linear(a, u) == expected
