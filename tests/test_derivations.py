"""Derivation algebras and both intravariance criteria."""

import pytest

from lieform import (
    Derivation,
    Field,
    Matrix,
    NotADerivationError,
    Subspace,
    derivation_algebra,
    derivation_from_strings,
    derivation_matrix_strings,
    extension_defect,
    inner_derivations,
    is_intravariant_extension,
    is_intravariant_linear,
    normalizer_fills_extension,
    stabilizing_derivations,
)
from support import abelian, brute_force_derivations, h3, r2

F2 = Field.gf(2)
F3 = Field.gf(3)


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
    assert all(d.is_inner() for d in der.basis)


def test_inner_dim_is_codim_of_centre():
    for a in (r2(), h3(), abelian("GF(3)", 3), h3("GF(2)")):
        assert inner_derivations(a).dim == a.dim - a.centre().dim


def test_derivation_commutator_closure():
    # [d, e] = e*d - d*e in the right-action convention; the checked
    # constructor raises unless the commutator satisfies the Leibniz rule
    der = derivation_algebra(h3())
    for d in der.basis:
        for e in der.basis:
            a, b = d.matrix, e.matrix
            assert der.contains(Derivation(der.parent, b * a - a * b, check=True))


def test_derivation_validation():
    a = r2()
    with pytest.raises(NotADerivationError):
        Derivation(a, Matrix.identity(F3, 2))
    d = Derivation(a, Matrix(F3, [[0, 0], [0, 1]]))
    assert d((0, 1)) == (0, 1)
    assert d.is_inner()


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
        assert e1.contains(m.act((1, 0, 0)))


def test_abelian_line_not_intravariant():
    # inner = 0 and a derivation moves e1 off the line: both criteria fail
    a = abelian("GF(3)", 2)
    u = Subspace.span(F3, 2, [(1, 0)])
    assert not is_intravariant_linear(a, u)
    assert not is_intravariant_extension(a, u)
    defect = extension_defect(a, u)
    assert defect is not None
    assert not normalizer_fills_extension(a, u, defect.matrix)


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
    from lieform import enumerate_subalgebras

    for a in (r2("GF(2)"), h3("GF(2)"), abelian("GF(2)", 3)):
        for u in enumerate_subalgebras(a):
            assert is_intravariant_linear(a, u) == is_intravariant_extension(a, u)


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
