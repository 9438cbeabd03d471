"""Field arithmetic and the scalar grammar."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lieform import Field, FieldMismatchError, ParseError
from support import is_q_payload

Q = Field.from_string("Q")
F5 = Field(5)


def test_from_string():
    assert Field.from_string("Q") == Q
    assert Field.from_string("GF(7)") == Field(7)
    assert str(Field(2)) == "GF(2)"
    assert str(Q) == "Q"


@pytest.mark.parametrize("bad", ["GF(4)", "GF(1)", "GF(0)", "Z", "R", "gf(3)", "GF(-3)"])
def test_from_string_rejects(bad):
    with pytest.raises(ParseError):
        Field.from_string(bad)


def test_gf_requires_prime():
    with pytest.raises(ParseError):
        Field(6)


def test_parse_grammar():
    assert Q.parse("-3/4") == Fraction(-3, 4)
    assert Q.parse("0") == 0
    for bad in ["1/0", "1/-2", "--1", "1.5", "", " 1", "a"]:
        with pytest.raises(ParseError):
            Q.parse(bad)


def test_parse_mod_p():
    # 1/2 = 2^-1 = 3 in GF(5) since 2*3 = 6 = 1
    assert F5.parse("1/2") == 3
    assert F5.parse("7") == 2
    assert F5.parse("-1") == 4
    with pytest.raises(ZeroDivisionError):
        F5.parse("1/5")


def test_format_roundtrip_exact():
    assert Q.format(Fraction(-3, 4)) == "-3/4"
    assert Q.format(Fraction(2)) == "2"
    assert F5.format(4) == "4"


@given(st.fractions())
def test_q_roundtrip(x):
    assert Q.parse(Q.format(x)) == x


@given(st.integers(min_value=0, max_value=4))
def test_gf5_roundtrip(x):
    assert F5.parse(F5.format(x)) == x


@given(st.fractions(), st.fractions(), st.fractions())
def test_q_ring_axioms(a, b, c):
    assert Q.add(a, b) == Q.add(b, a)
    assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))
    assert Q.add(a, Q.neg(a)) == Q.zero()


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_gf5_field_axioms(a, b):
    assert F5.add(a, b) == F5.add(b, a)
    assert F5.sub(F5.add(a, b), b) == a
    if b:
        assert F5.mul(F5.div(a, b), b) == a


def test_inverse():
    assert F5.inv(2) == 3
    assert Q.inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    with pytest.raises(ZeroDivisionError):
        Q.inv(Fraction(0))


def test_check_same():
    with pytest.raises(FieldMismatchError):
        Q.check_same(F5)


def test_q_payloads_are_canonical():
    # random rationals with denominators 1-9: every operation returns an
    # int exactly when the value is integral, and the int prints, compares
    # and hashes like the Fraction of the same value
    rng = random.Random(8)
    texts = ["%d/%d" % (rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(120)]
    values = [Q.parse(t) for t in texts]
    assert [Fraction(t) for t in texts] == values
    results = [Q.zero(), Q.one()] + [Q.from_int(n) for n in range(-3, 4)]
    for a, b in zip(values, values[1:] + values[:1]):
        results += [Q.add(a, b), Q.sub(a, b), Q.mul(a, b), Q.neg(a)]
        if b:
            results += [Q.inv(b), Q.div(a, b)]
    assert all(is_q_payload(x) for x in values + results)
    for x in values + results:
        same = Fraction(x)
        assert x == same and hash(x) == hash(same) and str(x) == str(same)
        assert Q.format(x) == Q.format(same)
    assert sorted(values) == sorted(map(Fraction, values))
