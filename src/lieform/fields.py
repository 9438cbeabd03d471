"""Exact scalar arithmetic over Q and GF(p).

Scalars are raw payloads and a Field instance supplies the operations.
Over GF(p) a payload is a plain ``int`` in {0, ..., p-1}.  Over Q it is an
``int`` when its value is integral and a ``fractions.Fraction`` otherwise:
never ``Fraction(k, 1)`` and never a float.  canonical_q is the one place
that contract is restored after raw arithmetic on Fractions; linalg keeps
its long-lived rows over Q as integers, so its sums of them are ints and
need no restoring, and it builds payloads only where a value leaves it
(dividing an integer row by its scale).  Python compares and hashes
an int and the Fraction of the same value alike, so tuples of payloads key
dicts and sort the same either way, and format prints both the same.

Keeping payloads unwrapped, and integral rationals as ints, matters: the
verification sweeps and the analysis over Q spend nearly all their time in
row reduction inner loops, where int arithmetic is many times cheaper than
Fraction arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FieldMismatchError, ParseError, ZeroDenominatorError

_SCALAR_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")
_FIELD_RE = re.compile(r"GF\(([0-9]+)\)\Z")

# Largest field order accepted.  Primality is decided by trial division,
# about 3 ms at this bound; the time grows with the square root of the order.
MAX_ORDER = 2**31 - 1

# Longest text an error message quotes whole.  A longer value is quoted as
# a prefix of this length plus its length, so the message stays one short line.
QUOTE_LIMIT = 40


def quote(value) -> str:
    """repr(value) for an error message, cut after QUOTE_LIMIT characters.

    A longer string gives the repr of its prefix and its length; any other
    value whose repr is longer gives that repr's prefix and its length.
    """
    if isinstance(value, str):
        if len(value) > QUOTE_LIMIT:
            return "%r... (%d characters)" % (value[:QUOTE_LIMIT], len(value))
        return repr(value)
    text = repr(value)
    if len(text) > QUOTE_LIMIT:
        return "%s... (%d characters)" % (text[:QUOTE_LIMIT], len(text))
    return text


def canonical_q(x):
    """The Q payload of the rational x: its int value when integral, else x."""
    return x.numerator if x.denominator == 1 else x


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """The rationals (p is None) or a prime field GF(p)."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if isinstance(p, int) and p > MAX_ORDER:
                raise ParseError("field order is above the limit of %d" % MAX_ORDER)
            if not isinstance(p, int) or not _is_prime(p):
                raise ParseError("field order must be prime, got %r" % (p,))
        self.p = p

    @staticmethod
    def from_string(text: str) -> "Field":
        text = text.strip()
        if text == "Q":
            return _Q
        m = _FIELD_RE.match(text)
        if m is None:
            raise ParseError("unrecognised field %s" % quote(text))
        try:
            order = int(m.group(1))
        except ValueError:
            raise ParseError("field order of %d digits is too long" % len(m.group(1))) from None
        return Field(order)

    def __str__(self) -> str:
        return "Q" if self.p is None else "GF(%d)" % self.p

    def __repr__(self) -> str:
        return "Field(%s)" % self

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    # Element constructors

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n if self.p is None else n % self.p

    # Arithmetic.  Payloads are canonical, so results are put back in
    # canonical form on the way out: through canonical_q over Q, reduced
    # mod p over GF(p).

    def add(self, a, b):
        return canonical_q(a + b) if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return canonical_q(a - b) if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return canonical_q(a * b) if self.p is None else (a * b) % self.p

    def neg(self, a):
        return canonical_q(-a) if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return canonical_q(1 / Fraction(a))
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # Text form.  Integers print bare, non-integers as num/den; over GF(p)
    # a/b is shorthand for a * b^-1.

    def parse(self, text: str):
        if not isinstance(text, str) or _SCALAR_RE.match(text) is None:
            raise ParseError("bad scalar literal %s" % quote(text))
        try:
            num, den = map(int, text.split("/")) if "/" in text else (int(text), 1)
        except ValueError:
            raise ParseError("scalar literal of %d characters is too long" % len(text)) from None
        if self.p is None:
            return canonical_q(Fraction(num, den))
        if den % self.p == 0:
            raise ZeroDenominatorError(
                "scalar literal %s has a denominator divisible by %d" % (quote(text), self.p)
            )
        return self.div(num % self.p, den % self.p)

    def format(self, a) -> str:
        # str prints an int bare and a Fraction as num/den
        return str(a) if self.p is None else str(a % self.p)

    def check_same(self, other: "Field") -> None:
        if self != other:
            raise FieldMismatchError("%s vs %s" % (self, other))


_Q = Field(None)
