"""Exact coefficient fields: the rationals and prime fields F_p.

Every computation in the engine runs over exactly one of these.  A scalar
over F_p is a plain int in [0, p).  A scalar over QQ is a plain int when it
is integral and a `Fraction` with denominator > 1 otherwise, never a float:
RationalField enforces this on every value it returns, so the common
integral case never runs through `fractions.py`.  Since 2 == Fraction(2),
hash(2) == hash(Fraction(2)) and str(2) == str(Fraction(2)), the split
changes no comparison, cache key or printed form.  Both are perfect fields,
which is all the geometry downstream ever assumes.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EngineError

_MAX_PRIME = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RationalField:
    """The field QQ, characteristic 0.

    Elements are ints when integral, else Fractions with denominator > 1.
    Each operation returns that canonical form: a sum, difference or product
    that is a Fraction with denominator 1 becomes its numerator, and every
    quotient is taken as Fraction(a) / b, so int / int is never a float.
    Operands in either form are accepted, so a stray Fraction(2, 1) from
    outside the field is slower but never wrong.
    """

    characteristic = 0

    zero = 0
    one = 1

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):
            return int(x)
        raise EngineError(f"cannot coerce {x!r} into QQ")

    def add(self, a, b):
        r = a + b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def sub(self, a, b):
        r = a - b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def mul(self, a, b):
        r = a * b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def neg(self, a):
        r = -a
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in QQ")
        r = 1 / Fraction(a)
        return r if r.denominator != 1 else r.numerator

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        r = Fraction(a) / b
        return r if r.denominator != 1 else r.numerator

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """The field F_p for a prime p < 2^31, elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not (2 <= p < _MAX_PRIME) or not _is_prime(p):
            raise EngineError(f"not an admissible prime: {p}")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (x.numerator % self.p) * pow(den, -1, self.p) % self.p
        raise EngineError(f"cannot coerce {x!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

_prime_fields: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _prime_fields:
        _prime_fields[p] = PrimeField(p)
    return _prime_fields[p]


def field_of_characteristic(char: int):
    """The engine's field for a declared characteristic (0 or a prime)."""
    return QQ if char == 0 else GF(char)
