"""Sparse exact multivariate polynomials.

A polynomial is a map from exponent vectors (one int per ring variable) to
nonzero field elements.  Zero coefficients are never stored, so equality is
structural; all values are immutable after construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import attrgetter

from .errors import EngineError, RingMismatch
from .fields import QQ, field_of_characteristic

Exponent = tuple  # tuple[int, ...], one entry per ring variable


class Frozen:
    """An immutable value named by the class's `_fields`: `__init__` sets them
    once, in that order, and equality, hash and repr read them back."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the fields are read in C because Blocks are hashed on the hot path;
        # a class with one field is keyed by its bare value, not a 1-tuple
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Ring:
    """A polynomial ring: an ordered variable list over QQ or F_p."""

    __slots__ = ("vars", "field", "_var_index", "_hash")

    def __init__(self, variables: Iterable[str], field=QQ):
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise EngineError(f"duplicate variable names: {self.vars}")
        self.field = field
        self._var_index = {v: i for i, v in enumerate(self.vars)}
        self._hash = hash((self.vars, self.field))

    @property
    def nvars(self) -> int:
        return len(self.vars)

    @property
    def characteristic(self) -> int:
        return self.field.characteristic

    def index(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise EngineError(f"unknown variable {name!r} in {self}") from None

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        return self.monomial((0,) * self.nvars, c)

    def var(self, name_or_index) -> "Poly":
        i = name_or_index if isinstance(name_or_index, int) else self.index(name_or_index)
        exp = [0] * self.nvars
        exp[i] = 1
        return self.monomial(exp)

    def gens(self) -> list:
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exp: Exponent, coeff=1) -> "Poly":
        c = self.field.coerce(coeff)
        if c == self.field.zero:
            return Poly(self, {})
        return Poly(self, {tuple(exp): c})

    def extend(self, extra_vars: Iterable[str]) -> "Ring":
        return Ring(self.vars + tuple(extra_vars), self.field)

    def drop(self, names: Iterable[str]) -> "Ring":
        dropped = set(names)
        return Ring([v for v in self.vars if v not in dropped], self.field)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Ring)
            and self.vars == other.vars
            and self.field == other.field
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.field}[{', '.join(self.vars)}]"


def ring_over(char: int, variables: Iterable[str]) -> Ring:
    return Ring(variables, field_of_characteristic(char))


class Poly:
    """Immutable sparse polynomial over a Ring."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: Mapping[Exponent, object]):
        self.ring = ring
        self.terms = dict(terms)
        self._hash = None

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        """The value of a constant polynomial (error otherwise)."""
        if self.is_zero():
            return self.ring.field.zero
        if not self.is_constant():
            raise EngineError(f"not a constant: {self}")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var_index: int) -> int:
        if not self.terms:
            return -1
        return max(e[var_index] for e in self.terms)

    def variables_used(self) -> set:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        self._check(other)
        fld = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = fld.add(out.get(e, fld.zero), c)
            if s == fld.zero:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        fld = self.ring.field
        return Poly(self.ring, {e: fld.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        self._check(other)
        fld = self.ring.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = fld.add(out.get(e, fld.zero), fld.mul(c1, c2))
                if s == fld.zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise EngineError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Poly":
        c = self.ring.field.coerce(c)
        fld = self.ring.field
        if c == fld.zero:
            return self.ring.zero()
        return Poly(self.ring, {e: fld.mul(v, c) for e, v in self.terms.items()})

    # -- calculus and substitution ----------------------------------------

    def derivative(self, var) -> "Poly":
        i = var if isinstance(var, int) else self.ring.index(var)
        fld = self.ring.field
        # e -> e - x_i is one to one on the terms with e_i > 0, so no two
        # merge; the others, and those where p divides e_i, go to zero
        out: dict = {}
        for e, c in self.terms.items():
            c = fld.mul(c, fld.coerce(e[i]))
            if c != fld.zero:
                out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c
        return Poly(self.ring, out)

    def substitute(self, images: Mapping[int, "Poly"], target: Ring) -> "Poly":
        """Evaluate with variable i replaced by images[i].

        Variables absent from `images` must exist (same name) in the target
        ring.  All images must live in the target ring.
        """
        if self.ring.field != target.field:
            raise RingMismatch("substitution across different fields")
        # identity images for untouched variables
        cache: dict[int, Poly] = {}

        def image_of(i: int) -> Poly:
            if i not in cache:
                if i in images:
                    img = images[i]
                    if img.ring != target:
                        raise RingMismatch("substitution image in wrong ring")
                    cache[i] = img
                else:
                    cache[i] = target.var(self.ring.vars[i])
            return cache[i]

        result = target.zero()
        for e, c in self.terms.items():
            term = target.const(c)
            for i, k in enumerate(e):
                if k:
                    term = term * image_of(i) ** k
            result = result + term
        return result

    def inject(self, target: Ring, index_map: Mapping[int, int]) -> "Poly":
        """Reinterpret in a larger ring (variable renaming by index map).

        `index_map` sends each variable index of self.ring to an index of
        `target`.
        """
        if target.field != self.ring.field:
            raise RingMismatch("injection across different fields")
        n = target.nvars
        out: dict = {}
        for e, c in self.terms.items():
            e2 = [0] * n
            for i, k in enumerate(e):
                if k:
                    e2[index_map[i]] += k
            out[tuple(e2)] = c
        return Poly(target, out)

    def eval_point(self, point: Mapping[int, object]):
        """Evaluate at a rational point given as {var index: field element}."""
        fld = self.ring.field
        total = fld.zero
        for e, c in self.terms.items():
            val = c
            for i, k in enumerate(e):
                if k:
                    val = fld.mul(val, pow_scalar(fld, fld.coerce(point.get(i, 0)), k))
            total = fld.add(total, val)
        return total

    # -- hashing / display -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self == self.ring.const(other)
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (-sum(t), t), reverse=False):
            c = self.terms[e]
            mono = "*".join(
                f"{self.ring.vars[i]}^{k}" if k > 1 else self.ring.vars[i]
                for i, k in enumerate(e)
                if k
            )
            if not mono:
                bits.append(str(c))
            elif c == self.ring.field.one:
                bits.append(mono)
            elif c == self.ring.field.coerce(-1):
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        s = " + ".join(bits).replace("+ -", "- ")
        return s

    def __repr__(self):
        return f"Poly({self})"


def pow_scalar(fld, a, n: int):
    out = fld.one
    while n:
        if n & 1:
            out = fld.mul(out, a)
        a = fld.mul(a, a)
        n >>= 1
    return out
