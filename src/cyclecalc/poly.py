"""Sparse exact multivariate polynomials.

A polynomial is a map from exponent vectors (one int per ring variable) to
nonzero field elements.  Zero coefficients are never stored, so equality is
structural; all values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import EngineError, RingMismatch
from .fields import QQ, field_of_characteristic

Exponent = tuple  # tuple[int, ...], one entry per ring variable


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
        c = self.field.coerce(c)
        if c == self.field.zero:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name_or_index) -> "Poly":
        i = name_or_index if isinstance(name_or_index, int) else self.index(name_or_index)
        exp = [0] * self.nvars
        exp[i] = 1
        return Poly(self, {tuple(exp): self.field.one})

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
        if self.ring != other.ring:
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
        out: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            c2 = fld.mul(c, fld.coerce(k))
            if c2 == fld.zero:
                continue
            e2 = list(e)
            e2[i] = k - 1
            e2 = tuple(e2)
            out[e2] = fld.add(out.get(e2, fld.zero), c2)
            if out[e2] == fld.zero:
                del out[e2]
        return Poly(self.ring, out)

    def substitute(self, images: Mapping[int, "Poly"], target: Ring | None = None) -> "Poly":
        """Evaluate with variable i replaced by images[i].

        Variables absent from `images` must exist (same name) in the target
        ring.  All images must live in the target ring.
        """
        if target is None:
            some = next(iter(images.values()), None)
            target = some.ring if some is not None else self.ring
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

    def inject(self, target: Ring, index_map: Mapping[int, int] | None = None) -> "Poly":
        """Reinterpret in a larger ring (variable renaming by index map).

        `index_map` sends each variable index of self.ring to an index of
        `target`; defaults to matching by name.
        """
        if target.field != self.ring.field:
            raise RingMismatch("injection across different fields")
        if index_map is None:
            index_map = {i: target.index(v) for i, v in enumerate(self.ring.vars)}
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

    # -- univariate views ---------------------------------------------------

    def coeffs_in(self, var_index: int) -> dict:
        """View as a polynomial in one variable: degree -> coefficient Poly."""
        out: dict[int, Poly] = {}
        for e, c in self.terms.items():
            k = e[var_index]
            e2 = list(e)
            e2[var_index] = 0
            rest = Poly(self.ring, {tuple(e2): c})
            out[k] = out.get(k, self.ring.zero()) + rest
        return {k: v for k, v in out.items() if not v.is_zero()}

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
