"""Monomial orders: degrevlex, lex, and block orders for elimination.

An order is a key function on exponent tuples; larger key = larger monomial.
A key is a flat tuple of ints, the fields of MonomialOrder.fields() in turn.
Block orders compare one variable block at a time (degrevlex inside each
block, its key the blocks' degrevlex keys run together), which gives the
elimination property: any monomial touching an earlier block beats every
monomial that does not.

packing(order) encodes exponent tuples as single ints for that order, after
Bachmann & Schönemann ("Monomial representations for Gröbner bases
computations", ISSAC 1998): monomial product is int addition, divisibility
one subtraction and one mask, and comparison one xor.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from operator import add, le, mul, neg, sub

from .errors import EngineError

# Bits per field of a packed monomial: one guard bit above FIELD_BITS - 1
# value bits, so every field of a valid monomial is below 2^(FIELD_BITS - 1).
FIELD_BITS = 32


class MonomialOrder:
    """Total multiplicative monomial order with 1 minimal."""

    __slots__ = ("kind", "blocks", "_hash")

    def __init__(self, kind: str, blocks: Sequence[Sequence[int]]):
        self.kind = kind
        self.blocks = tuple(tuple(b) for b in blocks)
        self._hash = hash((kind, self.blocks))

    def key(self, exp):
        raise NotImplementedError

    def fields(self) -> list:
        """The fields of key(exp), most significant first, as (variables,
        reversed): the field is the sum of exp over those variables, negated
        in the key when reversed is true."""
        raise NotImplementedError

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if len(self.blocks) == 1:
            return self.kind
        return f"{self.kind}{list(map(list, self.blocks))}"


class _Degrevlex(MonomialOrder):
    def __init__(self, nvars: int):
        super().__init__("degrevlex", [tuple(range(nvars))])

    def key(self, exp):
        return (sum(exp), *map(neg, reversed(exp)))

    def fields(self):
        return _degrevlex_fields(self.blocks[0])


class _Lex(MonomialOrder):
    def __init__(self, nvars: int):
        super().__init__("lex", [tuple(range(nvars))])

    def key(self, exp):
        return tuple(exp)

    def fields(self):
        return [((i,), False) for i in self.blocks[0]]


class _Block(MonomialOrder):
    """Blockwise degrevlex; earlier blocks dominate."""

    def __init__(self, blocks: Sequence[Sequence[int]]):
        super().__init__("block", blocks)

    def key(self, exp):
        # each block's part has a fixed length, so the flat tuple compares as
        # the blocks' keys would one after another
        out = []
        for block in self.blocks:
            part = [exp[i] for i in block]
            out += (sum(part), *map(neg, reversed(part)))
        return tuple(out)

    def fields(self):
        return [f for block in self.blocks for f in _degrevlex_fields(block)]


def _degrevlex_fields(block) -> list:
    return [(tuple(block), False)] + [((i,), True) for i in reversed(block)]


@lru_cache(maxsize=64)
def degrevlex(nvars: int) -> MonomialOrder:
    """One shared order per `nvars`, so a Gröbner cache hit on the default
    order finds the key's own object and skips `MonomialOrder.__eq__`."""
    return _Degrevlex(nvars)


def lex(nvars: int) -> MonomialOrder:
    return _Lex(nvars)


def block_order(first: Sequence[int], second: Sequence[int]) -> MonomialOrder:
    """Elimination order: variables in `first` dominate those in `second`."""
    return _Block([tuple(first), tuple(second)])


def exp_divides(a, b) -> bool:
    """Does monomial a divide monomial b."""
    return all(map(le, a, b))


def exp_lcm(a, b):
    return tuple(map(max, a, b))


def exp_sub(a, b):
    return tuple(map(sub, a, b))


def exp_add(a, b):
    return tuple(map(add, a, b))


class Packing:
    """Exponent tuples of one order packed into ints.

    A packed monomial holds the order's key fields (MonomialOrder.fields),
    FIELD_BITS bits each, most significant first, and below them one more
    field with the total degree.  Each field stores its plain sum of
    exponents, so pack is linear: pack(a) + pack(b) == pack(exp_add(a, b)).
    The top bit of each field is a guard bit that no valid monomial sets, so
    for valid a and b:

    - a divides b iff (b - a) & guard == 0: a field where b is smaller sets
      its guard bit in the difference, or makes it negative;
    - a < b in the order iff a ^ cmask < b ^ cmask, where cmask flips the
      value bits of the fields the key negates;
    - m & low is the total degree of m.

    Every field is at most the total degree, so a monomial is valid iff its
    total degree is below 2^(FIELD_BITS - 1).  pack refuses any other; a sum
    of two valid monomials never carries out of a field, so `m & guard` tells
    whether a product is valid.
    """

    __slots__ = ("bits", "weights", "shifts", "guard", "cmask", "low")

    def __init__(self, order: MonomialOrder):
        bits = self.bits = FIELD_BITS
        value = self.low = (1 << (bits - 1)) - 1
        layout = order.fields()
        nvars = 1 + max((i for vs, _ in layout for i in vs), default=-1)
        layout.append((tuple(range(nvars)), False))
        weights = [0] * nvars
        shifts = [None] * nvars
        self.guard = self.cmask = 0
        for pos, (variables, flipped) in enumerate(reversed(layout)):
            shift = pos * bits
            for i in variables:
                weights[i] += 1 << shift
            if len(variables) == 1 and shifts[variables[0]] is None:
                shifts[variables[0]] = shift
            self.guard |= 1 << (shift + bits - 1)
            if flipped:
                self.cmask |= value << shift
        self.weights = tuple(weights)
        self.shifts = tuple(shifts)

    def pack(self, exp) -> int:
        if sum(exp) > self.low:
            raise self.overflow()
        return sum(map(mul, exp, self.weights))

    def unpack(self, m: int) -> tuple:
        low = self.low
        return tuple([(m >> s) & low for s in self.shifts])

    def overflow(self) -> EngineError:
        return EngineError(
            f"a monomial of total degree 2^{self.bits - 1} or more does not fit "
            f"the {self.bits}-bit fields of a packed monomial"
        )


# One packing per order in use; the table starts over past _PACKINGS_MAX
# orders, far above the few dozen the shipped scenarios use.
_PACKINGS_MAX = 1024
_packings: dict = {}


def packing(order: MonomialOrder) -> Packing:
    """The packing of `order`, built once for all orders equal to it."""
    pk = _packings.get(order)
    if pk is None:
        if len(_packings) >= _PACKINGS_MAX:
            _packings.clear()
        pk = _packings[order] = Packing(order)
    return pk
