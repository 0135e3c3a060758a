"""Monomial orders: degrevlex, lex, and block orders for elimination.

An order is a key function on exponent tuples; larger key = larger monomial.
Block orders compare one variable block at a time (degrevlex inside each
block), which gives the elimination property: any monomial touching an
earlier block beats every monomial that does not.
"""

from __future__ import annotations

from operator import add, le, neg, sub
from typing import Sequence


class MonomialOrder:
    """Total multiplicative monomial order with 1 minimal."""

    __slots__ = ("kind", "blocks", "_hash")

    def __init__(self, kind: str, blocks: Sequence[Sequence[int]]):
        self.kind = kind
        self.blocks = tuple(tuple(b) for b in blocks)
        self._hash = hash((kind, self.blocks))

    def key(self, exp):
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
        self.nvars = nvars

    def key(self, exp):
        return (sum(exp), *map(neg, reversed(exp)))


class _Lex(MonomialOrder):
    def __init__(self, nvars: int):
        super().__init__("lex", [tuple(range(nvars))])

    def key(self, exp):
        return tuple(exp)


class _Block(MonomialOrder):
    """Blockwise degrevlex; earlier blocks dominate."""

    def __init__(self, blocks: Sequence[Sequence[int]]):
        super().__init__("block", blocks)

    def key(self, exp):
        parts = []
        for block in self.blocks:
            part = [exp[i] for i in block]
            parts.append((sum(part), *map(neg, reversed(part))))
        return tuple(parts)


def degrevlex(nvars: int) -> MonomialOrder:
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
