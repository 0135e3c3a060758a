"""Families of supports and the morphism side-conditions.

A family is always finitely generated: it is the smallest collection of
closed sets containing the declared generators and closed under finite unions
and passage to closed subsets.  Membership of Z therefore reduces to one
containment: Z inside the union of the generators.

`in_P_family` and `check_Vstar_morphism` return a bool when they can decide.
A properness side condition the policy cannot certify raises `PolicyReject`
out of them; it is never folded into False.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import RingMismatch
from .geometry import (
    ClosedSet,
    Morphism,
    ProductStructure,
    Space,
    graph_closure,
    image_closure,
    preimage,
    projection_proper_certificate,
    union_of,
    whole_space,
)
from .groebner import Ideal


class SupportFamily:
    """The family generated by finitely many closed subsets of one space."""

    __slots__ = ("space", "generators")

    def __init__(self, space: Space, generators: Iterable[ClosedSet]):
        self.space = space
        gens = []
        for g in generators:
            if g.space != space:
                raise RingMismatch("family generator in the wrong space")
            if not g.is_empty():
                gens.append(g)
        self.generators = tuple(gens)

    @staticmethod
    def full(space: Space) -> "SupportFamily":
        return SupportFamily(space, [whole_space(space)])

    def union_set(self) -> ClosedSet:
        """The union of the generators, as one closed set."""
        return union_of(self.space, self.generators)

    def member(self, Z: ClosedSet) -> bool:
        """Z in the family, i.e. Z inside the union of the generators."""
        if Z.space != self.space:
            raise RingMismatch("membership test across spaces")
        return self.union_set().contains(Z)

    def subfamily_of(self, other: "SupportFamily") -> bool:
        return all(other.member(g) for g in self.generators)

    def __repr__(self):
        return f"Family({', '.join(map(repr, self.generators))})"


def preimage_family(f: Morphism, psi: SupportFamily) -> SupportFamily:
    """Family generated by the preimages of the generators."""
    if psi.space != f.target:
        raise RingMismatch("family not on the target of f")
    return SupportFamily(f.source, [preimage(f, g) for g in psi.generators])


def product_family(phi: SupportFamily, psi: SupportFamily, prod: ProductStructure) -> SupportFamily:
    """Family on the product generated by pairwise products of generators."""
    if prod.factors[0] != phi.space or prod.factors[1] != psi.space:
        raise RingMismatch("product structure does not match the families")
    return SupportFamily(
        prod.space, [prod.product(a, b) for a in phi.generators for b in psi.generators]
    )


def in_P_family(
    Z: ClosedSet,
    phi: SupportFamily,
    psi: SupportFamily,
    prod: ProductStructure,
) -> bool:
    """Membership in P(phi, psi) on the product X x Y.

    Z must be closed with pr2|Z proper (policy), and Z ∩ pr1^{-1}(W) must lie
    in pr2^{-1}(psi) for every generator W of phi.  Raises PolicyReject when
    the policy cannot certify pr2|Z proper.
    """
    if Z.space != prod.space:
        raise RingMismatch("Z not on the product space")
    projection_proper_certificate(Z, {1}, prod)

    # pr2^{-1}(psi) is generated by X x V
    pulled = SupportFamily(
        prod.space,
        [
            ClosedSet(prod.space, prod.inject_ideal(1, v.ideal))
            for v in psi.generators
        ],
    )
    for w in phi.generators:
        cap = ClosedSet(
            prod.space,
            Ideal(
                prod.space.ring,
                list(Z.ideal.gens) + list(prod.inject_ideal(0, w.ideal).gens),
            ),
        )
        if not pulled.member(cap):
            return False
    return True


def check_Vstar_morphism(f: Morphism, phi: SupportFamily, psi: SupportFamily) -> bool:
    """Side condition for f to push supported classes forward: f restricted
    to each generator of phi is proper (policy) and its image lies in psi.
    Raises PolicyReject when the policy cannot certify f proper on a
    generator.  The condition to pull back is
    `preimage_family(f, psi).subfamily_of(phi)`.
    """
    if phi.space != f.source or psi.space != f.target:
        raise RingMismatch("families do not match the morphism")
    for w in phi.generators:
        graph, prod = graph_closure(f, over=w)
        projection_proper_certificate(graph, {1}, prod)
        if not psi.member(image_closure(f, w, (graph, prod))):
            return False
    return True
