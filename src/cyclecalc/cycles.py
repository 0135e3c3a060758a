"""Cycle groups with support, push-forward, restricted flat pullback, and
principal divisors on the line.

A cycle is an integer combination of declared-prime components of one space.
Push-forward multiplies by generic-fiber degrees (zero on dimension drop);
degrees are computed exactly as staircase-dimension ratios over a maximal
independent parameter set of the image.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .errors import EngineError, FlatnessError, RingMismatch
from .geometry import (
    ClosedSet,
    Morphism,
    PrimeComponent,
    Space,
    graph_closure,
    image_closure,
    lies_on,
    preimage,
    smooth_at,
    union_of,
)
from .groebner import (
    Ideal,
    fiber_staircase,
    max_independent_set,
)
from .poly import Poly, Ring
from .supports import SupportFamily, check_Vstar_morphism
from .univar import factor_univariate, gcd_univariate, order_at_zero


class Cycle:
    """Z-linear combination of prime components, graded by dimension.

    `terms` is a mapping or an iterable of (component, multiplicity) pairs.
    Equal components are summed in order, the first one's label kept, and a
    component whose sum is zero is dropped.  Every component, zero or not,
    must live in `space`.
    """

    __slots__ = ("space", "terms", "family")

    def __init__(
        self,
        space: Space,
        terms: Mapping[PrimeComponent, int] | Iterable[tuple[PrimeComponent, int]],
        family: SupportFamily | None = None,
    ):
        self.space = space
        self.terms = {}
        for comp, mult in terms.items() if isinstance(terms, Mapping) else terms:
            if comp.space != space:
                raise RingMismatch("component in the wrong space")
            self.terms[comp] = self.terms.get(comp, 0) + int(mult)
        for comp in [c for c, m in self.terms.items() if not m]:
            del self.terms[comp]
        if family is not None and family.space != space:
            raise RingMismatch("support family on the wrong space")
        self.family = family
        if family is not None:
            for comp in self.terms:
                if not family.member(comp.closed_set):
                    raise EngineError(
                        f"component {comp.label} is not in the support family"
                    )

    # -- algebra -------------------------------------------------------------

    def _same_space(self, other: "Cycle"):
        if self.space != other.space:
            raise RingMismatch(f"cycles on different spaces: {self.space} and {other.space}")

    def _merge(self, other: "Cycle", sign: int) -> "Cycle":
        self._same_space(other)
        terms = [*self.terms.items(), *((c, sign * m) for c, m in other.terms.items())]
        return Cycle(self.space, terms, self.family if self.family is not None else other.family)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k: int) -> "Cycle":
        return Cycle(self.space, {c: k * m for c, m in self.terms.items()}, self.family)

    def is_zero(self) -> bool:
        return not self.terms

    def with_family(self, family: SupportFamily) -> "Cycle":
        return Cycle(self.space, self.terms, family)

    def support(self) -> ClosedSet:
        return union_of(self.space, [c.closed_set for c in self.terms])

    def restrict_off(self, B: ClosedSet) -> "Cycle":
        """Cycle-level localization: drop components inside B."""
        kept = {c: m for c, m in self.terms.items() if not B.contains(c.closed_set)}
        return Cycle(self.space, kept, self.family)

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        """Equal terms; cycles on different spaces raise, as their sum does."""
        if not isinstance(other, Cycle):
            return NotImplemented
        self._same_space(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for c, m in self.terms.items():
            if m == 1:
                bits.append(f"[{c.label}]")
            else:
                bits.append(f"{m}*[{c.label}]")
        return " + ".join(bits).replace("+ -", "- ")


def cycle_of(comp: PrimeComponent, family: SupportFamily | None = None, mult: int = 1) -> Cycle:
    return Cycle(comp.space, {comp: mult}, family)


class DegreeCertificate:
    """deg(Z / f(Z)) with the data that witnessed it."""

    def __init__(
        self,
        component: PrimeComponent,
        image: ClosedSet,
        degree: int,
        method: str,
        fiber_dim_over_params: int = 0,
        image_dim_over_params: int = 0,
    ):
        self.component = component
        self.image = image
        self.degree = degree
        self.method = method
        self.fiber_dim_over_params = fiber_dim_over_params
        self.image_dim_over_params = image_dim_over_params


# ---------------------------------------------------------------------------
# generic fiber degrees

def relative_degree(
    I: Ideal,
    base_names: set,
    proj_block_names: Sequence[tuple],
) -> int:
    """Vector-space dimension over k(base) of the quotient by I.

    Projective blocks among the fiber directions are removed by the
    first-nonvanishing-coordinate stratification (each fiber point is counted
    in exactly one affine chart), then the staircase over k(base) is counted.
    """
    ring = I.ring
    if proj_block_names:
        blk = proj_block_names[0]
        rest = proj_block_names[1:]
        total = 0
        for j in range(len(blk)):
            drop = blk[: j + 1]
            sub = ring.drop(drop)
            images = {}
            for nm in blk[:j]:
                images[ring.index(nm)] = sub.zero()
            images[ring.index(blk[j])] = sub.one()
            gens = [g.substitute(images, sub) for g in I.gens]
            total += relative_degree(Ideal(sub, gens), base_names, rest)
        return total
    fiber_idx = [i for i, v in enumerate(ring.vars) if v not in base_names]
    st = fiber_staircase(I, fiber_idx)
    if st is None:
        raise EngineError("fiber is not finite over the chosen parameters")
    return len(st)


def degree_over_image(Z: PrimeComponent, f: Morphism) -> DegreeCertificate:
    """Generic-fiber degree of Z over its image closure under f."""
    if Z.space != f.source:
        raise RingMismatch("component not in the source of f")
    if not f.base_locus().is_empty():
        cap = Z.closed_set.intersect(f.base_locus())
        if not cap.is_empty():
            raise EngineError("component meets the base locus of the map")
    graph, prod = graph_closure(f, over=Z.closed_set)
    W = image_closure(f, Z.closed_set, (graph, prod))
    if W.dim < Z.dim:
        return DegreeCertificate(Z, W, 0, "dimension-drop")
    if W.dim > Z.dim:
        raise EngineError("image dimension exceeds source dimension")

    S_tgt = max_independent_set(W.ideal)
    tgt_ring = f.target.ring
    S_names_tgt = {tgt_ring.vars[i] for i in S_tgt}
    prod_ring = prod.space.ring
    S_names_prod = {prod_ring.vars[prod.embeddings[1][i]] for i in S_tgt}
    src_proj = [
        tuple(prod_ring.vars[prod.embeddings[0][i]] for i in blk)
        for blk in f.source.proj_block_indices()
    ]
    d_graph = relative_degree(graph.ideal, S_names_prod, src_proj)
    d_image = relative_degree(W.ideal, S_names_tgt, [])
    if d_image == 0 or d_graph % d_image:
        raise EngineError(
            f"staircase ratio is not integral ({d_graph}/{d_image}); "
            "declared component is likely not prime"
        )
    return DegreeCertificate(
        Z, W, d_graph // d_image, "staircase-ratio", d_graph, d_image
    )


# ---------------------------------------------------------------------------
# push-forward

def push_forward(
    a: Cycle,
    f: Morphism,
    psi: SupportFamily,
) -> Cycle:
    """Component-wise f_*: multiply by deg(Z/f(Z)), drop dimension drops.

    Raises PolicyReject when the policy cannot certify f proper on the
    cycle's supports.
    """
    if a.space != f.source:
        raise RingMismatch("cycle not on the source of f")
    phi = a.family
    if phi is None:
        phi = SupportFamily(a.space, [c.closed_set for c in a.terms])
    if not check_Vstar_morphism(f, phi, psi):
        raise EngineError("push-forward side condition fails: f(phi) not in psi")
    out = []
    for comp, mult in a.terms.items():
        cert = degree_over_image(comp, f)
        if cert.degree:
            out.append((PrimeComponent(cert.image, label=f"f({comp.label})"), mult * cert.degree))
    return Cycle(f.target, out, psi)


# ---------------------------------------------------------------------------
# flat pullback

class LineProbe:
    """A parametrized line used for the multiplicity length check."""

    def __init__(self, point: dict, direction: dict):
        self.point = point
        self.direction = direction


class PullbackTerm:
    def __init__(
        self,
        component: PrimeComponent,
        multiplicity: int,
        probe: LineProbe | None = None,
        witness: dict | None = None,
    ):
        self.component = component
        self.multiplicity = multiplicity
        self.probe = probe
        self.witness = witness


def _restrict_to_line(I: Ideal, probe: LineProbe, space: Space) -> Poly:
    """Generator (gcd) of the restriction of I to the probe line in k[s]."""
    ring = space.ring
    s_ring = Ring(("s",), ring.field)
    s = s_ring.var(0)
    images = {}
    for i, name in enumerate(ring.vars):
        p0 = ring.field.coerce(probe.point.get(name, 0))
        d0 = ring.field.coerce(probe.direction.get(name, 0))
        images[i] = s_ring.const(p0) + s.scale(d0)
    restricted = [g.substitute(images, s_ring) for g in I.gens]
    out = s_ring.zero()
    for r in restricted:
        out = gcd_univariate(out, r, 0)
    return out


def flat_pullback(
    a: Cycle,
    f: Morphism,
    fiber_dim: int,
    flat_tag: str,
    declared: Mapping[PrimeComponent, Sequence[PullbackTerm]] | None = None,
) -> Cycle:
    """Component-wise scheme preimage along a declared-flat morphism.

    `flat_tag` names why f is flat (open immersion, projection, base change
    of a smooth factor ...); it is recorded, not proven.  Preimage components
    that are not generically reduced need declared multiplicities, verified by
    a one-variable length check along a declared probe line.
    """
    if not flat_tag:
        raise FlatnessError("flat pullback requires a declared flatness tag")
    if a.space != f.target:
        raise RingMismatch("cycle not on the target of f")
    out = []
    for comp, mult in a.terms.items():
        P = preimage(f, comp.closed_set)
        if P.is_empty():
            continue
        decl = declared.get(comp) if declared else None
        if decl is None:
            pc = PrimeComponent(P, label=f"f^-1({comp.label})")
            if pc.dim != comp.dim + fiber_dim:
                raise FlatnessError(
                    f"preimage of {comp.label} has dimension {pc.dim}, "
                    f"expected {comp.dim + fiber_dim}"
                )
            out.append((pc, mult))
            continue
        # declared decomposition: verify completeness and multiplicities
        for term in decl:
            if not P.contains(term.component.closed_set):
                raise FlatnessError(
                    f"declared component {term.component.label} is not inside the preimage"
                )
        if not union_of(f.source, [t.component.closed_set for t in decl]).contains(P):
            raise FlatnessError("declared components do not cover the preimage")
        for term in decl:
            if term.component.dim != comp.dim + fiber_dim:
                raise FlatnessError("declared component has the wrong dimension")
            if term.multiplicity == 1 and term.witness is not None:
                if not smooth_at(P, term.witness):
                    raise FlatnessError(
                        "witness fails the Jacobian-rank reducedness check"
                    )
            elif term.probe is not None:
                _verify_multiplicity(P, term, [t.component for t in decl], a.space)
            elif term.multiplicity != 1:
                raise FlatnessError(
                    "non-unit multiplicity requires a probe line declaration"
                )
            out.append((term.component, mult * term.multiplicity))
    return Cycle(f.source, out, None)


def _verify_multiplicity(
    P: ClosedSet, term: PullbackTerm, all_components: Sequence[PrimeComponent], space: Space
):
    probe = term.probe
    comp = term.component
    if not lies_on(comp.closed_set, probe.point):
        raise FlatnessError("probe point does not lie on the declared component")
    for other in all_components:
        if other == comp:
            continue
        if lies_on(other.closed_set, probe.point):
            raise FlatnessError("probe point lies on another declared component")
    h = _restrict_to_line(comp.closed_set.ideal, probe, comp.space)
    if h.is_zero() or order_at_zero(h, 0) != 1:
        raise FlatnessError("probe line is not transversal to the component")
    g = _restrict_to_line(P.ideal, probe, comp.space)
    if g.is_zero():
        raise FlatnessError("probe line lies inside the preimage")
    if order_at_zero(g, 0) != term.multiplicity:
        raise FlatnessError(
            f"length along the probe line is {order_at_zero(g, 0)}, "
            f"declared multiplicity {term.multiplicity}"
        )


# ---------------------------------------------------------------------------
# principal divisors on the line

def principal_divisor_line(numerator: Poly, denominator: Poly, space: Space) -> Cycle:
    """div(numerator/denominator) on A^1 or P^1.

    The rational function is given in the affine coordinate t (on P^1 with
    block (u, v), t = u/v and infinity is [1:0]).  Zeros and poles carry
    their factor multiplicities over the base field; on P^1 the degree
    imbalance lands at infinity.
    """
    if numerator.is_zero():
        raise EngineError("div of the zero function")
    if denominator.is_zero():
        raise EngineError("zero denominator")
    ring = numerator.ring
    if ring.nvars != 1:
        raise EngineError("principal divisors: univariate input expected")
    if not gcd_univariate(numerator, denominator, 0).is_constant():
        raise EngineError("numerator and denominator must be coprime")

    if len(space.blocks) != 1:
        raise EngineError("principal divisors live on a one-block space")
    block = space.blocks[0]
    terms = []

    def add_factor(fac: Poly, mult: int):
        if block.kind == "affine":
            target = space.ring
            comp_poly = fac.inject(target, {0: 0})
        else:
            u, v = space.ring.var(0), space.ring.var(1)
            d = fac.degree_in(0)
            comp_poly = space.ring.zero()
            for e, c in fac.terms.items():
                k = e[0]
                comp_poly = comp_poly + (u ** k * v ** (d - k)).scale(c)
        comp = PrimeComponent(
            ClosedSet(space, Ideal(space.ring, [comp_poly])),
            label=str(comp_poly) + "=0",
            screen=False,
        )
        terms.append((comp, mult))

    _, num_factors = factor_univariate(numerator, 0)
    _, den_factors = factor_univariate(denominator, 0)
    for fac, m in num_factors:
        add_factor(fac, m)
    for fac, m in den_factors:
        add_factor(fac, -m)

    if block.kind == "proj":
        imbalance = denominator.degree_in(0) - numerator.degree_in(0)
        if imbalance:
            infty = PrimeComponent(
                ClosedSet(space, Ideal(space.ring, [space.ring.var(1)])),
                label="infinity",
                screen=False,
            )
            terms.append((infty, imbalance))

    return Cycle(space, terms, None)


def divisor_degree(a: Cycle) -> int:
    """Total degree of a zero-cycle on the line (components weighted by
    residue-field degree)."""
    total = 0
    for comp, mult in a.terms.items():
        gens = [g for g in comp.closed_set.ideal.gens if not g.is_zero()]
        if len(gens) != 1:
            raise EngineError("divisor component is not principal")
        total += mult * gens[0].total_degree()
    return total
