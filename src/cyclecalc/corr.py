"""Correspondences and their composition with support tracking.

A correspondence from (X, Phi) to (Y, Psi) is a cycle on the product space
with support and graph bookkeeping; whether a component lies in
P(Phi, Psi) is `supports.in_P_family` on the pair structure `prod`.
Composition is implemented only through the localization route: push-forward
along a declared graph factor where one exists (exact), otherwise pullback
along a declared graph over a good open with a transversality witness per
resulting component.  The remainder is never computed as a cycle; it is
bounded by its support, which is exactly how the downstream vanishing
arguments consume it.

Both routes are symmetric in the two factors.  A global graph of g: X2 -> X3
on b pushes a forward along id x g, and a global transposed graph of
psi: X2 -> X1 on a pushes b forward along psi x id: one push, told which
factor its morphism acts on.  Likewise a graph of phi: X1 -> X2 on a pulls b
back along phi x id, and a transposed graph of chi: X3 -> X2 on b pulls a
back along id x chi: one pull, told the factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .cycles import Cycle, degree_over_image
from .errors import EngineError, RingMismatch
from .geometry import (
    ClosedSet,
    Morphism,
    PrimeComponent,
    ProductStructure,
    Space,
    empty_set,
    evaluate_matrix,
    graph_relations,
    identity_morphism,
    jacobian_matrix,
    lies_on,
    matrix_rank,
    point_by_name_to_index,
    product_space,
    projection_proper_certificate,
)
from .groebner import Ideal, eliminate, saturate
from .supports import SupportFamily


def pair_product(src: Space, tgt: Space) -> ProductStructure:
    return product_space([src, tgt], tags=("1", "2"), force_tags=True)


@dataclass
class GraphData:
    """Declares a component as the (transpose of the) graph of a morphism.

    kind='graph': the component is the closure of the graph of
    morphism: source space -> target space, restricted over the source
    variety.  kind='transpose': same with the roles of the factors swapped.
    Partial data (a rational morphism) still qualifies; the closure is taken
    over the locus where the morphism is defined.
    """

    kind: str
    morphism: Morphism

    def __post_init__(self):
        if self.kind not in ("graph", "transpose"):
            raise EngineError(f"unknown graph kind {self.kind}")

    @property
    def partial(self) -> bool:
        return not self.morphism.is_regular() or self.morphism.domain is not None


class Correspondence:
    """A cycle on src x tgt with support and graph bookkeeping."""

    def __init__(
        self,
        src_variety: PrimeComponent,
        src_family: SupportFamily,
        tgt_variety: PrimeComponent,
        tgt_family: SupportFamily,
        cycle: Cycle,
    ):
        self.src_variety = src_variety
        self.src_family = src_family
        self.tgt_variety = tgt_variety
        self.tgt_family = tgt_family
        self.prod = pair_product(src_variety.space, tgt_variety.space)
        if cycle.space != self.prod.space:
            raise RingMismatch("correspondence cycle not on the pair space")
        self.cycle = cycle
        ambient = self.ambient_product_set()
        for comp in cycle.terms:
            if not ambient.contains(comp.closed_set):
                raise EngineError(
                    f"component {comp.label} is not inside the product of the varieties"
                )
        self.graphs: dict = {comp: [] for comp in cycle.terms}

    # -- geometry of the pair -------------------------------------------------

    def ambient_product_set(self) -> ClosedSet:
        gens = list(self.prod.inject_ideal(0, self.src_variety.closed_set.ideal).gens)
        gens += list(self.prod.inject_ideal(1, self.tgt_variety.closed_set.ideal).gens)
        return ClosedSet(self.prod.space, Ideal(self.prod.space.ring, gens))

    def support(self) -> ClosedSet:
        return self.cycle.support()

    def degree_of(self, comp: PrimeComponent) -> int:
        """Grading: degree i iff codim in X x Y equals dim X + i."""
        return self.tgt_variety.dim - comp.dim

    def degrees(self) -> dict:
        return {comp: self.degree_of(comp) for comp in self.cycle.terms}

    # -- graph declarations -----------------------------------------------------

    def _resolve(self, comp: PrimeComponent) -> PrimeComponent:
        for existing in self.cycle.terms:
            if existing == comp:
                return existing
        raise EngineError(f"{comp.label} is not a component of this correspondence")

    def _graph_closed_set(self, data: GraphData) -> ClosedSet:
        side = 0 if data.kind == "graph" else 1
        f = data.morphism
        varieties = (self.src_variety, self.tgt_variety)
        over, other = varieties[side], varieties[1 - side]
        if f.source != over.space or f.target != other.space:
            raise RingMismatch(
                "graph morphism spaces do not match" if side == 0
                else "transpose-graph morphism spaces do not match"
            )
        emb = (self.prod.embeddings[side], self.prod.embeddings[1 - side])
        flipped = ProductStructure(self.prod.space, (f.source, f.target), emb)
        ring = self.prod.space.ring
        gens = list(graph_relations(f, flipped))
        gens += [g.inject(ring, emb[0]) for g in over.closed_set.ideal.gens]
        if f.domain is not None:
            gens += [g.inject(ring, emb[0]) for g in f.domain.ideal.gens]
        gens += [g.inject(ring, emb[1]) for g in other.closed_set.ideal.gens]
        I = Ideal(ring, gens)
        bl = f.base_locus()
        if not bl.is_empty():
            I = saturate(I, flipped.inject_ideal(0, bl.ideal))
        return ClosedSet(self.prod.space, I)

    def attach_graph(self, comp: PrimeComponent, data: GraphData, verify: bool = True):
        target = self._resolve(comp)
        if verify:
            cs = self._graph_closed_set(data)
            if cs != target.closed_set:
                raise EngineError(
                    f"declared graph does not match component {target.label}"
                )
        self.graphs.setdefault(target, []).append(data)

    def graph_of(self, comp: PrimeComponent, kind: str, require_total: bool):
        for data in self.graphs.get(comp, []):
            if data.kind != kind:
                continue
            if require_total and data.partial:
                continue
            return data
        return None

    # -- structural operations ----------------------------------------------------

    def transpose(self) -> "Correspondence":
        new_prod = pair_product(self.tgt_variety.space, self.src_variety.space)
        ring = new_prod.space.ring
        swap = {}
        for local, old in self.prod.embeddings[0].items():
            swap[old] = new_prod.embeddings[1][local]
        for local, old in self.prod.embeddings[1].items():
            swap[old] = new_prod.embeddings[0][local]
        terms = {}
        graph_moves = []
        for comp, mult in self.cycle.terms.items():
            gens = [g.inject(ring, swap) for g in comp.closed_set.ideal.gens]
            cs = ClosedSet(new_prod.space, Ideal(ring, gens), presaturated=True)
            new_comp = PrimeComponent(cs, label=f"{comp.label}^t", screen=False)
            terms[new_comp] = mult
            for data in self.graphs.get(comp, []):
                graph_moves.append(
                    (new_comp, GraphData("transpose" if data.kind == "graph" else "graph", data.morphism))
                )
        out = Correspondence(
            self.tgt_variety,
            self.tgt_family,
            self.src_variety,
            self.src_family,
            Cycle(new_prod.space, terms),
        )
        for comp, data in graph_moves:
            out.attach_graph(comp, data, verify=False)
        return out

    def scale(self, k: int) -> "Correspondence":
        return self._with_cycle(self.cycle.scale(k))

    def _with_cycle(self, cycle: Cycle) -> "Correspondence":
        """The same varieties and families on `cycle`, keeping the graph data
        of every component that survives in it."""
        out = Correspondence(
            self.src_variety, self.src_family, self.tgt_variety, self.tgt_family, cycle
        )
        for comp, datas in self.graphs.items():
            if comp in cycle.terms:
                out.graphs[comp] = list(datas)
        return out

    def __repr__(self):
        return f"Corr({self.cycle!r} : {self.src_variety.label} => {self.tgt_variety.label})"


def identity_corr(variety: PrimeComponent, family: SupportFamily) -> Correspondence:
    """The diagonal correspondence of (X, Phi): the graph of the identity,
    declared as its own transpose too."""
    ident = identity_morphism(variety.space)
    corr = graph_correspondence(ident, variety, family, variety, family)
    (comp,) = corr.cycle.terms
    comp.label = f"diag({variety.label})"
    corr.attach_graph(comp, GraphData("transpose", ident), verify=False)
    return corr


def graph_correspondence(
    f: Morphism,
    src_variety: PrimeComponent,
    src_family: SupportFamily,
    tgt_variety: PrimeComponent,
    tgt_family: SupportFamily,
) -> Correspondence:
    """The correspondence [graph of f], with its graph data attached."""
    corr = Correspondence(
        src_variety, src_family, tgt_variety, tgt_family,
        Cycle(pair_product(src_variety.space, tgt_variety.space).space, {}),
    )
    data = GraphData("graph", f)
    cs = corr._graph_closed_set(data)
    comp = PrimeComponent(cs, label=f"graph", screen=False)
    corr.cycle = Cycle(corr.prod.space, {comp: 1})
    corr.graphs = {comp: [data]}
    return corr


# ---------------------------------------------------------------------------
# composition

@dataclass
class CompositionResult:
    """Main term over a good open, plus a support bound for the rest.

    main + (some cycle supported in error_support) is the asserted composite;
    the engine never computes the error multiplicities.
    """

    main: Cycle
    error_support: ClosedSet
    supp: ClosedSet
    good_open_hint: ClosedSet | None
    pair: ProductStructure
    src_variety: PrimeComponent
    src_family: SupportFamily
    tgt_variety: PrimeComponent
    tgt_family: SupportFamily
    audit: dict = field(default_factory=dict)
    auto_graphs: list = field(default_factory=list)

    def to_correspondence(self) -> Correspondence:
        corr = Correspondence(
            self.src_variety,
            self.src_family,
            self.tgt_variety,
            self.tgt_family,
            self.main,
        )
        for comp, data in self.auto_graphs:
            if comp in corr.cycle.terms:
                corr.attach_graph(comp, data, verify=False)
        return corr

    def error_codim_certificates(self) -> dict:
        """Codimension of the two projections of the error support."""
        out = {}
        if self.error_support.is_empty():
            return {"pr1": None, "pr2": None}
        ring = self.pair.space.ring
        for k, name in ((0, "pr1"), (1, "pr2")):
            keep = self.pair.factor_var_indices(k)
            drop_names = [ring.vars[i] for i in range(ring.nvars) if i not in keep]
            J = eliminate(self.error_support.ideal, drop_names)
            factor = self.pair.factors[k]
            back = {}
            for local, prod_i in self.pair.embeddings[k].items():
                back[J.ring.index(ring.vars[prod_i])] = local
            gens = [g.inject(factor.ring, back) for g in J.gens]
            img = ClosedSet(factor, Ideal(factor.ring, gens))
            variety_dim = (self.src_variety if k == 0 else self.tgt_variety).dim
            out[name] = variety_dim - img.dim
        return out


def _compose_triple(a: Correspondence, b: Correspondence):
    if a.tgt_variety.space != b.src_variety.space or not (
        a.tgt_variety.closed_set == b.src_variety.closed_set
    ):
        raise RingMismatch("middle varieties of the composition do not match")
    return product_space(
        [a.src_variety.space, a.tgt_variety.space, b.tgt_variety.space],
        tags=("1", "2", "3"),
        force_tags=True,
    )


def _pair_ideal_to_triple(
    I: Ideal, pair: ProductStructure, triple: ProductStructure, factors: tuple
) -> list:
    mapping = {}
    for side, tri_factor in enumerate(factors):
        for local, pair_idx in pair.embeddings[side].items():
            mapping[pair_idx] = triple.embeddings[tri_factor][local]
    ring = triple.space.ring
    return [g.inject(ring, mapping) for g in I.gens]


def supp_of_composition(a: Correspondence, b: Correspondence):
    """supp(a,b): eliminate the middle factor; properness is policy-checked.

    Returns (ClosedSet on the output pair space, output ProductStructure).
    """
    triple = _compose_triple(a, b)
    ring = triple.space.ring
    gens = _pair_ideal_to_triple(a.support().ideal, a.prod, triple, (0, 1))
    gens += _pair_ideal_to_triple(b.support().ideal, b.prod, triple, (1, 2))
    T = ClosedSet(triple.space, Ideal(ring, gens))
    projection_proper_certificate(T, {0, 2}, triple)

    middle_names = [ring.vars[i] for i in sorted(triple.factor_var_indices(1))]
    J = eliminate(T.ideal, middle_names)
    out_pair = pair_product(a.src_variety.space, b.tgt_variety.space)
    out_ring = out_pair.space.ring
    # elimination lists factor-1 then factor-3 variables in order: positional map
    back = {i: i for i in range(out_ring.nvars)}
    supp = ClosedSet(out_pair.space, Ideal(out_ring, [g.inject(out_ring, back) for g in J.gens]))
    return supp, out_pair


def compose_localized(
    a: Correspondence,
    b: Correspondence,
    hint: ClosedSet | None = None,
    witnesses: Sequence[Mapping] | None = None,
    split: Mapping | None = None,
) -> CompositionResult:
    """b∘a through the localization route.

    hint: closed subset of the source space outside which the declared graph
    structure holds (None means the declared graphs are global).  witnesses:
    rational points (by product variable name) certifying transversality for
    pullback-route components.  split: {(a-comp label, b-comp label):
    [PrimeComponent, ...]} decompositions of reducible pullback results.
    """
    if hint is not None and hint.space != a.src_variety.space:
        raise RingMismatch("good-open hint must live in the source space")
    supp, out_pair = supp_of_composition(a, b)
    out_ring = out_pair.space.ring
    ambient = list(out_pair.inject_ideal(0, a.src_variety.closed_set.ideal).gens)
    ambient += list(out_pair.inject_ideal(1, b.tgt_variety.closed_set.ideal).gens)
    audit: dict = {"modes": {}, "supp": repr(supp.ideal), "witness_checks": []}
    auto_graphs: list = []
    main = Cycle(out_pair.space, {})

    for ca, ma in a.cycle.terms.items():
        for cb, mb in b.cycle.terms.items():
            key = (ca.label, cb.label)
            label = f"({cb.label})o({ca.label})"
            mult = ma * mb
            declared = split.get(key) if split else None
            gb_total = b.graph_of(cb, "graph", require_total=True)
            ga_t_total = a.graph_of(ca, "transpose", require_total=True)
            ga_graph = a.graph_of(ca, "graph", require_total=False)
            gb_transpose = b.graph_of(cb, "transpose", require_total=False)
            if gb_total is not None:
                route = "push: second factor is a graph"
                contribution = _push_route(ca, a.prod, gb_total.morphism, 1, out_pair, label, mult)
                auto_graphs += _composed_graphs(contribution, gb_total, ga_graph)
            elif ga_t_total is not None:
                route = "push: first factor is a transposed graph"
                contribution = _push_route(cb, b.prod, ga_t_total.morphism, 0, out_pair, label, mult)
                auto_graphs += _composed_graphs(contribution, ga_t_total, gb_transpose)
            elif ga_graph is not None:
                route = "pull: along the graph of the first factor"
                contribution = _pull_route(
                    cb, b.prod, ga_graph, 0,
                    out_pair, ambient, hint, witnesses, declared, label, mult, audit,
                )
            elif gb_transpose is not None:
                route = "pull: along the transposed graph of the second factor"
                contribution = _pull_route(
                    ca, a.prod, gb_transpose, 1,
                    out_pair, ambient, hint, witnesses, declared, label, mult, audit,
                )
            else:
                raise EngineError(
                    f"no graph route for ({ca.label}, {cb.label}): "
                    "declare a graph structure over the good open"
                )
            audit["modes"][key] = route
            main = main + contribution

    if not supp.contains(main.support()):
        raise EngineError("computed main term escapes supp(a,b); composition invalid")

    if hint is None or hint.is_empty():
        err = empty_set(out_pair.space)
    else:
        gens = list(supp.ideal.gens) + list(out_pair.inject_ideal(0, hint.ideal).gens)
        err = ClosedSet(out_pair.space, Ideal(out_ring, gens))

    return CompositionResult(
        main=main,
        error_support=err,
        supp=supp,
        good_open_hint=hint,
        pair=out_pair,
        src_variety=a.src_variety,
        src_family=a.src_family,
        tgt_variety=b.tgt_variety,
        tgt_family=b.tgt_family,
        audit=audit,
        auto_graphs=auto_graphs,
    )


def _factor_map(pair: ProductStructure, side: int, f: Morphism, target: Space) -> Morphism:
    """The map from the pair's space to `target` that is f on factor `side`
    and the identity on the other factor."""
    ring = pair.space.ring
    coords = []
    for k, factor in enumerate(pair.factors):
        h = f if k == side else identity_morphism(factor)
        coords += [tuple(p.inject(ring, pair.embeddings[k]) for p in tup) for tup in h.coords]
    return Morphism(pair.space, target, coords)


def _push_route(
    comp: PrimeComponent, pair: ProductStructure, g: Morphism, side: int,
    out_pair: ProductStructure, label: str, mult: int,
) -> Cycle:
    """Exact composition: push comp forward along g on factor `side` of its
    pair, the identity on the other factor."""
    cert = degree_over_image(comp, _factor_map(pair, side, g, out_pair.space))
    if cert.degree == 0:
        return Cycle(out_pair.space, {})
    img = PrimeComponent(cert.image, label=label, screen=False)
    return Cycle(out_pair.space, {img: mult * cert.degree})


def _composed_graphs(contribution: Cycle, outer: GraphData, inner: GraphData | None) -> list:
    """A pushed component is the graph (of the same kind) of outer∘inner when
    the pushed factor's own declaration is total."""
    if inner is None or inner.partial:
        return []
    data = GraphData(outer.kind, outer.morphism.compose(inner.morphism))
    return [(comp, data) for comp in contribution.terms]


def _pull_route(
    pulled: PrimeComponent, pulled_pair: ProductStructure, data: GraphData, side: int,
    out_pair: ProductStructure, ambient: list, hint, witnesses, declared,
    label: str, mult: int, audit: dict,
) -> Cycle:
    """Pull `pulled` back along data's morphism on factor `side` of the output
    pair, the identity on the other factor, over the good open; every
    resulting component needs a transversality witness."""
    if data.partial and (hint is None or hint.is_empty()):
        raise EngineError("pullback along a partial graph requires a good-open hint")
    out_ring = out_pair.space.ring
    images = _factor_map(out_pair, side, data.morphism, pulled_pair.space).coordinate_images()
    scheme_gens = [g.substitute(images, out_ring) for g in pulled.closed_set.ideal.gens]
    J0 = Ideal(out_ring, scheme_gens + ambient)
    J = J0
    bl = data.morphism.base_locus()
    if not bl.is_empty():
        J = saturate(J, out_pair.inject_ideal(side, bl.ideal))
    if hint is not None and not hint.is_empty():
        J = saturate(J, out_pair.inject_ideal(0, hint.ideal))
    C = ClosedSet(out_pair.space, J)
    if C.is_empty():
        return Cycle(out_pair.space, {})

    if declared is None:
        comps = [PrimeComponent(C, label=label, screen=False)]
    else:
        comps = list(declared)
        union = None
        for pc in comps:
            if not C.contains(pc.closed_set):
                raise EngineError(f"declared split component {pc.label} not inside the pullback")
            union = pc.closed_set if union is None else union.union(pc.closed_set)
        if not union.contains(C):
            raise EngineError("declared split does not cover the pullback")

    pool = list(witnesses or [])
    out = {}
    for pc in comps:
        witness = None
        for point in pool:
            try:
                if lies_on(pc.closed_set, point):
                    witness = point
                    break
            except EngineError:
                continue
        if witness is None:
            raise EngineError(f"no transversality witness lies on component {pc.label}")
        if not _witness_rank_ok(list(J0.gens), pc, witness, out_ring):
            raise EngineError(
                f"transversality witness fails the Jacobian rank check on {pc.label}"
            )
        audit["witness_checks"].append((pc.label, dict(witness)))
        out[pc] = mult
    return Cycle(out_pair.space, out)


def _witness_rank_ok(gens: Sequence, comp: PrimeComponent, point: dict, ring) -> bool:
    pt = point_by_name_to_index(ring, point)
    mat = evaluate_matrix(jacobian_matrix(gens, ring), pt, ring)
    return matrix_rank(mat, ring.field) == comp.closed_set.cone_codim()


# ---------------------------------------------------------------------------
# derived checks

def compose_assoc_check(
    a: Correspondence,
    b: Correspondence,
    c: Correspondence,
    opts_ab: dict | None = None,
    opts_bc: dict | None = None,
    opts_outer_left: dict | None = None,
    opts_outer_right: dict | None = None,
) -> bool:
    """(c∘b)∘a == c∘(b∘a): main terms equal, error supports mutually contained."""

    def run(x, y, opts):
        opts = opts or {}
        return compose_localized(
            x, y,
            hint=opts.get("hint"),
            witnesses=opts.get("witnesses"),
            split=opts.get("split"),
        )

    r_ba = run(a, b, opts_ab)
    ba = r_ba.to_correspondence()
    _apply_redeclarations(ba, (opts_ab or {}).get("redeclare"))
    r_left = run(ba, c, opts_outer_left)

    r_cb = run(b, c, opts_bc)
    cb = r_cb.to_correspondence()
    _apply_redeclarations(cb, (opts_bc or {}).get("redeclare"))
    r_right = run(a, cb, opts_outer_right)

    if r_left.main != r_right.main:
        return False
    e1, e2 = r_left.error_support, r_right.error_support
    if e1.is_empty() != e2.is_empty():
        return False
    if not e1.is_empty() and not (e1.contains(e2) and e2.contains(e1)):
        return False
    return True


def _apply_redeclarations(corr: Correspondence, decls):
    if not decls:
        return
    for data in decls:
        attached = False
        for comp in list(corr.cycle.terms):
            try:
                corr.attach_graph(comp, data, verify=True)
                attached = True
            except EngineError:
                continue
        if not attached:
            raise EngineError("redeclared graph matches no component")


def projector_check(
    p: Correspondence,
    lam: int,
    hint: ClosedSet | None = None,
    witnesses: Sequence[Mapping] | None = None,
    split: Mapping | None = None,
    bound: ClosedSet | None = None,
):
    """p∘p == lam * p up to a cycle supported in `bound`.

    Returns (bool, CompositionResult).
    """
    r = compose_localized(p, p, hint=hint, witnesses=witnesses, split=split)
    ok = r.main == p.cycle.scale(lam)
    if bound is not None:
        ok = ok and bound.contains(r.error_support)
    else:
        ok = ok and r.error_support.is_empty()
    return ok, r


def check_localized_supp(
    a: Correspondence,
    b: Correspondence,
    bad_src: ClosedSet,
    bad_tgt: ClosedSet,
) -> bool:
    """supp(a', b') == supp(a,b) ∩ (open x open), by independent elimination.

    a' and b' are the cycle-level restrictions off the bad loci; both sides
    are compared as closures of their open parts.
    """
    supp, out_pair = supp_of_composition(a, b)
    bad1 = out_pair.inject_ideal(0, bad_src.ideal)
    bad3 = out_pair.inject_ideal(1, bad_tgt.ideal)
    rhs = ClosedSet(out_pair.space, saturate(saturate(supp.ideal, bad1), bad3))

    a_r = _restrict_corr(a, bad_src, side=0)
    b_r = _restrict_corr(b, bad_tgt, side=1)
    supp_r, _ = supp_of_composition(a_r, b_r)
    lhs = ClosedSet(out_pair.space, saturate(saturate(supp_r.ideal, bad1), bad3))
    return lhs.same_locus(rhs)


def _restrict_corr(corr: Correspondence, bad: ClosedSet, side: int) -> Correspondence:
    bad_pulled = ClosedSet(corr.prod.space, corr.prod.inject_ideal(side, bad.ideal))
    return corr._with_cycle(corr.cycle.restrict_off(bad_pulled))
