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

from collections.abc import Mapping, Sequence

from .cycles import Cycle, degree_over_image
from .errors import EngineError, RingMismatch
from .geometry import (
    ClosedSet,
    Morphism,
    PrimeComponent,
    ProductStructure,
    Space,
    empty_set,
    graph_closure,
    identity_morphism,
    jacobian_rank,
    lies_on,
    point_by_name_to_index,
    product_space,
    projection_proper_certificate,
    union_of,
)
from .groebner import Ideal, eliminate, saturate
from .supports import SupportFamily


def pair_product(src: Space, tgt: Space) -> ProductStructure:
    return product_space([src, tgt], tags=("1", "2"), force_tags=True)


class GraphData:
    """Declares a component as the (transpose of the) graph of a morphism.

    kind='graph': the component is the closure of the graph of
    morphism: source space -> target space, restricted over the source
    variety.  kind='transpose': same with the roles of the factors swapped.
    Partial data (a rational morphism) still qualifies; the closure is taken
    over the locus where the morphism is defined.
    """

    def __init__(self, kind: str, morphism: Morphism):
        if kind not in ("graph", "transpose"):
            raise EngineError(f"unknown graph kind {kind}")
        self.kind = kind
        self.morphism = morphism

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
        graphs: Sequence = (),
    ):
        """`graphs` holds (component, GraphData) pairs already known to hold;
        a pair whose component is not in `cycle` is dropped."""
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
        for comp, data in graphs:
            if comp in self.graphs:
                self.graphs[comp].append(data)

    # -- geometry of the pair -------------------------------------------------

    def ambient_product_set(self) -> ClosedSet:
        return self.prod.product(self.src_variety.closed_set, self.tgt_variety.closed_set)

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

    def attach_graph(self, comp: PrimeComponent, data: GraphData):
        """Declare `comp` the (transposed) graph in `data`, after checking
        that the graph's closure is that component."""
        target = self._resolve(comp)
        varieties = (self.src_variety, self.tgt_variety)
        if _graph_closed_set(self.prod, varieties, data) != target.closed_set:
            raise EngineError(f"declared graph does not match component {target.label}")
        self.graphs[target].append(data)

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
        graphs = []
        for comp, mult in self.cycle.terms.items():
            gens = [g.inject(ring, swap) for g in comp.closed_set.ideal.gens]
            cs = ClosedSet(new_prod.space, Ideal(ring, gens))
            new_comp = PrimeComponent(cs, label=f"{comp.label}^t", screen=False)
            terms[new_comp] = mult
            for data in self.graphs[comp]:
                kind = "transpose" if data.kind == "graph" else "graph"
                graphs.append((new_comp, GraphData(kind, data.morphism)))
        return Correspondence(
            self.tgt_variety,
            self.tgt_family,
            self.src_variety,
            self.src_family,
            Cycle(new_prod.space, terms),
            graphs,
        )

    def scale(self, k: int) -> "Correspondence":
        return self._with_cycle(self.cycle.scale(k))

    def _with_cycle(self, cycle: Cycle) -> "Correspondence":
        """The same varieties and families on `cycle`, keeping the graph data
        of every component that survives in it."""
        graphs = [(comp, data) for comp, datas in self.graphs.items() for data in datas]
        return Correspondence(
            self.src_variety, self.src_family, self.tgt_variety, self.tgt_family, cycle, graphs
        )

    def __repr__(self):
        return f"Corr({self.cycle!r} : {self.src_variety.label} => {self.tgt_variety.label})"


def _graph_closed_set(prod: ProductStructure, varieties: tuple, data: GraphData) -> ClosedSet:
    """The closure of data's (transposed) graph on the pair `prod` of the
    two `varieties`."""
    side = 0 if data.kind == "graph" else 1
    f = data.morphism
    over, other = varieties[side], varieties[1 - side]
    if f.source != over.space or f.target != other.space:
        raise RingMismatch(
            "graph morphism spaces do not match" if side == 0
            else "transpose-graph morphism spaces do not match"
        )
    emb = (prod.embeddings[side], prod.embeddings[1 - side])
    flipped = ProductStructure(prod.space, (f.source, f.target), emb)
    return graph_closure(f, over.closed_set, flipped, other.closed_set)[0]


def identity_corr(variety: PrimeComponent, family: SupportFamily) -> Correspondence:
    """The diagonal correspondence of (X, Phi): the graph of the identity,
    declared as its own transpose too."""
    ident = identity_morphism(variety.space)
    prod = pair_product(variety.space, variety.space)
    cs = _graph_closed_set(prod, (variety, variety), GraphData("graph", ident))
    comp = PrimeComponent(cs, label=f"diag({variety.label})", screen=False)
    graphs = [(comp, GraphData(kind, ident)) for kind in ("graph", "transpose")]
    return Correspondence(variety, family, variety, family, Cycle(prod.space, {comp: 1}), graphs)


def graph_correspondence(
    f: Morphism,
    src_variety: PrimeComponent,
    src_family: SupportFamily,
    tgt_variety: PrimeComponent,
    tgt_family: SupportFamily,
) -> Correspondence:
    """The correspondence [graph of f], with its graph data attached."""
    data = GraphData("graph", f)
    prod = pair_product(src_variety.space, tgt_variety.space)
    cs = _graph_closed_set(prod, (src_variety, tgt_variety), data)
    comp = PrimeComponent(cs, label="graph", screen=False)
    return Correspondence(
        src_variety, src_family, tgt_variety, tgt_family, Cycle(prod.space, {comp: 1}), [(comp, data)]
    )


# ---------------------------------------------------------------------------
# composition

class CompositionResult:
    """Main term over a good open, plus a support bound for the rest.

    main + (some cycle supported in error_support) is the asserted composite;
    the engine never computes the error multiplicities.
    """

    def __init__(
        self,
        main: Cycle,
        error_support: ClosedSet,
        supp: ClosedSet,
        pair: ProductStructure,
        src_variety: PrimeComponent,
        src_family: SupportFamily,
        tgt_variety: PrimeComponent,
        tgt_family: SupportFamily,
        audit: dict,
        auto_graphs: list,
    ):
        self.main = main
        self.error_support = error_support
        self.supp = supp
        self.pair = pair
        self.src_variety = src_variety
        self.src_family = src_family
        self.tgt_variety = tgt_variety
        self.tgt_family = tgt_family
        self.audit = audit
        self.auto_graphs = auto_graphs

    def to_correspondence(self) -> Correspondence:
        return Correspondence(
            self.src_variety,
            self.src_family,
            self.tgt_variety,
            self.tgt_family,
            self.main,
            self.auto_graphs,
        )

    def error_within(self, bound: ClosedSet | None) -> bool:
        """Whether the error support lies in `bound`; with no bound, whether
        it is empty."""
        if bound is None:
            return self.error_support.is_empty()
        return bound.contains(self.error_support)

    def error_codim_certificates(self) -> dict:
        """Codimension of the two projections of the error support."""
        out = {}
        if self.error_support.is_empty():
            return {"pr1": None, "pr2": None}
        for k, name in ((0, "pr1"), (1, "pr2")):
            variety_dim = (self.src_variety if k == 0 else self.tgt_variety).dim
            out[name] = variety_dim - self.pair.project(self.error_support, k).dim
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
    audit["error_support"] = repr(err.ideal)

    return CompositionResult(
        main=main,
        error_support=err,
        supp=supp,
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
        for pc in comps:
            if not C.contains(pc.closed_set):
                raise EngineError(f"declared split component {pc.label} not inside the pullback")
        if not union_of(out_pair.space, [pc.closed_set for pc in comps]).contains(C):
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
        pt = point_by_name_to_index(out_ring, witness)
        if jacobian_rank(J0.gens, pt, out_ring) != pc.closed_set.cone_codim():
            raise EngineError(
                f"transversality witness fails the Jacobian rank check on {pc.label}"
            )
        audit["witness_checks"].append((pc.label, dict(witness)))
        out[pc] = mult
    return Cycle(out_pair.space, out)


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
    return r_left.error_support.same_locus(r_right.error_support)


def _apply_redeclarations(corr: Correspondence, decls):
    if not decls:
        return
    for data in decls:
        attached = False
        for comp in list(corr.cycle.terms):
            try:
                corr.attach_graph(comp, data)
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
    return r.main == p.cycle.scale(lam) and r.error_within(bound), r


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
