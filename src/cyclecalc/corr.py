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
        if data.kind == "graph":
            f = data.morphism
            if f.source != self.src_variety.space or f.target != self.tgt_variety.space:
                raise RingMismatch("graph morphism spaces do not match")
            emb = (self.prod.embeddings[0], self.prod.embeddings[1])
            over = self.src_variety.closed_set
            other = self.tgt_variety.closed_set
        else:
            f = data.morphism
            if f.source != self.tgt_variety.space or f.target != self.src_variety.space:
                raise RingMismatch("transpose-graph morphism spaces do not match")
            emb = (self.prod.embeddings[1], self.prod.embeddings[0])
            over = self.tgt_variety.closed_set
            other = self.src_variety.closed_set
        flipped = ProductStructure(self.prod.space, (f.source, f.target), emb)
        ring = self.prod.space.ring
        gens = list(graph_relations(f, flipped))
        gens += [g.inject(ring, emb[0]) for g in over.ideal.gens]
        if f.domain is not None:
            gens += [g.inject(ring, emb[0]) for g in f.domain.ideal.gens]
        gens += [g.inject(ring, emb[1]) for g in other.ideal.gens]
        I = Ideal(ring, gens)
        bl = f.base_locus()
        if not bl.is_empty():
            I = saturate(I, Ideal(ring, [g.inject(ring, emb[0]) for g in bl.ideal.gens]))
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
        out = Correspondence(
            self.src_variety,
            self.src_family,
            self.tgt_variety,
            self.tgt_family,
            self.cycle.scale(k),
        )
        for comp, datas in self.graphs.items():
            if comp in out.cycle.terms:
                out.graphs[comp] = list(datas)
        return out

    def __repr__(self):
        return f"Corr({self.cycle!r} : {self.src_variety.label} => {self.tgt_variety.label})"


def identity_corr(variety: PrimeComponent, family: SupportFamily) -> Correspondence:
    """The diagonal correspondence of (X, Phi)."""
    space = variety.space
    prod = pair_product(space, space)
    ring = prod.space.ring
    gens = list(prod.inject_ideal(0, variety.closed_set.ideal).gens)
    gens += list(prod.inject_ideal(1, variety.closed_set.ideal).gens)
    for k, b in enumerate(space.blocks):
        idxs = space.block_var_indices(k)
        left = [ring.var(prod.embeddings[0][i]) for i in idxs]
        right = [ring.var(prod.embeddings[1][i]) for i in idxs]
        if b.kind == "affine":
            gens += [l - r for l, r in zip(left, right)]
        else:
            for i in range(len(idxs)):
                for j in range(i + 1, len(idxs)):
                    gens.append(left[i] * right[j] - left[j] * right[i])
    cs = ClosedSet(prod.space, Ideal(ring, gens))
    comp = PrimeComponent(cs, label=f"diag({variety.label})", screen=False)
    ident = identity_morphism(space)
    corr = Correspondence(
        variety,
        family,
        variety,
        family,
        Cycle(prod.space, {comp: 1}),
    )
    corr.attach_graph(comp, GraphData("graph", ident), verify=False)
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
    audit: dict = {"modes": {}, "supp": repr(supp.ideal), "witness_checks": []}
    auto_graphs: list = []
    main = Cycle(out_pair.space, {})

    for ca, ma in a.cycle.terms.items():
        for cb, mb in b.cycle.terms.items():
            key = (ca.label, cb.label)
            route = None
            gb_total = b.graph_of(cb, "graph", require_total=True)
            ga_t_total = a.graph_of(ca, "transpose", require_total=True)
            ga_graph = a.graph_of(ca, "graph", require_total=False)
            gb_transpose = b.graph_of(cb, "transpose", require_total=False)
            if gb_total is not None:
                contribution = _push_route(a, b, ca, cb, ma, mb, out_pair, gb_total, "target")
                route = "push: second factor is a graph"
                ga_any = a.graph_of(ca, "graph", require_total=False)
                if ga_any is not None and not ga_any.partial:
                    composed = gb_total.morphism.compose(ga_any.morphism)
                    for comp in contribution.terms:
                        auto_graphs.append((comp, GraphData("graph", composed)))
            elif ga_t_total is not None:
                contribution = _push_route(a, b, ca, cb, ma, mb, out_pair, ga_t_total, "source")
                route = "push: first factor is a transposed graph"
                gb_any = b.graph_of(cb, "transpose", require_total=False)
                if gb_any is not None and not gb_any.partial:
                    composed = ga_t_total.morphism.compose(gb_any.morphism)
                    for comp in contribution.terms:
                        auto_graphs.append((comp, GraphData("transpose", composed)))
            elif ga_graph is not None:
                contribution = _pull_route(
                    a, b, ca, cb, ma, mb, out_pair, hint, witnesses, split,
                    ga_graph, "first", audit,
                )
                route = "pull: along the graph of the first factor"
            elif gb_transpose is not None:
                contribution = _pull_route(
                    a, b, ca, cb, ma, mb, out_pair, hint, witnesses, split,
                    gb_transpose, "second", audit,
                )
                route = "pull: along the transposed graph of the second factor"
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
        gens = list(supp.ideal.gens) + [
            g.inject(out_ring, out_pair.embeddings[0]) for g in hint.ideal.gens
        ]
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


def _flat_coords(f: Morphism) -> list:
    return [p for tup in f.coords for p in tup]


def _structured_coords(space: Space, images: Mapping[int, object]) -> list:
    out = []
    pos = 0
    for blk in space.blocks:
        out.append(tuple(images[pos + j] for j in range(len(blk.names))))
        pos += len(blk.names)
    return out


def _push_route(a, b, ca, cb, ma, mb, out_pair, data: GraphData, push_side: str) -> Cycle:
    """Exact composition when one factor is a global (transposed) graph."""
    if push_side == "target":
        g = data.morphism  # X2 -> X3
        src_prod = a.prod
        pushed_comp = ca
        ring = src_prod.space.ring
        id_coords = []
        for k in range(len(a.src_variety.space.blocks)):
            idxs = a.src_variety.space.block_var_indices(k)
            id_coords.append(tuple(ring.var(src_prod.embeddings[0][i]) for i in idxs))
        flat = [p.inject(ring, src_prod.embeddings[1]) for p in _flat_coords(g)]
        moved = _structured_coords(g.target, dict(enumerate(flat)))
        coords = id_coords + moved
    else:
        psi = data.morphism  # X2 -> X1
        src_prod = b.prod
        pushed_comp = cb
        ring = src_prod.space.ring
        flat = [p.inject(ring, src_prod.embeddings[0]) for p in _flat_coords(psi)]
        moved = _structured_coords(psi.target, dict(enumerate(flat)))
        id_coords = []
        for k in range(len(b.tgt_variety.space.blocks)):
            idxs = b.tgt_variety.space.block_var_indices(k)
            id_coords.append(tuple(ring.var(src_prod.embeddings[1][i]) for i in idxs))
        coords = moved + id_coords
    F = Morphism(src_prod.space, out_pair.space, coords)
    cert = degree_over_image(pushed_comp, F)
    if cert.degree == 0:
        return Cycle(out_pair.space, {})
    img = PrimeComponent(cert.image, label=f"({cb.label})o({ca.label})", screen=False)
    return Cycle(out_pair.space, {img: ma * mb * cert.degree})


def _pull_route(
    a, b, ca, cb, ma, mb, out_pair, hint, witnesses, split, data: GraphData, via: str,
    audit: dict,
) -> Cycle:
    out_ring = out_pair.space.ring
    if via == "first":
        phi = data.morphism  # X1 -> X2 (maybe rational)
        pulled = cb
        pulled_pair = b.prod
        flat = [p.inject(out_ring, out_pair.embeddings[0]) for p in _flat_coords(phi)]
        images = {}
        for local in range(a.tgt_variety.space.ring.nvars):
            images[pulled_pair.embeddings[0][local]] = flat[local]
        for local in range(b.tgt_variety.space.ring.nvars):
            images[pulled_pair.embeddings[1][local]] = out_ring.var(out_pair.embeddings[1][local])
        bl_side = 0
    else:
        chi = data.morphism  # X3 -> X2 (maybe rational)
        pulled = ca
        pulled_pair = a.prod
        flat = [p.inject(out_ring, out_pair.embeddings[1]) for p in _flat_coords(chi)]
        images = {}
        for local in range(a.src_variety.space.ring.nvars):
            images[pulled_pair.embeddings[0][local]] = out_ring.var(out_pair.embeddings[0][local])
        for local in range(a.tgt_variety.space.ring.nvars):
            images[pulled_pair.embeddings[1][local]] = flat[local]
        bl_side = 1

    if data.partial and (hint is None or hint.is_empty()):
        raise EngineError("pullback along a partial graph requires a good-open hint")

    scheme_gens = [g.substitute(images, out_ring) for g in pulled.closed_set.ideal.gens]
    ambient = list(out_pair.inject_ideal(0, a.src_variety.closed_set.ideal).gens)
    ambient += list(out_pair.inject_ideal(1, b.tgt_variety.closed_set.ideal).gens)
    J0 = Ideal(out_ring, scheme_gens + ambient)
    J = J0
    bl = data.morphism.base_locus()
    if not bl.is_empty():
        J = saturate(
            J,
            Ideal(out_ring, [g.inject(out_ring, out_pair.embeddings[bl_side]) for g in bl.ideal.gens]),
        )
    if hint is not None and not hint.is_empty():
        J = saturate(
            J,
            Ideal(out_ring, [g.inject(out_ring, out_pair.embeddings[0]) for g in hint.ideal.gens]),
        )
    C = ClosedSet(out_pair.space, J)
    if C.is_empty():
        return Cycle(out_pair.space, {})

    declared = split.get((ca.label, cb.label)) if split else None
    if declared is None:
        comps = [PrimeComponent(C, label=f"({cb.label})o({ca.label})", screen=False)]
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
        out[pc] = ma * mb
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
    out_ring = out_pair.space.ring
    bad1 = Ideal(out_ring, [g.inject(out_ring, out_pair.embeddings[0]) for g in bad_src.ideal.gens])
    bad3 = Ideal(out_ring, [g.inject(out_ring, out_pair.embeddings[1]) for g in bad_tgt.ideal.gens])
    rhs = ClosedSet(out_pair.space, saturate(saturate(supp.ideal, bad1), bad3))

    a_r = _restrict_corr(a, bad_src, side=0)
    b_r = _restrict_corr(b, bad_tgt, side=1)
    supp_r, _ = supp_of_composition(a_r, b_r)
    lhs = ClosedSet(out_pair.space, saturate(saturate(supp_r.ideal, bad1), bad3))
    return lhs.same_locus(rhs)


def _restrict_corr(corr: Correspondence, bad: ClosedSet, side: int) -> Correspondence:
    ring = corr.prod.space.ring
    bad_pulled = ClosedSet(
        corr.prod.space,
        Ideal(ring, [g.inject(ring, corr.prod.embeddings[side]) for g in bad.ideal.gens]),
    )
    restricted = corr.cycle.restrict_off(bad_pulled)
    out = Correspondence(
        corr.src_variety,
        corr.src_family,
        corr.tgt_variety,
        corr.tgt_family,
        restricted,
    )
    for comp, datas in corr.graphs.items():
        if comp in restricted.terms:
            out.graphs[comp] = list(datas)
    return out
