"""Correspondences: supports of compositions, unit laws, associativity,
localization audits, and the blow-up decomposition."""

import pytest

from cyclecalc.corr import (
    Correspondence,
    GraphData,
    check_localized_supp,
    compose_assoc_check,
    compose_localized,
    graph_correspondence,
    identity_corr,
    pair_product,
    projector_check,
    supp_of_composition,
)
from cyclecalc.cycles import Cycle
from cyclecalc.errors import EngineError
from cyclecalc.geometry import (
    Morphism,
    PrimeComponent,
    Space,
    affine,
    closed_set,
    identity_morphism,
    point_set,
    proj,
    whole_space,
)
from cyclecalc.supports import SupportFamily, in_P_family

A1 = Space([affine("x")])
A1b = Space([affine("y")])
A1c = Space([affine("z")])


def _full(space, label):
    return (
        PrimeComponent(whole_space(space), label, screen=False),
        SupportFamily.full(space),
    )


VX, FX = _full(A1, "X")
VY, FY = _full(A1b, "Y")
VZ, FZ = _full(A1c, "Z")


def _graph(n=2):
    f = Morphism(A1, A1b, [(A1.ring.var("x") ** n,)])
    return graph_correspondence(f, VX, FX, VY, FY)


def test_supp_of_composition_examples():
    D = identity_corr(VX, FX)
    s, op = supp_of_composition(D, D)
    assert s == closed_set(op.space, op.space.ring.var("x@1") - op.space.ring.var("x@2"))
    # graph of x->x^2 composed with graph of y->y+1 supports the graph of x->x^2+1
    Gf = _graph(2)
    g = Morphism(A1b, A1c, [(A1b.ring.var("y") + 1,)])
    Gg = graph_correspondence(g, VY, FY, VZ, FZ)
    s2, op2 = supp_of_composition(Gf, Gg)
    rr = op2.space.ring
    assert s2 == closed_set(op2.space, rr.var("z@2") - rr.var("x@1") ** 2 - 1)


def test_unit_laws():
    Gf = _graph(2)
    DX = identity_corr(VX, FX)
    DY = identity_corr(VY, FY)
    left = compose_localized(DX, Gf)     # Gf o Delta
    right = compose_localized(Gf, DY)    # Delta o Gf
    assert left.main.support() == Gf.support()
    assert right.main.support() == Gf.support()
    assert list(left.main.terms.values()) == [1]
    assert list(right.main.terms.values()) == [1]
    assert left.error_support.is_empty() and right.error_support.is_empty()


def test_composition_with_transpose_push():
    Gf = _graph(2)
    p = compose_localized(Gf.transpose(), Gf)   # Gf o Gf^t on Y: multiplication by deg
    rr = p.pair.space.ring
    diag = closed_set(p.pair.space, rr.var("y@1") - rr.var("y@2"))
    (comp,), (mult,) = zip(*p.main.terms.items())
    assert comp.closed_set == diag and mult == 2
    assert p.error_support.is_empty()


# x@1 = ±x@2 on A1 x A1: the two components of the pullback of Gf^t along Gf
OP = pair_product(A1, A1)
X1, X2 = OP.space.ring.var("x@1"), OP.space.ring.var("x@2")
DIAG = PrimeComponent(closed_set(OP.space, X1 - X2), "diag", screen=False)
ANTI = PrimeComponent(closed_set(OP.space, X1 + X2), "anti", screen=False)
SPLIT_WITNESSES = [{"x@1": 1, "x@2": 1}, {"x@1": 1, "x@2": -1}]


@pytest.mark.parametrize("first_is_graph, mode", [
    (True, "pull: along the graph of the first factor"),
    (False, "pull: along the transposed graph of the second factor"),
], ids=["graph-of-first", "transpose-of-second"])
def test_composition_pull_route_with_split(first_is_graph, mode):
    """Gf^t∘Gf splits into the diagonal and the antidiagonal whether the pull
    runs along Gf's graph or, with Gf's graph data dropped, along Gf^t's."""
    Gf = _graph(2)
    a = Gf if first_is_graph else Correspondence(VX, FX, VY, FY, Gf.cycle)
    q = compose_localized(
        a, Gf.transpose(), split={("graph", "graph^t"): [DIAG, ANTI]}, witnesses=SPLIT_WITNESSES,
    )
    assert q.main == Cycle(OP.space, {DIAG: 1, ANTI: 1})
    assert q.audit["modes"] == {("graph", "graph^t"): mode}


def test_pull_route_requires_witness():
    Gf = _graph(2)
    with pytest.raises(EngineError):
        compose_localized(Gf, Gf.transpose())


def _non_reduced_pullback():
    # x -> x^2 pulls {y = 0} back to the double point x^2 = 0
    pair = pair_product(A1b, A1c)
    line = PrimeComponent(closed_set(pair.space, pair.space.ring.var("y@1")), "L", screen=False)
    plain = Correspondence(VY, FY, VZ, FZ, Cycle(pair.space, {line: 1}))
    return compose_localized(_graph(2), plain, witnesses=[{"x@1": 0, "z@2": 1}])


def _partial_graph_without_hint():
    # the blow-up's rational section, declared as a graph with no good open
    Xt_space, Y_space, Z, E = _blowup_setup()
    (zc,) = Z.cycle.terms
    sigma = Z.graph_of(zc, "transpose", require_total=False).morphism
    Gsigma = graph_correspondence(sigma, Z.tgt_variety, Z.tgt_family, Z.src_variety, Z.src_family)
    plain = Correspondence(Z.src_variety, Z.src_family, Z.tgt_variety, Z.tgt_family, Z.cycle)
    return compose_localized(Gsigma, plain)


def _compose_split(comps):
    Gf = _graph(2)
    return compose_localized(
        Gf, Gf.transpose(), split={("graph", "graph^t"): comps}, witnesses=SPLIT_WITNESSES,
    )


def _split_outside_pullback():
    off = PrimeComponent(closed_set(OP.space, X1 - 1), "off", screen=False)
    return _compose_split([DIAG, ANTI, off])


def _split_not_covering():
    return _compose_split([DIAG])


@pytest.mark.parametrize("compose, message", [
    (_non_reduced_pullback, "fails the Jacobian rank check"),
    (_partial_graph_without_hint, "requires a good-open hint"),
    (_split_outside_pullback, "not inside the pullback"),
    (_split_not_covering, "does not cover the pullback"),
], ids=["non-reduced", "partial-no-hint", "split-outside", "split-not-covering"])
def test_pull_route_refusals(compose, message):
    with pytest.raises(EngineError, match=message):
        compose()


def test_associativity_of_graphs():
    A1d = Space([affine("w")])
    VW, FW = _full(A1d, "W")
    f = Morphism(A1, A1b, [(A1.ring.var("x") ** 2,)])
    g = Morphism(A1b, A1c, [(A1b.ring.var("y") ** 3,)])
    h = Morphism(A1c, A1d, [(A1c.ring.var("z") + 2,)])
    Gf = graph_correspondence(f, VX, FX, VY, FY)
    Gg = graph_correspondence(g, VY, FY, VZ, FZ)
    Gh = graph_correspondence(h, VZ, FZ, VW, FW)
    assert compose_assoc_check(Gf, Gg, Gh)
    assert compose_assoc_check(identity_corr(VX, FX), Gf, Gg)


def test_grading_additivity():
    Gf = _graph(2)
    g = Morphism(A1b, A1c, [(A1b.ring.var("y") ** 3,)])
    Gg = graph_correspondence(g, VY, FY, VZ, FZ)
    assert all(d == 0 for d in Gf.degrees().values())
    assert all(d == 0 for d in Gg.degrees().values())
    out = compose_localized(Gf, Gg).to_correspondence()
    assert all(d == 0 for d in out.degrees().values())


def test_localized_supp_audit():
    """supp(a', b') = supp(a, b) ∩ (open x open), by independent elimination."""
    Gf = _graph(2)
    Gft = Gf.transpose()
    bad_src = point_set(A1, {"x": 0})
    bad_tgt = point_set(A1, {"x": 1})
    assert check_localized_supp(Gf, Gft, bad_src, bad_tgt)
    D = identity_corr(VX, FX)
    assert check_localized_supp(D, D, bad_src, bad_src)


def test_transpose_recomputes_verdicts():
    Gf = _graph(2)
    Gft = Gf.transpose()
    for corr in (Gf, Gft):
        for comp in corr.cycle.terms:
            assert in_P_family(comp.closed_set, corr.src_family, corr.tgt_family, corr.prod) is True


def test_projector_scalar_algebra():
    DY = identity_corr(VY, FY)
    ok, _ = projector_check(DY, 1)
    assert ok
    two = DY.scale(2)
    ok2, _ = projector_check(two, 2)
    assert ok2


# ---------------------------------------------------------------------------
# blow-up decomposition

def _blowup_setup():
    Xt_space = Space([affine("x", "y"), proj("u", "v")])
    Y_space = Space([affine("a", "b")])
    RX, RY = Xt_space.ring, Y_space.ring
    Xt = PrimeComponent(
        closed_set(Xt_space, RX.var("x") * RX.var("v") - RX.var("y") * RX.var("u")),
        "Xt", screen=False,
    )
    Yv = PrimeComponent(whole_space(Y_space), "Y", screen=False)
    pi = Morphism(Xt_space, Y_space, [(RX.var("x"), RX.var("y"))])
    sigma = Morphism(Y_space, Xt_space, [(RY.var("a"), RY.var("b")), (RY.var("a"), RY.var("b"))])
    Z = graph_correspondence(pi, Xt, SupportFamily.full(Xt_space), Yv, SupportFamily.full(Y_space))
    (zc,) = Z.cycle.terms
    Z.attach_graph(zc, GraphData("transpose", sigma), verify=True)
    E = closed_set(Xt_space, RX.var("x"), RX.var("y"))
    return Xt_space, Y_space, Z, E


def test_blowup_downstairs_exact():
    Xt_space, Y_space, Z, E = _blowup_setup()
    r = compose_localized(Z.transpose(), Z)
    rr = r.pair.space.ring
    diagY = closed_set(r.pair.space, rr.var("a@1") - rr.var("a@2"), rr.var("b@1") - rr.var("b@2"))
    (comp,), (mult,) = zip(*r.main.terms.items())
    assert comp.closed_set == diagY and mult == 1
    assert r.error_support.is_empty()


def test_blowup_upstairs_delta_plus_error():
    Xt_space, Y_space, Z, E = _blowup_setup()
    r = compose_localized(
        Z, Z.transpose(), hint=E,
        witnesses=[{"x@1": 1, "y@1": 0, "u@1": 1, "v@1": 0,
                    "x@2": 1, "y@2": 0, "u@2": 1, "v@2": 0}],
    )
    rr = r.pair.space.ring
    diag = closed_set(
        r.pair.space,
        rr.var("x@1") - rr.var("x@2"), rr.var("y@1") - rr.var("y@2"),
        rr.var("u@1") * rr.var("v@2") - rr.var("v@1") * rr.var("u@2"),
        rr.var("x@1") * rr.var("v@1") - rr.var("y@1") * rr.var("u@1"),
        rr.var("x@2") * rr.var("v@2") - rr.var("y@2") * rr.var("u@2"),
    )
    (comp,), (mult,) = zip(*r.main.terms.items())
    assert comp.closed_set == diag and mult == 1
    ExE = closed_set(r.pair.space, rr.var("x@1"), rr.var("y@1"), rr.var("x@2"), rr.var("y@2"))
    assert ExE.contains(r.error_support)
    assert r.error_support.same_locus(ExE)
    certs = r.error_codim_certificates()
    assert certs["pr1"] >= 1 and certs["pr2"] >= 1


def test_blowup_triple_associates():
    Xt_space, Y_space, Z, E = _blowup_setup()
    Zt = Z.transpose()
    wit_xx = [{"x@1": 1, "y@1": 0, "u@1": 1, "v@1": 0,
               "x@2": 1, "y@2": 0, "u@2": 1, "v@2": 0}]
    ident_up = identity_morphism(Xt_space)
    ident_down = identity_morphism(Y_space)
    assert compose_assoc_check(
        Z, Zt, Z,
        opts_ab={
            "hint": E,
            "witnesses": wit_xx,
            "redeclare": [GraphData("graph", ident_up), GraphData("transpose", ident_up)],
        },
        opts_bc={
            "redeclare": [GraphData("graph", ident_down), GraphData("transpose", ident_down)],
        },
        opts_outer_left=None,
        opts_outer_right=None,
    )


def test_localized_supp_audit_blowup():
    Xt_space, Y_space, Z, E = _blowup_setup()
    bad_tgt = closed_set(Y_space, Y_space.ring.var("a"), Y_space.ring.var("b"))
    assert check_localized_supp(Z, Z.transpose(), E, E)
    assert check_localized_supp(Z.transpose(), Z, bad_tgt, bad_tgt)


def test_identity_corr_of_blowup_surface():
    """The diagonal of the embedded blow-up surface matches the composite's
    main term."""
    Xt_space, Y_space, Z, E = _blowup_setup()
    Xt = Z.src_variety
    D = identity_corr(Xt, SupportFamily.full(Xt_space))
    (dc,) = D.cycle.terms
    r = compose_localized(
        Z, Z.transpose(), hint=E,
        witnesses=[{"x@1": 1, "y@1": 0, "u@1": 1, "v@1": 0,
                    "x@2": 1, "y@2": 0, "u@2": 1, "v@2": 0}],
    )
    (main_comp,) = r.main.terms
    assert dc.closed_set == main_comp.closed_set
