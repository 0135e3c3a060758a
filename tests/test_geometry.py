"""Spaces, closed sets, morphisms: closures, preimages, properness policy."""

import importlib
import random
from collections import OrderedDict

import pytest

from cyclecalc.errors import EngineError, PolicyReject
from cyclecalc.geometry import (
    ClosedSet,
    Morphism,
    PrimeComponent,
    Space,
    affine,
    closed_set,
    empty_set,
    graph_closure,
    identity_morphism,
    image_closure,
    is_finite_over,
    point_set,
    preimage,
    proj,
    smooth_at,
    whole_space,
)
from cyclecalc.groebner import Ideal, ideal_equal
from cyclecalc.supports import SupportFamily, check_Vstar_morphism

groebner_mod = importlib.import_module("cyclecalc.groebner")

A1 = Space([affine("t")])
A1s = Space([affine("s")])
A2 = Space([affine("x", "y")])
P1 = Space([proj("u", "v")])
BlSpace = Space([affine("x", "y"), proj("u", "v")])


def square_map():
    return Morphism(A1, A1s, [(A1.ring.var("t") ** 2,)])


def test_space_dims():
    assert A2.dim == 2 and P1.dim == 1 and BlSpace.dim == 3


def test_saturation_idempotent():
    R = BlSpace.ring
    raw = Ideal(R, [R.var("x") * R.var("u"), R.var("x") * R.var("v")])
    cs = ClosedSet(BlSpace, raw)
    again = ClosedSet(BlSpace, cs.ideal)
    assert ideal_equal(cs.ideal, again.ideal)
    # the irrelevant component was removed: x generates after saturation
    assert ideal_equal(cs.ideal, Ideal(R, [R.var("x")]))


def test_whole_and_empty_sets_run_no_buchberger(monkeypatch):
    """(0) and (1) are their own saturations by the irrelevant ideal, so
    neither needs an elimination, even with the basis cache empty."""
    runs = []
    buchberger = groebner_mod._buchberger

    def record(seeds, *rest):
        runs.append(len(seeds))
        return buchberger(seeds, *rest)

    monkeypatch.setattr(groebner_mod, "_buchberger", record)
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    R = BlSpace.ring
    assert whole_space(BlSpace).ideal.gens == ()
    assert empty_set(BlSpace).ideal.gens == (R.one(),)
    assert runs == []


def test_closed_set_equality_via_saturation():
    R = BlSpace.ring
    a = ClosedSet(BlSpace, Ideal(R, [R.var("x") * R.var("u"), R.var("x") * R.var("v")]))
    b = closed_set(BlSpace, R.var("x"))
    assert a == b


def test_image_closure_examples():
    f = square_map()
    assert image_closure(f, whole_space(A1)).is_whole_space()
    assert image_closure(f, point_set(A1, {"t": 3})) == point_set(A1s, {"s": 9})
    pr1 = Morphism(BlSpace, A2, [(BlSpace.ring.var("x"), BlSpace.ring.var("y"))])
    B = closed_set(BlSpace, BlSpace.ring.var("x") * BlSpace.ring.var("v") - BlSpace.ring.var("y") * BlSpace.ring.var("u"))
    assert image_closure(pr1, B).is_whole_space()


def test_image_functoriality_monomial_maps():
    rng = random.Random(3)
    for _ in range(20):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        f = Morphism(A1, A1s, [(A1.ring.var("t") ** a,)])
        g = Morphism(A1s, A1, [(A1s.ring.var("s") ** b,)])
        Z = point_set(A1, {"t": rng.randint(-3, 3)})
        via_two = image_closure(g, image_closure(f, Z))
        via_one = image_closure(g.compose(f), Z)
        assert via_two == via_one


def test_graph_closure_examples():
    gid, _ = graph_closure(identity_morphism(A1))
    assert gid.dim == 1
    gf, prodf = graph_closure(square_map())
    rp = prodf.space.ring
    assert ideal_equal(gf.ideal, Ideal(rp, [rp.var("s") - rp.var("t") ** 2]))
    sigma = Morphism(A2, P1, [(A2.ring.var("x"), A2.ring.var("y"))])
    assert not sigma.is_regular()
    gs, prods = graph_closure(sigma)
    rs = prods.space.ring
    assert ideal_equal(gs.ideal, Ideal(rs, [rs.var("x") * rs.var("v") - rs.var("y") * rs.var("u")]))


def test_graph_then_project_round_trip():
    f = square_map()
    Z = closed_set(A1, A1.ring.var("t") ** 2 - 2)
    graph, prod = graph_closure(f, over=Z)
    pr1 = Morphism(
        prod.space, A1, [(prod.space.ring.var("t"),)]
    )
    back = image_closure(pr1, graph)
    assert back == Z


def test_preimage_examples():
    f = square_map()
    pre = preimage(f, point_set(A1s, {"s": 1}))
    assert ideal_equal(pre.ideal, Ideal(A1.ring, [A1.ring.var("t") ** 2 - 1]))
    pre0 = preimage(f, point_set(A1s, {"s": 0}))
    support = point_set(A1, {"t": 0})
    assert support.contains(pre0) and pre0.contains(support)
    # preimage codimension never exceeds the source codimension
    assert pre.codim <= 1 and pre0.codim == 1


def test_is_finite_over_examples():
    TS = Space([affine("t"), affine("s")])
    rt = TS.ring
    prS = Morphism(TS, A1s, [(rt.var("s"),)])
    assert is_finite_over(closed_set(TS, rt.var("s") - rt.var("t") ** 2), prS)
    assert not is_finite_over(closed_set(TS, rt.var("t") * rt.var("s") - 1), prS)
    assert is_finite_over(closed_set(TS, rt.var("t"), rt.var("s")), prS)


def test_finiteness_monotone_under_closed_subsets():
    TS = Space([affine("t"), affine("s")])
    rt = TS.ring
    prS = Morphism(TS, A1s, [(rt.var("s"),)])
    Z = closed_set(TS, rt.var("s") - rt.var("t") ** 2)
    assert is_finite_over(Z, prS)
    for extra in (rt.var("t") - 1, rt.var("s") - 4, rt.var("t") ** 2 - 3):
        Zsub = closed_set(TS, rt.var("s") - rt.var("t") ** 2, extra)
        if Zsub.is_empty():
            continue
        assert is_finite_over(Zsub, prS)


def test_properness_policy_projective_factor():
    B = closed_set(
        BlSpace,
        BlSpace.ring.var("x") * BlSpace.ring.var("v") - BlSpace.ring.var("y") * BlSpace.ring.var("u"),
    )
    pr1 = Morphism(BlSpace, A2, [(BlSpace.ring.var("x"), BlSpace.ring.var("y"))])
    assert check_Vstar_morphism(pr1, SupportFamily(BlSpace, [B]), SupportFamily.full(A2))


def test_properness_policy_reject():
    TS = Space([affine("t"), affine("s")])
    rt = TS.ring
    prS = Morphism(TS, A1s, [(rt.var("s"),)])
    horizontal = closed_set(TS, rt.var("s"))
    with pytest.raises(PolicyReject):
        check_Vstar_morphism(prS, SupportFamily(TS, [horizontal]), SupportFamily.full(A1s))


def test_contains_examples():
    O = closed_set(A2, A2.ring.var("x"), A2.ring.var("y"))
    L = closed_set(A2, A2.ring.var("x"))
    assert L.contains(O) and not O.contains(L)
    nonred = closed_set(A2, A2.ring.var("x") ** 2)
    assert L.contains(nonred) and nonred.contains(L)


def test_prime_screen_rejects_double_line():
    with pytest.raises(EngineError):
        PrimeComponent(closed_set(A2, A2.ring.var("x") ** 2), "double")
    PrimeComponent(closed_set(A2, A2.ring.var("y") ** 2 - A2.ring.var("x") ** 3), "cusp")


def test_smooth_witness():
    B = closed_set(
        BlSpace,
        BlSpace.ring.var("x") * BlSpace.ring.var("v") - BlSpace.ring.var("y") * BlSpace.ring.var("u"),
    )
    assert smooth_at(B, {"x": 1, "y": 0, "u": 1, "v": 0})
    cusp = closed_set(A2, A2.ring.var("y") ** 2 - A2.ring.var("x") ** 3)
    assert not smooth_at(cusp, {"x": 0, "y": 0})
    assert smooth_at(cusp, {"x": 1, "y": 1})


def test_preimage_codim_equality_on_transversal_cases():
    """Equality of codimensions on the transversal suite."""
    TS = Space([affine("p"), affine("q")])
    rp = TS.ring
    prQ = Morphism(TS, Space([affine("q")]), [(rp.var("q"),)])
    cases = [
        point_set(Space([affine("q")]), {"q": 0}),
        point_set(Space([affine("q")]), {"q": 3}),
    ]
    for W in cases:
        pre = preimage(prQ, W)
        assert pre.codim == W.codim == 1
    f = Morphism(Space([affine("t")]), Space([affine("s")]),
                 [(Space([affine("t")]).ring.var("t") ** 2,)])
    W = point_set(Space([affine("s")]), {"s": 1})
    assert preimage(f, W).codim == W.codim == 1
