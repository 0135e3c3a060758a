"""Families of supports and the V-side conditions."""

import pytest

from cyclecalc.errors import PolicyReject
from cyclecalc.geometry import (
    Morphism,
    Space,
    affine,
    closed_set,
    point_set,
    product_space,
    whole_space,
)
from cyclecalc.supports import (
    SupportFamily,
    check_Vstar_morphism,
    in_P_family,
    preimage_family,
    product_family,
)

A1 = Space([affine("x")])
A1y = Space([affine("y")])


def test_member_examples():
    pt = point_set(A1, {"x": 0})
    assert SupportFamily.full(A1).member(pt)
    assert not SupportFamily(A1, [pt]).member(whole_space(A1))
    p1, p2 = point_set(A1, {"x": 1}), point_set(A1, {"x": 2})
    fam = SupportFamily(A1, [p1, p2])
    assert fam.member(p1.union(p2))


def test_closure_axioms():
    p1, p2 = point_set(A1, {"x": 1}), point_set(A1, {"x": 2})
    fam = SupportFamily(A1, [p1, p2])
    # unions of members stay members; closed subsets of members stay members
    assert fam.member(p1.union(p2))
    assert fam.member(p1)
    sub = p1.intersect(p2)  # empty: a closed subset of both
    assert fam.member(sub)


def test_semi_purity_grading():
    # no member of Phi_W may exceed the dimension of W
    W = closed_set(A1, A1.ring.var("x") * (A1.ring.var("x") - 1))
    fam = SupportFamily(A1, [W])
    assert all(g.dim <= W.dim for g in fam.generators)
    assert not fam.member(whole_space(A1))


def test_preimage_family():
    f = Morphism(A1, A1y, [(A1.ring.var("x") ** 2,)])
    psi = SupportFamily(A1y, [point_set(A1y, {"y": 0})])
    pf = preimage_family(f, psi)
    assert pf.member(point_set(A1, {"x": 0}))
    assert pf.union_set().same_locus(point_set(A1, {"x": 0}))
    # constant map missing the generators: preimages are empty
    g = Morphism(A1, A1y, [(A1.ring.const(5),)])
    pg = preimage_family(g, psi)
    assert pg.generators == ()


def test_product_family_distributes_with_preimages():
    prod = product_space([A1, A1y])
    f = Morphism(A1, A1, [(A1.ring.var("x") ** 2,)])
    g = Morphism(A1y, A1y, [(A1y.ring.var("y") + 1,)])
    cases = [
        (point_set(A1, {"x": 1}), point_set(A1y, {"y": 0})),
        (point_set(A1, {"x": 0}), whole_space(A1y)),
        (whole_space(A1), point_set(A1y, {"y": 2})),
    ]
    for k in range(7):
        cases.append((point_set(A1, {"x": k - 3}), point_set(A1y, {"y": 2 * k - 5})))
    fxg = Morphism(
        prod.space, prod.space,
        [(prod.space.ring.var("x") ** 2,), (prod.space.ring.var("y") + 1,)],
    )
    for WX, WY in cases:
        phi = SupportFamily(A1, [WX])
        psi = SupportFamily(A1y, [WY])
        lhs = preimage_family(fxg, product_family(phi, psi, prod))
        rhs = product_family(preimage_family(f, phi), preimage_family(g, psi), prod)
        assert lhs.union_set().same_locus(rhs.union_set())


def test_in_P_family_examples():
    prod = product_space([A1, A1y])
    rp = prod.space.ring
    full1, full2 = SupportFamily.full(A1), SupportFamily.full(A1y)
    diag = closed_set(prod.space, rp.var("y") - rp.var("x"))
    assert in_P_family(diag, full1, full2, prod) is True
    horizontal = closed_set(prod.space, rp.var("y"))
    psi0 = SupportFamily(A1y, [point_set(A1y, {"y": 0})])
    with pytest.raises(PolicyReject):
        in_P_family(horizontal, full1, psi0, prod)
    graph = closed_set(prod.space, rp.var("y") - rp.var("x") ** 2)
    phi0 = SupportFamily(A1, [point_set(A1, {"x": 0})])
    assert in_P_family(graph, phi0, psi0, prod) is True
    psi1 = SupportFamily(A1y, [point_set(A1y, {"y": 1})])
    assert in_P_family(graph, phi0, psi1, prod) is False


def test_check_Vstar_morphism():
    f = Morphism(A1, A1y, [(A1.ring.var("x") ** 2,)])
    phi0 = SupportFamily(A1, [point_set(A1, {"x": 0})])
    psi0 = SupportFamily(A1y, [point_set(A1y, {"y": 0})])
    assert check_Vstar_morphism(f, phi0, psi0) is True
    psi1 = SupportFamily(A1y, [point_set(A1y, {"y": 1})])
    assert check_Vstar_morphism(f, phi0, psi1) is False
    # the pull condition: x^2 = 0 lies over the origin, x^2 = 1 does not
    assert preimage_family(f, psi0).subfamily_of(phi0)
    assert not preimage_family(f, psi1).subfamily_of(phi0)
    # diagonal inside a product is finite over either factor
    prod = product_space([A1, A1y])
    rp = prod.space.ring
    pr2 = Morphism(prod.space, A1y, [(rp.var("y"),)])
    diag_fam = SupportFamily(prod.space, [closed_set(prod.space, rp.var("y") - rp.var("x"))])
    assert check_Vstar_morphism(pr2, diag_fam, SupportFamily.full(A1y)) is True
