"""Cycle groups: degrees, push-forward, flat pullback, principal divisors."""

import pytest

from cyclecalc.cycles import (
    Cycle,
    LineProbe,
    PullbackTerm,
    cycle_of,
    degree_over_image,
    divisor_degree,
    flat_pullback,
    principal_divisor_line,
    push_forward,
)
from cyclecalc.errors import EngineError, FlatnessError, PolicyReject
from cyclecalc.geometry import (
    Morphism,
    PrimeComponent,
    Space,
    affine,
    closed_set,
    point_set,
    proj,
    whole_space,
)
from cyclecalc.poly import Ring, ring_over
from cyclecalc.residues import FinitePresentation
from cyclecalc.scenario import run_scenario_text
from cyclecalc.supports import SupportFamily

A1 = Space([affine("t")])
A1s = Space([affine("s")])


def _line():
    return PrimeComponent(whole_space(A1), "A1", screen=False)


def _cover(n):
    return Morphism(A1, A1s, [(A1.ring.var("t") ** n,)])


def test_degree_certificates():
    cert = degree_over_image(_line(), _cover(2))
    assert cert.degree == 2 and cert.method == "staircase-ratio"
    # residue-field degree: the divisor t^2 = 2 maps to the single point s = 2
    Z = PrimeComponent(closed_set(A1, A1.ring.var("t") ** 2 - 2), "sqrt2", screen=False)
    cert2 = degree_over_image(Z, _cover(2))
    assert cert2.degree == 2 and cert2.image == point_set(A1s, {"s": 2})
    # char-5 run of the parabola-style cover
    A1p = Space([affine("t")], 5)
    A1sp = Space([affine("s")], 5)
    f5 = Morphism(A1p, A1sp, [(A1p.ring.var("t") ** 2,)])
    cert5 = degree_over_image(PrimeComponent(whole_space(A1p), "l", screen=False), f5)
    assert cert5.degree == 2


def test_degree_zero_on_contraction():
    TS = Space([affine("x"), affine("y")])
    pr = Morphism(TS, Space([affine("x")]), [(TS.ring.var("x"),)])
    vert = PrimeComponent(closed_set(TS, TS.ring.var("x")), "vert", screen=False)
    cert = degree_over_image(vert, pr)
    assert cert.degree == 0 and cert.method == "dimension-drop"


def test_degree_additive_over_components():
    f = _cover(2)
    pieces = [
        closed_set(A1, A1.ring.var("t") ** 2 - 2),
        closed_set(A1, A1.ring.var("t") - 1),
        closed_set(A1, A1.ring.var("t") + 1),
        closed_set(A1, A1.ring.var("t") ** 2 - 3),
        closed_set(A1, A1.ring.var("t") - 2),
    ]
    for cs in pieces:
        comp = PrimeComponent(cs, "piece", screen=False)
        cert = degree_over_image(comp, f)
        # the fiber-degree over each image point equals the length of the piece
        gens = [g for g in cs.ideal.gens if not g.is_zero()]
        length = gens[0].total_degree()
        # points map with the full residue degree unless the image splits
        assert cert.degree * _point_count(cert.image) == length


def _point_count(cs):
    gens = [g for g in cs.ideal.gens if not g.is_zero()]
    return gens[0].total_degree()


def test_push_forward_examples():
    fullX, fullY = SupportFamily.full(A1), SupportFamily.full(A1s)
    out = push_forward(cycle_of(_line(), fullX), _cover(2), fullY)
    assert list(out.terms.values()) == [2]
    p3 = cycle_of(PrimeComponent(point_set(A1, {"t": 3}), "p", screen=False), fullX)
    assert push_forward(p3, _cover(2), fullY) == Cycle(
        A1s, {PrimeComponent(point_set(A1s, {"s": 9}), "q", screen=False): 1}
    )


def test_push_forward_functorial_towers():
    towers = [(2, 3), (3, 2), (2, 2)]
    for m, n in towers:
        A1u = Space([affine("u")])
        f = _cover(m)
        g = Morphism(A1s, A1u, [(A1s.ring.var("s") ** n,)])
        fullX, fullY, fullU = (
            SupportFamily.full(A1),
            SupportFamily.full(A1s),
            SupportFamily.full(A1u),
        )
        a = cycle_of(_line(), fullX)
        two_step = push_forward(push_forward(a, f, fullY), g, fullU)
        one_step = push_forward(a, g.compose(f), fullU)
        assert two_step == one_step
        assert list(one_step.terms.values()) == [m * n]


def test_push_forward_policy_reject():
    """(x, y) -> x is not certifiably proper on the plane: the library call
    raises PolicyReject and a scenario reports a policy-reject, not an error."""
    A2 = Space([affine("x", "y")])
    L = Space([affine("u")])
    f = Morphism(A2, L, [(A2.ring.var("x"),)])
    plane = cycle_of(PrimeComponent(whole_space(A2), "P", screen=False), SupportFamily.full(A2))
    with pytest.raises(PolicyReject, match="monic eliminant"):
        push_forward(plane, f, SupportFamily.full(L))
    text = """
char 0
space P = space(affine(x, y))
space L = space(affine(u))
morphism f : P -> L = (x)
prime PV = { } on P noscreen
prime LV = { } on L noscreen
support FP = full on P
support FL = full on L
cycle a = 1*[PV] on P with support FP
push b = push a along f into FL expect 1*[LV]
"""
    (task,) = run_scenario_text(text).tasks
    assert (task.name, task.kind, task.verdict) == ("b", "push", "policy-reject")
    assert "monic eliminant" in task.detail


def test_flat_pullback_projection_and_restriction():
    TS = Space([affine("x"), affine("w")])
    A1x = Space([affine("x")])
    pr = Morphism(TS, A1x, [(TS.ring.var("x"),)])
    pt = PrimeComponent(point_set(A1x, {"x": 0}), "0", screen=False)
    out = flat_pullback(Cycle(A1x, {pt: 1}), pr, 1, "projection")
    (comp,) = out.terms
    assert comp.closed_set == closed_set(TS, TS.ring.var("x"))
    # open restriction at the cycle level
    W = PrimeComponent(closed_set(TS, TS.ring.var("w") - TS.ring.var("x")), "diag", screen=False)
    restricted = Cycle(TS, {W: 1}).restrict_off(point_set_both(TS))
    assert list(restricted.terms) == [W]


def point_set_both(TS):
    return closed_set(TS, TS.ring.var("x"), TS.ring.var("w"))


def test_flat_pullback_multiplicity_two():
    f = _cover(2)
    s0 = PrimeComponent(point_set(A1s, {"s": 0}), "s0", screen=False)
    t0 = PrimeComponent(point_set(A1, {"t": 0}), "t0", screen=False)
    decl = {s0: [PullbackTerm(t0, 2, probe=LineProbe({"t": 0}, {"t": 1}))]}
    out = flat_pullback(Cycle(A1s, {s0: 1}), f, 0, "finite flat", decl)
    assert out == Cycle(A1, {t0: 2})
    # oracle: the length of k[t]/(t^2) is 2
    pres = FinitePresentation(
        ring_over(0, ["t", "s"]), ("s",), ("t",),
        (ring_over(0, ["t", "s"]).var("s") - ring_over(0, ["t", "s"]).var("t") ** 2,),
    )
    assert pres.rank() == 2


def test_flat_pullback_rejects_wrong_multiplicity():
    f = _cover(2)
    s0 = PrimeComponent(point_set(A1s, {"s": 0}), "s0", screen=False)
    t0 = PrimeComponent(point_set(A1, {"t": 0}), "t0", screen=False)
    bad = {s0: [PullbackTerm(t0, 3, probe=LineProbe({"t": 0}, {"t": 1}))]}
    with pytest.raises(FlatnessError):
        flat_pullback(Cycle(A1s, {s0: 1}), f, 0, "finite flat", bad)
    with pytest.raises(FlatnessError):
        flat_pullback(Cycle(A1s, {s0: 1}), f, 0, "")


def test_pullback_then_push_squares():
    """g^! f_* = f'_* g^! on explicit transversal squares."""
    X = Space([affine("x", "y")])
    Y = Space([affine("u", "v")])
    RX, RY = X.ring, Y.ring
    f = Morphism(X, Y, [(RX.var("x") ** 2, RX.var("y"))])
    a = cycle_of(PrimeComponent(whole_space(X), "X", screen=False), SupportFamily.full(X))
    fa = push_forward(a, f, SupportFamily.full(Y))
    # restrict to the hyperplane v = 0 on both sides
    from cyclecalc.axioms import _restrict_to_hyperplane

    lhs = _restrict_to_hyperplane(fa, RY.var("v"))
    aX = _restrict_to_hyperplane(a, RX.var("y"))
    rhs = push_forward(aX.with_family(SupportFamily.full(X)), f, SupportFamily.full(Y))
    assert lhs == rhs


def test_principal_divisors():
    P1 = Space([proj("U", "V")])
    T = Ring(("t",), P1.ring.field)
    t = T.var("t")
    d = principal_divisor_line(t, T.one(), P1)
    zero_pt = PrimeComponent(closed_set(P1, P1.ring.var("U")), "0", screen=False)
    inf_pt = PrimeComponent(closed_set(P1, P1.ring.var("V")), "inf", screen=False)
    assert d == Cycle(P1, {zero_pt: 1, inf_pt: -1})
    assert divisor_degree(d) == 0

    A1t = Space([affine("t")])
    d2 = principal_divisor_line(t**2 - 1, T.one(), A1t)
    assert sorted(d2.terms.values()) == [1, 1] and len(d2.terms) == 2

    d3 = principal_divisor_line(t**2 + 1, t, A1t)
    assert sorted(d3.terms.values()) == [-1, 1]
    quad = [c for c, m in d3.terms.items() if m == 1]
    assert quad[0].closed_set.ideal.gens[0].total_degree() == 2

    with pytest.raises(EngineError):
        principal_divisor_line(T.zero(), T.one(), A1t)
    with pytest.raises(EngineError):
        principal_divisor_line(t**2 - 1, t - 1, A1t)  # not coprime


def test_divisors_on_p1_have_degree_zero():
    P1 = Space([proj("U", "V")])
    T = Ring(("t",), P1.ring.field)
    t = T.var("t")
    funcs = [
        (t, T.one()),
        (t**2 - 1, t),
        (t**3 - 2 * t, t**2 + 1),
        (t**4 + t + 1, T.one()),
    ]
    for num, den in funcs:
        assert divisor_degree(principal_divisor_line(num, den, P1)) == 0


def test_char5_divisor():
    P1 = Space([proj("U", "V")], 5)
    T = Ring(("t",), P1.ring.field)
    t = T.var("t")
    d = principal_divisor_line(t**2 - 1, T.one(), P1)
    # splits into t-1, t+1 over F_5; infinity balances with -2
    assert sorted(d.terms.values()) == [-2, 1, 1]
    assert divisor_degree(d) == 0


def test_family_bounds_component_dimension():
    """Components above the family's dimension are rejected (semi-purity
    shadow at the cycle level)."""
    import pytest as _pytest
    from cyclecalc.errors import EngineError

    TS = Space([affine("x"), affine("w")])
    rp = TS.ring
    pt_set = closed_set(TS, rp.var("x"), rp.var("w"))
    fam = SupportFamily(TS, [pt_set])
    line = PrimeComponent(closed_set(TS, rp.var("w")), "line", screen=False)
    with _pytest.raises(EngineError):
        Cycle(TS, {line: 1}, fam)
