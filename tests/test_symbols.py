"""Generalized fractions: rewriting rules, zero tests, cycle classes,
the multiplicity identity, and the projection-vanishing checker."""

import importlib
import random
from collections import OrderedDict

import pytest

from cyclecalc.errors import BudgetExceeded, EngineError, RegularityError
from cyclecalc.forms import Form
from cyclecalc.geometry import PrimeComponent, Space, affine, closed_set
from cyclecalc.groebner import Budget, Ideal, budget_scope, member
from cyclecalc.poly import ring_over
from cyclecalc.symbols import (
    Chart,
    KoszulFraction,
    cycle_class_at_chart,
    lci_trace_symbol,
    split_and_project,
    vanishing_check,
    verify_regular_sequence,
)

# the module, not the function that `cyclecalc.groebner` names
groebner_mod = importlib.import_module("cyclecalc.groebner")

A2 = Space([affine("x", "y")])
R = A2.ring
X, Y = R.gens()


def test_fraction_basics():
    assert not KoszulFraction(R.one(), (X,)).is_zero()
    assert KoszulFraction(X, (X,)).is_zero()
    assert KoszulFraction(X**2, (X, Y)).is_zero()
    # y = (y - x^2) + x * x lies in the denominator ideal
    assert KoszulFraction(Y, (X, Y - X**2)).is_zero()


def test_regularity_rejected():
    with pytest.raises(RegularityError):
        KoszulFraction(R.one(), (X, X * Y))
    # empty locus inside the chart gives the zero fraction, not an error
    chart = Chart((X,))
    f = KoszulFraction(R.one(), (X, Y), chart)
    assert f.is_zero()


def test_transformation_rule():
    f = KoszulFraction(R.one(), (X,))
    g = f.transform((X**2,))
    assert g.numerator.as_poly() == X
    assert f.equal(g)
    h = KoszulFraction(R.one(), (X, Y)).transform((X**2, Y**2))
    assert h.numerator.as_poly() == X * Y
    assert h.equal(KoszulFraction(R.one(), (X, Y)))


def test_permutation_sign():
    f = KoszulFraction(R.one(), (X, Y))
    swapped = f.transform((Y, X))
    assert swapped.equal(KoszulFraction(R.const(-1), (Y, X)))


def test_transform_round_trip_unit_determinant():
    base = KoszulFraction(Form.d(X), (X, Y))
    # unit-determinant change: rows (x+y, y), (y ... use t' = (x + y... careful: need (t') ⊆ (t)
    t2 = (X + Y, Y)
    moved = base.transform(t2)
    back = moved.transform((X, Y))
    assert back.equal(base)


def test_injectivity_of_power_refinement():
    """m in (t) iff det(T) m in (t^N): the fact backing the zero test."""
    rng = random.Random(41)
    R3 = ring_over(0, ["x", "y", "z"])
    x, y, z = R3.gens()
    seqs = [(x,), (x, y), (x, y - x**2), (x + z, y)]
    for _ in range(50):
        t = seqs[rng.randrange(len(seqs))]
        N = rng.randint(2, 3)
        det = R3.one()
        for ti in t:
            det = det * ti ** (N - 1)
        m = R3.zero()
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            m = m + R3.monomial(e, rng.randint(-3, 3))
        if rng.random() < 0.5:
            m = m * t[rng.randrange(len(t))]
        tN = tuple(ti**N for ti in t)
        lhs = member(m, Ideal(R3, list(t)))
        rhs = member(det * m, Ideal(R3, list(tN)))
        assert lhs == rhs


def test_cousin_boundary():
    f = KoszulFraction(R.one(), (X,)).cousin_boundary(Y)
    assert f.denominators == (X, Y) and not f.is_zero()
    killed = KoszulFraction(X, (Y,)).cousin_boundary(X)
    assert killed.is_zero()
    # additive and kills multiples of the new denominator
    a = KoszulFraction(X + Y, (X,)).cousin_boundary(Y)
    b = KoszulFraction(X, (X,)).cousin_boundary(Y) + KoszulFraction(Y, (X,)).cousin_boundary(Y)
    assert (a - b).is_zero()
    assert KoszulFraction(Y * (X + 1), (X,)).cousin_boundary(Y).is_zero()


def test_cup_products():
    cup = KoszulFraction(Form.d(X), (X,)).cup(KoszulFraction(Form.d(Y), (Y,)))
    assert cup.denominators == (X, Y)
    assert cup.numerator == Form.d(X).wedge(Form.d(Y))
    # cup with the empty-denominator fraction is the identity
    unit = KoszulFraction(R.one(), ())
    f = KoszulFraction(Form.d(X), (X,))
    assert unit.cup(f).equal(f) and f.cup(unit).equal(f)


def test_cycle_class_examples():
    D = PrimeComponent(closed_set(A2, X - Y), "diag", screen=False)
    cl = cycle_class_at_chart(D, [X - Y], witness={"x": 1, "y": 1})
    assert cl.numerator == -Form.d(X - Y)
    O = PrimeComponent(closed_set(A2, X, Y), "origin", screen=False)
    cl2 = cycle_class_at_chart(O, [X, Y], witness={"x": 0, "y": 0})
    assert cl2.numerator == Form.d(X).wedge(Form.d(Y))
    P = PrimeComponent(closed_set(A2, Y - X**2), "parabola", screen=False)
    cl3 = cycle_class_at_chart(P, [Y - X**2], witness={"x": 0, "y": 0})
    assert cl3.numerator == -Form.d(Y - X**2)


def test_cycle_class_rejects_bad_parameters():
    D = PrimeComponent(closed_set(A2, X - Y), "diag", screen=False)
    with pytest.raises(EngineError):
        cycle_class_at_chart(D, [X], witness={"x": 0, "y": 0})
    with pytest.raises(EngineError):
        cycle_class_at_chart(D, [(X - Y) ** 2])  # fails to generate


def test_cycle_class_chart_independence():
    cases = [
        (PrimeComponent(closed_set(A2, X - Y), "diag", screen=False),
         [X - Y], [Y - X], {"x": 1, "y": 1}),
        (PrimeComponent(closed_set(A2, Y - X**2), "par", screen=False),
         [Y - X**2], [X**2 - Y], {"x": 0, "y": 0}),
        (PrimeComponent(closed_set(A2, X, Y), "orig", screen=False),
         [X, Y], [X + Y**2, Y], {"x": 0, "y": 0}),
    ]
    for W, t1, t2, wit in cases:
        c1 = cycle_class_at_chart(W, t1, witness=wit)
        c2 = cycle_class_at_chart(W, t2, witness=wit)
        assert c1.equal(c2)


def test_cycle_class_with_chart_units():
    # same parabola, parameters differing by the unit (1 + y) on the chart
    chart = Chart((R.one() + Y,))
    P = PrimeComponent(closed_set(A2, Y - X**2), "par", screen=False)
    c1 = cycle_class_at_chart(P, [Y - X**2], chart)
    c2 = cycle_class_at_chart(P, [(Y - X**2) * (R.one() + Y)], chart)
    assert c1.equal(c2)


def test_lci_trace_symbol_signs():
    s1 = lci_trace_symbol(R.one(), (X,))
    assert s1.numerator.as_poly() == R.const(-1)
    s2 = lci_trace_symbol(R.one(), (X, Y))
    assert s2.numerator.as_poly() == R.const(-1)
    assert lci_trace_symbol(X, (X,)).is_zero()
    R3 = ring_over(0, ["x", "y", "z"])
    s3 = lci_trace_symbol(R3.one(), tuple(R3.gens()))
    # (-1)^{3*4/2} = +1
    assert s3.numerator.as_poly() == R3.one()


def test_multiplicity_identity():
    for n in (2, 3):
        f, t, pi = Y, Y - X**n, X
        lhs = KoszulFraction(Form.d(f).wedge(Form.d(t)), (f, t))
        rhs = KoszulFraction(Form.d(pi).wedge(Form.d(t)), (pi, t)).scale(n)
        assert lhs.equal(rhs)
        assert not lhs.equal(rhs.scale(2))


def test_split_and_project():
    prod = Space([affine("x1"), affine("y1")])
    rp = prod.ring
    V = PrimeComponent(closed_set(prod, rp.var("x1") - rp.var("y1")), "diag", screen=False)
    cl = cycle_class_at_chart(V, [rp.var("x1") - rp.var("y1")], witness={"x1": 0, "y1": 0})
    q0 = split_and_project(cl, {1}, 0)
    q1 = split_and_project(cl, {1}, 1)
    assert q0.numerator == Form(rp, 1, {(0,): rp.const(-1)})
    assert q1.numerator == Form(rp, 1, {(1,): rp.one()})
    assert split_and_project(cl, {1}, 2).is_zero()


def test_vanishing_checker():
    prod = Space([affine("x1"), affine("y1")])
    rp = prod.ring
    H = PrimeComponent(closed_set(prod, rp.var("y1")), "horizontal", screen=False)
    assert vanishing_check(H, {1}, 1, [rp.var("y1")], [], witness={"x1": 0, "y1": 0}) == [(0, True)]
    V = PrimeComponent(closed_set(prod, rp.var("x1")), "vertical", screen=False)
    assert vanishing_check(V, {0}, 1, [rp.var("x1")], [], witness={"x1": 0, "y1": 0}) == [(0, True)]
    # diagonal: codim-0 projections, nothing asserted
    D = PrimeComponent(closed_set(prod, rp.var("x1") - rp.var("y1")), "diag", screen=False)
    assert vanishing_check(D, {1}, 0, [], [rp.var("x1") - rp.var("y1")], witness={"x1": 0, "y1": 0}) == []
    # parameters using the wrong factor are rejected
    with pytest.raises(EngineError):
        vanishing_check(H, {1}, 1, [rp.var("x1")], [rp.var("y1")])


def test_regular_sequence_certificate():
    """The certificate carries the reduced basis of the localized ideal (t),
    and no basis when the chart misses V(t)."""
    cert = verify_regular_sequence(R, (X, Y - X**2))
    assert cert.basis is groebner_mod.groebner(Ideal(R, [X, Y - X**2]))
    assert cert.basis.basis == [Y, X]
    assert verify_regular_sequence(R, (X, Y), Chart((X,))).basis is None
    # on the chart 1 + y != 0, (y(1 + y)) localizes to (y)
    assert verify_regular_sequence(R, (Y * (R.one() + Y),), Chart((R.one() + Y,))).basis.basis == [Y]


def test_cycle_class_independence_three_choices_each():
    """Three parameter routes per variety agree (with charts where needed)."""
    diag = PrimeComponent(closed_set(A2, X - Y), "diag", screen=False)
    chart_d = Chart((R.one() + X - Y,))
    routes_diag = [
        ([X - Y], Chart(())),
        ([Y - X], Chart(())),
        ([(X - Y) * (R.one() + X - Y)], chart_d),
    ]
    base = cycle_class_at_chart(diag, routes_diag[0][0], chart_d)
    for params, _ in routes_diag[1:]:
        assert base.equal(cycle_class_at_chart(diag, params, chart_d))

    orig = PrimeComponent(closed_set(A2, X, Y), "orig", screen=False)
    routes_orig = [[X, Y], [Y, X], [X + Y**2, Y]]
    base_o = cycle_class_at_chart(orig, routes_orig[0])
    for params in routes_orig[1:]:
        assert base_o.equal(cycle_class_at_chart(orig, params))

    par = PrimeComponent(closed_set(A2, Y - X**2), "par", screen=False)
    chart_p = Chart((R.one() + Y,))
    routes_par = [[Y - X**2], [X**2 - Y], [(Y - X**2) * (R.one() + Y)]]
    base_p = cycle_class_at_chart(par, routes_par[0], chart_p)
    for params in routes_par[1:]:
        assert base_p.equal(cycle_class_at_chart(par, params, chart_p))


def test_fraction_groebner_sees_the_budget(monkeypatch):
    """The constructor's Gröbner work runs in verify_regular_sequence, under
    the caller's budget; given a certificate, construction does none.  The
    variable names are this test's own: the cache ignores the budget."""
    ring = ring_over(0, ["kfa", "kfb"])
    a, b = ring.gens()
    ts = (a**2 + b, a * b + 1)
    with budget_scope(Budget(max_pairs=0)), pytest.raises(BudgetExceeded) as err:
        KoszulFraction(ring.one(), ts)
    names = [entry.name for entry in err.traceback]
    assert names[names.index("__init__") + 1] == "verify_regular_sequence"
    assert "groebner" in names[names.index("verify_regular_sequence") :]
    certificate = verify_regular_sequence(ring, ts)
    # an empty cache: any Gröbner call would run Buchberger and trip
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    with budget_scope(Budget(max_pairs=0)):
        f = KoszulFraction(a**3 + b * a, ts, _certificate=certificate)
    assert f.certificate is certificate and f.numerator.as_poly() == certificate.basis.normal_form(a**3 + b * a)
    assert len(groebner_mod._gb_cache) == 0
