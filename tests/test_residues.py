"""Residue symbols and finite-morphism traces, against independent oracles."""

import importlib
import random
from collections import OrderedDict
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecalc.errors import BudgetExceeded, EngineError
from cyclecalc.forms import Form
from cyclecalc.groebner import Budget, Ideal, budget_scope
from cyclecalc.orders import degrevlex
from cyclecalc.poly import Poly, ring_over
from cyclecalc.residues import (
    FinitePresentation,
    multiplication_trace,
    pullback_to_total,
    remainder_in_var,
    residue,
    trace_form,
    trace_property_check,
)

from .oracles import divmod_in_var

# the module, not the function that `cyclecalc.groebner` names
groebner_mod = importlib.import_module("cyclecalc.groebner")

R = ring_over(0, ["x", "y"])
X, Y = R.gens()


def _pres(t):
    return FinitePresentation(R, ("y",), ("x",), (t,))


def _sympy_poly(p, var="x"):
    s = sympy.Symbol(var)
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        expr += sympy.Rational(c.numerator, c.denominator) * s ** e[0]
    return sympy.Poly(expr, s)


def _sum_over_roots_oracle(h, g):
    """Trace of h * (g')^{-1} modulo g: equals the sum of h(r)/g'(r) over the
    roots of g in a splitting field.  Entirely sympy-based, independent of the
    eliminant-reduction route."""
    s = sympy.Symbol("x")
    gp = _sympy_poly(g)
    hp = _sympy_poly(h)
    dg = gp.diff(s)
    inv = sympy.invert(dg.as_expr(), gp.as_expr(), s)
    u = (hp.as_expr() * inv) % gp.as_expr()
    u = sympy.Poly(sympy.rem(sympy.expand(hp.as_expr() * inv), gp.as_expr(), s), s)
    n = gp.degree()
    # multiplication matrix of u on the power basis
    trace = sympy.Integer(0)
    for i in range(n):
        col = sympy.Poly(sympy.rem(sympy.expand(u.as_expr() * s**i), gp.as_expr(), s), s)
        trace += col.coeff_monomial(s**i)
    return Fraction(int(sympy.numer(trace)), int(sympy.denom(trace)))


def test_residue_monomial_rules():
    for n in range(1, 6):
        for a in range(0, 6):
            val = residue(_pres(X**n), X**a)
            expect = 1 if a == n - 1 else 0
            assert val == val.ring.const(expect), (n, a)


def test_residue_spec_values():
    p = _pres(X**2 - Y)
    assert residue(p, X) == p.base_ring().const(1)
    assert residue(p, R.one()).is_zero()


def test_residue_sum_over_roots_30_queries():
    rng = random.Random(99)
    done = 0
    while done < 30:
        deg = rng.randint(1, 4)
        g = X**deg
        for k in range(deg):
            g = g + (X**k).scale(rng.randint(-4, 4))
        sg = _sympy_poly(g)
        if sympy.degree(sympy.gcd(sg, sg.diff()), sympy.Symbol("x")) > 0:
            continue  # oracle needs a squarefree denominator
        h = R.zero()
        for k in range(rng.randint(1, 5)):
            h = h + (X**k).scale(rng.randint(-5, 5))
        if h.is_zero():
            continue
        got = residue(_pres(g), h)
        want = _sum_over_roots_oracle(h, g)
        assert got == got.ring.const(want), (str(g), str(h), str(got), want)
        done += 1


def test_residue_transformation_law():
    rng = random.Random(3)
    R2 = ring_over(0, ["x1", "x2", "y1", "y2"])
    x1, x2, y1, y2 = R2.gens()
    t = (x1**2 - y1, x2**2 - y2 * x2 - 1)
    pres = FinitePresentation(R2, ("y1", "y2"), ("x1", "x2"), t)
    h = x1 * x2 + x2
    base_val = residue(pres, h)
    checked = 0
    while checked < 20:
        T = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        det = T[0][0] * T[1][1] - T[0][1] * T[1][0]
        if det == 0:
            continue
        t_new = (
            t[0].scale(T[0][0]) + t[1].scale(T[0][1]),
            t[0].scale(T[1][0]) + t[1].scale(T[1][1]),
        )
        pres_new = FinitePresentation(R2, ("y1", "y2"), ("x1", "x2"), t_new)
        val = residue(pres_new, h.scale(det))
        assert val == base_val, (T, str(val), str(base_val))
        checked += 1


def test_residue_base_linearity():
    rng = random.Random(7)
    pres = _pres(X**3 - Y * X - 2)
    for _ in range(10):
        a = Y**rng.randint(0, 2)
        h1 = X**rng.randint(0, 3)
        h2 = (X**rng.randint(0, 3)).scale(rng.randint(-3, 3))
        lhs = residue(pres, h1 * a.scale(1) + h2)
        base = pres.base_ring()
        a_base = pres.to_base(a)
        rhs = a_base * residue(pres, h1) + residue(pres, h2)
        assert lhs == rhs


def test_residue_normalizes_to_matrix_trace():
    """Res[h dt / t] equals the multiplication-operator trace, on 5 covers."""
    covers = [X**2 - Y, X**3 - Y, X**2 - Y * X - 1, X**3 - Y * X**2 - 2, X**4 - Y]
    for t in covers:
        pres = _pres(t)
        for h in (R.one(), X, X + R.one()):
            dt_dx = t.derivative(0)
            got = residue(pres, h * dt_dx)
            want = multiplication_trace(pres, h)
            assert got == want, (str(t), str(h))


def test_trace_values_double_cover():
    pres = _pres(Y - X**2)
    B = pres.base_ring()
    assert trace_form(pres, Form.from_poly(R.one())).output.as_poly() == B.const(2)
    assert trace_form(pres, Form.from_poly(X)).output.is_zero()
    assert trace_form(pres, Form.d(X).scale(X)).output == Form.d(B.var("y"))
    assert trace_form(pres, Form.d(X)).output.is_zero()


def test_trace_sign_conformance():
    # tau_f(1) = +deg f on d = 1 and d = 2 presentations
    assert trace_form(_pres(Y - X**2), Form.from_poly(R.one())).output.as_poly().constant_value() == 2
    R4 = ring_over(0, ["x1", "x2", "y1", "y2"])
    pres2 = FinitePresentation(
        R4, ("y1", "y2"), ("x1", "x2"),
        (R4.var("y1") - R4.var("x1") ** 2, R4.var("y2") - R4.var("x2") ** 3),
    )
    assert trace_form(pres2, Form.from_poly(R4.one())).output.as_poly().constant_value() == 6


def test_trace_signs_with_base_variables_first():
    """Rings that list base variables before fiber ones, and fiber variables
    out of ring order, so the reordering signs in trace_form are not all +1."""
    R2 = ring_over(0, ["y", "x"])
    y, x = R2.gens()
    pres = FinitePresentation(R2, ("y",), ("x",), (y - x**2,))
    assert trace_form(pres, Form.d(x).scale(x)).output == Form.d(pres.base_ring().var("y"))
    assert trace_property_check(pres, "projection") == "pass"
    R4 = ring_over(0, ["y1", "x2", "y2", "x1"])
    y1, x2, y2, x1 = R4.gens()
    pres2 = FinitePresentation(R4, ("y1", "y2"), ("x1", "x2"), (x1**2 + x1 - y1, x2**2 + x1 * x2 + y1 - y2))
    assert trace_form(pres2, Form.from_poly(R4.one())).output.as_poly().constant_value() == 4
    assert trace_form(pres2, Form.d(x1).scale(x1)).output == Form.d(pres2.base_ring().var("y1")).scale(2)
    for which in ("degree0", "projection", "degree"):
        assert trace_property_check(pres2, which) == "pass", which


def test_trace_properties_char0_and_char5():
    assert trace_property_check(_pres(Y - X**2), "degree0") == "pass"
    assert trace_property_check(_pres(Y - X**2), "projection") == "pass"
    assert trace_property_check(_pres(Y - X**2), "degree") == "pass"
    R5 = ring_over(5, ["x", "y"])
    x5, y5 = R5.gens()
    pres5 = FinitePresentation(R5, ("y",), ("x",), (y5 - x5**3,))
    assert trace_property_check(pres5, "degree") == "pass"
    assert trace_property_check(pres5, "degree0") == "pass"
    # char-5 matrix oracle for tau o f* = 3 id on {1, dy}
    B5 = pres5.base_ring()
    one_pb = pullback_to_total(pres5, Form.from_poly(B5.one()))
    dy_pb = pullback_to_total(pres5, Form.d(B5.var("y")))
    assert trace_form(pres5, one_pb).output == Form.from_poly(B5.const(3))
    assert trace_form(pres5, dy_pb).output == Form.d(B5.var("y")).scale(3)


def test_trace_property_check_renders_no_strings(monkeypatch):
    """The trace audit strings are rendered only when read, and no property
    check reads them."""
    R4 = ring_over(0, ["x1", "x2", "y1", "y2"])
    x1, x2, y1, y2 = R4.gens()
    pres = FinitePresentation(R4, ("y1", "y2"), ("x1", "x2"), (x1**2 - y1, x2**2 + x1 * x2 - y2))

    def refuse(self):
        raise AssertionError("rendered a string")

    monkeypatch.setattr(Poly, "__str__", refuse)
    monkeypatch.setattr(Form, "__str__", refuse)
    for which in ("degree0", "projection", "degree"):
        assert trace_property_check(pres, which) == "pass", which


def test_trace_inapplicable_when_char_divides_degree():
    R3 = ring_over(3, ["x", "y"])
    x3, y3 = R3.gens()
    pres3 = FinitePresentation(R3, ("y",), ("x",), (y3 - x3**3,))
    assert trace_property_check(pres3, "degree") == "inapplicable"


def test_trace_lift_independence():
    """Two lifts of the same class give the same trace (3 cases)."""
    pres = _pres(Y - X**2)
    t = Y - X**2
    cases = [
        (Form.from_poly(X), Form.from_poly(X + t)),
        (Form.from_poly(R.one()), Form.from_poly(R.one() + t.scale(3))),
        (Form.d(X).scale(X), Form.d(X).scale(X + t * X)),
    ]
    for a, b in cases:
        assert trace_form(pres, a).output == trace_form(pres, b).output


def test_divmod_in_var():
    q, r = divmod_in_var(X**4, X**2 - Y, 0)
    assert q == X**2 + Y and r == Y**2
    assert remainder_in_var(X**4, X**2 - Y, 0) == Y**2
    with pytest.raises(EngineError):
        divmod_in_var(X, Y * X - 1, 0)


REM_RINGS = {char: ring_over(char, ["x", "y", "z"]) for char in (0, 3, 32003)}


def _rem_poly(draw, R, top: int, free_of=None):
    """A sum of up to three terms, each of degree at most `top` in every
    variable and of degree 0 in the variable `free_of`."""
    out = R.zero()
    for _ in range(draw(st.integers(0, 3))):
        e = tuple(0 if i == free_of else draw(st.integers(0, top)) for i in range(R.nvars))
        out = out + R.monomial(e, R.field.coerce(draw(st.integers(-3, 3))))
    return out


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_remainder_matches_the_oracle(data):
    """f = a * g + b, with g of degree n in x_i and monic up to a unit, and
    b of x_i-degree below n half the time: zero f, f of x_i-degree below n
    and wholesale cancellation all occur.  The remainder is the oracle's,
    term for term, with no zero coefficient stored."""
    R = REM_RINGS[data.draw(st.sampled_from(sorted(REM_RINGS)))]
    fld = R.field
    xi = data.draw(st.integers(0, R.nvars - 1))
    n = data.draw(st.integers(0, 3))
    x = R.var(xi)
    unit = fld.coerce(data.draw(st.sampled_from((1, 1, 2, -1))))
    g = (x**n).scale(unit)
    for k in range(n):
        g = g + x**k * _rem_poly(data.draw, R, 2, free_of=xi)
    b = _rem_poly(data.draw, R, 3)
    if data.draw(st.booleans()):
        b = Poly(R, {e: c for e, c in b.terms.items() if e[xi] < n})
    f = _rem_poly(data.draw, R, 2) * g + b
    r = remainder_in_var(f, g, xi)
    assert r == divmod_in_var(f, g, xi)[1], (str(f), str(g))
    assert fld.zero not in r.terms.values()
    assert r.degree_in(xi) < n
    other = R.var((xi + 1) % R.nvars)
    for bad in (g + (x**n) * other, R.zero()):
        with pytest.raises(EngineError, match="not monic"):
            remainder_in_var(f, bad, xi)


def test_fiber_finiteness_required():
    with pytest.raises(EngineError):
        residue(_pres(Y * X - 1), X)


def test_trace_form_groebner_sees_the_budget():
    """The basis of (t) that trace_form reduces by is computed, by the
    presentation's frame builder, under the caller's budget, and the trip
    leaves no frame behind.  The variable names are this test's own: the
    cache ignores the budget."""
    ring = ring_over(0, ["tfb", "tfs", "tft"])
    b, s, t = ring.gens()
    pres = FinitePresentation(ring, ("tfb",), ("tfs", "tft"), (s**2 + b * t, s * t + 1))
    with budget_scope(Budget(max_pairs=0)), pytest.raises(BudgetExceeded) as err:
        trace_form(pres, Form.from_poly(ring.one()))
    names = [entry.name for entry in err.traceback]
    assert names[names.index("groebner") - 1] == "residue_frame"
    assert "trace_form" in names[: names.index("groebner")]
    assert "residue_frame" not in vars(pres)


def test_trace_form_and_residue_share_one_basis(monkeypatch):
    """t = (y - x^2) is already triangular and monic, so the frame reads its
    eliminant and cofactor row off t: the ideal (t) gets one packed
    Buchberger run in degrevlex, which trace_form reduces by, and no
    cofactor run at all."""
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    runs = []
    finalize = groebner_mod._finalize

    def record(I, order, G):
        runs.append((I, order))
        return finalize(I, order, G)

    def no_cofactors(I, order):
        raise AssertionError(f"a cofactor run on {I}")

    monkeypatch.setattr(groebner_mod, "_finalize", record)
    monkeypatch.setattr(groebner_mod, "_cofactor_basis", no_cofactors)
    pres = _pres(Y - X**2)
    trace_form(pres, Form.d(X).scale(X))
    residue(pres, X)
    I, order = Ideal(R, [Y - X**2]), degrevlex(2)
    assert runs.count((I, order)) == 1
