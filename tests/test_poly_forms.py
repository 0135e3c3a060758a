"""Exact polynomial arithmetic and differential forms."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclecalc.errors import RingMismatch
from cyclecalc.fields import GF, QQ
from cyclecalc.forms import Form
from cyclecalc.poly import ring_over

R3 = ring_over(0, ["x", "y", "z"])


def _poly_strategy(ring, max_terms=5, max_deg=3, coeff_bound=6):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(ring.nvars)])
    coeffs = st.integers(-coeff_bound, coeff_bound)
    def build(pairs):
        out = ring.zero()
        for e, c in pairs:
            out = out + ring.monomial(e, c)
        return out
    return st.lists(st.tuples(exps, coeffs), max_size=max_terms).map(build)


polys = _poly_strategy(R3)


def test_cancellation():
    x, y, _ = R3.gens()
    assert (x + y) + (x - y) == x.scale(2)


def test_difference_of_squares():
    x, y, _ = R3.gens()
    assert (x + y) * (x - y) == x**2 - y**2


def test_freshmans_dream_char2():
    R = ring_over(2, ["x", "y"])
    x, y = R.gens()
    # oracle: expand term by term, cross terms carry coefficient 2 = 0
    expansion = x**2 + x * y + x * y + y**2
    assert (x + y) ** 2 == expansion == x**2 + y**2


def test_ring_mismatch_rejected():
    other = ring_over(0, ["x", "y"])
    with pytest.raises(RingMismatch):
        R3.var("x") + other.var("x")


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


@settings(max_examples=200, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


# the ring of each characteristic the derivative is checked in; exponents up
# to 10 include multiples of 5 and 7, whose derivatives lose the term
DIFF_RINGS = {char: ring_over(char, ["x", "y", "z"]) for char in (0, 5, 7)}
DIFF_SYMBOLS = sympy.symbols("x y z")


def _sympy_poly(p):
    """p in sympy, over QQ or GF(p) as its ring is."""
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        mono = sympy.Mul(*[s**k for s, k in zip(DIFF_SYMBOLS, e)])
        expr += sympy.Rational(c.numerator, c.denominator) * mono
    char = p.ring.characteristic
    if char:
        return sympy.Poly(expr, *DIFF_SYMBOLS, modulus=char)
    return sympy.Poly(expr, *DIFF_SYMBOLS, domain="QQ")


def _engine_terms(sp, char):
    """The nonzero terms of a sympy Poly as an engine term dict."""
    if char:
        out = {m: int(c) % char for m, c in sp.terms()}
    else:
        out = {m: Fraction(int(c.p), int(c.q)) for m, c in sp.terms()}
    return {m: c for m, c in out.items() if c}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(DIFF_RINGS)).flatmap(
        lambda char: _poly_strategy(DIFF_RINGS[char], max_terms=6, max_deg=10)
    ),
    st.integers(0, 2),
)
@example(DIFF_RINGS[5].monomial((5, 1, 0), 2) + DIFF_RINGS[5].monomial((6, 0, 10), 3), 0)
@example(DIFF_RINGS[7].monomial((0, 7, 14), 1) + DIFF_RINGS[7].monomial((1, 8, 0), -1), 1)
@example(DIFF_RINGS[0].monomial((3, 0, 5), Fraction(-2, 3)), 2)
def test_derivative_matches_sympy(p, i):
    char = p.ring.characteristic
    want = _engine_terms(_sympy_poly(p).diff(DIFF_SYMBOLS[i]), char)
    assert p.derivative(i).terms == want


def test_canonical_no_zero_terms():
    x, y, _ = R3.gens()
    p = x * y - x * y
    assert p.is_zero() and p.terms == {}


# ---------------------------------------------------------------------------
# forms

R4 = ring_over(0, ["a", "b", "c", "d4"])


def _form_strategy(ring, degree):
    idx_tuples = st.sets(st.integers(0, ring.nvars - 1), min_size=degree, max_size=degree)
    entry = st.tuples(idx_tuples, _poly_strategy(ring, max_terms=2, max_deg=2, coeff_bound=4))
    def build(entries):
        out = Form.zero(ring, degree)
        for idx, p in entries:
            out = out + Form(ring, degree, {tuple(sorted(idx)): p})
        return out
    return st.lists(entry, max_size=3).map(build)


def test_wedge_basics():
    x, y = R4.var(0), R4.var(1)
    dx, dy = Form.d(x), Form.d(y)
    assert str(dx.wedge(dy)) == "d(a)^d(b)"
    assert dy.wedge(dx) == -dx.wedge(dy)
    assert dy.scale(x).wedge(dx.scale(y)) == dx.wedge(dy).scale(-(x * y))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3).flatmap(lambda d: st.tuples(st.just(d), _form_strategy(R4, d))),
    st.integers(0, 3).flatmap(lambda d: st.tuples(st.just(d), _form_strategy(R4, d))),
    st.integers(0, 3).flatmap(lambda d: st.tuples(st.just(d), _form_strategy(R4, d))),
)
def test_wedge_associative_graded_commutative(fa, fb, fc):
    (da, a), (db, b), (dc, c) = fa, fb, fc
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
    sign = (-1) ** (da * db)
    ba = b.wedge(a)
    assert a.wedge(b) == (ba if sign == 1 else -ba)


def test_pullback_chain_rule():
    T = ring_over(0, ["t"])
    target = ring_over(0, ["y"])
    t = T.var(0)
    pb = Form.d(target.var(0)).pullback({0: t**2}, T)
    assert pb == Form.d(t).scale(t.scale(2))


def test_pullback_identity():
    R = ring_over(0, ["x", "y"])
    w = Form.d(R.var(0)).wedge(Form.d(R.var(1))).scale(R.var(0))
    images = {0: R.var(0), 1: R.var(1)}
    assert w.pullback(images, R) == w


def test_pullback_jacobian_oracle():
    R = ring_over(0, ["x", "y"])
    UV = ring_over(0, ["u", "v"])
    x, y = R.gens()
    duv = Form.d(UV.var(0)).wedge(Form.d(UV.var(1)))
    # oracle: the Jacobian determinant of (x+y, xy)
    jac = (x + y).derivative(0) * (x * y).derivative(1) - (x + y).derivative(1) * (
        x * y
    ).derivative(0)
    assert duv.pullback({0: x + y, 1: x * y}, R) == Form.d(x).wedge(Form.d(y)).scale(jac)


def test_pullback_is_ring_map():
    rng = random.Random(11)
    R = ring_over(0, ["x", "y"])
    target = ring_over(0, ["u", "v"])
    x, y = R.gens()
    images = {0: x + y**2, 1: x * y - 1}

    def rand_poly(ring):
        out = ring.zero()
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
            out = out + ring.monomial(e, rng.randint(-3, 3))
        return out

    def rand_form(ring):
        deg = rng.randint(0, 1)
        if deg == 0:
            return Form.from_poly(rand_poly(ring))
        return Form(ring, 1, {(rng.randint(0, 1),): rand_poly(ring)})

    for _ in range(50):
        alpha, beta = rand_form(target), rand_form(target)
        lhs = alpha.wedge(beta).pullback(images, R)
        rhs = alpha.pullback(images, R).wedge(beta.pullback(images, R))
        assert lhs == rhs


_PB_SOURCE = ring_over(0, ["a", "b", "c"])
_PB_TARGET = ring_over(0, ["t", "c", "b", "a"])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3).flatmap(lambda d: _form_strategy(_PB_SOURCE, d)),
    st.sets(st.integers(0, 2)),
    st.lists(_poly_strategy(_PB_TARGET, max_terms=3, max_deg=2), min_size=3, max_size=3),
)
def test_pullback_maps_missing_variables_to_their_names(w, mapped, polys):
    """A variable left out of `images` goes to the target variable of the
    same name, exactly as if it were mapped there explicitly."""
    images = {i: polys[i] for i in mapped}
    explicit = {i: images.get(i, _PB_TARGET.var(_PB_SOURCE.vars[i])) for i in range(3)}
    assert w.pullback(images, _PB_TARGET) == w.pullback(explicit, _PB_TARGET)


def test_cancelled_forms_hold_no_component():
    R = ring_over(0, ["x", "y"])
    x, y = R.gens()
    dx, dy = Form.d(x), Form.d(y)
    w = dx.scale(y) + dy.scale(x * x)
    assert (w - w).components == {}
    assert dx.wedge(dx).components == {}
    # dx^dy from the first product cancels dy^dx from the second
    assert (dx + dy).wedge(dx + dy).components == {}
    assert Form.d(R.const(3)).components == {}
    F5 = ring_over(5, ["x"])
    assert Form.d(F5.var(0) ** 5).components == {}


def test_exterior_derivative_square_zero():
    R = ring_over(0, ["x", "y", "z"])
    w = Form.d(R.var(0)).scale(R.var(1) * R.var(2))
    assert w.exterior_d().exterior_d().is_zero()
