"""Heap-ordered multivariate division against the plain largest-term scan,
and the fraction-free reduction over QQ against the Fraction reduction."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecalc.groebner import _integer_form, _reduce, _Tracked, divide, leading
from cyclecalc.orders import block_order, degrevlex, lex
from cyclecalc.poly import ring_over

from .oracles import reference_divide, reference_reduce

NAMES = ["dv_x", "dv_y", "dv_z"]
RINGS = {char: ring_over(char, NAMES) for char in (0, 7, 32003)}
ORDERS = {
    "degrevlex": degrevlex(3),
    "lex": lex(3),
    "block": block_order([0, 1], [2]),
}


def _poly(draw, ring, min_terms):
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 3)] * ring.nvars),
                st.fractions(min_value=-5, max_value=5, max_denominator=3)
                if ring.characteristic == 0
                else st.integers(-5, 5),
            ),
            min_size=min_terms,
            max_size=5,
        )
    )
    out = ring.zero()
    for e, c in terms:
        out = out + ring.monomial(e, c)
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_divide_matches_reference(data):
    ring = RINGS[data.draw(st.sampled_from(sorted(RINGS)))]
    order = ORDERS[data.draw(st.sampled_from(sorted(ORDERS)))]
    f = _poly(data.draw, ring, 0)
    basis = [
        g
        for g in (_poly(data.draw, ring, 1) for _ in range(data.draw(st.integers(1, 4))))
        if not g.is_zero()
    ] or [ring.var(0) - ring.one()]
    leads = [leading(g, order) for g in basis] if data.draw(st.booleans()) else None

    r, quots = divide(f, basis, order, leads)
    assert (r, quots) == reference_divide(f, basis, order, leads)
    total = r
    for q, g in zip(quots, basis):
        total = total + q * g
    assert total == f


def _large_height_poly(draw, ring, min_terms):
    """Numerators and denominators up to 10^6 of either sign, so leading
    coefficients are negative about half the time."""
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 3)] * ring.nvars),
                st.integers(-(10**6), 10**6).filter(bool),
                st.integers(1, 10**6),
            ),
            min_size=min_terms,
            max_size=5,
        )
    )
    out = ring.zero()
    for e, n, d in terms:
        out = out + ring.monomial(e, Fraction(n, d))
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fraction_free_reduce_matches_reference(data):
    """Over QQ, _reduce on integer forms returns a primitive nonzero multiple
    of the Fraction remainder, with the same sugar."""
    ring = RINGS[0]
    order = ORDERS[data.draw(st.sampled_from(sorted(ORDERS)))]
    f = _large_height_poly(data.draw, ring, 0)
    polys = [
        g
        for g in (_large_height_poly(data.draw, ring, 1) for _ in range(data.draw(st.integers(1, 4))))
        if not g.is_zero()
    ] or [ring.var(0).scale(Fraction(-7, 3)) - ring.one()]
    sugars = [g.total_degree() + data.draw(st.integers(0, 2)) for g in polys]
    sugar = max(f.total_degree(), 0)

    fields = [_Tracked(g, None, s, order) for g, s in zip(polys, sugars)]
    ints = [_Tracked(None, None, s, order, _integer_form(g)) for g, s in zip(polys, sugars)]
    want, want_sugar = reference_reduce(f, sugar, fields, order)
    got, got_sugar = _reduce(_integer_form(f), sugar, ints, order)

    assert got_sugar == want_sugar
    assert got.keys() == want.terms.keys()
    if got:
        assert gcd(*got.values()) == 1
        e = next(iter(got))
        ratio = want.terms[e] / got[e]
        assert all(want.terms[e] == ratio * c for e, c in got.items())


def test_cancelled_term_that_reappears(monkeypatch):
    """f = -x^2*y + y^2 + y by [-y^2 + y, x*y - y] in degrevlex: reducing x*y
    cancels y, reducing y^2 brings y back, so y is keyed twice and its first
    heap entry is skipped when popped."""
    ring = RINGS[0]
    x, y, _ = ring.gens()
    order = ORDERS["degrevlex"]
    f = -(x**2) * y + y**2 + y
    basis = [-(y**2) + y, x * y - y]
    leads = [leading(g, order) for g in basis]
    keyed = []
    key = type(order).key

    def record(self, exp):
        keyed.append(exp)
        return key(self, exp)

    with monkeypatch.context() as m:
        m.setattr(type(order), "key", record)
        r, quots = divide(f, basis, order, leads)
    assert keyed.count((0, 1, 0)) == 2
    assert r == y
    assert quots == [ring.const(Fraction(-1)), -x - ring.one()]
    assert (r, quots) == reference_divide(f, basis, order, leads)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=0, max_size=5))
def test_degrevlex_key_matches_definition(exp):
    """Total degree first, then the smallest last exponent wins."""
    e = tuple(exp)
    want = (sum(e),) + tuple(-e[i] for i in range(len(e) - 1, -1, -1))
    assert degrevlex(len(e)).key(e) == want
