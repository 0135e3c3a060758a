"""Heap-ordered multivariate division against the plain largest-term scan."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecalc.groebner import divide, leading
from cyclecalc.orders import block_order, degrevlex, lex
from cyclecalc.poly import ring_over

from .oracles import reference_divide

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
