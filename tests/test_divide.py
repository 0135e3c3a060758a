"""Heap-ordered multivariate division against the plain largest-term scan,
packed monomials against exponent tuples, and the packed reduction against
the field reduction."""

import heapq
import importlib
import json
import random
from collections import OrderedDict
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecalc.errors import BudgetExceeded, EngineError
from cyclecalc.groebner import Budget, Ideal, _packed_form, _Packed, budget_scope, divide, groebner, leading
from cyclecalc.orders import FIELD_BITS, block_order, degrevlex, exp_add, exp_divides, lex, packing
from cyclecalc.poly import ring_over

from .oracles import reference_divide, reference_reduce

# the module, not the function that `cyclecalc.groebner` names; the reducer
# is looked up on it at call time, so that test_mutants' rewrites reach it
groebner_mod = importlib.import_module("cyclecalc.groebner")
orders_mod = importlib.import_module("cyclecalc.orders")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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
    # Poly equality cannot tell 2 from Fraction(2, 1): a QQ scalar must be
    # an int when it is integral
    if not ring.characteristic:
        for part in (r, *quots):
            assert all(type(c) is int or c.denominator > 1 for c in part.terms.values()), part.terms
    total = r
    for q, g in zip(quots, basis):
        total = total + q * g
    assert total == f


def test_scaled_division_writes_field_values():
    """Over QQ, f = x^2/3 + y/5 by 2x + 1 runs with S = 15, then 30, then 60
    (neither the x^2 step's quotient nor the constant step's is integral in
    the scaled terms), and every remainder and quotient term is written
    divided by S.  Over F_7, x^2 + 3y by 2x + 1
    leaves the working coefficient -5 at 1, which must be written as 2."""
    order = ORDERS["degrevlex"]
    for char, f, want_r, want_q in [
        (0, lambda x, y: x**2 * Fraction(1, 3) + y * Fraction(1, 5), lambda x, y: y * Fraction(1, 5) + Fraction(1, 12),
         lambda x, y: x * Fraction(1, 6) - Fraction(1, 12)),
        (7, lambda x, y: x**2 + 3 * y, lambda x, y: 3 * y + 2, lambda x, y: 4 * x + 5),
    ]:
        ring = RINGS[char]
        x, y, _ = ring.gens()
        basis = [2 * x + 1]
        r, quots = divide(f(x, y), basis, order)
        assert (r, quots) == (want_r(x, y), [want_q(x, y)])
        assert (r, quots) == reference_divide(f(x, y), basis, order)


def test_each_term_goes_to_its_first_divisor():
    """x y by [x + 1, y]: both leading terms divide x y, and the first, x,
    takes it (quotient y), leaving -y for y; reducing by y first would give
    the quotients [0, x] instead."""
    order = ORDERS["degrevlex"]
    for char in (0, 7):
        ring = RINGS[char]
        x, y, _ = ring.gens()
        basis = [x + 1, y]
        r, quots = divide(x * y, basis, order)
        assert (r, quots) == (ring.zero(), [y, ring.const(-1)])
        assert (r, quots) == reference_divide(x * y, basis, order)


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
    """_reduce_packed on packed forms returns a nonzero multiple of the field
    remainder, leading term first and with the same sugar: over QQ, from
    coefficients of height up to 10^6, a primitive integer one; over F_p a
    monic one.  Reducing by G[:1], G[:2], ... with one shared first-divisor
    table ends in the same result as a fresh table."""
    char = data.draw(st.sampled_from(sorted(RINGS)))
    ring = RINGS[char]
    fld = ring.field
    order = ORDERS[data.draw(st.sampled_from(sorted(ORDERS)))]
    draw_poly = _poly if char else _large_height_poly
    f = draw_poly(data.draw, ring, 0)
    polys = [
        g
        for g in (draw_poly(data.draw, ring, 1) for _ in range(data.draw(st.integers(1, 4))))
        if not g.is_zero()
    ] or [ring.var(0).scale(Fraction(-5, 3)) - ring.one()]
    sugars = [g.total_degree() + data.draw(st.integers(0, 2)) for g in polys]
    sugar = max(f.total_degree(), 0)

    pk = packing(order)
    G = [_Packed(_packed_form(g, pk, char), s, pk) for g, s in zip(polys, sugars)]
    want, want_sugar = reference_reduce(f, sugar, polys, sugars, order)
    start = _packed_form(f, pk, char) if not f.is_zero() else {}
    got, got_sugar = groebner_mod._reduce_packed(start, sugar, G, pk, char)
    first: dict = {}
    for k in range(1, len(G) + 1):
        shared, shared_sugar = groebner_mod._reduce_packed(start, sugar, G[:k], pk, char, first)
    assert (list(shared.items()), shared_sugar) == (list(got.items()), got_sugar)

    assert got_sugar == want_sugar
    terms = {pk.unpack(m): fld.coerce(c) for m, c in got.items()}
    assert terms.keys() == want.terms.keys()
    if got:
        lead, lc = leading(want, order)
        assert pk.unpack(next(iter(got))) == lead
        assert (got[pk.pack(lead)] == 1) if char else (gcd(*got.values()) == 1)
        ratio = fld.div(lc, terms[lead])
        assert all(want.terms[e] == fld.mul(ratio, c) for e, c in terms.items())


# one to three values of each size, so that fields tie and differ by little
EXPONENTS = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 2**28))] * 3)


@settings(max_examples=500, deadline=None)
@given(name=st.sampled_from(sorted(ORDERS)), a=EXPONENTS, b=EXPONENTS)
def test_packing_matches_exponent_tuples(name, a, b):
    """For degrevlex, lex and a two-block order: unpack inverts pack, packed
    keys compare as order.key does, the guard test is exp_divides, pack is
    linear, and the low field is the total degree."""
    order = ORDERS[name]
    pk = packing(order)
    A, B = pk.pack(a), pk.pack(b)
    assert pk.unpack(A) == a
    assert ((A ^ pk.cmask) < (B ^ pk.cmask)) == (order.key(a) < order.key(b))
    assert (((B - A) & pk.guard) == 0) == exp_divides(a, b)
    assert A + B == pk.pack(exp_add(a, b))
    assert A & pk.low == sum(a)


def test_packing_table_is_bounded(monkeypatch):
    """Equal orders share one packing; past _PACKINGS_MAX orders the table
    starts over, and a packing built again packs as before."""
    monkeypatch.setattr(orders_mod, "_PACKINGS_MAX", 2)
    monkeypatch.setattr(orders_mod, "_packings", {})
    first = packing(degrevlex(3))
    assert packing(degrevlex(3)) is first
    packing(lex(3))
    packing(block_order([0, 1], [2]))
    assert len(orders_mod._packings) <= 2
    again = packing(degrevlex(3))
    assert again.pack((1, 2, 3)) == first.pack((1, 2, 3))


@pytest.mark.parametrize("char", [7, 0])
def test_reduction_sees_a_failed_middle_field(char):
    """x y does not divide x z, yet in degrevlex their packed difference is
    positive: only the guard bit of the y field, which borrows from the z
    field above it, shows it.  So x z is its own remainder by x y + y."""
    ring = RINGS[char]
    x, y, z = ring.gens()
    pk = packing(ORDERS["degrevlex"])
    g = _Packed(_packed_form(x * y + y, pk, char), 2, pk)
    f = _packed_form(x * z, pk, char)
    assert groebner_mod._reduce_packed(f, 2, [g], pk, char) == (f, 2)


@pytest.mark.parametrize("name", sorted(ORDERS))
@pytest.mark.parametrize("char", [7, 0])
def test_finalize_reduces_by_the_prefix(monkeypatch, char, name):
    """_finalize reduces each element G[i] of the sorted minimal basis by
    G[:i] alone, with one first-divisor table across its loop: the result
    equals reduction by all the other elements with a fresh table, on a
    basis where some element has a reducible tail term."""
    seen = []
    finalize = groebner_mod._finalize
    monkeypatch.setattr(groebner_mod, "_finalize", lambda I, order, G: seen.append(G) or finalize(I, order, G))
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    ring = RINGS[char]
    x, y, z = ring.gens()
    # katsura-3
    gens = [x + 2 * y + 2 * z - 1, x**2 + 2 * y**2 + 2 * z**2 - x, 2 * x * y + 2 * y * z - y]
    order = ORDERS[name]
    groebner(Ideal(ring, gens), order)
    (G,) = seen
    pk = packing(order)
    first: dict = {}
    reduced = 0
    for i, t in enumerate(G):
        prefix = groebner_mod._reduce_packed(t.terms, t.sugar, G[:i], pk, char, first)
        others = groebner_mod._reduce_packed(t.terms, t.sugar, G[:i] + G[i + 1 :], pk, char)
        assert (list(prefix[0].items()), prefix[1]) == (list(others[0].items()), others[1])
        reduced += prefix[0] != t.terms
    assert reduced


LIMIT = 2 ** (FIELD_BITS - 1)
OVERFLOWS = {
    # an input monomial at the limit
    "input": (lambda x, y, z, m: [m(LIMIT, 0, 0) - 1], degrevlex(3)),
    # inputs below it whose S-pair lcm reaches it
    "lcm": (lambda x, y, z, m: [m(LIMIT // 2, 1, 0) - 1, m(1, LIMIT // 2, 0) - 1], degrevlex(3)),
    # an S-polynomial term: z^(L/2) (x y - z^(L/2)) - y (x z^(L/2) - 1)
    "s-poly": (lambda x, y, z, m: [x * y - m(0, 0, LIMIT // 2), x * m(0, 0, LIMIT // 2) - 1], lex(3)),
    # a reduction term: x^2 by x - y^(L/2) gives x y^(L/2), then y^L
    "reduction": (lambda x, y, z, m: [x - m(0, LIMIT // 2, 0), x**2], lex(3)),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
@pytest.mark.parametrize("char", [7, 0])
def test_packed_overflow_is_an_error(char, case):
    """A monomial whose total degree reaches 2^(FIELD_BITS - 1) is refused
    with an EngineError naming the packed width, wherever it first appears;
    it is never truncated into a wrong basis.  The budget is lifted, so that
    it does not stop the run first."""
    ring = RINGS[char]

    def m(*exp):
        return ring.monomial(exp)

    gens, order = OVERFLOWS[case]
    with budget_scope(Budget(max_degree=4 * LIMIT)):
        with pytest.raises(EngineError, match=f"{FIELD_BITS}-bit fields of a packed monomial") as err:
            groebner(Ideal(ring, gens(*ring.gens(), m)), order)
    assert not isinstance(err.value, BudgetExceeded)


def _random_poly(rng, ring, terms):
    out = ring.zero()
    for _ in range(terms):
        e = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
        out = out + ring.monomial(e, rng.randint(-5, 5))
    return out


def test_normal_form_matches_divide(monkeypatch):
    """GBasis.normal_form is divide()'s remainder, over QQ, F_3 and F_32003,
    for degrevlex, lex and block bases, for f reduced (a remainder) and
    unreduced (a remainder plus a multiple of a basis element, so its first
    term can be irreducible and a later one not); a reduced f comes back
    itself, with divide never called."""
    rng = random.Random(1907)

    def no_divide(*args):
        raise AssertionError("divide() called on an irreducible polynomial")

    for char in (0, 3, 32003):
        ring = ring_over(char, NAMES)
        for order in ORDERS.values():
            for k in range(6):
                gens = [_random_poly(rng, ring, rng.randint(2, 3)) for _ in range(rng.randint(1, 3))]
                gb = groebner(Ideal(ring, gens if k else [ring.zero()]), order)
                for _ in range(4):
                    r = divide(_random_poly(rng, ring, 4), gb.basis, order, gb.leads)[0]
                    g = rng.choice(gb.basis) if gb.basis else ring.zero()
                    f = r + g * _random_poly(rng, ring, 2)
                    assert gb.normal_form(f) == divide(f, gb.basis, order, gb.leads)[0]
                    with monkeypatch.context() as m:
                        m.setattr(groebner_mod, "divide", no_divide)
                        assert gb.normal_form(r) is r


def test_cancelled_term_that_reappears(monkeypatch):
    """f = -x^2*y + y^2 + y by [-y^2 + y, x*y - y] in degrevlex: reducing x*y
    cancels y, reducing y^2 brings y back, so y is pushed again (keyed once,
    from the call's key table) and its first heap entry is skipped when
    popped."""
    ring = RINGS[0]
    x, y, _ = ring.gens()
    order = ORDERS["degrevlex"]
    f = -(x**2) * y + y**2 + y
    basis = [-(y**2) + y, x * y - y]
    leads = [leading(g, order) for g in basis]
    keyed, pushed = [], []
    key = type(order).key
    heappush = heapq.heappush

    def record(self, exp):
        keyed.append(exp)
        return key(self, exp)

    def record_push(heap, item):
        pushed.append(item[1])
        heappush(heap, item)

    with monkeypatch.context() as m:
        m.setattr(type(order), "key", record)
        m.setattr(heapq, "heappush", record_push)
        r, quots = divide(f, basis, order, leads)
    # y enters the heap with f's terms, then once more when it reappears
    assert pushed.count((0, 1, 0)) == 1
    assert keyed.count((0, 1, 0)) == 1
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


def test_shipped_work_stays_far_below_the_packed_limit(monkeypatch):
    """Every corpus job (the shipped scenarios and the axiom harness) and
    every groebner-kernel job of the benchmark still matches the benchmark's
    references with 12-bit fields, whose limit is total degree 2^11, on a
    fresh basis cache: none comes within a factor 2^20 of the 32-bit one."""
    monkeypatch.setattr(orders_mod, "FIELD_BITS", 12)
    monkeypatch.setattr(orders_mod, "_packings", {})
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from common import corpus_jobs
    import jobs

    assert packing(degrevlex(3)).bits == 12
    refs = json.loads((PERFBENCH / "references.json").read_text())
    for job in corpus_jobs():
        _, _, report = jobs.run_corpus_job(job)
        assert jobs.check_corpus(job, jobs.report_digest(report), refs["corpus"]) is None, job
    for job in jobs.kernel_pass(1, 0):
        assert job.check(job.run(), refs) is None, job.name
