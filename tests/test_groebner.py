"""Buchberger engine: bases, normal forms, elimination, saturation, dimension,
radical membership, cofactor lifts — with independent oracles."""

import importlib
import random
from collections import OrderedDict

import pytest

from cyclecalc.errors import BudgetExceeded, EngineError
from cyclecalc.groebner import (
    Budget,
    Ideal,
    buchberger_audit,
    budget_scope,
    cofactor_lift,
    eliminate,
    fiber_staircase,
    groebner,
    ideal,
    ideal_equal,
    is_unit_ideal,
    krull_dim,
    member,
    normal_form,
    radical_member,
    saturate,
    saturate_poly,
)
from cyclecalc.orders import block_order, degrevlex, lex
from cyclecalc.poly import Poly, ring_over
from cyclecalc.symbols import _determinant

# the module, not the function that `cyclecalc.groebner` names
groebner_mod = importlib.import_module("cyclecalc.groebner")

R2 = ring_over(0, ["x", "y"])
X, Y = R2.gens()


def test_basis_examples():
    G = groebner(ideal(R2, X**2, X * Y), lex(2))
    assert sorted(map(str, G.basis)) == ["x*y", "x^2"]
    G2 = groebner(ideal(R2, X + Y, X - Y))
    assert sorted(map(str, G2.basis)) == ["x", "y"]


def test_twisted_cubic_eliminant():
    R = ring_over(0, ["x", "y", "z"])
    x, y, z = R.gens()
    I = ideal(R, y - x**2, z - x**3)
    G = groebner(I, lex(3))
    assert G.contains(z**2 - y**3)
    E = eliminate(I, ["x"])
    gE = groebner(E)
    t = E.ring
    assert gE.contains(t.var("z") ** 2 - t.var("y") ** 3)


def test_determinism_generator_order():
    a = groebner(ideal(R2, X**2 - Y, X * Y - 1))
    b = groebner(ideal(R2, X * Y - 1, X**2 - Y))
    assert a.basis == b.basis


def test_normal_form_examples():
    I = ideal(R2, X**2 - Y)
    assert normal_form(X**2, I) == Y
    assert normal_form(X, I) == X
    assert normal_form(X**4, I) == Y**2


def test_eliminate_examples():
    I = eliminate(ideal(R2, Y - X**2), ["x"])
    assert not I.nonzero_gens()
    I2 = eliminate(ideal(R2, X, Y - 1), ["x"])
    g = groebner(I2)
    assert g.contains(I2.ring.var("y") - 1) and len(g.basis) == 1
    R4 = ring_over(0, ["x", "y", "u", "v"])
    x, y, u, v = R4.gens()
    I3 = eliminate(ideal(R4, x * v - y * u), ["u", "v"])
    assert not I3.nonzero_gens()


def test_saturation_examples():
    assert ideal_equal(saturate_poly(ideal(R2, X * Y), X), ideal(R2, Y))
    assert is_unit_ideal(saturate_poly(ideal(R2, X**2), X))
    R4 = ring_over(0, ["x", "y", "u", "v"])
    x, y, u, v = R4.gens()
    bl = x * v - y * u
    J = Ideal(R4, [bl * x, bl * y, bl])
    S = saturate(J, ideal(R4, x, y))
    assert ideal_equal(S, ideal(R4, bl))


def test_dim_examples():
    assert krull_dim(ideal(R2, X, Y)) == 0
    assert krull_dim(ideal(R2, Y - X**2)) == 1
    R4 = ring_over(0, ["x", "y", "u", "v"])
    x, y, u, v = R4.gens()
    assert krull_dim(ideal(R4, x * v - y * u)) == 3
    with pytest.raises(EngineError):
        krull_dim(ideal(R2, R2.one()))


def test_dim_slicing_oracle():
    """Cut with seeded generic hyperplanes until empty; the count is the dim."""
    rng = random.Random(5)
    cases = [
        ideal(R2, X, Y),
        ideal(R2, Y - X**2),
        ideal(R2, X * Y - 1),
        ideal(ring_over(0, ["x", "y", "u", "v"]),
              ring_over(0, ["x", "y", "u", "v"]).var("x")),
    ]
    for I in cases:
        expected = krull_dim(I)
        ring = I.ring
        J = I
        cuts = 0
        while not is_unit_ideal(J):
            plane = ring.const(rng.randint(1, 7))
            for i in range(ring.nvars):
                plane = plane + ring.var(i).scale(rng.randint(1, 9))
            J = Ideal(ring, J.gens + (plane,))
            cuts += 1
        assert cuts - 1 == expected


def test_radical_membership_examples():
    assert radical_member(X, ideal(R2, X**2))
    assert not radical_member(Y, ideal(R2, X))
    assert radical_member(X + Y, ideal(R2, (X + Y) ** 3, X * (X + Y)))


def _at(p: Poly, point) -> object:
    """p at a point of its ring's affine space, in exact field arithmetic."""
    fld = p.ring.field
    out = fld.zero
    for e, c in p.terms.items():
        for v, k in zip(point, e):
            for _ in range(k):
                c = fld.mul(c, fld.coerce(v))
        out = fld.add(out, c)
    return out


def _radical_cases():
    """Radical membership with certificates that never run the Rabinowitsch
    test: (I, f, N) with f^N in I, and (I, f, point) with point in V(I) and
    f(point) != 0.  Several f have degree 4 or more."""
    x, y = R2.gens()
    F7 = ring_over(7, ["x", "y"])
    a, b = F7.gens()
    R3 = ring_over(0, ["x", "y", "z"])
    u, v, w = R3.gens()
    P3 = ring_over(32003, ["x", "y", "z"])
    p, q, r = P3.gens()
    inside = [
        (ideal(R2, x**2), x, 2),
        (ideal(R2, (x + y) ** 3, x * (x + y)), x + y, 3),
        (ideal(R2, (x * y - 1) ** 3), x**2 * y**2 - 1, 3),
        (ideal(F7, a**3, b**2), a**2 + a * b**3, 3),
        (ideal(R3, u**2 - v * w, w**3), u * w + u**3 * v, 3),
    ]
    outside = [
        (ideal(R2, x), y, (0, 1)),
        (ideal(R2, y - x**2), x**4 + 1, (0, 0)),
        (ideal(R2, x * y - 1), x**3 * y**3 - x * y + x**4, (1, 1)),
        (ideal(R2, x**2 - y**3), x**4 - y**6 + x, (1, 1)),
        # f vanishes on the line x = 0 of V(I), not on the line y = 1
        (ideal(R2, x * (y - 1)), x**4, (1, 1)),
        (ideal(F7, a**2 + b**2 - 2), a**4 - 1 + b, (1, 1)),
        (ideal(R3, u * w - v**2), u**2 * w**2 + v**4, (1, 1, 1)),
        (ideal(P3, p * q * r - 1, p - q), p**5 * q + r, (1, 1, 1)),
    ]
    return inside, outside


def _radical_certificate_failures(radical_member_fn) -> list:
    """The certified cases that radical_member_fn gets wrong."""
    inside, outside = _radical_cases()
    wrong = [(I, f) for I, f, _ in inside if not radical_member_fn(f, I)]
    return wrong + [(I, f) for I, f, _ in outside if radical_member_fn(f, I)]


def test_radical_certificates_hold():
    inside, outside = _radical_cases()
    for I, f, n in inside:
        assert member(f**n, I), (I, f, n)
    for I, f, point in outside:
        assert all(_at(g, point) == I.ring.field.zero for g in I.gens), (I, point)
        assert _at(f, point) != I.ring.field.zero, (f, point)
    assert any(f.total_degree() >= 4 for _, f, _ in outside)


def test_radical_member_agrees_with_certificates():
    assert _radical_certificate_failures(radical_member) == []


def test_radical_certificates_catch_high_degree_mutant():
    """A radical_member that calls every f of degree above 3 radical."""
    def mutant(f, I):
        return f.total_degree() > 3 or radical_member(f, I)

    assert _radical_certificate_failures(mutant)


def test_cofactor_examples():
    (c,) = cofactor_lift(X**2 + X * Y, ideal(R2, X))
    assert c == X + Y
    with pytest.raises(EngineError):
        cofactor_lift(X**4, ideal(R2, Y - X**2))
    (c2,) = cofactor_lift(X**4 - Y**2, ideal(R2, Y - X**2))
    assert c2 * (Y - X**2) == X**4 - Y**2
    assert c2 == -(X**2 + Y)


def test_membership_cofactor_agreement():
    """NF(f)=0 iff the cofactor lift succeeds, on 100 random pairs."""
    rng = random.Random(17)
    R = ring_over(0, ["x", "y", "z"])

    def rand_poly():
        out = R.zero()
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            out = out + R.monomial(e, rng.randint(-4, 4))
        return out

    for _ in range(100):
        gens = [rand_poly() for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = Ideal(R, gens)
        f = rand_poly()
        if rng.random() < 0.5:  # force some members
            f = sum((g * rand_poly() for g in gens), R.zero())
        inside = member(f, I)
        try:
            cof = cofactor_lift(f, I)
            lifted = True
            assert sum((c * g for c, g in zip(cof, gens)), R.zero()) == f
        except EngineError:
            lifted = False
        assert inside == lifted


def _sylvester_resultant(f: Poly, g: Poly, var: int) -> Poly:
    """Resultant in one variable via the Sylvester determinant (oracle)."""
    ring = f.ring
    fc, gc = f.coeffs_in(var), g.coeffs_in(var)
    m, n = max(fc), max(gc)
    size = m + n
    rows = []
    for i in range(n):
        row = [ring.zero()] * size
        for k, coeff in fc.items():
            row[i + (m - k)] = coeff
        rows.append(row)
    for i in range(m):
        row = [ring.zero()] * size
        for k, coeff in gc.items():
            row[i + (n - k)] = coeff
        rows.append(row)
    return _determinant(rows, ring)


def test_eliminate_matches_resultant_oracle():
    """With f monic in x, projection is closed and the Sylvester resultant
    cuts exactly the eliminated locus."""
    rng = random.Random(23)
    done = 0
    while done < 20:
        def rand_in_x(deg, monic):
            out = (R2.var("x") ** deg) if monic else R2.zero()
            top = deg - 1 if monic else deg
            for k in range(top + 1):
                cy = R2.zero()
                for _ in range(rng.randint(1, 2)):
                    cy = cy + (R2.var("y") ** rng.randint(0, 2)).scale(rng.randint(-3, 3))
                out = out + (R2.var("x") ** k) * cy
            return out

        f = rand_in_x(rng.randint(1, 2), monic=True)
        g = rand_in_x(rng.randint(1, 2), monic=False)
        if g.degree_in(0) < 1:
            continue
        res = _sylvester_resultant(f, g, 0)
        E = eliminate(Ideal(R2, [f, g]), ["x"])
        t = E.ring
        if res.is_zero():
            continue
        res_t = res.inject(t, {1: 0})
        # the resultant lies in the elimination ideal ...
        assert member(res_t, E)
        # ... and, f being monic, cuts exactly the projected locus
        for h in E.nonzero_gens():
            assert radical_member(h, Ideal(t, [res_t]))
        done += 1


def test_budget_exceeded_distinct():
    tiny = Budget(max_pairs=1, max_degree=2)
    R = ring_over(0, ["x", "y", "z"])
    x, y, z = R.gens()
    with budget_scope(tiny), pytest.raises(BudgetExceeded):
        groebner(Ideal(R, [x**3 - y * z + x, y**3 - x * z, z**3 + x * y * z]))


def test_fiber_staircase():
    I = ideal(R2, Y - X**2)
    st = fiber_staircase(I, [0])
    assert sorted(st) == [(0,), (1,)]
    # the hyperbola is generically finite of degree 1 over the y-line
    # (x = 1/y over the fraction field), even though it is not finite
    assert fiber_staircase(ideal(R2, X * Y - 1), [0]) == [(0,)]
    # V(y) misses the generic fiber entirely: empty staircase
    assert fiber_staircase(ideal(R2, Y), [0]) == []
    # the whole plane has an infinite fiber
    assert fiber_staircase(ideal(R2), [0]) is None


def test_audit_on_suite_examples():
    for I, order in [
        (ideal(R2, X**3 * Y - X, X * Y**2 - Y), lex(2)),
        (ideal(R2, X**2 + Y**2 - 1, X * Y - 1), degrevlex(2)),
    ]:
        assert buchberger_audit(groebner(I, order))


def test_membership_order_independent():
    """Normal form zero under one order iff zero under another (spot test)."""
    from cyclecalc.orders import block_order

    I = ideal(R2, X**2 - Y, X * Y - 1)
    probes = [X**3 - 1, X**3, (X**2 - Y) * (X + Y), Y * (X * Y - 1) + X**2 - Y]
    orders = [degrevlex(2), lex(2), block_order([0], [1]), block_order([1], [0])]
    for f in probes:
        verdicts = {groebner(I, o).normal_form(f).is_zero() for o in orders}
        assert len(verdicts) == 1


def test_cyclic4_regression():
    """Known benchmark: cyclic-4 has a 7-element reduced degrevlex basis and
    one-dimensional solution components."""
    for char in (0, 7):
        R = ring_over(char, ["a", "b", "c", "d"])
        a, b, c, d = R.gens()
        gens = [a + b + c + d,
                a * b + b * c + c * d + d * a,
                a * b * c + b * c * d + c * d * a + d * a * b,
                a * b * c * d - 1]
        gb = groebner(Ideal(R, gens))
        assert len(gb.basis) == 7
        assert krull_dim(Ideal(R, gens)) == 1
        assert buchberger_audit(gb)


def test_cyclic5_regression():
    """cyclic-5 over F_7: 20-element reduced basis, audited."""
    R = ring_over(7, ["a", "b", "c", "d", "e"])
    a, b, c, d, e = R.gens()
    gens = [
        a + b + c + d + e,
        a * b + b * c + c * d + d * e + e * a,
        a * b * c + b * c * d + c * d * e + d * e * a + e * a * b,
        a * b * c * d + b * c * d * e + c * d * e * a + d * e * a * b + e * a * b * c,
        a * b * c * d * e - 1,
    ]
    gb = groebner(Ideal(R, gens))
    assert len(gb.basis) == 20
    assert buchberger_audit(gb)


def _random_ideal(rng, ring):
    def rand_poly():
        out = ring.zero()
        for _ in range(rng.randint(2, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
            out = out + ring.monomial(e, rng.randint(-5, 5))
        return out

    return Ideal(ring, [rand_poly() for _ in range(rng.randint(2, 3))])


@pytest.mark.parametrize("char", [7, 0])
@pytest.mark.parametrize(
    "order", [degrevlex(3), lex(3), block_order([0], [1, 2])], ids=["degrevlex", "lex", "block"]
)
def test_plain_and_cofactor_bases_agree(char, order, monkeypatch):
    """A plain request computes no cofactors; a cofactor request on the same
    key recomputes with them, gets the same basis, and replaces the cache
    slot; a later plain request is a cache hit that reruns nothing."""
    rng = random.Random(31 + char)
    R = ring_over(char, ["pc_u", "pc_v", "pc_w"])
    cache = groebner_mod._gb_cache
    for _ in range(8):
        I = _random_ideal(rng, R)
        key = (R, I.gens, order)
        cache.pop(key, None)
        entries = len(cache)

        plain = groebner(I, order)
        assert plain.reps is None
        tracked = groebner(I, order, cofactors=True)
        assert tracked is not plain and tracked.reps is not None
        assert tracked.basis == plain.basis and tracked.lead_exps == plain.lead_exps
        assert len(cache) == entries + 1 and cache[key] is tracked

        for g, row in zip(tracked.basis, tracked.reps):
            assert sum((c * h for c, h in zip(row, I.gens)), R.zero()) == g

        def no_rerun(*args):
            raise AssertionError("Buchberger reran on a cache hit")

        with monkeypatch.context() as m:
            m.setattr(groebner_mod, "_finalize", no_rerun)
            assert groebner(I, order) is tracked
            assert groebner(I, order, cofactors=True) is tracked
        assert len(cache) == entries + 1


def test_basis_cache_evicts_least_recently_used(monkeypatch):
    """Past _GB_CACHE_MAX bases the least recently used one is dropped; a hit
    makes its entry the most recent."""
    cache = OrderedDict()
    monkeypatch.setattr(groebner_mod, "_gb_cache", cache)
    bound = groebner_mod._GB_CACHE_MAX
    R = ring_over(0, ["lru_x"])
    ideals = [Ideal(R, [R.var(0) - R.const(i)]) for i in range(bound + 1)]
    order = degrevlex(1)
    for I in ideals[:bound]:
        groebner(I, order)
    assert len(cache) == bound
    first = groebner(ideals[0], order)  # a hit: ideals[0] is now the most recent
    groebner(ideals[bound], order)
    assert len(cache) == bound
    assert (R, ideals[1].gens, order) not in cache
    assert cache[(R, ideals[0].gens, order)] is first
    assert (R, ideals[bound].gens, order) in cache


def _cyclic(n, ring):
    v = ring.gens()
    gens = []
    for d in range(1, n):
        s = ring.zero()
        for i in range(n):
            t = ring.one()
            for k in range(d):
                t = t * v[(i + k) % n]
            s = s + t
        gens.append(s)
    prod = ring.one()
    for x in v:
        prod = prod * x
    return Ideal(ring, gens + [prod - 1])


@pytest.mark.parametrize("n,char,pairs", [(4, 7, 8), (4, 0, 8), (5, 7, 108)])
def test_pair_selection_budget_is_exact(n, char, pairs):
    """Pins how many S-pairs sugar selection with Gebauer-Möller pruning
    processes: `pairs` passes the budget, one fewer trips it.  The variable
    names are this test's own, because the cache ignores the budget and a
    hit would skip the run."""
    I = _cyclic(n, ring_over(char, [f"sel{n}_{i}" for i in range(n)]))
    with budget_scope(Budget(max_pairs=pairs - 1)), pytest.raises(BudgetExceeded):
        groebner(I)
    with budget_scope(Budget(max_pairs=pairs)):
        gb = groebner(I)
    assert buchberger_audit(gb)
