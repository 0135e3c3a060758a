"""The Buchberger audit says no as well as yes: true bases pass it, a
generating set that is not a Gröbner basis fails it, and so do wrong stored
leading terms.  Its chain and product criteria give the verdict of dividing
every S-pair, from fewer divisions, and its shared divide() tables give the
remainders of fresh per-pair divisions.

No oracle and no sympy: each expectation is the Buchberger criterion, or a
remainder that visibly has no reducible term."""

import importlib
import random

import pytest

from cyclecalc.groebner import GBasis, Ideal, divide, groebner, leading
from cyclecalc.orders import block_order, degrevlex, exp_lcm, exp_sub, lex
from cyclecalc.poly import ring_over

# the module, not the function that `cyclecalc.groebner` names; the audit is
# looked up on it at call time, so that test_mutants' rewrites reach it
groebner_mod = importlib.import_module("cyclecalc.groebner")

NAMES = ["au_a", "au_b", "au_c", "au_d"]
CHARS = [0, 7, 32003]
ORDERS = {
    "degrevlex": degrevlex(4),
    "lex": lex(4),
    "block": block_order([0, 1], [2, 3]),
}


def _cyclic4(ring):
    a, b, c, d = ring.gens()
    return [
        a + b + c + d,
        a * b + b * c + c * d + d * a,
        a * b * c + b * c * d + c * d * a + d * a * b,
        a * b * c * d - 1,
    ]


def _wrapped(ring, order, polys) -> GBasis:
    """polys made monic and wrapped as a GBasis with their true leading terms."""
    monic = [g.scale(ring.field.inv(leading(g, order)[1])) for g in polys if not g.is_zero()]
    return GBasis(Ideal(ring, polys), order, monic, [leading(g, order) for g in monic])


def _fresh_remainders(gb: GBasis) -> list:
    """Each S-polynomial of gb's basis, as the audit forms it, paired with
    its division by the basis with no tables: a fresh call per pair."""
    ring, order = gb.ring, gb.order
    out = []
    for i, (gi, (ei, ci)) in enumerate(zip(gb.basis, gb.leads)):
        for gj, (ej, cj) in zip(gb.basis[i + 1 :], gb.leads[i + 1 :]):
            L = exp_lcm(ei, ej)
            s = ring.monomial(exp_sub(L, ei), ring.field.inv(ci)) * gi - ring.monomial(
                exp_sub(L, ej), ring.field.inv(cj)
            ) * gj
            out.append((s, divide(s, gb.basis, order, gb.leads)))
    return out


@pytest.mark.parametrize("name", sorted(ORDERS))
@pytest.mark.parametrize("char", CHARS)
def test_true_bases_pass_and_their_inputs_fail(char, name):
    """Cyclic-4's reduced basis passes the audit; its four inputs, monic and
    with their true leading terms, are not a Gröbner basis and fail it."""
    ring, order = ring_over(char, NAMES), ORDERS[name]
    gens = _cyclic4(ring)
    gb = groebner(Ideal(ring, gens), order)
    assert groebner_mod.buchberger_audit(gb)
    inputs = _wrapped(ring, order, gens)
    assert len(gb.basis) > len(inputs.basis)
    assert not groebner_mod.buchberger_audit(inputs)


@pytest.mark.parametrize("name", sorted(ORDERS))
@pytest.mark.parametrize("char", CHARS)
def test_wrong_stored_leads_fail(char, name):
    """A true basis with stored leading terms that are not its own fails:
    two leads swapped, a lead moved to another term's exponent, or a lead's
    coefficient changed."""
    ring, order = ring_over(char, NAMES), ORDERS[name]
    gb = groebner(Ideal(ring, _cyclic4(ring)), order)
    k = next(i for i, g in enumerate(gb.basis) if len(g.terms) > 1)
    other = next(e for e in gb.basis[k].terms if e != gb.lead_exps[k])
    wrong = [
        [gb.leads[1], gb.leads[0], *gb.leads[2:]],
        [*gb.leads[:k], (other, gb.basis[k].terms[other]), *gb.leads[k + 1 :]],
        [*gb.leads[:k], (gb.lead_exps[k], ring.field.coerce(2)), *gb.leads[k + 1 :]],
    ]
    for leads in wrong:
        assert not groebner_mod.buchberger_audit(GBasis(gb.ideal, order, gb.basis, leads)), leads


def _random_poly(rng, ring, terms):
    out = ring.zero()
    for _ in range(terms):
        e = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        out = out + ring.monomial(e, rng.randint(-4, 4))
    return out


def _audited_sets(ring, order, gens) -> list:
    """The reduced basis of (gens), the monic generators, and two non-reduced
    sets made from the reduced basis: one with its last element dropped and
    one with its first element replaced by the sum of the first two."""
    gb = groebner(Ideal(ring, gens), order)
    out = [gb, _wrapped(ring, order, gens)]
    if len(gb.basis) > 1:
        out.append(_wrapped(ring, order, gb.basis[:-1]))
        out.append(_wrapped(ring, order, [gb.basis[0] + gb.basis[1], *gb.basis[1:]]))
    return out


@pytest.mark.parametrize("name", sorted(ORDERS))
@pytest.mark.parametrize("char", CHARS)
def test_shared_tables_match_fresh_divisions(char, name):
    """On random ideals in three of the four variables: every S-pair's
    division with the tables shared across the pairs equals a fresh call
    without tables, and the audit's verdict, from the pairs its criteria
    keep, is whether every pair's fresh remainder is zero: for the reduced
    basis (always yes), the monic generators (mostly no), and the reduced
    basis with an element dropped or replaced by a sum (either)."""
    rng = random.Random(3301 + char)
    ring, order = ring_over(char, NAMES), ORDERS[name]
    verdicts = []
    for _ in range(6):
        gens = [_random_poly(rng, ring.drop(["au_d"]), rng.randint(2, 3)) for _ in range(rng.randint(2, 3))]
        gens = [g.inject(ring, {i: i for i in range(3)}) for g in gens if not g.is_zero()]
        if not gens:
            continue
        for gb in _audited_sets(ring, order, gens):
            tables = ({}, {}, {})
            fresh = _fresh_remainders(gb)
            for s, want in fresh:
                assert divide(s, gb.basis, order, gb.leads, tables) == want, s
            verdict = groebner_mod.buchberger_audit(gb)
            assert verdict == all(r.is_zero() for _, (r, _) in fresh)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("char", CHARS)
def test_an_audit_after_a_true_basis_still_says_no(char):
    """[y^2, x y + 4] in lex is no Gröbner basis: its S-polynomial -4 y has
    no term that y^2 or x y divides.  Auditing the Gröbner basis
    [y, x + 4, x y + 4 y] of the point (-4, 0) first, in the same ring and
    order, divides the S-polynomial -4 y of its first and last elements by
    element 0, so it records y's first divisor as element 0; the second
    audit must not reuse that, or it would reduce y by y^2 and pass."""
    ring, order = ring_over(char, NAMES[:2]), lex(2)
    y, x = ring.var(1), ring.var(0)
    assert groebner_mod.buchberger_audit(_wrapped(ring, order, [y, x + 4, x * y + 4 * y]))
    assert not groebner_mod.buchberger_audit(_wrapped(ring, order, [y**2, x * y + 4]))


@pytest.mark.parametrize("name", sorted(ORDERS))
@pytest.mark.parametrize("char", CHARS)
def test_chain_witnesses_must_be_live(char, name):
    """Two sets that are no Gröbner basis although every pair has a chain
    witness among the other two elements: [x + y, x + z, x], whose leading
    monomials are all x (S(x + y, x) = y), and [x y + z, y z, x z], where
    each leading monomial divides the lcm x y z of the other two
    (S(x y + z, x z) = z^2).  Once one pair is dropped, the other two pairs
    lack a live witness and must be divided."""
    ring, order = ring_over(char, NAMES), ORDERS[name]
    x, y, z, _ = ring.gens()
    for polys in ([x + y, x + z, x], [x * y + z, y * z, x * z]):
        assert not groebner_mod.buchberger_audit(_wrapped(ring, order, polys)), polys


# S-pairs the audit divides on cyclic-4's reduced basis, of 21, 15 and 15
# pairs: the same over every field, since the leading monomials are
PAIRS_DIVIDED_ON_CYCLIC4 = {"degrevlex": 8, "lex": 6, "block": 6}


@pytest.mark.parametrize("name", sorted(ORDERS))
@pytest.mark.parametrize("char", CHARS)
def test_audit_divides_only_the_pairs_its_criteria_keep(monkeypatch, char, name):
    """The count of divide() calls one audit of cyclic-4's reduced basis
    makes is pinned, so a silent fallback to every pair is seen."""
    ring, order = ring_over(char, NAMES), ORDERS[name]
    gb = groebner(Ideal(ring, _cyclic4(ring)), order)
    calls = []

    def counted(*args):
        calls.append(args[0])
        return divide(*args)

    monkeypatch.setattr(groebner_mod, "divide", counted)
    assert groebner_mod.buchberger_audit(gb)
    assert len(calls) == PAIRS_DIVIDED_ON_CYCLIC4[name]
