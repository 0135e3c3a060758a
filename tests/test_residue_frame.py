"""The per-presentation residue frame: the same residues and traces as the
route that rebuilds everything per call, built once, never shared between
presentations, and never left half-built by a budget trip."""

import importlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecalc.errors import BudgetExceeded
from cyclecalc.forms import Form
from cyclecalc.groebner import Budget, budget_scope
from cyclecalc.poly import ring_over
from cyclecalc.residues import FinitePresentation, residue, trace_form, trace_property_check

from .oracles import reference_residue, reference_trace_form

residues_mod = importlib.import_module("cyclecalc.residues")

FIELDS = (0, 3, 32003)
RINGS = {(char, d): ring_over(char, ["x", "y"] if d == 1 else ["x1", "x2", "y1", "y2"])
         for char in FIELDS for d in (1, 2)}


def _unit(draw, char):
    if char == 0:
        return draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    return draw(st.integers(1, char - 1))


def _cover(draw, char, d, deg):
    """The benchmark's finite covers: fiber degree `deg`, monic in each fiber variable."""
    R = RINGS[char, d]
    if d == 1:
        x, y = R.gens()
        t = x**deg - y + R.const(_unit(draw, char))
        for k in range(1, deg):
            t = t + x**k * (R.const(_unit(draw, char)) + y.scale(_unit(draw, char)))
        return FinitePresentation(R, ("y",), ("x",), (t,))
    a, b = {2: (2, 1), 3: (3, 1), 4: (2, 2)}[deg]
    x1, x2, y1, y2 = R.gens()
    t1 = x1**a + x1.scale(_unit(draw, char)) - y1
    t2 = x2**b + (x1 * x2 ** (b - 1)).scale(_unit(draw, char)) + y1.scale(_unit(draw, char)) - y2
    return FinitePresentation(R, ("y1", "y2"), ("x1", "x2"), (t1, t2))


def _poly(draw, pres):
    """A numerator whose fiber exponents run up to twice the degree of each
    t_i in its own fiber variable, so terms often lie outside the box."""
    R = pres.ring
    fiber = dict(zip(pres.fiber_indices(), pres.t))
    out = R.zero()
    for _ in range(draw(st.integers(1, 3))):
        e = tuple(
            draw(st.integers(0, 2 * fiber[i].degree_in(i) if i in fiber else 2)) for i in range(R.nvars)
        )
        out = out + R.monomial(e, R.field.coerce(draw(st.integers(-3, 3))))
    return out


def _alpha(draw, pres):
    """A 0-form or a 1-form, and for d = 2 also a 2-form with a base
    differential, whose wedge with dt_2 ^ dt_1 has components with fewer than
    two fiber differentials."""
    R = pres.ring
    h = _poly(draw, pres)
    fiber = [R.var(n) for n in pres.fiber_names]
    base = [R.var(n) for n in pres.base_names]
    choices = [Form.from_poly(h), Form.d(draw(st.sampled_from(fiber + base))).scale(h)]
    if pres.d == 2:
        u = draw(st.sampled_from(fiber + base))
        v = draw(st.sampled_from([b for b in base if b != u]))
        choices.append(Form.d(u).wedge(Form.d(v)).scale(h))
    return draw(st.sampled_from(choices))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_frame_matches_the_per_call_route(data):
    """Several numerators and forms through one presentation, so every call
    after the first reuses its frame and its box table."""
    char = data.draw(st.sampled_from(FIELDS))
    d = data.draw(st.sampled_from((1, 2)))
    pres = _cover(data.draw, char, d, data.draw(st.integers(2, 4)))
    for _ in range(3):
        h = _poly(data.draw, pres)
        assert residue(pres, h) == reference_residue(pres, h), str(h)
    for _ in range(3):
        alpha = _alpha(data.draw, pres)
        got = trace_form(pres, alpha)
        want_output, want_audit = reference_trace_form(pres, alpha)
        assert got.output == want_output, str(alpha)
        assert got.audit == want_audit, str(alpha)


def _box_size(pres) -> int:
    frame = pres.residue_frame
    return math.prod(g.degree_in(i) for g, i in zip(frame.gs, pres.fiber_indices()))


def test_residues_on_and_off_the_box():
    """Every box monomial and monomials past the box, times base monomials,
    on a d = 2 cover whose cofactor determinant is not constant, over each
    field: the box table against the per-call route.  Neither entry of t is
    free of x2, so the frame lifts Gröbner eliminants over (t)."""
    for char in FIELDS:
        R = RINGS[char, 2]
        x1, x2, y1, y2 = R.gens()
        pres = FinitePresentation(R, ("y1", "y2"), ("x1", "x2"), (x1**2 + x2**2 - y1, x1 * x2 - 2 * y2))
        assert residues_mod._triangular_from_t(pres) is None
        assert not pres.residue_frame.det.is_constant()
        for a1 in range(9):
            for a2 in range(5):
                for base in (R.one(), y1, y1 * y2**2):
                    h = x1**a1 * x2**a2 * base
                    assert residue(pres, h) == reference_residue(pres, h), (char, str(h))
        assert len(pres.residue_frame.table) == _box_size(pres) == 8


def _seeded_covers(rng, char):
    """d = 2 covers whose t is triangular with leading coefficients that need
    not be 1, in fiber order and swapped, and one whose first entry has a
    pure x1 power on top but also x2 below it, which is not triangular."""
    R = RINGS[char, 2]
    x1, x2, y1, y2 = R.gens()
    units = (-3, -2, 2, 3) if char == 0 else range(2, char)
    c1, c2 = R.field.coerce(rng.choice(units)), R.field.coerce(rng.choice((1, *units)))
    a, b = rng.randint(1, 3), rng.randint(1, 2)
    u = [R.field.coerce(rng.choice((1, *units))) for _ in range(3)]
    t1 = (x1**a).scale(c1) + (x1 ** (a - 1) * y2).scale(u[0]) - y1
    t2 = (x2**b).scale(c2) + (x1 * x2 ** (b - 1)).scale(u[1]) + y1.scale(u[2]) - y2
    near = ((x1**2).scale(c1) + x2 - y1, (x2**2).scale(c2) + x1 - y2)
    return [FinitePresentation(R, ("y1", "y2"), ("x1", "x2"), t) for t in ((t1, t2), (t2, t1), near)]


def _seeded_poly(rng, R):
    out = R.zero()
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 4) for _ in range(R.nvars))
        out = out + R.monomial(e, R.field.coerce(rng.randint(-3, 3)))
    return out


def test_triangular_frames_match_the_oracle():
    """Residues and traces over frames read straight off t, and over the
    lifted frame of a near miss, against the route that computes Gröbner
    eliminants and cofactor lifts afresh, over QQ, F_3 and F_32003."""
    for char in FIELDS:
        rng = random.Random(9000 + char)
        for _ in range(3):
            for pres in _seeded_covers(rng, char):
                R = pres.ring
                x1, x2, y1, y2 = R.gens()
                for h in (x1, x1 * x2, _seeded_poly(rng, R), _seeded_poly(rng, R)):
                    assert residue(pres, h) == reference_residue(pres, h), (char, pres.t, str(h))
                h = _seeded_poly(rng, R)
                for alpha in (Form.from_poly(h), Form.d(x2).scale(h), Form.d(x1).wedge(Form.d(y2)).scale(h)):
                    got = trace_form(pres, alpha)
                    want_output, want_audit = reference_trace_form(pres, alpha)
                    assert got.output == want_output, (char, pres.t, str(alpha))
                    assert got.audit == want_audit, (char, pres.t, str(alpha))


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(residues_mod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(residues_mod, name, counted)
    return calls


def test_one_frame_per_presentation(monkeypatch):
    """All three trace properties on one presentation build one frame and
    enumerate the staircase once.  A cover whose t is already triangular and
    monic takes its eliminants and cofactor rows straight off t, with no
    elimination and no lift; one that is not lifts each eliminant once."""
    lifts = _counting(monkeypatch, "cofactor_lift")
    eliminations = _counting(monkeypatch, "eliminate")
    staircases = _counting(monkeypatch, "fiber_staircase")
    R = RINGS[0, 2]
    x1, x2, y1, y2 = R.gens()
    triangular = FinitePresentation(R, ("y1", "y2"), ("x1", "x2"), (x1**3 - 2 * x1 - y1, x2**2 + x1 * x2 + y1 - y2))
    lifted = FinitePresentation(R, ("y1", "y2"), ("x1", "x2"), (x1**2 + x2**2 - y1, x1 * x2 - 2 * y2))
    for pres, want_lifts, want_eliminations in ((triangular, 0, 0), (lifted, 2, 1)):
        lifts.clear()
        eliminations.clear()
        staircases.clear()
        for which in ("projection", "degree0", "degree"):
            assert trace_property_check(pres, which) == "pass", which
        assert len(lifts) == want_lifts
        assert len(eliminations) == want_eliminations
        assert len(staircases) == 1


def test_box_table_is_bounded_by_the_box():
    """After all three trace properties on one presentation, and residues of
    numerators far outside the box, the table holds at most prod deg g_i
    entries, each at a box exponent."""
    R = RINGS[0, 2]
    x1, x2, y1, y2 = R.gens()
    pres = FinitePresentation(R, ("y1", "y2"), ("x1", "x2"), (x1**3 - 2 * x1 - y1, x2**2 + x1 * x2 + y1 - y2))
    for which in ("projection", "degree0", "degree"):
        assert trace_property_check(pres, which) == "pass", which
    for h in (x1**7 * x2**5 * y2, x1**4 + x2**6, y1**3):
        residue(pres, h)
    frame = pres.residue_frame
    assert 0 < len(frame.table) <= _box_size(pres) == 6
    assert all(a1 < 3 and a2 < 2 for a1, a2 in frame.table)


def test_presentations_on_one_ring_keep_their_own_frames():
    R = RINGS[0, 1]
    x, y = R.gens()
    double = FinitePresentation(R, ("y",), ("x",), (x**2 - y,))
    triple = FinitePresentation(R, ("y",), ("x",), (x**3 - y,))
    B = double.base_ring()
    for _ in range(2):
        assert residue(double, x) == B.one()
        assert residue(triple, x).is_zero()
        assert residue(triple, x**2) == B.one()
        assert residue(double, x**3) == B.var("y")
    for pres in (double, triple):
        for h in (x, x**2, x**3 * y):
            assert residue(pres, h) == reference_residue(pres, h)


def test_budget_trip_leaves_no_frame():
    """A frame whose build trips the budget is not kept; the next caller,
    under the default budget, builds it and gets the right residue.  The
    variable names are this test's own: the Gröbner cache ignores the budget."""
    R = ring_over(0, ["rfa", "rfb", "rfy", "rfz"])
    a, b, y, z = R.gens()
    pres = FinitePresentation(R, ("rfy", "rfz"), ("rfa", "rfb"), (a**2 + 2 * a - y, b**2 + a * b + y - z))
    h = a * b + b
    with budget_scope(Budget(max_pairs=0)), pytest.raises(BudgetExceeded):
        residue(pres, h)
    assert "residue_frame" not in vars(pres)
    assert residue(pres, h) == reference_residue(pres, h)
    assert "residue_frame" in vars(pres)
