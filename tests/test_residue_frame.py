"""The per-presentation residue frame: the same residues and traces as the
route that rebuilds everything per call, built once, never shared between
presentations, and never left half-built by a budget trip."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecalc.errors import BudgetExceeded
from cyclecalc.forms import Form
from cyclecalc.groebner import Budget, budget_scope
from cyclecalc.poly import ring_over
from cyclecalc.residues import FinitePresentation, ResidueQuery, residue, trace_form, trace_property_check

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


def _poly(draw, R):
    out = R.zero()
    for _ in range(draw(st.integers(1, 3))):
        e = tuple(draw(st.integers(0, 2)) for _ in range(R.nvars))
        out = out + R.monomial(e, R.field.coerce(draw(st.integers(-3, 3))))
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_frame_matches_the_per_call_route(data):
    """Several numerators and forms through one presentation, so every call
    after the first reuses its frame."""
    char = data.draw(st.sampled_from(FIELDS))
    d = data.draw(st.sampled_from((1, 2)))
    pres = _cover(data.draw, char, d, data.draw(st.integers(2, 4)))
    R = pres.ring
    for _ in range(3):
        h = _poly(data.draw, R)
        assert residue(ResidueQuery(pres, h)) == reference_residue(pres, h), str(h)
    fiber = [R.var(n) for n in pres.fiber_names]
    base = [R.var(n) for n in pres.base_names]
    for _ in range(3):
        h = _poly(data.draw, R)
        one_form = Form.d(data.draw(st.sampled_from(fiber + base)))
        alpha = data.draw(st.sampled_from((Form.from_poly(h), one_form.scale(h))))
        got = trace_form(pres, alpha)
        want_output, want_audit = reference_trace_form(pres, alpha)
        assert got.output == want_output, str(alpha)
        assert got.audit == want_audit, str(alpha)


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(residues_mod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(residues_mod, name, counted)
    return calls


def test_one_frame_per_presentation(monkeypatch):
    """All three trace properties on one presentation lift each eliminant
    once and enumerate the staircase once."""
    lifts = _counting(monkeypatch, "cofactor_lift")
    staircases = _counting(monkeypatch, "fiber_staircase")
    R = RINGS[0, 2]
    x1, x2, y1, y2 = R.gens()
    pres = FinitePresentation(R, ("y1", "y2"), ("x1", "x2"), (x1**3 - 2 * x1 - y1, x2**2 + x1 * x2 + y1 - y2))
    for which in ("projection", "degree0", "degree"):
        assert trace_property_check(pres, which) == "pass", which
    assert len(lifts) == pres.d
    assert len(staircases) == 1


def test_presentations_on_one_ring_keep_their_own_frames():
    R = RINGS[0, 1]
    x, y = R.gens()
    double = FinitePresentation(R, ("y",), ("x",), (x**2 - y,))
    triple = FinitePresentation(R, ("y",), ("x",), (x**3 - y,))
    B = double.base_ring()
    for _ in range(2):
        assert residue(ResidueQuery(double, x)) == B.one()
        assert residue(ResidueQuery(triple, x)).is_zero()
        assert residue(ResidueQuery(triple, x**2)) == B.one()
        assert residue(ResidueQuery(double, x**3)) == B.var("y")
    for pres in (double, triple):
        for h in (x, x**2, x**3 * y):
            assert residue(ResidueQuery(pres, h)) == reference_residue(pres, h)


def test_budget_trip_leaves_no_frame():
    """A frame whose build trips the budget is not kept; the next caller,
    under the default budget, builds it and gets the right residue.  The
    variable names are this test's own: the Gröbner cache ignores the budget."""
    R = ring_over(0, ["rfa", "rfb", "rfy", "rfz"])
    a, b, y, z = R.gens()
    pres = FinitePresentation(R, ("rfy", "rfz"), ("rfa", "rfb"), (a**2 + 2 * a - y, b**2 + a * b + y - z))
    h = a * b + b
    with budget_scope(Budget(max_pairs=0)), pytest.raises(BudgetExceeded):
        residue(ResidueQuery(pres, h))
    assert "residue_frame" not in vars(pres)
    assert residue(ResidueQuery(pres, h)) == reference_residue(pres, h)
    assert "residue_frame" in vars(pres)
