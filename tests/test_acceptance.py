"""Acceptance criteria: one test per criterion, exact tolerances, timed.

Every check here is exact symbolic equality (the engine has no floating
point); the stated wall-clock caps are asserted with time.monotonic.  Each
criterion prints its own pass line so a -s run reads as a checklist.
"""

import random
import time
from pathlib import Path

import sympy

from cyclecalc.axioms import run_axiom_harness
from cyclecalc.corr import GraphData, compose_localized, graph_correspondence
from cyclecalc.forms import Form
from cyclecalc.geometry import (
    Morphism,
    PrimeComponent,
    Space,
    affine,
    closed_set,
    proj,
    whole_space,
)
from cyclecalc.groebner import Ideal, audit_log, buchberger_audit, eliminate, member, radical_member
from cyclecalc.poly import ring_over
from cyclecalc.residues import FinitePresentation, pullback_to_total, residue, trace_form, trace_property_check
from cyclecalc.scenario import run_scenario_text
from cyclecalc.supports import SupportFamily
from cyclecalc.symbols import KoszulFraction, vanishing_check

from .oracles import sum_over_roots_residue, sylvester_resultant, sympy_poly

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def _report(criterion, ok, elapsed=None):
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok


def test_criterion_1_blowup_decomposition():
    """[Z^t]o[Z] = [diag] + E with supp(E) inside the product of the
    exceptional loci; exact main term; under 10 seconds."""
    start = time.monotonic()
    Xt_space = Space([affine("x", "y"), proj("u", "v")])
    Y_space = Space([affine("a", "b")])
    RX, RY = Xt_space.ring, Y_space.ring
    Xt = PrimeComponent(
        closed_set(Xt_space, RX.var("x") * RX.var("v") - RX.var("y") * RX.var("u")),
        "Xt", screen=False,
    )
    Yv = PrimeComponent(whole_space(Y_space), "Y", screen=False)
    pi = Morphism(Xt_space, Y_space, [(RX.var("x"), RX.var("y"))])
    sigma = Morphism(Y_space, Xt_space, [(RY.var("a"), RY.var("b")), (RY.var("a"), RY.var("b"))])
    Z = graph_correspondence(pi, Xt, SupportFamily.full(Xt_space), Yv, SupportFamily.full(Y_space))
    (zc,) = Z.cycle.terms
    Z.attach_graph(zc, GraphData("transpose", sigma))
    E = closed_set(Xt_space, RX.var("x"), RX.var("y"))
    r = compose_localized(
        Z, Z.transpose(), hint=E,
        witnesses=[{"x@1": 1, "y@1": 0, "u@1": 1, "v@1": 0,
                    "x@2": 1, "y@2": 0, "u@2": 1, "v@2": 0}],
    )
    rr = r.pair.space.ring
    diag = closed_set(
        r.pair.space,
        rr.var("x@1") - rr.var("x@2"), rr.var("y@1") - rr.var("y@2"),
        rr.var("u@1") * rr.var("v@2") - rr.var("v@1") * rr.var("u@2"),
        rr.var("x@1") * rr.var("v@1") - rr.var("y@1") * rr.var("u@1"),
        rr.var("x@2") * rr.var("v@2") - rr.var("y@2") * rr.var("u@2"),
    )
    (comp,), (mult,) = zip(*r.main.terms.items())
    exact_main = comp.closed_set == diag and mult == 1
    ExE = closed_set(r.pair.space, rr.var("x@1"), rr.var("y@1"), rr.var("x@2"), rr.var("y@2"))
    bounded = ExE.contains(r.error_support)
    # the shipped scenario file computes the same decomposition
    scen = run_scenario_text((SCENARIOS / "blowup.scn").read_text())
    elapsed = time.monotonic() - start
    _report("1 (blow-up decomposition)", exact_main and bounded and scen.ok and elapsed < 10.0, elapsed)


def test_criterion_2_trace_degree_identity():
    """tau_f o f* = n id on {1, dy} for n = 2, 3 over QQ, F5, F7; under 1 s
    each; char p | n reports inapplicable."""
    for char in (0, 5, 7):
        for n in (2, 3):
            start = time.monotonic()
            R = ring_over(char, ["x", "y"])
            pres = FinitePresentation(R, ("y",), ("x",), (R.var("y") - R.var("x") ** n,))
            B = pres.base_ring()
            one = Form.from_poly(B.one())
            dy = Form.d(B.var("y"))
            ok = trace_form(pres, pullback_to_total(pres, one)).output == one.scale(n)
            ok = ok and trace_form(pres, pullback_to_total(pres, dy)).output == dy.scale(n)
            elapsed = time.monotonic() - start
            assert ok and elapsed < 1.0, (char, n, elapsed)
    # characteristic dividing the degree: inapplicable, never fail
    for char in (3, 5, 7):
        R = ring_over(char, ["x", "y"])
        pres = FinitePresentation(R, ("y",), ("x",), (R.var("y") - R.var("x") ** char,))
        assert trace_property_check(pres, "degree") == "inapplicable"
    _report("2 (trace-degree identity)", True)


def test_criterion_3_degree0_trace_vs_linear_algebra():
    """tau_f on functions equals the multiplication-operator trace on five
    covers including a d=2 presentation; exact; under 5 s total."""
    start = time.monotonic()
    R = ring_over(0, ["x", "y"])
    X, Y = R.gens()
    presentations = [
        FinitePresentation(R, ("y",), ("x",), (Y - X**2,)),
        FinitePresentation(R, ("y",), ("x",), (Y - X**3,)),
        FinitePresentation(R, ("y",), ("x",), (X**2 - Y * X - 1,)),
        FinitePresentation(R, ("y",), ("x",), (X**3 - Y * X - 2,)),
    ]
    R4 = ring_over(0, ["x1", "x2", "y1", "y2"])
    presentations.append(
        FinitePresentation(
            R4, ("y1", "y2"), ("x1", "x2"),
            (R4.var("y1") - R4.var("x1") ** 2, R4.var("y2") - R4.var("x2") ** 3),
        )
    )
    ok = all(trace_property_check(p, "degree0") == "pass" for p in presentations)
    elapsed = time.monotonic() - start
    _report("3 (degree-0 trace vs linear algebra)", ok and elapsed < 5.0, elapsed)


def test_criterion_4_residue_oracle_equivalence():
    """Coefficient-extraction residues equal sum-over-roots oracle values on
    30 queries with fiber-degree <= 4; exact."""
    rng = random.Random(2024)
    R = ring_over(0, ["x", "y"])
    X, _ = R.gens()
    done = 0
    while done < 30:
        deg = rng.randint(1, 4)
        g = X**deg
        for k in range(deg):
            g = g + (X**k).scale(rng.randint(-4, 4))
        sg = sympy_poly(g)
        if sympy.degree(sympy.gcd(sg, sg.diff()), sympy.Symbol("x")) > 0:
            continue
        h = R.zero()
        for k in range(rng.randint(1, 5)):
            h = h + (X**k).scale(rng.randint(-5, 5))
        if h.is_zero():
            continue
        pres = FinitePresentation(R, ("y",), ("x",), (g,))
        got = residue(pres, h)
        want = sum_over_roots_residue(h, g)
        assert got == got.ring.const(want), (str(g), str(h))
        done += 1
    _report("4 (residue oracle equivalence, 30 queries)", True)


def test_criterion_5_multiplicity_identity():
    """[df dt/(f,t)] = n [dpi dt/(pi,t)] for the n = 2, 3 tangencies, decided
    by the determinant transformation and membership zero-test alone."""
    R = ring_over(0, ["x", "y"])
    X, Y = R.gens()
    ok = True
    for n in (2, 3):
        f, t, pi = Y, Y - X**n, X
        lhs = KoszulFraction(Form.d(f).wedge(Form.d(t)), (f, t))
        rhs_n = KoszulFraction(Form.d(pi).wedge(Form.d(t)), (pi, t)).scale(n)
        # transform the scaled target into the (f, t) denominators and test
        # the difference for zero: exactly the two permitted primitives
        moved = rhs_n.transform((f, t))
        ok = ok and (lhs - moved).is_zero()
        wrong = KoszulFraction(Form.d(pi).wedge(Form.d(t)), (pi, t)).scale(n + 1)
        ok = ok and not (lhs - wrong.transform((f, t))).is_zero()
    _report("5 (multiplicity identity n=2,3)", ok)


def test_criterion_6_vanishing_checker():
    """Components of the cycle class with q < 1 differentials from the
    small-image factor vanish, on both sides; exact."""
    prod = Space([affine("x1"), affine("y1")])
    rp = prod.ring
    H = PrimeComponent(closed_set(prod, rp.var("y1")), "A1x0", screen=False)
    target_side = vanishing_check(H, {1}, 1, [rp.var("y1")], [], witness={"x1": 0, "y1": 0})
    V = PrimeComponent(closed_set(prod, rp.var("x1")), "0xA1", screen=False)
    source_side = vanishing_check(V, {0}, 1, [rp.var("x1")], [], witness={"x1": 0, "y1": 0})
    ok = target_side == source_side == [(0, True)]
    scen = run_scenario_text((SCENARIOS / "vanishing.scn").read_text())
    _report("6 (projection vanishing)", ok and scen.ok)


def test_criterion_7_quotient_projector():
    """projector_check passes with lambda = deg(Y_a/X) and the four support
    bounds hold with the declared closed sets; under 30 s."""
    start = time.monotonic()
    rep = run_scenario_text((SCENARIOS / "quotient.scn").read_text())
    by_name = {t.name: t.verdict for t in rep.tasks}
    needed = ["proj", "za_gamma", "i392", "i393", "i394", "i395"]
    ok = rep.ok and all(by_name[n] == "pass" for n in needed)
    elapsed = time.monotonic() - start
    _report("7 (quotient projector + support bounds)", ok and elapsed < 30.0, elapsed)


def test_criterion_8_axiom_harness():
    """All curated conditions pass in characteristic 0 and 5; one injected
    sign error produces at least one failure."""
    ok = True
    for char in (0, 5):
        rep = run_axiom_harness(char)
        counts = rep.counts()
        ok = ok and counts["fail"] == 0 and counts["error"] == 0 and counts["policy-reject"] == 0
        kinds = {t.kind for t in rep.tasks}
        ok = ok and {"axiom-1", "axiom-2", "axiom-3", "axiom-4", "axiom-pf", "axiom-bc"} <= kinds
        bc = [t for t in rep.tasks if t.kind == "axiom-bc"]
        ok = ok and len(bc) == 5
    mutated = run_axiom_harness(0, mutate_sign=True)
    ok = ok and mutated.counts()["fail"] >= 1
    _report("8 (axiom harness + mutation sensitivity)", ok)


def test_criterion_9_groebner_soundness():
    """Every reduced basis emitted so far passes the Buchberger audit, and
    elimination agrees with the Sylvester resultant on 20 bivariate cases."""
    rng = random.Random(77)
    R = ring_over(0, ["x", "y"])
    X, Y = R.gens()
    done = 0
    while done < 20:
        def rand_in_x(deg, monic):
            out = (X**deg) if monic else R.zero()
            top = deg - 1 if monic else deg
            for k in range(top + 1):
                cy = R.zero()
                for _ in range(rng.randint(1, 2)):
                    cy = cy + (Y ** rng.randint(0, 2)).scale(rng.randint(-3, 3))
                out = out + (X**k) * cy
            return out

        f = rand_in_x(rng.randint(1, 2), monic=True)
        g = rand_in_x(rng.randint(1, 2), monic=False)
        if g.degree_in(0) < 1:
            continue
        res = sylvester_resultant(f, g, 0)
        if res.is_zero():
            continue
        E = eliminate(Ideal(R, [f, g]), ["x"])
        t = E.ring
        res_t = res.inject(t, {1: 0})
        assert member(res_t, E)
        for h in E.nonzero_gens():
            assert radical_member(h, Ideal(t, [res_t]))
        done += 1

    bases = audit_log()
    assert bases, "the audit registry must be populated by the suite"
    for gb in bases:
        assert buchberger_audit(gb), f"Buchberger audit failed for {gb!r}"
    _report(f"9 (Groebner soundness: {len(bases)} bases audited, 20 resultant cases)", True)
