"""The axiom harness: executable side conditions for the cycle theory.

Runs a curated condition suite on the cycle-level instance: push-forward of
fundamental classes along finite covers, rational equivalence of 0 and
infinity on the projective line, intersection multiplicities along tangent
divisors, chart-independence and trace-route consistency of the cycle class,
the projection formula on transversal configurations, and five base-change
squares.  Individual failures are reported; the harness never aborts early.

`mutate_sign=True` deliberately flips one sign in the cycle-class route to
verify that the suite is sensitive enough to catch it (a mutation test, not a
feature).
"""

from __future__ import annotations

import time
from dataclasses import asdict

from .cycles import (
    Cycle,
    LineProbe,
    PullbackTerm,
    cycle_of,
    divisor_degree,
    flat_pullback,
    principal_divisor_line,
    push_forward,
)
from .errors import EngineError
from .forms import Form, wedge_all
from .geometry import (
    ClosedSet,
    Morphism,
    PrimeComponent,
    Space,
    affine,
    closed_set,
    jacobian_rank,
    point_set,
    preimage,
    proj,
    whole_space,
)
from .groebner import Ideal, current_budget
from .poly import Ring
from .report import (
    FAIL,
    INAPPLICABLE,
    PASS,
    Report,
    run_check,
)
from .residues import FinitePresentation, trace_property_check
from .supports import SupportFamily
from .symbols import KoszulFraction, cycle_class_at_chart


def run_axiom_harness(characteristic: int = 0, mutate_sign: bool = False) -> Report:
    report = Report(characteristic=characteristic, budgets=asdict(current_budget()))
    start = time.time()
    char = characteristic

    # ----- condition 1: finite push-forward of the fundamental class --------
    covers = [("square", 2), ("cube", 3), ("sixth", 6)]
    for label, n in covers:
        def check(n=n):
            X = Space([affine("x")], char)
            Y = Space([affine("y")], char)
            f = Morphism(X, Y, [(X.ring.var("x") ** n,)])
            line = PrimeComponent(whole_space(X), "X", screen=False)
            out = push_forward(cycle_of(line, SupportFamily.full(X)), f, SupportFamily.full(Y))
            pres = FinitePresentation(
                Ring(("x", "y"), X.ring.field), ("y",), ("x",),
                (Ring(("x", "y"), X.ring.field).var("y") - Ring(("x", "y"), X.ring.field).var("x") ** n,),
            )
            deg_independent = pres.rank()
            got = list(out.terms.values())
            ok = got == [n] and deg_independent == n
            return (PASS if ok else FAIL,
                    "" if ok else f"push gave {got}, staircase rank {deg_independent}",
                    {"degree": n})
        report.add(run_check(f"cond1_push_deg{n}", "axiom-1", check))

    for label, n in [("square", 2), ("cube", 3)]:
        def check_trace(n=n):
            R = Ring(("x", "y"), Space([affine("x")], char).ring.field)
            pres = FinitePresentation(R, ("y",), ("x",), (R.var("y") - R.var("x") ** n,))
            got = trace_property_check(pres, "degree")
            if got == "inapplicable":
                return INAPPLICABLE, f"deg {n} not a unit in characteristic {char}", {}
            return (PASS if got == "pass" else FAIL, "", {})
        report.add(run_check(f"cond1_trace_deg{n}", "axiom-1", check_trace))

    # ----- condition 2: [0] - [infinity] is principal on P^1 ---------------
    def check_cond2():
        P1 = Space([proj("U", "V")], char)
        T = Ring(("t",), P1.ring.field)
        d = principal_divisor_line(T.var("t"), T.one(), P1)
        zero_pt = PrimeComponent(closed_set(P1, P1.ring.var("U")), "0", screen=False)
        inf_pt = PrimeComponent(closed_set(P1, P1.ring.var("V")), "inf", screen=False)
        ok = d == Cycle(P1, {zero_pt: 1, inf_pt: -1}) and divisor_degree(d) == 0
        return PASS if ok else FAIL, "" if ok else repr(d), {"divisor": repr(d)}
    report.add(run_check("cond2_rational_equivalence", "axiom-2", check_cond2))

    # ----- condition 3: tangency multiplicities at cycle level -------------
    for n in (2, 3):
        def check_mult(n=n):
            A2 = Space([affine("x", "y")], char)
            A1 = Space([affine("x")], char)
            rx = A1.ring.var("x")
            X_curve = PrimeComponent(
                closed_set(A2, A2.ring.var("y") - A2.ring.var("x") ** n), "curve", screen=False
            )
            # include the divisor D = {y = 0} as the x-axis, pull the curve back
            iota = Morphism(A1, A2, [(rx, A1.ring.zero())])
            origin = PrimeComponent(point_set(A1, {"x": 0}), "origin", screen=False)
            decl = {
                X_curve: [PullbackTerm(origin, n, probe=LineProbe({"x": 0}, {"x": 1}))]
            }
            out = flat_pullback(Cycle(A2, {X_curve: 1}), iota, -1, "transversal immersion", decl)
            ok = out == Cycle(A1, {origin: n})
            return PASS if ok else FAIL, "" if ok else repr(out), {"n": n}
        report.add(run_check(f"cond3_tangency_n{n}", "axiom-3", check_mult))

    # ----- condition 4: cycle class independence and trace-route consistency --
    sign_flip = -1 if mutate_sign else 1

    def class_cases():
        A2 = Space([affine("x", "y")], char)
        R = A2.ring
        x, y = R.gens()
        return [
            ("diagonal", PrimeComponent(closed_set(A2, x - y), "diag", screen=False),
             [x - y], [y - x], {"x": 1, "y": 1}),
            ("parabola", PrimeComponent(closed_set(A2, y - x**2), "par", screen=False),
             [y - x**2], [x**2 - y], {"x": 0, "y": 0}),
            ("origin", PrimeComponent(closed_set(A2, x, y), "orig", screen=False),
             [x, y], [x + y**2, y], {"x": 0, "y": 0}),
        ]

    for label, W, t1, t2, wit in class_cases():
        def check_class(W=W, t1=t1, t2=t2, wit=wit):
            c1 = cycle_class_at_chart(W, t1, witness=wit)
            c2 = cycle_class_at_chart(W, t2, witness=wit)
            ok = c1.equal(c2)
            return PASS if ok else FAIL, "" if ok else f"{c1!r} != {c2!r}", {}
        report.add(run_check(f"cond4_class_params_{label}", "axiom-4", check_class))

    for label, W, t1, _t2, wit in class_cases():
        def check_lci(W=W, t1=t1, wit=wit):
            # route A: the explicit cycle class (optionally sign-mutated)
            cl = cycle_class_at_chart(W, t1, witness=wit)
            if sign_flip < 0:
                cl = -cl
            # route B: the regular-embedding trace symbol against the
            # reversed dt wedge, with its own sign
            c = len(t1)
            ring = W.space.ring
            rev = wedge_all([Form.d(t) for t in reversed(t1)])
            lci = KoszulFraction(rev, tuple(t1))
            sign = (-1) ** (c * (c + 1) // 2)
            lci = lci.scale(sign)
            ok = cl.equal(lci)
            return PASS if ok else FAIL, "" if ok else "sign routes disagree", {}
        report.add(run_check(f"cond4_lci_route_{label}", "axiom-4", check_lci))

    # ----- projection formula ------------------------------------------------
    def proj_formula_line():
        X = Space([affine("x")], char)
        Y = Space([affine("y")], char)
        f = Morphism(X, Y, [(X.ring.var("x") ** 2,)])
        fullX, fullY = SupportFamily.full(X), SupportFamily.full(Y)
        q = PrimeComponent(point_set(Y, {"y": 4}), "q", screen=False)
        b = Cycle(Y, {q: 1})
        # lhs: f_*(1 cup f^* b) = f_*(f^* b)
        pre = closed_set(X, X.ring.var("x") ** 2 - 4)
        if char == 2:
            return INAPPLICABLE, "preimage is non-reduced in characteristic 2", {}
        p1 = PrimeComponent(point_set(X, {"x": 2}), "p1", screen=False)
        p2 = PrimeComponent(point_set(X, {"x": -2}), "p2", screen=False)
        decl = {q: [
            PullbackTerm(p1, 1, witness={"x": 2}),
            PullbackTerm(p2, 1, witness={"x": -2}),
        ]}
        fb = flat_pullback(b, f, 0, "finite flat", decl)
        lhs = push_forward(fb, f, fullY)
        # rhs: f_*(1_X) cup b = 2 [Y] cup b = 2 b
        push1 = push_forward(cycle_of(PrimeComponent(whole_space(X), "X", screen=False), fullX), f, fullY)
        (mult,) = set(push1.terms.values())
        rhs = b.scale(mult)
        ok = lhs == rhs
        return PASS if ok else FAIL, "" if ok else f"{lhs!r} != {rhs!r}", {}
    report.add(run_check("projection_formula_line", "axiom-pf", proj_formula_line))

    def proj_formula_plane():
        X = Space([affine("x", "y")], char)
        Y = Space([affine("u", "v")], char)
        RX, RY = X.ring, Y.ring
        f = Morphism(X, Y, [(RX.var("x") ** 2, RX.var("y"))])
        fullY = SupportFamily.full(Y)
        a = PrimeComponent(closed_set(X, RX.var("y")), "xaxis", screen=False)
        bq = PrimeComponent(closed_set(Y, RY.var("u") - 1), "u1", screen=False)
        b = Cycle(Y, {bq: 1})
        if char == 2:
            return INAPPLICABLE, "cover inseparable in characteristic 2", {}
        c1 = PrimeComponent(closed_set(X, RX.var("x") - 1), "x1", screen=False)
        c2 = PrimeComponent(closed_set(X, RX.var("x") + 1), "x-1", screen=False)
        decl = {bq: [
            PullbackTerm(c1, 1, witness={"x": 1, "y": 0}),
            PullbackTerm(c2, 1, witness={"x": -1, "y": 0}),
        ]}
        fb = flat_pullback(b, f, 0, "finite flat", decl)
        # a cup f^2*(b): transversal intersections, multiplicity 1
        inter = _transversal_cup(a, fb)
        lhs = push_forward(inter, f, fullY)
        # rhs: f_*[a] cup b
        fa = push_forward(Cycle(X, {a: 1}), f, fullY)
        rhs = _transversal_cup(bq, fa)
        ok = lhs == rhs
        return PASS if ok else FAIL, "" if ok else f"{lhs!r} != {rhs!r}", {}
    report.add(run_check("projection_formula_plane", "axiom-pf", proj_formula_plane))

    def proj_formula_immersion():
        A1 = Space([affine("x")], char)
        A2 = Space([affine("u", "v")], char)
        iota = Morphism(A1, A2, [(A1.ring.var("x"), A1.ring.zero())])
        fullY = SupportFamily.full(A2)
        bq = PrimeComponent(closed_set(A2, A2.ring.var("u") - 1), "u1", screen=False)
        b = Cycle(A2, {bq: 1})
        x1 = PrimeComponent(point_set(A1, {"x": 1}), "x1", screen=False)
        decl = {bq: [PullbackTerm(x1, 1, witness={"x": 1})]}
        fb = flat_pullback(b, iota, -1, "transversal immersion", decl)
        lhs = push_forward(fb, iota, fullY)
        fa = push_forward(
            cycle_of(PrimeComponent(whole_space(A1), "A1", screen=False), SupportFamily.full(A1)),
            iota, fullY,
        )
        rhs = _transversal_cup(bq, fa)
        ok = lhs == rhs
        return PASS if ok else FAIL, "" if ok else f"{lhs!r} != {rhs!r}", {}
    report.add(run_check("projection_formula_immersion", "axiom-pf", proj_formula_immersion))

    # ----- base-change squares ------------------------------------------------
    def square_open_restriction():
        X = Space([affine("x")], char)
        Y = Space([affine("y")], char)
        f = Morphism(X, Y, [(X.ring.var("x") ** 2,)])
        fullY = SupportFamily.full(Y)
        a = cycle_of(PrimeComponent(whole_space(X), "X", screen=False), SupportFamily.full(X))
        B = point_set(Y, {"y": 0})
        lhs = push_forward(a, f, fullY).restrict_off(B)
        rhs = push_forward(a.restrict_off(preimage(f, B)), f, fullY)
        ok = lhs == rhs
        return PASS if ok else FAIL, "", {}
    report.add(run_check("base_change_open_square", "axiom-bc", square_open_restriction))

    def square_open_cube():
        X = Space([affine("x")], char)
        Y = Space([affine("y")], char)
        f = Morphism(X, Y, [(X.ring.var("x") ** 3,)])
        fullY = SupportFamily.full(Y)
        p = PrimeComponent(point_set(X, {"x": 1}), "p", screen=False)
        a = Cycle(X, {p: 1}, SupportFamily.full(X))
        B = point_set(Y, {"y": 0})
        lhs = push_forward(a, f, fullY).restrict_off(B)
        rhs = push_forward(a.restrict_off(preimage(f, B)), f, fullY)
        ok = lhs == rhs
        return PASS if ok else FAIL, "", {}
    report.add(run_check("base_change_open_cube", "axiom-bc", square_open_cube))

    def square_flat_projection():
        # finite cover times the line, pulled back along the projection
        X = Space([affine("x")], char)
        Y = Space([affine("y")], char)
        XT = Space([affine("x", "s")], char)
        YT = Space([affine("y", "t")], char)
        f = Morphism(X, Y, [(X.ring.var("x") ** 2,)])
        fxid = Morphism(XT, YT, [(XT.ring.var("x") ** 2, XT.ring.var("s"))])
        prY = Morphism(YT, Y, [(YT.ring.var("y"),)])
        prX = Morphism(XT, X, [(XT.ring.var("x"),)])
        fullYT = SupportFamily.full(YT)
        a = cycle_of(PrimeComponent(whole_space(X), "X", screen=False), SupportFamily.full(X))
        fa = push_forward(a, f, SupportFamily.full(Y))
        lhs = flat_pullback(fa, prY, 1, "projection", None)
        ga = flat_pullback(a, prX, 1, "projection", None)
        rhs = push_forward(ga.with_family(SupportFamily.full(XT)), fxid, fullYT)
        ok = lhs == rhs
        return PASS if ok else FAIL, "" if ok else f"{lhs!r} != {rhs!r}", {}
    report.add(run_check("base_change_flat_projection", "axiom-bc", square_flat_projection))

    def square_hyperplane():
        X = Space([affine("x", "y")], char)
        Y = Space([affine("u", "v")], char)
        RX, RY = X.ring, Y.ring
        f = Morphism(X, Y, [(RX.var("x") ** 2, RX.var("y"))])
        a = cycle_of(PrimeComponent(whole_space(X), "X", screen=False), SupportFamily.full(X))
        fa = push_forward(a, f, SupportFamily.full(Y))
        lhs = _restrict_to_hyperplane(fa, RY.var("v"))
        aX = _restrict_to_hyperplane(a, RX.var("y"))
        rhs = push_forward(aX.with_family(SupportFamily.full(X)), f, SupportFamily.full(Y))
        ok = lhs == rhs
        return PASS if ok else FAIL, "" if ok else f"{lhs!r} != {rhs!r}", {}
    report.add(run_check("base_change_hyperplane", "axiom-bc", square_hyperplane))

    def square_empty_fiber():
        # transversal immersion missing the pushed cycle: both routes are zero
        X = Space([affine("x")], char)
        Y = Space([affine("u", "v")], char)
        iota = Morphism(X, Y, [(X.ring.var("x"), X.ring.zero())])
        p = PrimeComponent(point_set(X, {"x": 3}), "p", screen=False)
        a = Cycle(X, {p: 1}, SupportFamily.full(X))
        fa = push_forward(a, iota, SupportFamily.full(Y))
        lhs = _restrict_to_hyperplane(fa, Y.ring.var("v") - 1)
        # the hyperplane v=1 misses iota(X) entirely
        ok = lhs.is_zero()
        return PASS if ok else FAIL, "" if ok else repr(lhs), {}
    report.add(run_check("base_change_empty_intersection", "axiom-bc", square_empty_fiber))

    report.timing_seconds = time.time() - start
    return report


def _transversal_cup(prime_comp: PrimeComponent, other: Cycle) -> Cycle:
    """[prime] cup other for visibly transversal suite configurations.

    Components must intersect with additive codimension; each intersection is
    screened and taken with multiplicity one (the configurations used by the
    harness are coordinate hyperplanes and points, transversal by direct rank
    computation below).
    """
    space = prime_comp.space
    out = []
    for comp, mult in other.terms.items():
        inter = prime_comp.closed_set.intersect(comp.closed_set)
        if inter.is_empty():
            continue
        expected_dim = prime_comp.dim + comp.dim - space.dim
        if inter.dim != expected_dim:
            raise EngineError("cup configuration is not transversal (dimension)")
        gens = list(prime_comp.closed_set.ideal.gens) + list(comp.closed_set.ideal.gens)
        witness = _some_rational_point(inter)
        if witness is not None and jacobian_rank(gens, witness, space.ring) != inter.cone_codim():
            raise EngineError("cup configuration is not transversal (rank)")
        pc = PrimeComponent(inter, label=f"{prime_comp.label}.{comp.label}", screen=False)
        out.append((pc, mult))
    return Cycle(space, out)


def _some_rational_point(cs: ClosedSet):
    """Scan a small grid for a rational point (None when not found)."""
    ring = cs.space.ring
    n = ring.nvars
    if n > 3:
        return None
    values = [0, 1, -1, 2, -2, 3, -3]
    from itertools import product as iproduct

    for cand in iproduct(values, repeat=n):
        pt = {i: ring.field.coerce(v) for i, v in enumerate(cand)}
        if all(g.eval_point(pt) == ring.field.zero for g in cs.ideal.gens):
            return pt
    return None


def _restrict_to_hyperplane(a: Cycle, h) -> Cycle:
    """Gysin restriction to a transversal hyperplane V(h), multiplicity one.

    Components inside the hyperplane are rejected; intersections must drop
    dimension by exactly one and be generically reduced (prime screen).
    """
    space = a.space
    out = []
    for comp, mult in a.terms.items():
        gens = list(comp.closed_set.ideal.gens) + [h]
        inter = ClosedSet(space, Ideal(space.ring, gens))
        if inter.is_empty():
            continue
        if inter.dim != comp.dim - 1:
            raise EngineError("hyperplane is not transversal to the cycle")
        out.append((PrimeComponent(inter, label=f"{comp.label}|H", screen=False), mult))
    return Cycle(space, out)
