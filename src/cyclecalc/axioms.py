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
from .fields import field_of_characteristic
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
from .groebner import Ideal
from .poly import Ring
from .report import INAPPLICABLE, Report, compared, run_checks
from .residues import FinitePresentation, trace_property_check
from .supports import SupportFamily
from .symbols import KoszulFraction, cycle_class_at_chart


def run_axiom_harness(characteristic: int = 0, mutate_sign: bool = False) -> Report:
    return run_checks(characteristic, _harness_checks(characteristic, mutate_sign))


def _power_map(char: int, n: int) -> Morphism:
    """x -> x^n from the x-line to the y-line."""
    X = Space([affine("x")], char)
    return Morphism(X, Space([affine("y")], char), [(X.ring.var("x") ** n,)])


def _power_cover(char: int, n: int) -> FinitePresentation:
    """The same degree-n cover as a finite presentation: x over y by y - x^n."""
    R = Ring(("x", "y"), field_of_characteristic(char))
    return FinitePresentation(R, ("y",), ("x",), (R.var("y") - R.var("x") ** n,))


def _fundamental(space: Space, label: str = "X") -> Cycle:
    """The fundamental class of `space`, supported in its full family."""
    return cycle_of(PrimeComponent(whole_space(space), label, screen=False), SupportFamily.full(space))


def _harness_checks(char: int, mutate_sign: bool):
    """The harness's `(name, kind, check)` triples, in report order."""

    # ----- condition 1: finite push-forward of the fundamental class --------
    for n in (2, 3, 6):
        def check(n=n):
            f = _power_map(char, n)
            out = push_forward(_fundamental(f.source), f, SupportFamily.full(f.target))
            got = (list(out.terms.values()), _power_cover(char, n).rank())
            return compared(got, ([n], n), {"degree": n})
        yield f"cond1_push_deg{n}", "axiom-1", check

    for n in (2, 3):
        def check_trace(n=n):
            got = trace_property_check(_power_cover(char, n), "degree")
            if got == "inapplicable":
                return INAPPLICABLE, f"deg {n} not a unit in characteristic {char}", {}
            return compared(got, "pass")
        yield f"cond1_trace_deg{n}", "axiom-1", check_trace

    # ----- condition 2: [0] - [infinity] is principal on P^1 ---------------
    def check_cond2():
        P1 = Space([proj("U", "V")], char)
        T = Ring(("t",), P1.ring.field)
        d = principal_divisor_line(T.var("t"), T.one(), P1)
        zero_pt = PrimeComponent(closed_set(P1, P1.ring.var("U")), "0", screen=False)
        inf_pt = PrimeComponent(closed_set(P1, P1.ring.var("V")), "inf", screen=False)
        want = Cycle(P1, {zero_pt: 1, inf_pt: -1})
        return compared((d, divisor_degree(d)), (want, 0), {"divisor": repr(d)})
    yield "cond2_rational_equivalence", "axiom-2", check_cond2

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
            return compared(out, Cycle(A1, {origin: n}), {"n": n})
        yield f"cond3_tangency_n{n}", "axiom-3", check_mult

    # ----- condition 4: cycle class independence and trace-route consistency --
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
            return compared(c1, c2, same=KoszulFraction.equal)
        yield f"cond4_class_params_{label}", "axiom-4", check_class

    for label, W, t1, _t2, wit in class_cases():
        def check_lci(W=W, t1=t1, wit=wit):
            # route A: the explicit cycle class (optionally sign-mutated)
            cl = cycle_class_at_chart(W, t1, witness=wit)
            if mutate_sign:
                cl = -cl
            # route B: the regular-embedding trace symbol against the
            # reversed dt wedge, with its own sign
            c = len(t1)
            rev = wedge_all([Form.d(t) for t in reversed(t1)])
            lci = KoszulFraction(rev, tuple(t1)).scale((-1) ** (c * (c + 1) // 2))
            return compared(cl, lci, same=KoszulFraction.equal)
        yield f"cond4_lci_route_{label}", "axiom-4", check_lci

    # ----- projection formula ------------------------------------------------
    def proj_formula_line():
        f = _power_map(char, 2)
        X, Y = f.source, f.target
        fullY = SupportFamily.full(Y)
        q = PrimeComponent(point_set(Y, {"y": 4}), "q", screen=False)
        b = Cycle(Y, {q: 1})
        # lhs: f_*(1 cup f^* b) = f_*(f^* b)
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
        (mult,) = set(push_forward(_fundamental(X), f, fullY).terms.values())
        return compared(lhs, b.scale(mult))
    yield "projection_formula_line", "axiom-pf", proj_formula_line

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
        lhs = push_forward(_transversal_cup(a, fb), f, fullY)
        # rhs: f_*[a] cup b
        rhs = _transversal_cup(bq, push_forward(Cycle(X, {a: 1}), f, fullY))
        return compared(lhs, rhs)
    yield "projection_formula_plane", "axiom-pf", proj_formula_plane

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
        rhs = _transversal_cup(bq, push_forward(_fundamental(A1, "A1"), iota, fullY))
        return compared(lhs, rhs)
    yield "projection_formula_immersion", "axiom-pf", proj_formula_immersion

    # ----- base-change squares ------------------------------------------------
    # push-forward along x -> x^n commutes with restriction off y = 0, for the
    # fundamental class of the square cover and a point of the cube cover
    def point_one(X):
        return Cycle(X, {PrimeComponent(point_set(X, {"x": 1}), "p", screen=False): 1}, SupportFamily.full(X))

    for label, n, source in (("square", 2, _fundamental), ("cube", 3, point_one)):
        def square_open(n=n, source=source):
            f = _power_map(char, n)
            fullY = SupportFamily.full(f.target)
            a = source(f.source)
            B = point_set(f.target, {"y": 0})
            lhs = push_forward(a, f, fullY).restrict_off(B)
            return compared(lhs, push_forward(a.restrict_off(preimage(f, B)), f, fullY))
        yield f"base_change_open_{label}", "axiom-bc", square_open

    def square_flat_projection():
        # finite cover times the line, pulled back along the projection
        f = _power_map(char, 2)
        X, Y = f.source, f.target
        XT = Space([affine("x", "s")], char)
        YT = Space([affine("y", "t")], char)
        fxid = Morphism(XT, YT, [(XT.ring.var("x") ** 2, XT.ring.var("s"))])
        prY = Morphism(YT, Y, [(YT.ring.var("y"),)])
        prX = Morphism(XT, X, [(XT.ring.var("x"),)])
        a = _fundamental(X)
        lhs = flat_pullback(push_forward(a, f, SupportFamily.full(Y)), prY, 1, "projection", None)
        ga = flat_pullback(a, prX, 1, "projection", None)
        rhs = push_forward(ga.with_family(SupportFamily.full(XT)), fxid, SupportFamily.full(YT))
        return compared(lhs, rhs)
    yield "base_change_flat_projection", "axiom-bc", square_flat_projection

    def square_hyperplane():
        X = Space([affine("x", "y")], char)
        Y = Space([affine("u", "v")], char)
        RX, RY = X.ring, Y.ring
        f = Morphism(X, Y, [(RX.var("x") ** 2, RX.var("y"))])
        a = _fundamental(X)
        lhs = _restrict_to_hyperplane(push_forward(a, f, SupportFamily.full(Y)), RY.var("v"))
        aX = _restrict_to_hyperplane(a, RX.var("y"))
        rhs = push_forward(aX.with_family(SupportFamily.full(X)), f, SupportFamily.full(Y))
        return compared(lhs, rhs)
    yield "base_change_hyperplane", "axiom-bc", square_hyperplane

    def square_empty_fiber():
        # transversal immersion missing the pushed cycle: both routes are zero
        X = Space([affine("x")], char)
        Y = Space([affine("u", "v")], char)
        iota = Morphism(X, Y, [(X.ring.var("x"), X.ring.zero())])
        p = PrimeComponent(point_set(X, {"x": 3}), "p", screen=False)
        a = Cycle(X, {p: 1}, SupportFamily.full(X))
        fa = push_forward(a, iota, SupportFamily.full(Y))
        # the hyperplane v=1 misses iota(X) entirely
        return compared(_restrict_to_hyperplane(fa, Y.ring.var("v") - 1), Cycle(Y, {}))
    yield "base_change_empty_intersection", "axiom-bc", square_empty_fiber


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
