"""Residue symbols along fiber-finite complete intersections, and the trace
map for a finite surjective morphism presented as Y x A^d -> Y.

Residues are computed by eliminant reduction: the denominator sequence is
rewritten (via the determinant rule) into a triangular system of monic
eliminants, one per fiber variable, and then one variable is extracted at a
time: Res[h dx / g(x)] is the coefficient of x^{deg g - 1} in h reduced
modulo g.  This route is total on fiber-finite input; Jacobian division is
never used (it breaks at ramification).

Everything that depends only on the presentation X = V(t) in Y x A^d, and
not on the numerator or the form, is its frame, computed once per
FinitePresentation and kept on it for as long as it lives:
- `residue_frame`: the triangular eliminants g_i and the determinant of
  their cofactor rows over (t);
- `dt_prefix`: the form dt_d ^ ... ^ dt_1 that trace_form wedges onto;
- `staircase`: the module basis of O_X over O_Y.
Each part is computed on first use, so a presentation that is not
fiber-finite is still built without error and fails only where a residue or
a basis is asked for.  A part is built under the budget scope of its first
caller, and a later caller reuses it without running Buchberger, just as a
`_gb_cache` hit runs no S-pair; a budget trip while building one leaves
nothing behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import EngineError, RingMismatch
from .forms import Form, wedge_all
from .groebner import (
    Ideal,
    cofactor_lift,
    eliminate,
    fiber_staircase,
    groebner,
)
from .orders import block_order
from .poly import Poly, Ring
from .symbols import _determinant


@dataclass(frozen=True)
class FinitePresentation:
    """X inside P = Y x A^d, cut by a global sequence t, finite over Y.

    ring: the coordinate ring of P; base/fiber names partition its variables.
    """

    ring: Ring
    base_names: tuple
    fiber_names: tuple
    t: tuple

    def __post_init__(self):
        if set(self.base_names) | set(self.fiber_names) != set(self.ring.vars):
            raise EngineError("base and fiber variables must partition the ring")
        if len(self.t) != len(self.fiber_names):
            raise EngineError("need one denominator per fiber variable")
        for p in self.t:
            if p.ring != self.ring:
                raise RingMismatch("sequence entry in the wrong ring")

    @property
    def d(self) -> int:
        return len(self.fiber_names)

    def fiber_indices(self) -> list:
        return [self.ring.index(n) for n in self.fiber_names]

    def base_ring(self) -> Ring:
        return Ring(self.base_names, self.ring.field)

    def base_injection(self) -> dict:
        """Index map base-subring -> ring."""
        base = self.base_ring()
        return {i: self.ring.index(n) for i, n in enumerate(base.vars)}

    def to_base(self, p: Poly) -> Poly:
        base = self.base_ring()
        idx = {self.ring.index(n): i for i, n in enumerate(base.vars)}
        for e in p.terms:
            for j, k in enumerate(e):
                if k and j not in idx:
                    raise EngineError(f"{p} is not a base-ring element")
        return p.inject(base, idx)

    @cached_property
    def staircase(self) -> tuple:
        """Monomial basis of O_X over O_Y (staircase in the fiber variables)."""
        st = fiber_staircase(Ideal(self.ring, list(self.t)), self.fiber_indices())
        if st is None:
            raise EngineError("presentation is not fiber-finite")
        if st == []:
            raise EngineError("presentation is generically empty over the base")
        fiber_idx = self.fiber_indices()
        monos = []
        for exp in sorted(st):
            e = [0] * self.ring.nvars
            for pos, k in enumerate(exp):
                e[fiber_idx[pos]] = k
            monos.append(self.ring.monomial(tuple(e)))
        return tuple(monos)

    @cached_property
    def residue_frame(self) -> ResidueFrame:
        """The eliminants and determinant every residue over (t) divides by."""
        gs = tuple(_triangular_eliminants(self))
        I = Ideal(self.ring, list(self.t))
        return ResidueFrame(gs, _determinant([cofactor_lift(g, I) for g in gs], self.ring))

    @cached_property
    def dt_prefix(self) -> Form | None:
        """dt_d ^ ... ^ dt_1, in exactly that order; None when d = 0."""
        return wedge_all(Form.d(t) for t in reversed(self.t)) if self.d else None

    def module_basis(self) -> list:
        """Monomial basis of O_X over O_Y (staircase in the fiber variables)."""
        return list(self.staircase)

    def rank(self) -> int:
        return len(self.staircase)


@dataclass(frozen=True)
class ResidueFrame:
    """The numerator-free part of every residue over one presentation."""

    gs: tuple  # monic eliminant g_i in x_i, one per fiber variable
    det: Poly  # determinant of the cofactor rows of the g_i over (t)


def divmod_in_var(f: Poly, g: Poly, var_index: int):
    """Division by g monic in one variable (coefficients may involve others)."""
    ring = f.ring
    n = g.degree_in(var_index)
    g_coeffs = g.coeffs_in(var_index)
    lead_coeff = g_coeffs.get(n)
    if lead_coeff is None or not lead_coeff.is_constant():
        raise EngineError(f"divisor is not monic in variable {ring.vars[var_index]}")
    inv = ring.field.inv(lead_coeff.constant_value())
    q = ring.zero()
    r = f
    while True:
        m = r.degree_in(var_index)
        if m < n:
            return q, r
        top = r.coeffs_in(var_index).get(m)
        if top is None:
            return q, r
        shift = ring.var(var_index) ** (m - n)
        piece = top.scale(inv) * shift
        q = q + piece
        r = r - piece * g


def _triangular_eliminants(pres: FinitePresentation) -> list:
    """Monic eliminants g_i(x_i; x_1..x_{i-1}, y), one per fiber variable.

    g_i lies in the ideal (t) and is monic in x_i with coefficients in the
    polynomial ring on the earlier fiber variables and the base.
    """
    ring = pres.ring
    I = Ideal(ring, list(pres.t))
    fiber_idx = pres.fiber_indices()
    out = []
    for pos, xi in enumerate(fiber_idx):
        later = [ring.vars[j] for j in fiber_idx[pos + 1 :]]
        J = eliminate(I, later) if later else I
        jring = J.ring
        xi_j = jring.index(ring.vars[xi])
        rest = [k for k in range(jring.nvars) if k != xi_j]
        order = block_order([xi_j], rest)
        gb = groebner(J, order)
        g = None
        for poly, e in zip(gb.basis, gb.lead_exps):
            if e[xi_j] > 0 and all(e[k] == 0 for k in rest):
                g = poly
                break
        if g is None:
            raise EngineError(
                f"no monic eliminant for fiber variable {ring.vars[xi]}: not finite"
            )
        back = {i: ring.index(jring.vars[i]) for i in range(jring.nvars)}
        out.append(g.inject(ring, back))
    return out


@dataclass
class ResidueQuery:
    presentation: FinitePresentation
    numerator: Poly  # coefficient of dx_1 ^ ... ^ dx_d, in the fiber order


def residue(query: ResidueQuery) -> Poly:
    """Res_{P/Y}[h dx_1...dx_d / t_1,...,t_d] as a base-ring element."""
    pres = query.presentation
    ring = pres.ring
    if query.numerator.ring != ring:
        raise RingMismatch("numerator in the wrong ring")
    frame = pres.residue_frame
    cur = query.numerator * frame.det
    fiber_idx = pres.fiber_indices()
    for pos in range(pres.d - 1, -1, -1):
        xi = fiber_idx[pos]
        g = frame.gs[pos]
        n = g.degree_in(xi)
        _, r = divmod_in_var(cur, g, xi)
        cur = r.coeffs_in(xi).get(n - 1, ring.zero())
    return pres.to_base(cur)


@dataclass
class TraceResult:
    input_degree: int
    output: Form  # on the base ring
    audit: dict = field(default_factory=dict)


def trace_form(pres: FinitePresentation, alpha: Form) -> TraceResult:
    """tau_f(alpha) for f: X -> Y finite, X = V(t) in P = Y x A^d.

    Writes dt_d ^ ... ^ dt_1 ^ alpha~ in the relative/base bigraded basis,
    takes the residue of each top-relative piece, and sums with the
    (-1)^{d(d-1)/2} prefactor.
    """
    ring = pres.ring
    if alpha.ring != ring:
        raise RingMismatch("form must be presented on the ambient ring")
    d = pres.d
    # residue() lifts over this same ideal, so compute the cofactors now
    # rather than a second basis there
    gb = groebner(Ideal(ring, list(pres.t)), cofactors=True)
    lifted = alpha.map_coefficients(gb.normal_form)
    # dt_d ^ ... ^ dt_1 ^ alpha~, in exactly that order
    omega = pres.dt_prefix.wedge(lifted) if d else lifted

    fiber_idx = pres.fiber_indices()
    fiber_set = set(fiber_idx)
    base_ring = pres.base_ring()
    base_index = {ring.index(n): i for i, n in enumerate(base_ring.vars)}
    out_degree = alpha.degree
    result = Form.zero(base_ring, out_degree)
    audit_terms = []
    for idx, coeff in omega.components.items():
        fib = tuple(i for i in idx if i in fiber_set)
        base = tuple(i for i in idx if i not in fiber_set)
        if len(fib) != d:
            continue
        # sign of reordering idx -> (fib..., base...)
        perm = list(fib) + list(base)
        sign = _permutation_sign_from_sorted(idx, perm)
        # residue numerator: coefficient against dx_1 ^ ... ^ dx_d in fiber order
        fib_sign = _permutation_sign(tuple(fiber_idx.index(i) for i in fib))
        h = coeff.scale(sign * fib_sign)
        res = residue(ResidueQuery(pres, h))
        audit_terms.append((idx, str(h), str(res)))
        base_tuple = tuple(sorted(base_index[i] for i in base))
        piece = Form(base_ring, out_degree, {base_tuple: res})
        result = result + piece
    prefactor = (-1) ** (d * (d - 1) // 2)
    if prefactor < 0:
        result = -result
    return TraceResult(alpha.degree, result, {"terms": audit_terms, "lift": str(lifted)})


def _permutation_sign_from_sorted(sorted_tuple: tuple, arrangement: list) -> int:
    """Sign of the permutation taking `sorted_tuple` to `arrangement`."""
    order = [sorted_tuple.index(v) for v in arrangement]
    return _permutation_sign(tuple(order))


def _permutation_sign(perm: tuple) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def pullback_to_total(pres: FinitePresentation, beta: Form) -> Form:
    """f^* of a base form: reinterpret on the ambient ring of P."""
    inj = pres.base_injection()
    return beta.inject(pres.ring, inj)


def multiplication_trace(pres: FinitePresentation, h: Poly) -> Poly:
    """Linear-algebra trace of multiplication by h on the module basis."""
    ring = pres.ring
    fiber_idx = pres.fiber_indices()
    basis = pres.module_basis()
    basis_exps = []
    for m in basis:
        (e,) = m.terms
        basis_exps.append(tuple(e[i] for i in fiber_idx))
    order = block_order(fiber_idx, [i for i in range(ring.nvars) if i not in set(fiber_idx)])
    gb = groebner(Ideal(ring, list(pres.t)), order)
    total = ring.zero()
    for col, m in enumerate(basis):
        nf = gb.normal_form(h * m)
        # pick out the coefficient (a base polynomial) of the same basis monomial
        diag = ring.zero()
        for e, c in nf.terms.items():
            fib = tuple(e[i] for i in fiber_idx)
            if fib == basis_exps[col]:
                be = list(e)
                for i in fiber_idx:
                    be[i] = 0
                diag = diag + ring.monomial(tuple(be), c)
            elif fib not in basis_exps:
                raise EngineError("normal form escaped the staircase basis")
        total = total + diag
    return pres.to_base(total)


def trace_property_check(pres: FinitePresentation, which: str) -> str:
    """Executable checks for the three trace properties.

    'degree0': tau_f on functions equals the multiplication-operator trace on
    a module basis.  'projection': tau_f(alpha * f^*beta) = tau_f(alpha) * beta
    on a generating sweep.  'degree': tau_f(f^*beta) = deg(f) * beta; reported
    'inapplicable' when deg(f) vanishes in the coefficient field.

    Returns 'pass', 'fail', or 'inapplicable'.
    """
    ring = pres.ring
    base_ring = pres.base_ring()
    basis = pres.module_basis()
    if which == "degree0":
        sweep = list(basis)
        if len(sweep) > 1:
            sweep.append(basis[0] + basis[1])
        for h in sweep:
            lhs = trace_form(pres, Form.from_poly(h)).output
            rhs = multiplication_trace(pres, h)
            if lhs.as_poly() != rhs:
                return "fail"
        return "pass"
    if which == "projection":
        alphas = [Form.from_poly(ring.one())]
        for x in pres.fiber_names:
            alphas.append(Form.d(ring.var(x)).scale(ring.var(x)))
            alphas.append(Form.from_poly(ring.var(x)))
        betas = [Form.from_poly(base_ring.var(n)) for n in pres.base_names]
        betas += [Form.d(base_ring.var(n)) for n in pres.base_names]
        for alpha in alphas:
            ta = trace_form(pres, alpha).output
            for beta in betas:
                if alpha.degree + beta.degree > len(pres.base_names):
                    continue
                lhs = trace_form(pres, alpha.wedge(pullback_to_total(pres, beta))).output
                rhs = ta.wedge(beta)
                if lhs != rhs:
                    return "fail"
        return "pass"
    if which == "degree":
        deg = pres.rank()
        if ring.field.coerce(deg) == ring.field.zero:
            return "inapplicable"
        betas = [Form.from_poly(base_ring.one())]
        betas += [Form.from_poly(base_ring.var(n)) for n in pres.base_names]
        betas += [Form.d(base_ring.var(n)) for n in pres.base_names]
        for beta in betas:
            lhs = trace_form(pres, pullback_to_total(pres, beta)).output
            rhs = beta.scale(deg)
            if lhs != rhs:
                return "fail"
        return "pass"
    raise EngineError(f"unknown trace property {which!r}")
