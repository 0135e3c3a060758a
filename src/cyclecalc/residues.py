"""Residue symbols along fiber-finite complete intersections, and the trace
map for a finite surjective morphism presented as Y x A^d -> Y.

Residues are computed by eliminant reduction: the denominator sequence is
rewritten (via the determinant rule) into a triangular system of monic
eliminants, one per fiber variable, and then one variable is extracted at a
time: Res[h dx / g(x)] is the coefficient of x^{deg g - 1} in h reduced
modulo g.  This route is total on fiber-finite input; Jacobian division is
never used (it breaks at ramification).  The reduction is
`remainder_in_var`, which works on one term dict in place and builds no
quotient; g is monic in x, so the remainder is unique.  The coefficient of
x^{deg g - 1} is read straight off the remainder's terms.

h -> Res[h det dx / g] is O_Y-linear and vanishes on (g), so it is a linear
functional on the free O_Y-module k[x, y]/(g), with the box monomials x^a
(a_i < deg_{x_i} g_i) as a basis (Scheja & Storch, J. reine angew. Math.
278/279, 1975).  A residue therefore reduces only the terms of h outside the
box, and reads the value at each box monomial from a table on the frame.

The same transformation law holds for any triangular monic g = T t, not only
for Gröbner eliminants.  So when t is already triangular, each t_j free of
the later fiber variables with a single top term c x_i^n, the frame takes
g_i = t_j / c and the row e_j / c of T straight off t, with no elimination
and no cofactor lift.  Otherwise the g_i are the Gröbner eliminants of (t),
each lifted over its cofactor basis.

A trace keeps each residue numerator and residue as a polynomial; the
strings of `TraceResult.audit` are rendered only when it is read, which the
trace property checks never do.

Everything that depends only on the presentation X = V(t) in Y x A^d, and
not on the numerator or the form, is its frame, computed once per
FinitePresentation and kept on it for as long as it lives:
- `residue_frame`: the degrevlex basis of (t), which trace_form reduces
  forms by (its reps are read only when the eliminants are lifted); the
  triangular eliminants g_i and the determinant of their cofactor rows over
  (t); the fiber and base index maps and the base ring; and the box table,
  one residue per box monomial, filled on first use and never larger than
  the box;
- `dt_prefix`: the form dt_d ^ ... ^ dt_1 that trace_form wedges onto;
- `staircase`: the module basis of O_X over O_Y, with the block-order basis
  of (t) that multiplication_trace reduces by.
Each part is computed on first use, so a presentation that is not
fiber-finite is still built without error and fails only where a residue, a
trace or a basis is asked for.  A part is built under the budget scope of
its first caller, and a later caller reuses it without running Buchberger,
just as a `_gb_cache` hit runs no S-pair; a budget trip while building one
leaves nothing behind.
"""

from __future__ import annotations

from functools import cached_property

from .errors import EngineError, RingMismatch
from .forms import Form, _merge_tuples, wedge_all
from .groebner import (
    GBasis,
    Ideal,
    cofactor_lift,
    eliminate,
    fiber_staircase,
    groebner,
    monic_eliminant,
)
from .orders import block_order, exp_add, exp_sub
from .poly import Frozen, Poly, Ring
from .symbols import _determinant


class FinitePresentation(Frozen):
    """X inside P = Y x A^d, cut by a global sequence t, finite over Y.

    ring: the coordinate ring of P; base/fiber names partition its variables.
    Immutable, so the cached properties below stay valid.
    """

    _fields = ("ring", "base_names", "fiber_names", "t")

    def __init__(self, ring: Ring, base_names: tuple, fiber_names: tuple, t: tuple):
        if set(base_names) | set(fiber_names) != set(ring.vars):
            raise EngineError("base and fiber variables must partition the ring")
        if len(t) != len(fiber_names):
            raise EngineError("need one denominator per fiber variable")
        for p in t:
            if p.ring is not ring and p.ring != ring:
                raise RingMismatch("sequence entry in the wrong ring")
        super().__init__(ring, base_names, fiber_names, t)

    @property
    def d(self) -> int:
        return len(self.fiber_names)

    def fiber_indices(self) -> list:
        return [self.ring.index(n) for n in self.fiber_names]

    @cached_property
    def _base_ring(self) -> Ring:
        return Ring(self.base_names, self.ring.field)

    @cached_property
    def _base_index(self) -> dict:
        """Ring index -> base-ring index, in base-ring order."""
        return {self.ring.index(n): i for i, n in enumerate(self.base_names)}

    def base_ring(self) -> Ring:
        return self._base_ring

    def to_base(self, p: Poly) -> Poly:
        idx = self._base_index
        for e in p.terms:
            for j, k in enumerate(e):
                if k and j not in idx:
                    raise EngineError(f"{p} is not a base-ring element")
        return p.inject(self._base_ring, idx)

    @cached_property
    def staircase(self) -> tuple:
        """(exps, monomials, gb): the monomial basis of O_X over O_Y, the
        staircase in the fiber variables, as sorted fiber exponents and as
        monomials of P, and the block-order basis of (t) it is read from."""
        I = Ideal(self.ring, list(self.t))
        fiber_idx = self.fiber_indices()
        st = fiber_staircase(I, fiber_idx)
        if st is None:
            raise EngineError("presentation is not fiber-finite")
        if st == []:
            raise EngineError("presentation is generically empty over the base")
        exps = tuple(sorted(st))
        monos = []
        for exp in exps:
            e = [0] * self.ring.nvars
            for pos, k in enumerate(exp):
                e[fiber_idx[pos]] = k
            monos.append(self.ring.monomial(tuple(e)))
        order = block_order(fiber_idx, [i for i in range(self.ring.nvars) if i not in set(fiber_idx)])
        return exps, tuple(monos), groebner(I, order)

    @cached_property
    def residue_frame(self) -> ResidueFrame:
        """The basis of (t), the eliminants and determinant every residue
        over (t) divides by, and the index maps between P, its fiber and Y."""
        I = Ideal(self.ring, list(self.t))
        fiber_idx = self.fiber_indices()
        read_off = _triangular_from_t(self)
        basis = groebner(I)
        if read_off is None:
            gs = tuple(_triangular_eliminants(self))
            rows = [cofactor_lift(g, I) for g in gs]
        else:
            gs, rows = read_off
        return ResidueFrame(
            basis,
            gs,
            _determinant(rows, self.ring),
            {i: pos for pos, i in enumerate(fiber_idx)},
            tuple(_monic_tail(g, xi) for g, xi in zip(gs, fiber_idx)),
            self._base_index,
            self._base_ring,
        )

    @cached_property
    def dt_prefix(self) -> Form:
        """dt_d ^ ... ^ dt_1, in exactly that order; the 0-form 1 when d = 0."""
        if not self.d:
            return Form.from_poly(self.ring.one())
        return wedge_all(Form.d(t) for t in reversed(self.t))

    def rank(self) -> int:
        return len(self.staircase[0])


class ResidueFrame:
    """The numerator-free part of every residue and trace over one presentation.

    `table` maps a box exponent a (a_i < n_i = deg_{x_i} g_i) to
    Res[x^a det dx / g] as (base-ring exponent, coefficient) pairs.  It is
    filled on first use and holds at most prod(n_i) entries.
    """

    __slots__ = ("basis", "gs", "det", "fiber_pos", "tails", "base_index", "base_ring", "table")

    def __init__(
        self, basis: GBasis, gs: tuple, det: Poly, fiber_pos: dict, tails: tuple, base_index: dict, base_ring: Ring
    ):
        self.basis = basis  # degrevlex basis of (t); its reps are read only on the lift route
        self.gs = gs  # monic eliminant g_i in x_i, one per fiber variable
        self.det = det  # determinant of the cofactor rows of the g_i over (t), read off t or lifted
        self.fiber_pos = fiber_pos  # ring index -> fiber position, in fiber order
        self.tails = tails  # _monic_tail(g_i, x_i): (field, n_i, tail), one per fiber variable
        self.base_index = base_index  # ring index -> base-ring index, in base-ring order
        self.base_ring = base_ring
        self.table: dict = {}


def remainder_in_var(f: Poly, g: Poly, var_index: int) -> Poly:
    """The remainder of f on division by g, monic in one variable x
    (its coefficients may involve the others): the unique r = f mod g with
    deg_x r < deg_x g."""
    return Poly(f.ring, _reduce_in_var(dict(f.terms), _monic_tail(g, var_index), var_index))


def _monic_lead(g: Poly, var_index: int) -> tuple | None:
    """(n, c) when the part of g of top degree n in x = x_var_index is the
    single term c * x^n, else None."""
    n = g.degree_in(var_index)
    lead = [(e, c) for e, c in g.terms.items() if e[var_index] == n]
    if len(lead) != 1 or sum(lead[0][0]) != n:
        return None
    return n, lead[0][1]


def _monic_tail(g: Poly, var_index: int) -> tuple:
    """(field, n, tail) for g monic in x = x_var_index: n = deg_x g, and tail
    the rest of g scaled by -1/lc and shifted down by x^n, so that reducing
    the term c at exponent e adds c * gc at exp_add(e, ge) for each (ge, gc)."""
    ring = g.ring
    fld = ring.field
    lead = _monic_lead(g, var_index)
    if lead is None:
        raise EngineError(f"divisor is not monic in variable {ring.vars[var_index]}")
    n, lc = lead
    minus_inv = fld.neg(fld.inv(lc))
    shift = tuple(n if i == var_index else 0 for i in range(ring.nvars))
    return fld, n, [(exp_sub(ge, shift), fld.mul(gc, minus_inv)) for ge, gc in g.terms.items() if ge[var_index] < n]


def _reduce_in_var(r: dict, monic_tail: tuple, var_index: int) -> dict:
    """Reduce the term dict r in place by the g of `monic_tail` (see
    _monic_tail) until its degree in x is below n, and return it.

    Each step takes every term at the top x-degree m >= n and subtracts
    (c / lc) * x^(m-n) * g for it; the terms at degree m cancel exactly and
    the rest of g lands below m.  The remainder is unique, g being monic.
    """
    fld, n, tail = monic_tail
    zero, add, mul = fld.zero, fld.add, fld.mul
    while r:
        m = -1
        top = []
        for e, c in r.items():
            k = e[var_index]
            if k > m:
                m = k
                top = [(e, c)]
            elif k == m:
                top.append((e, c))
        if m < n:
            break
        for e, c in top:
            del r[e]
            for ge, gc in tail:
                te = exp_add(e, ge)
                v = add(r.get(te, zero), mul(c, gc))
                if v == zero:
                    del r[te]
                else:
                    r[te] = v
    return r


def _triangular_from_t(pres: FinitePresentation) -> tuple | None:
    """(gs, rows) read straight off t when it is already triangular and
    monic, else None.

    Fiber position i takes the entry t_j that has no later fiber variable
    and whose top x_i-degree part is a single term c * x_i^n with n >= 1;
    then g_i = t_j / c, and its cofactor row over (t) is e_j / c.  An entry
    qualifies only at the position of its last fiber variable, so the t_j
    are distinct and the rows are a scaled permutation matrix.
    """
    ring = pres.ring
    fld = ring.field
    zero = ring.zero()
    fiber_idx = pres.fiber_indices()
    gs, rows = [], []
    for pos, xi in enumerate(fiber_idx):
        later = fiber_idx[pos + 1 :]
        for j, t in enumerate(pres.t):
            if any(e[k] for e in t.terms for k in later):
                continue
            lead = _monic_lead(t, xi)
            if lead is not None and lead[0] >= 1:
                break
        else:
            return None
        inv = fld.inv(lead[1])
        gs.append(t.scale(inv))
        rows.append([ring.const(inv) if k == j else zero for k in range(pres.d)])
    return tuple(gs), rows


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
        g = monic_eliminant(groebner(J, order), xi_j)
        if g is None:
            raise EngineError(
                f"no monic eliminant for fiber variable {ring.vars[xi]}: not finite"
            )
        back = {i: ring.index(jring.vars[i]) for i in range(jring.nvars)}
        out.append(g.inject(ring, back))
    return out


def residue(pres: FinitePresentation, h: Poly) -> Poly:
    """Res_{P/Y}[h dx_1...dx_d / t_1,...,t_d] as a base-ring element, h the
    coefficient of dx_1 ^ ... ^ dx_d in the fiber order.

    The residue is O_Y-linear and vanishes on (g_1..g_d).  So the terms of h
    outside the box are first reduced by g_d, ..., g_1 in turn, which leaves
    every term inside it, and each term c x^a y^b then adds c y^b table[a].
    """
    ring = pres.ring
    if h.ring != ring:
        raise RingMismatch("numerator in the wrong ring")
    frame = pres.residue_frame
    fiber_idx = tuple(frame.fiber_pos)
    bounds = [(i, n) for i, (_, n, _) in zip(fiber_idx, frame.tails)]
    terms, outside = [], {}
    for e, c in h.terms.items():
        if all(e[i] < n for i, n in bounds):
            terms.append((e, c))
        else:
            outside[e] = c
    if outside:
        for pos in range(pres.d - 1, -1, -1):
            _reduce_in_var(outside, frame.tails[pos], fiber_idx[pos])
        terms.extend(outside.items())
    base_idx = tuple(frame.base_index)
    table = frame.table
    fld = ring.field
    zero, add, mul = fld.zero, fld.add, fld.mul
    out: dict = {}
    for e, c in terms:
        a = tuple(e[i] for i in fiber_idx)
        entry = table.get(a)
        if entry is None:
            entry = table[a] = _box_residue(frame, a)
        b = tuple(e[i] for i in base_idx)
        for be, v in entry:
            k = exp_add(b, be)
            s = add(out.get(k, zero), mul(c, v))
            if s == zero:
                del out[k]
            else:
                out[k] = s
    return Poly(frame.base_ring, out)


def _box_residue(frame: ResidueFrame, a: tuple) -> tuple:
    """Res[x^a det dx / g] for a box exponent a, as (base-ring exponent,
    coefficient) pairs: reduce x^a det by g_d, ..., g_1 in turn, keeping the
    coefficient of x_i^(n_i - 1) each time."""
    ring = frame.det.ring
    fiber_idx = tuple(frame.fiber_pos)
    shift = [0] * ring.nvars
    for i, k in zip(fiber_idx, a):
        shift[i] = k
    cur = {exp_add(e, shift): c for e, c in frame.det.terms.items()}
    for pos in range(len(a) - 1, -1, -1):
        xi = fiber_idx[pos]
        below = frame.tails[pos][1] - 1
        r = _reduce_in_var(cur, frame.tails[pos], xi)
        # the coefficient of x_i^(n_i - 1), exponent i cleared: no two terms merge
        cur = {e[:xi] + (0,) + e[xi + 1 :]: c for e, c in r.items() if e[xi] == below}
    base_idx = tuple(frame.base_index)
    return tuple((tuple(e[i] for i in base_idx), c) for e, c in cur.items())


class TraceResult:
    def __init__(self, input_degree: int, output: Form, terms: list, lifted: Form):
        self.input_degree = input_degree
        self.output = output  # on the base ring
        self.terms = terms  # (index tuple, residue numerator h, its residue), one per top-relative piece
        self.lifted = lifted  # the form with its coefficients reduced modulo (t)

    @cached_property
    def audit(self) -> dict:
        """The terms and the lift as strings, rendered on first read."""
        return {
            "terms": [(idx, str(h), str(res)) for idx, h, res in self.terms],
            "lift": str(self.lifted),
        }


def trace_form(pres: FinitePresentation, alpha: Form) -> TraceResult:
    """tau_f(alpha) for f: X -> Y finite, X = V(t) in P = Y x A^d.

    Writes the top-relative part of dt_d ^ ... ^ dt_1 ^ alpha~ in the
    relative/base bigraded basis, takes the residue of each piece, and sums
    with the (-1)^{d(d-1)/2} prefactor.  Only the products of a component of
    the prefix with k fiber differentials and one of alpha~ with d - k are
    formed; no other product has a top-relative part.
    """
    ring = pres.ring
    if alpha.ring != ring:
        raise RingMismatch("form must be presented on the ambient ring")
    d = pres.d
    frame = pres.residue_frame
    lifted = alpha.map_coefficients(frame.basis.normal_form)
    fiber_pos = frame.fiber_pos
    parts = [(J, sum(i in fiber_pos for i in J), pb) for J, pb in lifted.components.items()]
    # dt_d ^ ... ^ dt_1 ^ alpha~, in exactly that order and in Form.wedge's
    # order of components
    zero = ring.zero()
    omega: dict = {}
    for I, pa in pres.dt_prefix.components.items():
        k = d - sum(i in fiber_pos for i in I)
        for J, m, pb in parts:
            if m != k:
                continue
            sign, idx = _merge_tuples(I, J)
            if sign == 0:
                continue
            term = pa * pb
            if sign < 0:
                term = -term
            s = omega.get(idx, zero) + term
            if s.is_zero():
                omega.pop(idx, None)
            else:
                omega[idx] = s

    base_index = frame.base_index
    base_zero = frame.base_ring.zero()
    out: dict = {}
    terms = []
    for idx, coeff in omega.items():
        fib = tuple(i for i in idx if i in fiber_pos)
        base = tuple(i for i in idx if i not in fiber_pos)
        # sign of reordering idx -> (fib..., base...)
        sign, _ = _merge_tuples(fib, base)
        # residue numerator: coefficient against dx_1 ^ ... ^ dx_d in fiber order
        fib_sign, _ = _merge_tuples(tuple(fiber_pos[i] for i in fib), ())
        h = coeff.scale(sign * fib_sign)
        res = residue(pres, h)
        terms.append((idx, h, res))
        base_tuple = tuple(sorted(base_index[i] for i in base))
        s = out.get(base_tuple, base_zero) + res
        if s.is_zero():
            out.pop(base_tuple, None)
        else:
            out[base_tuple] = s
    result = Form(frame.base_ring, alpha.degree, out)
    prefactor = (-1) ** (d * (d - 1) // 2)
    if prefactor < 0:
        result = -result
    return TraceResult(alpha.degree, result, terms, lifted)


def pullback_to_total(pres: FinitePresentation, beta: Form) -> Form:
    """f^* of a base form: reinterpret on the ambient ring of P."""
    return beta.inject(pres.ring, {i: j for j, i in pres._base_index.items()})


def multiplication_trace(pres: FinitePresentation, h: Poly) -> Poly:
    """Linear-algebra trace of multiplication by h on the module basis."""
    ring = pres.ring
    fiber_idx = pres.fiber_indices()
    exps, monos, gb = pres.staircase
    basis_exps = set(exps)
    total = ring.zero()
    for m, exp in zip(monos, exps):
        nf = gb.normal_form(h * m)
        # pick out the coefficient (a base polynomial) of the same basis monomial
        diag = ring.zero()
        for e, c in nf.terms.items():
            fib = tuple(e[i] for i in fiber_idx)
            if fib == exp:
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
    basis = pres.staircase[1]  # the monomial basis of O_X over O_Y
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
