"""Independent oracles shared by the test modules.

These deliberately avoid the engine's own computation paths: the residue
oracle inverts and traces inside sympy's univariate arithmetic, the
univariate factorization and gcd oracles call sympy's, the elimination
oracle is a Sylvester determinant, and the division oracle is the plain
largest-term scan that the engine's heap-ordered division replaced, and the
saturation oracle saturates by one generator at a time and intersects the
parts, the route the engine's one-elimination saturation replaced, and the
residue and trace oracles rebuild the eliminants, their cofactor rows, the
determinant and the dt-wedge on every call, the route the engine's
per-presentation residue frame replaced.
"""

from fractions import Fraction

import sympy

from cyclecalc.errors import EngineError
from cyclecalc.forms import Form, wedge_all
from cyclecalc.groebner import Ideal, cofactor_lift, eliminate, groebner, leading
from cyclecalc.poly import Poly, Ring, pow_scalar
from cyclecalc.residues import FinitePresentation, _triangular_eliminants, divmod_in_var
from cyclecalc.symbols import _determinant


def sympy_poly(p: Poly, var_index: int = 0, name: str = "x"):
    s = sympy.Symbol(name)
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        expr += sympy.Rational(c.numerator, c.denominator) * s ** e[var_index]
    return sympy.Poly(expr, s)


def sum_over_roots_residue(h: Poly, g: Poly) -> Fraction:
    """Sum of h(r)/g'(r) over the roots of a squarefree monic g, computed as
    the trace of multiplication by h * (g')^{-1} in QQ[x]/(g)."""
    s = sympy.Symbol("x")
    gp, hp = sympy_poly(g), sympy_poly(h)
    inv = sympy.invert(gp.diff(s).as_expr(), gp.as_expr(), s)
    u = sympy.Poly(sympy.rem(sympy.expand(hp.as_expr() * inv), gp.as_expr(), s), s)
    n = gp.degree()
    trace = sympy.Integer(0)
    for i in range(n):
        col = sympy.Poly(sympy.rem(sympy.expand(u.as_expr() * s**i), gp.as_expr(), s), s)
        trace += col.coeff_monomial(s**i)
    return Fraction(int(sympy.numer(trace)), int(sympy.denom(trace)))


def sylvester_resultant(f: Poly, g: Poly, var: int) -> Poly:
    """Resultant in one variable via the Sylvester determinant."""
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


_x = sympy.Symbol("x")


def _to_sympy(p: Poly, var_index: int):
    ring = p.ring
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        if any(k for i, k in enumerate(e) if i != var_index):
            raise EngineError(f"not univariate in {ring.vars[var_index]}: {p}")
        if isinstance(c, Fraction):
            coeff = sympy.Rational(c.numerator, c.denominator)
        else:
            coeff = sympy.Integer(c)
        expr += coeff * _x ** e[var_index]
    return expr


def _from_sympy(expr, ring: Ring, var_index: int) -> Poly:
    poly = sympy.Poly(expr, _x)
    out = ring.zero()
    for (k,), c in poly.terms():
        if ring.characteristic:
            coeff = int(c) % ring.characteristic
        else:
            coeff = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
        out = out + ring.monomial(tuple(k if i == var_index else 0 for i in range(ring.nvars)), coeff)
    return out


def sympy_factor_univariate(p: Poly, var_index: int):
    """cyclecalc.univar.factor_univariate computed by sympy.factor_list: the
    same (lead, [(monic factor, mult)]), factors sorted by degree and then by
    sympy's printed form of the factor."""
    ring = p.ring
    expr = _to_sympy(p, var_index)
    char = ring.characteristic
    if char:
        content, factors = sympy.factor_list(expr, _x, modulus=char)
    else:
        content, factors = sympy.factor_list(expr, _x)
    lead = ring.field.coerce(
        Fraction(int(sympy.numer(content)), int(sympy.denom(content)))
        if not char
        else int(content)
    )
    out = []
    for fac, mult in sorted(factors, key=lambda fm: (sympy.Poly(fm[0], _x).degree(), str(fm[0]))):
        q = _from_sympy(fac, ring, var_index)
        lc = q.terms[max(q.terms, key=lambda e: e[var_index])]
        if lc != ring.field.one:
            lead = ring.field.mul(lead, pow_scalar(ring.field, lc, mult))
            q = q.scale(ring.field.inv(lc))
        out.append((q, int(mult)))
    return lead, out


def sympy_gcd_univariate(p: Poly, q: Poly, var_index: int) -> Poly:
    """Monic gcd computed by sympy.gcd (zero when both inputs are zero)."""
    ring = p.ring
    char = ring.characteristic
    opts = {"modulus": char} if char else {}
    g = sympy.gcd(
        sympy.Poly(_to_sympy(p, var_index), _x, **opts),
        sympy.Poly(_to_sympy(q, var_index), _x, **opts),
    )
    out = _from_sympy(sympy.Poly(g, _x).as_expr(), ring, var_index)
    if out.is_zero():
        return out
    lc = out.terms[max(out.terms, key=lambda e: e[var_index])]
    return out.scale(ring.field.inv(lc))


def reference_divide(f: Poly, basis, order, leads=None):
    """Multivariate division by rescanning the working terms for the largest
    at every step; the same contract as cyclecalc.groebner.divide.  Exponent
    arithmetic is spelled out here rather than taken from cyclecalc.orders."""
    ring = f.ring
    fld = ring.field
    lead = [leading(g, order) for g in basis] if leads is None else leads
    quots: list[dict] = [dict() for _ in basis]
    rem: dict = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=order.key)
        c = work.pop(e)
        for i, (le, lc) in enumerate(lead):
            if all(x <= y for x, y in zip(le, e)):
                q_exp = tuple(x - y for x, y in zip(e, le))
                q_coeff = fld.div(c, lc)
                quots[i][q_exp] = fld.add(quots[i].get(q_exp, fld.zero), q_coeff)
                if quots[i][q_exp] == fld.zero:
                    del quots[i][q_exp]
                # work -= q * g  (the leading term cancels by construction)
                for ge, gc in basis[i].terms.items():
                    if ge == le:
                        continue
                    te = tuple(x + y for x, y in zip(ge, q_exp))
                    v = fld.sub(work.get(te, fld.zero), fld.mul(gc, q_coeff))
                    if v == fld.zero:
                        work.pop(te, None)
                    else:
                        work[te] = v
                break
        else:
            rem[e] = c
    return Poly(ring, rem), [Poly(ring, q) for q in quots]


def _drop_last_variable(ring: Ring, ext: Ring, gens) -> Ideal:
    """(gens) ∩ ring, for gens in ext, which is ring with one more variable."""
    idx = {i: i for i in range(ring.nvars)}
    J = eliminate(Ideal(ext, gens), [ext.vars[-1]])
    return Ideal(ring, [p.inject(ring, idx) for p in J.gens])


def reference_saturate(I: Ideal, J: Ideal) -> Ideal:
    """(I : J^inf) as the intersection of the (I : g^inf) over the nonzero
    generators g of J: each (I + <1 - t g>) ∩ k[x] by its own elimination,
    the parts intersected pairwise as (t A + (1 - t) B) ∩ k[x]."""
    ring = I.ring
    ext = ring.extend(["_tag"])
    t, one = ext.var("_tag"), ext.one()
    idx = {i: i for i in range(ring.nvars)}

    def up(p):
        return p.inject(ext, idx)

    parts = [
        I if g.is_constant() else _drop_last_variable(ring, ext, [up(p) for p in I.gens] + [one - t * up(g)])
        for g in J.nonzero_gens()
    ]
    if not parts:
        return Ideal(ring, [ring.one()])
    out = parts[0]
    for part in parts[1:]:
        gens = [t * up(a) for a in out.nonzero_gens()] + [(one - t) * up(b) for b in part.nonzero_gens()]
        out = _drop_last_variable(ring, ext, gens)
    return out


def reference_residue(pres: FinitePresentation, h: Poly) -> Poly:
    """Res_{P/Y}[h dx_1...dx_d / t_1,...,t_d], with the eliminants, one
    cofactor lift per eliminant and their determinant computed afresh."""
    ring = pres.ring
    gs = _triangular_eliminants(pres)
    I = Ideal(ring, list(pres.t))
    det = _determinant([cofactor_lift(g, I) for g in gs], ring)
    cur = h * det
    fiber_idx = pres.fiber_indices()
    for pos in range(pres.d - 1, -1, -1):
        xi = fiber_idx[pos]
        n = gs[pos].degree_in(xi)
        _, r = divmod_in_var(cur, gs[pos], xi)
        cur = r.coeffs_in(xi).get(n - 1, ring.zero())
    return pres.to_base(cur)


def _inversion_sign(perm) -> int:
    """Sign of a permutation of 0..n-1, by counting its inversions."""
    n = len(perm)
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    return -1 if inversions % 2 else 1


def reference_trace_form(pres: FinitePresentation, alpha: Form) -> tuple:
    """(output, audit) of cyclecalc.residues.trace_form, wedging all of
    dt_d, ..., dt_1 and the lift in one fold and taking every residue by
    reference_residue, with permutation signs counted by inversions."""
    ring = pres.ring
    d = pres.d
    lifted = alpha.map_coefficients(groebner(Ideal(ring, list(pres.t))).normal_form)
    omega = wedge_all([Form.d(t) for t in reversed(pres.t)] + [lifted])
    fiber_idx = pres.fiber_indices()
    base_ring = pres.base_ring()
    base_index = {ring.index(n): i for i, n in enumerate(base_ring.vars)}
    result = Form.zero(base_ring, alpha.degree)
    audit_terms = []
    for idx, coeff in omega.components.items():
        fib = tuple(i for i in idx if i in fiber_idx)
        base = tuple(i for i in idx if i not in fiber_idx)
        if len(fib) != d:
            continue
        sign = _inversion_sign([idx.index(v) for v in fib + base])
        fib_sign = _inversion_sign([fiber_idx.index(i) for i in fib])
        h = coeff.scale(sign * fib_sign)
        res = reference_residue(pres, h)
        audit_terms.append((idx, str(h), str(res)))
        base_tuple = tuple(sorted(base_index[i] for i in base))
        result = result + Form(base_ring, alpha.degree, {base_tuple: res})
    if (-1) ** (d * (d - 1) // 2) < 0:
        result = -result
    return result, {"terms": audit_terms, "lift": str(lifted)}
