"""Buchberger Gröbner engine.

Provides reduced bases, normal forms, cofactor lifts, elimination,
saturation, Krull dimension, and radical membership.  Pair selection uses the
sugar strategy with Gebauer-Möller pruning.  Cofactors (each basis element
written over the generators) are computed the first time a basis's reps are
read, which only cofactor_lift does.

Resource limits live in one budget scope, not in arguments: `with
budget_scope(Budget(...)):` bounds every Buchberger run started inside it,
however deep in geometry, cycles or symbols the call is made, and
current_budget() reads it back.  Outside any scope the limits are Budget().
A Buchberger run reads the scope once, in the one loop that checks a budget;
exceeding it raises BudgetExceeded, never a silent truncation.

The reduced basis for a fixed (generator tuple, order) is unique, so every
result here is reproducible across runs; results are memoized on that key,
in a cache that drops the least recently used basis once it is full.

groebner() runs the whole Buchberger loop on packed monomials
(orders.packing: one int per exponent tuple), over QQ and F_p alike: input
reduction, S-polynomials, reduction, the pair keys, and the minimalization
and interreduction of the result.  Coefficients are ints: primitive integer
forms over QQ, reduced fraction-free, and monic forms over F_p.  Exponent
tuples and Polys appear only at entry and in the returned basis, whose QQ
coefficients are built once, when it is made monic: c // lc where lc divides
c, else one Fraction(c, lc), as RationalField keeps them.  The cofactor route
of GBasis.reps reduces Polys with divide(), sharing only the pair loop with
the packed route, and must reach the same basis; divide, leading,
GBasis.normal_form and buchberger_audit stay on exponent tuples, so the
audit checks every packed basis independently.

A monomial whose total degree reaches 2^(FIELD_BITS - 1) does not fit a
packed field: it raises EngineError wherever it first appears (an input, an
lcm, an S-polynomial or reduction term), never a wrong basis.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, lcm
from operator import neg

from .errors import BudgetExceeded, EngineError, RingMismatch
from .orders import (
    MonomialOrder,
    Packing,
    block_order,
    degrevlex,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    packing,
)
from .poly import Frozen, Poly, Ring


class Budget(Frozen):
    """Resource limits for each Gröbner run; set them with budget_scope."""

    _fields = ("max_pairs", "max_degree")

    def __init__(self, max_pairs: int = 50_000, max_degree: int = 120):
        super().__init__(max_pairs, max_degree)

    def check_pairs(self, n: int):
        if n > self.max_pairs:
            raise BudgetExceeded("S-pair count", self.max_pairs)

    def check_degree(self, d: int):
        if d > self.max_degree:
            raise BudgetExceeded("S-pair lcm degree", self.max_degree)


_scoped_budget: ContextVar[Budget] = ContextVar("cyclecalc_budget", default=Budget())


def current_budget() -> Budget:
    """The budget that bounds Gröbner runs started here."""
    return _scoped_budget.get()


@contextmanager
def budget_scope(limits: Budget):
    """Bound every Gröbner run inside the with-block by `limits`."""
    token = _scoped_budget.set(limits)
    try:
        yield
    finally:
        _scoped_budget.reset(token)


class Ideal:
    """An ideal presented by a generator sequence (order of gens is kept:
    cofactor lifts are expressed against exactly this sequence)."""

    __slots__ = ("ring", "gens", "_hash")

    def __init__(self, ring: Ring, gens: Iterable[Poly]):
        self.ring = ring
        cleaned = []
        for g in gens:
            if g.ring is not ring and g.ring != ring:
                raise RingMismatch("generator in wrong ring")
            cleaned.append(g)
        self.gens = tuple(cleaned)
        self._hash = None

    def nonzero_gens(self) -> tuple:
        return tuple(g for g in self.gens if not g.is_zero())

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.gens))
        return self._hash

    def __repr__(self):
        return f"Ideal({', '.join(map(str, self.gens))})"


def ideal(ring: Ring, *gens) -> Ideal:
    return Ideal(ring, gens)


# ---------------------------------------------------------------------------
# leading terms and division

def leading(poly: Poly, order: MonomialOrder):
    """(exponent, coefficient) of the leading term."""
    if poly.is_zero():
        raise EngineError("leading term of zero")
    e = max(poly.terms, key=order.key)
    return e, poly.terms[e]


def _mul_monomial(p: Poly, exp, coeff) -> Poly:
    fld = p.ring.field
    return Poly(
        p.ring,
        {exp_add(e, exp): fld.mul(c, coeff) for e, c in p.terms.items()},
    )


def _neg_key(k):
    """An order key with every field negated, so that a min-heap of negated
    keys pops the largest monomial first."""
    return tuple(map(neg, k))


def divide(f: Poly, basis: Sequence[Poly], order: MonomialOrder, leads: Sequence | None = None):
    """Multivariate division: f = sum(q_i * basis_i) + r.

    Returns (r, [q_i]); no term of r is divisible by any leading term of the
    basis.  Deterministic: terms are taken largest first, and each is reduced
    by the first basis element, in basis order, whose leading term divides it.
    `leads`, when given, holds leading(basis_i, order) for every i.

    The working terms sit in a heap of (negated order key, exponent), after
    Monagan & Pearce ("Sparse polynomial division using a heap", JSC 2011):
    a term's key is computed once, when it enters the working set.  A term
    that cancels stays in the heap and is skipped when popped; one that
    reappears later is pushed again.
    """
    ring = f.ring
    fld = ring.field
    zero = fld.zero
    key = order.key
    lead = [leading(g, order) for g in basis] if leads is None else leads
    quots: list[dict] = [dict() for _ in basis]
    rem: dict = {}
    work = dict(f.terms)
    heap = [(_neg_key(key(e)), e) for e in work]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:  # cancelled after it was queued
            continue
        for i, (le, lc) in enumerate(lead):
            if exp_divides(le, e):
                q_exp = exp_sub(e, le)
                q_coeff = fld.div(c, lc)
                # each e is taken once, so q_exp is new to quots[i]
                quots[i][q_exp] = q_coeff
                # work -= q * g  (the leading term cancels by construction);
                # every new term is smaller than e
                for ge, gc in basis[i].terms.items():
                    if ge == le:
                        continue
                    te = exp_add(ge, q_exp)
                    old = work.get(te)
                    if old is None:
                        work[te] = fld.sub(zero, fld.mul(gc, q_coeff))
                        heapq.heappush(heap, (_neg_key(key(te)), te))
                        continue
                    v = fld.sub(old, fld.mul(gc, q_coeff))
                    if v == zero:
                        del work[te]
                    else:
                        work[te] = v
                break
        else:
            rem[e] = c
    return Poly(ring, rem), [Poly(ring, q) for q in quots]


# ---------------------------------------------------------------------------
# Buchberger: the packed route, and the cofactor route that GBasis.reps runs

class _Packed:
    """A nonzero basis element of the packed route, in packed form.

    terms maps packed monomials to int coefficients, leading term first:
    primitive integers over QQ, monic (lc == 1) over F_p.  tail lists the
    other terms as (monomial, coefficient) pairs; lm is the packed leading
    monomial and exp its exponent tuple."""

    __slots__ = ("terms", "tail", "sugar", "lm", "lc", "exp")

    def __init__(self, terms: dict, sugar: int, pk: Packing):
        items = iter(terms.items())
        self.lm, self.lc = next(items)
        self.tail = list(items)
        self.terms = terms
        self.sugar = sugar
        self.exp = pk.unpack(self.lm)


class _Tracked:
    """A nonzero basis element of the cofactor route: poly, with rep its
    expression over the original gens, (exp, lc) its leading term and lm the
    packed exp."""

    __slots__ = ("poly", "rep", "sugar", "lm", "lc", "exp")

    def __init__(self, poly: Poly, rep: list, sugar: int, order: MonomialOrder, pk: Packing):
        self.poly = poly
        self.rep = rep
        self.sugar = sugar
        self.exp, self.lc = leading(poly, order)
        self.lm = pk.pack(self.exp)


def _reduce_field(poly: Poly, rep: list, sugar: int, G: list, order: MonomialOrder):
    """Divide poly by the basis G: returns (remainder, rep, sugar).

    Sugar grows with every quotient; rep is rewritten along."""
    r, quots = divide(poly, [t.poly for t in G], order, [(t.exp, t.lc) for t in G])
    rep = list(rep)
    for q, t in zip(quots, G):
        if q.is_zero():
            continue
        sugar = max(sugar, q.total_degree() + t.sugar)
        for j in range(len(rep)):
            if not t.rep[j].is_zero():
                rep[j] = rep[j] - q * t.rep[j]
    return r, rep, sugar


def _packed_form(poly: Poly, pk: Packing, p: int) -> dict:
    """The packed form of a nonzero polynomial over F_p (p > 0) or QQ (p ==
    0), as a _Packed holds it."""
    cmask = pk.cmask
    terms = sorted(
        ((pk.pack(e), c) for e, c in poly.terms.items()), key=lambda t: t[0] ^ cmask, reverse=True
    )
    if p:
        inv = pow(terms[0][1], -1, p)
        return {m: c * inv % p for m, c in terms}
    # ints and Fractions alike carry numerator and denominator
    den = lcm(*(c.denominator for _, c in terms))
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms}
    _remove_content(ints)
    return ints


def _remove_content(*parts: dict):
    """Divide the integer forms `parts` by the gcd of all their coefficients."""
    g = gcd(*(c for part in parts for c in part.values()))
    if g > 1:
        for part in parts:
            for e in part:
                part[e] //= g


def _s_poly(gi: _Packed, gj: _Packed, L: int, pk: Packing) -> dict:
    """The S-polynomial of two packed elements with lcm L of their leading
    monomials, times lc_i lc_j / gcd(lc_i, lc_j), so that it stays integral
    (over F_p the elements are monic and the factor is 1)."""
    g = gcd(gi.lc, gj.lc)
    a, b = gj.lc // g, gi.lc // g
    mi, mj = L - gi.lm, L - gj.lm
    # the leading terms cancel: a * lc_i == b * lc_j
    s = {e + mi: a * c for e, c in gi.tail}
    for e, c in gj.tail:
        te = e + mj
        v = s.get(te, 0) - b * c
        if v:
            s[te] = v
        else:
            del s[te]
    # a sum of two valid monomials never carries out of a field, so a term
    # that overflowed and then cancelled was still summed exactly
    guard = pk.guard
    if any(te & guard for te in s):
        raise pk.overflow()
    return s


# A fraction-free reduction removes the content of its working terms and
# remainder after this many scaling steps.
_CONTENT_EVERY = 8


def _reduce_packed(f: dict, sugar: int, G: list, pk: Packing, p: int):
    """Division of the packed form f by the packed basis G over F_p (p > 0)
    or QQ (p == 0): returns (remainder, sugar), the remainder in the form a
    _Packed holds.

    The steps are those of divide(): terms are taken largest first from a
    heap of negated order keys, and each is reduced by the first element of
    G whose leading monomial divides it.  Over QQ the division is
    fraction-free: where divide() subtracts (c / lc) x^q g, this step scales
    the working terms and the remainder by m = lc / gcd(c, lc) and subtracts
    (c m / lc) x^q g, so both stay nonzero multiples of divide()'s, with the
    same monomials.  Over F_p every lc is 1, and coefficients are reduced
    mod p when their term is taken, not at every update.  Sugar grows with
    every quotient term, as in _reduce_field.
    """
    guard, cmask, low = pk.guard, pk.cmask, pk.low
    rem: dict = {}
    work = dict(f)
    heap = [-(m ^ cmask) for m in work]
    heapq.heapify(heap)
    scalings = 0
    while heap:
        e = -heapq.heappop(heap) ^ cmask
        c = work.pop(e, None)
        if c is None:  # cancelled after it was queued
            continue
        if p:
            c %= p
            if not c:
                continue
        for t in G:
            q_exp = e - t.lm
            if q_exp & guard:  # t.lm does not divide e
                continue
            lc = t.lc
            if lc == 1:
                q = c
            else:
                g = gcd(c, lc)
                m, q = lc // g, c // g
                if m < 0:
                    m, q = -m, -q
                if m != 1:
                    work = {te: v * m for te, v in work.items()}
                    rem = {re: v * m for re, v in rem.items()}
                    scalings += 1
            sugar = max(sugar, (q_exp & low) + t.sugar)
            # work -= q * x^q_exp * t (the leading term cancels by
            # construction); every new term is smaller than e
            for ge, gc in t.tail:
                te = ge + q_exp
                old = work.get(te)
                if old is None:
                    if te & guard:
                        raise pk.overflow()
                    work[te] = -q * gc
                    heapq.heappush(heap, -(te ^ cmask))
                    continue
                v = old - q * gc
                if v:
                    work[te] = v
                else:
                    del work[te]
            if scalings == _CONTENT_EVERY:
                scalings = 0
                _remove_content(work, rem)
            break
        else:
            rem[e] = c
    if rem and p:
        inv = pow(next(iter(rem.values())), -1, p)
        return {re: v * inv % p for re, v in rem.items()}, sugar
    _remove_content(rem)
    return rem, sugar


def _update_pairs(G: list, P: dict, heap: list, t, pk: Packing):
    """Gebauer-Möller pair update when t (a _Packed or a _Tracked) joins the
    basis G.

    P maps each live pair (i, j) to the packed lcm of its leading monomials;
    heap holds (sugar, order key of the lcm, pair) for every pair ever
    created, and pruned pairs stay in it until they are popped and skipped.
    """
    lmf = t.lm
    guard, cmask, low = pk.guard, pk.cmask, pk.low
    k = len(G)
    lcms = [pk.pack(exp_lcm(u.exp, t.exp)) for u in G]

    for p in [
        p
        for p, L in P.items()
        if not (L - lmf) & guard and L != lcms[p[0]] and L != lcms[p[1]]
    ]:
        del P[p]

    lcm_groups: dict = {}
    for i, L in enumerate(lcms):
        lcm_groups.setdefault(L, []).append(i)
    kept = []
    for L in sorted(lcm_groups, key=lambda L: L ^ cmask):
        if all((L - L2) & guard for L2 in kept):
            kept.append(L)
    degf = lmf & low
    for L in kept:
        # product criterion: skip coprime leading monomials
        if any(L == G[i].lm + lmf for i in lcm_groups[L]):
            continue
        i = min(lcm_groups[L])
        degL = L & low
        sugar = max(G[i].sugar + degL - (G[i].lm & low), t.sugar + degL - degf)
        P[(i, k)] = L
        heapq.heappush(heap, (sugar, L ^ cmask, (i, k)))

    G.append(t)


class GBasis:
    """A reduced Gröbner basis with its leading terms and cofactor matrix.

    leads[i] is the (exponent, coefficient) of basis[i]'s leading term, and
    lead_exps[i] its exponent.  basis[i] == sum_j reps[i][j] * ideal.gens[j]
    holds exactly.  The basis is monic, auto-reduced, and canonically
    sorted, hence unique for (ideal.gens, order).
    """

    __slots__ = ("ideal", "order", "basis", "leads", "lead_exps", "_reps")

    def __init__(self, ideal_: Ideal, order: MonomialOrder, basis, leads):
        self.ideal = ideal_
        self.order = order
        self.basis = list(basis)
        self.leads = list(leads)
        self.lead_exps = [e for e, _ in self.leads]
        self._reps = None

    @property
    def reps(self) -> list:
        """Computed on first read, and kept only if the cofactor route agrees."""
        if self._reps is None:
            basis, reps = _cofactor_basis(self.ideal, self.order)
            if basis != self.basis:
                raise EngineError(f"the cofactor route's basis of {self.ideal} differs from {self}")
            self._reps = reps
        return self._reps

    @property
    def ring(self) -> Ring:
        return self.ideal.ring

    def is_unit(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant() and not self.basis[0].is_zero()

    def normal_form(self, f: Poly) -> Poly:
        if f.ring is not self.ring and f.ring != self.ring:
            raise RingMismatch(f"normal form of a {f.ring} polynomial modulo an ideal of {self.ring}")
        # f is its own remainder when no leading term divides any of its
        # terms, as divide() would find term by term
        if not any(exp_divides(le, e) for e in f.terms for le in self.lead_exps):
            return f
        r, _ = divide(f, self.basis, self.order, self.leads)
        return r

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero()

    def __repr__(self):
        return f"GBasis[{', '.join(map(str, self.basis))}]"


# One basis per (ring, gens, order), keeping its reps once read.  The key
# ignores the budget: a hit runs no S-pair, so there is nothing to bound.
# Least recently used bases are evicted past _GB_CACHE_MAX entries, far above
# what the shipped scenarios fill in one process (394).
_GB_CACHE_MAX = 4096
_gb_cache: OrderedDict = OrderedDict()

# When enabled, every basis computed is recorded for the suite-wide
# Buchberger zero-reduction audit.
_audit_enabled = False
_audit_log: list = []


def set_audit(enabled: bool):
    global _audit_enabled
    _audit_enabled = enabled
    if not enabled:
        _audit_log.clear()


def audit_log() -> list:
    return list(_audit_log)


def buchberger_audit(gb: GBasis) -> bool:
    """Post-hoc Buchberger criterion: every S-polynomial reduces to zero.

    The stored leading terms are first checked against the basis itself, so
    the S-polynomials and reductions may then use them.
    """
    if [leading(g, gb.order) for g in gb.basis] != gb.leads:
        return False
    n = len(gb.basis)
    fld = gb.ring.field
    for i in range(n):
        ei, ci = gb.leads[i]
        for j in range(i + 1, n):
            ej, cj = gb.leads[j]
            L = exp_lcm(ei, ej)
            s = _mul_monomial(gb.basis[i], exp_sub(L, ei), fld.inv(ci)) - _mul_monomial(
                gb.basis[j], exp_sub(L, ej), fld.inv(cj)
            )
            if not gb.normal_form(s).is_zero():
                return False
    return True


def _buchberger(seeds: list, pk: Packing, s_poly, reduce) -> list:
    """The elements of a minimal Gröbner basis, sorted by leading monomial,
    by either route.  seeds are the (form, sugar) of the nonzero generators;
    reduce(form, sugar, G) returns the new element, or None when the form
    reduces to zero by G; s_poly(gi, gj, L, pk) is the form of a pair's
    S-polynomial.  The pairs are bounded by current_budget()."""
    budget = _scoped_budget.get()
    G: list = []
    P: dict = {}
    heap: list = []
    for f, sugar in seeds:
        t = reduce(f, sugar, G)
        if t is not None:
            _update_pairs(G, P, heap, t, pk)

    processed = 0
    while P:
        sugar, _, pair = heapq.heappop(heap)
        L = P.pop(pair, None)
        if L is None:  # pruned by Gebauer-Möller after it was queued
            continue
        processed += 1
        budget.check_pairs(processed)
        budget.check_degree(L & pk.low)
        t = reduce(s_poly(G[pair[0]], G[pair[1]], L, pk), sugar, G)
        if t is not None:
            _update_pairs(G, P, heap, t, pk)

    guard = pk.guard
    minimal: list = []
    for t in sorted(G, key=lambda t: t.lm ^ pk.cmask):
        if all((t.lm - u.lm) & guard for u in minimal):
            minimal.append(t)
    return minimal


def groebner(I: Ideal, order: MonomialOrder | None = None) -> GBasis:
    """Reduced Gröbner basis of I; deterministic for (gens, order).

    A basis not already cached is computed under current_budget(); its
    cofactors are computed when its reps are first read (see GBasis).
    """
    if order is None:
        order = degrevlex(I.ring.nvars)
    key = (I.ring, I.gens, order)
    hit = _gb_cache.get(key)
    if hit is not None:
        _gb_cache.move_to_end(key)
        return hit

    p = I.ring.field.characteristic
    pk = packing(order)

    def reduce(f: dict, sugar: int, G: list):
        f, sugar = _reduce_packed(f, sugar, G, pk, p)
        return _Packed(f, sugar, pk) if f else None

    seeds = [(_packed_form(g, pk, p), g.total_degree()) for g in I.nonzero_gens()]
    gb = _finalize(I, order, _buchberger(seeds, pk, _s_poly, reduce))
    _gb_cache[key] = gb
    if len(_gb_cache) > _GB_CACHE_MAX:
        _gb_cache.popitem(last=False)
    if _audit_enabled:
        _audit_log.append(gb)
    return gb


def _finalize(I: Ideal, order: MonomialOrder, G: list) -> GBasis:
    ring = I.ring
    p = ring.field.characteristic
    pk = packing(order)
    unpack = pk.unpack

    # interreduce and normalize to monic; no leading term is reducible by
    # another, so each survives and the basis stays sorted by it
    basis: list = []
    for i, t in enumerate(G):
        # a fraction-free reduction may scale t: divide by r's own leading
        # coefficient, not t.lc (over F_p both are 1); over QQ a quotient is
        # an int when lc divides c, as RationalField keeps it
        r, _ = _reduce_packed(t.terms, t.sugar, G[:i] + G[i + 1 :], pk, p)
        if p:
            basis.append(Poly(ring, {unpack(e): c for e, c in r.items()}))
        else:
            lc = r[t.lm]
            basis.append(Poly(ring, {
                unpack(e): Fraction(c, lc) if c % lc else c // lc for e, c in r.items()
            }))
    return GBasis(I, order, basis, [(t.exp, ring.field.one) for t in G])


def _cofactor_basis(I: Ideal, order: MonomialOrder) -> tuple:
    """(basis, reps) with basis[i] == sum_j reps[i][j] * I.gens[j]: the
    reduced basis of I by Polys and divide(), not the packed reducer."""
    ring = I.ring
    fld = ring.field
    pk = packing(order)

    def reduce(f: tuple, sugar: int, G: list):
        poly, rep, sugar = _reduce_field(*f, sugar, G, order)
        return None if poly.is_zero() else _Tracked(poly, rep, sugar, order, pk)

    def s_poly(gi: _Tracked, gj: _Tracked, L: int, pk: Packing) -> tuple:
        mi, mj = pk.unpack(L - gi.lm), pk.unpack(L - gj.lm)
        ci, cj = fld.inv(gi.lc), fld.inv(gj.lc)
        rep = [
            _mul_monomial(a, mi, ci) - _mul_monomial(b, mj, cj)
            if not (a.is_zero() and b.is_zero())
            else ring.zero()
            for a, b in zip(gi.rep, gj.rep)
        ]
        return _mul_monomial(gi.poly, mi, ci) - _mul_monomial(gj.poly, mj, cj), rep

    seeds = [
        ((g, [ring.one() if j == i else ring.zero() for j in range(len(I.gens))]), g.total_degree())
        for i, g in enumerate(I.gens)
        if not g.is_zero()
    ]
    G = _buchberger(seeds, pk, s_poly, reduce)
    basis: list = []
    reps: list = []
    for i, t in enumerate(G):
        r, rep, _ = _reduce_field(t.poly, t.rep, t.sugar, G[:i] + G[i + 1 :], order)
        inv = fld.inv(t.lc)
        basis.append(r.scale(inv))
        reps.append([c.scale(inv) for c in rep])
    return basis, reps


# ---------------------------------------------------------------------------
# derived operations

def normal_form(f: Poly, I: Ideal) -> Poly:
    return groebner(I).normal_form(f)


def member(f: Poly, I: Ideal) -> bool:
    return normal_form(f, I).is_zero()


def cofactor_lift(f: Poly, I: Ideal) -> list:
    """Write f = sum(c_j * I.gens[j]); error if f is not in I."""
    gb = groebner(I)
    r, quots = divide(f, gb.basis, gb.order, gb.leads)
    if not r.is_zero():
        raise EngineError(f"{f} is not a member of the ideal")
    cof = [I.ring.zero() for _ in I.gens]
    for q, rep in zip(quots, gb.reps):
        if q.is_zero():
            continue
        for j in range(len(cof)):
            if not rep[j].is_zero():
                cof[j] = cof[j] + q * rep[j]
    return cof


def is_unit_ideal(I: Ideal) -> bool:
    for g in I.gens:
        if not g.is_zero() and g.is_constant():
            return True
    return groebner(I).is_unit()


def eliminate(I: Ideal, drop: Iterable[str]) -> Ideal:
    """I ∩ k[vars - drop], computed with a block order."""
    ring = I.ring
    drop_set = set(drop)
    for v in drop_set:
        ring.index(v)  # validate
    drop_idx = [i for i, v in enumerate(ring.vars) if v in drop_set]
    keep_idx = [i for i, v in enumerate(ring.vars) if v not in drop_set]
    if not drop_idx:
        return I
    order = block_order(drop_idx, keep_idx)
    gb = groebner(I, order)
    sub = ring.drop(drop_set)
    index_map = {i: sub.index(ring.vars[i]) for i in keep_idx}
    kept = []
    for g in gb.basis:
        if all(all(e[i] == 0 for i in drop_idx) for e in g.terms):
            kept.append(g.inject(sub, index_map))
    return Ideal(sub, kept)


def _tagged(ring: Ring, count: int, stem: str):
    """(ext, tags, up): ring extended by `count` fresh variables named after
    `stem`, those variables in ext, and the injection of ring into ext."""
    # ring has nvars names, so nvars + count candidates leave count free ones
    candidates = (f"{stem}{k}" for k in range(ring.nvars + count))
    names = [v for v in candidates if v not in ring.vars][:count]
    ext = ring.extend(names)
    idx = {i: i for i in range(ring.nvars)}
    return ext, [ext.var(v) for v in names], lambda p: p.inject(ext, idx)


def _untagged(ring: Ring, ext: Ring, gens: list) -> Ideal:
    """(gens) ∩ ring, for gens in a tagged extension ext of ring."""
    # eliminate() leaves an ideal of a ring equal to ring: the same variables
    return Ideal(ring, eliminate(Ideal(ext, gens), ext.vars[ring.nvars :]).gens)


def saturate(I: Ideal, J: Ideal) -> Ideal:
    """(I : J^inf) = (I + <1 - sum t_i g_i>) ∩ k[x], one elimination with a
    fresh t_i per nonzero generator g_i of J.

    ⊇: f g_i^N ∈ I for every i gives f ≡ f (sum t_i g_i)^M ∈ I[t] mod 1 - sum t_i g_i.
    ⊆: t_j -> 1/g_j, other t_i -> 0 puts f in I k[x]_{g_j}, so f g_j^N ∈ I for each j.
    """
    ring = I.ring
    gens = J.nonzero_gens()
    if not gens:
        return Ideal(ring, [ring.one()])
    if len(gens) == 1 and gens[0].is_constant():
        return I
    own = I.nonzero_gens()
    if not own or any(g.is_constant() for g in own):
        # (0) and (1) are their own saturations: the reduced bases [] and [1]
        # that the elimination would leave
        return Ideal(ring, [ring.one()] if own else [])
    ext, tags, up = _tagged(ring, len(gens), "_z")
    relation = ext.one() - sum((t * up(g) for t, g in zip(tags, gens)), ext.zero())
    return _untagged(ring, ext, [up(p) for p in I.gens] + [relation])


def saturate_poly(I: Ideal, g: Poly) -> Ideal:
    """(I : g^inf), the one-generator case of saturate."""
    return saturate(I, Ideal(I.ring, [g]))


def ideal_intersect(A: Ideal, B: Ideal) -> Ideal:
    ring = A.ring
    if ring != B.ring:
        raise RingMismatch("intersection across rings")
    ext, (t,), up = _tagged(ring, 1, "_w")
    gens = [t * up(a) for a in A.nonzero_gens()]
    gens += [(ext.one() - t) * up(b) for b in B.nonzero_gens()]
    return _untagged(ring, ext, gens)


def krull_dim(I: Ideal) -> int:
    """Krull dimension of ring/I: the size of a maximal LT-independent variable set."""
    return len(max_independent_set(I))


def max_independent_set(I: Ideal) -> tuple:
    """A maximum LT-independent variable set.

    Deterministic: lexicographically first among maximum-size sets.
    """
    gb = groebner(I)
    if gb.is_unit():
        raise EngineError("independent set of the unit ideal")
    n = I.ring.nvars
    supports = [frozenset(i for i, k in enumerate(e) if k) for e in gb.lead_exps]
    from itertools import combinations

    for size in range(n, -1, -1):
        for S in combinations(range(n), size):
            Sset = set(S)
            if all(not supp <= Sset for supp in supports):
                return S


def radical_member(f: Poly, I: Ideal) -> bool:
    """f in sqrt(I).  I ⊆ sqrt(I), so a member of I is answered by the
    basis of I; any other f by the Rabinowitsch trick, f in sqrt(I) iff
    1 in I + (1 - t f) in k[x, t]."""
    if member(f, I):
        return True
    ext, (t,), up = _tagged(I.ring, 1, "_r")
    return is_unit_ideal(Ideal(ext, [up(p) for p in I.gens] + [ext.one() - t * up(f)]))


def ideal_product(A: Ideal, B: Ideal) -> Ideal:
    if A.ring != B.ring:
        raise RingMismatch("product across rings")
    gens = [a * b for a in A.nonzero_gens() for b in B.nonzero_gens()]
    if not gens:
        gens = [A.ring.zero()]
    return Ideal(A.ring, gens)


def ideal_equal(A: Ideal, B: Ideal) -> bool:
    if A.ring != B.ring:
        raise RingMismatch("comparison across rings")
    ga = groebner(A)
    gb = groebner(B)
    return ga.basis == gb.basis


def monic_eliminant(gb: GBasis, i: int) -> Poly | None:
    """The first element of `gb` whose leading monomial is a pure power of
    variable i, or None when no element has one.  Under an order that ranks
    x_i above the variables it is to be integral over, that element is monic
    in x_i and so certifies x_i integral modulo the ideal."""
    for g, e in zip(gb.basis, gb.lead_exps):
        if e[i] > 0 and all(k == 0 for j, k in enumerate(e) if j != i):
            return g
    return None


def fiber_staircase(I: Ideal, fiber_idx: Sequence[int]) -> list | None:
    """Monomial basis of ring/I over the fraction field of the other variables.

    Under a block order with the fiber variables dominant, a Gröbner basis of
    I is one for the extension of I over k(base); the staircase in the fiber
    variables is the requested basis.  Returns the list of fiber exponent
    tuples (empty when the extended ideal is the unit ideal), or None when the
    staircase is infinite (the fiber is not finite over the base).
    """
    ring = I.ring
    fiber = list(fiber_idx)
    base = [i for i in range(ring.nvars) if i not in set(fiber)]
    if not fiber:
        return [()]
    order = block_order(fiber, base) if base else None
    gb = groebner(I, order)
    if not gb.basis:
        return None
    fparts = []
    for e in gb.lead_exps:
        fp = tuple(e[i] for i in fiber)
        if not any(fp):
            # a nonzero element of I lies in the base ring: unit over k(base)
            return []
        fparts.append(fp)
    bounds = []
    for pos in range(len(fiber)):
        pure = [
            fp[pos]
            for fp in fparts
            if fp[pos] > 0 and all(fp[q] == 0 for q in range(len(fiber)) if q != pos)
        ]
        if not pure:
            return None
        bounds.append(min(pure))
    from itertools import product as iproduct

    out = []
    for mono in iproduct(*[range(b) for b in bounds]):
        if all(any(m < f for m, f in zip(mono, fp)) for fp in fparts):
            out.append(tuple(mono))
    return out
