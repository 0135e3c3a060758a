"""Buchberger Gröbner engine.

Provides reduced bases, normal forms, cofactor lifts, elimination,
saturation, Krull dimension, and radical membership.  Pair selection uses the
sugar strategy with Gebauer-Möller pruning.  Cofactors (each basis element
written over the generators) are tracked only when asked for, which only
cofactor_lift does.

Resource limits live in one budget scope, not in arguments: `with
budget_scope(Budget(...)):` bounds every Buchberger run started inside it,
however deep in geometry, cycles or symbols the call is made, and
current_budget() reads it back.  Outside any scope the limits are Budget().
groebner() reads the scope once per cache miss and is the only place a budget
is checked; exceeding it raises BudgetExceeded, never a silent truncation.

The reduced basis for a fixed (generator tuple, order) is unique, so every
result here is reproducible across runs; results are memoized on that key,
in a cache that drops the least recently used basis once it is full.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BudgetExceeded, EngineError, RingMismatch
from .orders import (
    MonomialOrder,
    block_order,
    degrevlex,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
)
from .poly import Poly, Ring


@dataclass(frozen=True)
class Budget:
    """Resource limits for each Gröbner run; set them with budget_scope."""

    max_pairs: int = 50_000
    max_degree: int = 120

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
            if g.ring != ring:
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
    """An order key with every integer negated, nested (block) keys part by
    part, so that a min-heap of negated keys pops the largest monomial first."""
    return tuple([-x if type(x) is int else _neg_key(x) for x in k])


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
# Buchberger, with cofactor tracking on request

class _Tracked:
    """A nonzero basis element with its leading term, its sugar and, when
    cofactors are tracked, its expression over the original gens (else None)."""

    __slots__ = ("poly", "rep", "sugar", "lm", "lc")

    def __init__(self, poly: Poly, rep: list | None, sugar: int, order: MonomialOrder):
        self.poly = poly
        self.rep = rep
        self.sugar = sugar
        self.lm, self.lc = leading(poly, order)


def _reduce(poly: Poly, rep: list | None, sugar: int, G: list, order: MonomialOrder):
    """Divide poly by the basis G: returns (remainder, rep, sugar).

    Sugar grows with every quotient; rep, when tracked, is rewritten along."""
    r, quots = divide(poly, [t.poly for t in G], order, [(t.lm, t.lc) for t in G])
    if rep is not None:
        rep = list(rep)
    for q, t in zip(quots, G):
        if q.is_zero():
            continue
        sugar = max(sugar, q.total_degree() + t.sugar)
        if rep is not None:
            for j in range(len(rep)):
                if not t.rep[j].is_zero():
                    rep[j] = rep[j] - q * t.rep[j]
    return r, rep, sugar


def _update_pairs(G: list, P: dict, heap: list, t: _Tracked, order: MonomialOrder):
    """Gebauer-Möller pair update when t joins the basis G.

    P maps each live pair (i, j) to the lcm of its leading monomials; heap
    holds (sugar, order key of the lcm, pair) for every pair ever created, and
    pruned pairs stay in it until they are popped and skipped.
    """
    lmf = t.lm
    k = len(G)

    for p in [
        p
        for p, L in P.items()
        if exp_divides(lmf, L)
        and L != exp_lcm(G[p[0]].lm, lmf)
        and L != exp_lcm(G[p[1]].lm, lmf)
    ]:
        del P[p]

    lcm_groups: dict = {}
    for i in range(k):
        lcm_groups.setdefault(exp_lcm(G[i].lm, lmf), []).append(i)
    keys = {L: order.key(L) for L in lcm_groups}
    kept = []
    for L in sorted(lcm_groups, key=keys.__getitem__):
        if all(not exp_divides(L2, L) for L2 in kept):
            kept.append(L)
    degf = sum(lmf)
    for L in kept:
        # product criterion: skip coprime leading monomials
        if any(L == exp_add(G[i].lm, lmf) for i in lcm_groups[L]):
            continue
        i = min(lcm_groups[L])
        degL = sum(L)
        sugar = max(G[i].sugar + degL - sum(G[i].lm), t.sugar + degL - degf)
        P[(i, k)] = L
        heapq.heappush(heap, (sugar, keys[L], (i, k)))

    G.append(t)


class GBasis:
    """A reduced Gröbner basis with its leading terms and, on request, its
    cofactor matrix.

    leads[i] is the (exponent, coefficient) of basis[i]'s leading term, and
    lead_exps[i] its exponent.  reps is None unless the basis was computed
    with cofactors; when it is not None, basis[i] == sum_j reps[i][j] *
    ideal.gens[j] holds exactly.  The basis is monic, auto-reduced, and
    canonically sorted, hence unique for (ideal.gens, order).
    """

    __slots__ = ("ideal", "order", "basis", "reps", "leads", "lead_exps")

    def __init__(self, ideal_: Ideal, order: MonomialOrder, basis, reps, leads):
        self.ideal = ideal_
        self.order = order
        self.basis = list(basis)
        self.reps = None if reps is None else [list(r) for r in reps]
        self.leads = list(leads)
        self.lead_exps = [e for e, _ in self.leads]

    @property
    def ring(self) -> Ring:
        return self.ideal.ring

    def is_unit(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant() and not self.basis[0].is_zero()

    def normal_form(self, f: Poly) -> Poly:
        if not self.basis:
            return f
        r, _ = divide(f, self.basis, self.order, self.leads)
        return r

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero()

    def __repr__(self):
        return f"GBasis[{', '.join(map(str, self.basis))}]"


# One basis per (ring, gens, order); a basis with cofactors also answers
# plain requests, and a cofactor request replaces a basis without them.  The
# key ignores the budget: a hit runs no S-pair, so there is nothing to bound.
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


def groebner(I: Ideal, order: MonomialOrder | None = None, cofactors: bool = False) -> GBasis:
    """Reduced Gröbner basis of I; deterministic for (gens, order).

    With cofactors=True the result also carries reps, the expression of each
    basis element over I.gens (see GBasis); otherwise reps may be None.  A
    basis not already cached is computed under current_budget().
    """
    if order is None:
        order = degrevlex(I.ring.nvars)
    key = (I.ring, I.gens, order)
    hit = _gb_cache.get(key)
    if hit is not None and (hit.reps is not None or not cofactors):
        _gb_cache.move_to_end(key)
        return hit

    budget = _scoped_budget.get()
    ring = I.ring
    fld = ring.field
    ngens = len(I.gens)

    G: list = []
    P: dict = {}
    heap: list = []
    for i, g in enumerate(I.gens):
        if g.is_zero():
            continue
        rep = [ring.one() if j == i else ring.zero() for j in range(ngens)] if cofactors else None
        sugar = max(g.total_degree(), 0)
        if G:
            g, rep, sugar = _reduce(g, rep, sugar, G, order)
            if g.is_zero():
                continue
        _update_pairs(G, P, heap, _Tracked(g, rep, sugar, order), order)

    processed = 0
    while P:
        sugar, _, p = heapq.heappop(heap)
        L = P.pop(p, None)
        if L is None:  # pruned by Gebauer-Möller after it was queued
            continue
        processed += 1
        budget.check_pairs(processed)
        budget.check_degree(sum(L))

        gi, gj = G[p[0]], G[p[1]]
        mi, mj = exp_sub(L, gi.lm), exp_sub(L, gj.lm)
        ci, cj = fld.inv(gi.lc), fld.inv(gj.lc)
        s_poly = _mul_monomial(gi.poly, mi, ci) - _mul_monomial(gj.poly, mj, cj)
        rep = None
        if cofactors:
            rep = [
                _mul_monomial(a, mi, ci) - _mul_monomial(b, mj, cj)
                if not (a.is_zero() and b.is_zero())
                else ring.zero()
                for a, b in zip(gi.rep, gj.rep)
            ]
        r, rep, sugar = _reduce(s_poly, rep, sugar, G, order)
        if not r.is_zero():
            _update_pairs(G, P, heap, _Tracked(r, rep, sugar, order), order)

    gb = _finalize(I, order, G, cofactors)
    _gb_cache[key] = gb
    _gb_cache.move_to_end(key)
    if len(_gb_cache) > _GB_CACHE_MAX:
        _gb_cache.popitem(last=False)
    if _audit_enabled:
        _audit_log.append(gb)
    return gb


def _finalize(I: Ideal, order: MonomialOrder, G: list, cofactors: bool) -> GBasis:
    fld = I.ring.field

    # minimalize: drop elements whose LM is divisible by another LM
    minimal: list = []
    for t in sorted(G, key=lambda t: order.key(t.lm)):
        if all(not exp_divides(u.lm, t.lm) for u in minimal):
            minimal.append(t)

    # interreduce and normalize to monic; no leading term is reducible by
    # another, so each survives and the basis stays sorted by it
    basis: list = []
    reps: list | None = [] if cofactors else None
    for i, t in enumerate(minimal):
        r, rep, _ = _reduce(t.poly, t.rep, t.sugar, minimal[:i] + minimal[i + 1 :], order)
        inv = fld.inv(t.lc)
        basis.append(r.scale(inv))
        if cofactors:
            reps.append([c.scale(inv) for c in rep])
    return GBasis(I, order, basis, reps, [(t.lm, fld.one) for t in minimal])


# ---------------------------------------------------------------------------
# derived operations

def normal_form(f: Poly, I: Ideal, order: MonomialOrder | None = None) -> Poly:
    return groebner(I, order).normal_form(f)


def member(f: Poly, I: Ideal) -> bool:
    return normal_form(f, I).is_zero()


def cofactor_lift(f: Poly, I: Ideal) -> list:
    """Write f = sum(c_j * I.gens[j]); error if f is not in I."""
    gb = groebner(I, cofactors=True)
    if not gb.basis:
        if f.is_zero():
            return [I.ring.zero() for _ in I.gens]
        raise EngineError(f"{f} is not a member of the zero ideal")
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
    if groebner(I).is_unit():
        raise EngineError("dimension of the unit ideal")
    return len(max_independent_set(I))


def max_independent_set(I: Ideal, within: Iterable[int] | None = None) -> tuple:
    """A maximum LT-independent variable set, optionally inside `within`.

    Deterministic: lexicographically first among maximum-size sets.
    """
    gb = groebner(I)
    if gb.is_unit():
        raise EngineError("independent set of the unit ideal")
    pool = tuple(sorted(within)) if within is not None else tuple(range(I.ring.nvars))
    supports = [frozenset(i for i, k in enumerate(e) if k) for e in gb.lead_exps]
    from itertools import combinations

    for size in range(len(pool), -1, -1):
        for S in combinations(pool, size):
            Sset = set(S)
            if all(not supp <= Sset for supp in supports):
                return S
    return ()


def radical_member(f: Poly, I: Ideal) -> bool:
    """f in sqrt(I), by the Rabinowitsch trick."""
    if f.is_zero():
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
