"""Univariate gcd and factorization over QQ and F_p, in plain Python.

Polynomials are handled here as dense coefficient lists, constant term
first.  Every helper takes a modulus m: arithmetic is exact over QQ when
m = 0 and runs on residues mod m otherwise (m = p for F_p, m = p^k while
Hensel lifting).

- gcd: Euclid over the field, made monic.
- F_p: squarefree decomposition (repeated gcds with the derivative, and a
  p-th root where the derivative vanishes), distinct-degree factorization,
  then equal-degree splitting by Cantor-Zassenhaus (Math. Comp. 36, 1981),
  with the trace map when p = 2.  Its random elements come from a fixed
  seed, so every run is deterministic.
- QQ: Zassenhaus (J. Number Theory 1, 1969).  Each squarefree part, as a
  primitive integer polynomial, is factored modulo the smallest prime that
  keeps it squarefree, Hensel-lifted past the Landau-Mignotte bound, and the
  lifted factors are recombined by trial division, smallest subsets first.

Factors are listed by (degree, printed form).  The printed form is the
primitive integer polynomial with positive leading coefficient over QQ, and
the monic polynomial with coefficients in (-p/2, p/2] over F_p, written in
x like `3*x**2 - 2*x + 1`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from .errors import EngineError
from .fields import _is_prime
from .poly import Poly, Ring

_SEED = 1981


# -- conversion ----------------------------------------------------------------


def _dense(p: Poly, var_index: int) -> list:
    """Coefficients of a univariate p, constant term first."""
    out = [p.ring.field.zero] * (p.degree_in(var_index) + 1)
    for e, c in p.terms.items():
        if any(k for i, k in enumerate(e) if i != var_index):
            raise EngineError(f"not univariate in {p.ring.vars[var_index]}: {p}")
        out[e[var_index]] = c
    return out


def _sparse(a: list, ring: Ring, var_index: int) -> Poly:
    terms = {}
    for k, c in enumerate(a):
        if c:
            e = [0] * ring.nvars
            e[var_index] = k
            terms[tuple(e)] = ring.field.coerce(c)
    return Poly(ring, terms)


# -- dense arithmetic modulo m (exact over QQ when m = 0) ----------------------


def _red(a: list, m: int) -> list:
    """A copy of a, reduced mod m, without trailing zeros."""
    a = [c % m for c in a] if m else list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _add(a: list, b: list, m: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _red(out, m)


def _sub(a: list, b: list, m: int) -> list:
    return _add(a, [-c for c in b], m)


def _mul(a: list, b: list, m: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _red(out, m)


def _product(lead, polys, m: int) -> list:
    out = [lead]
    for q in polys:
        out = _mul(out, q, m)
    return out


def _inv(c, m: int):
    # over QQ a Fraction, never a float; dense coefficients reach a Poly only
    # through _sparse, whose field.coerce makes an integral one an int again
    return pow(c, -1, m) if m else 1 / Fraction(c)


def _divmod(a: list, b: list, m: int):
    """Quotient and remainder of a by b; b's leading coefficient is a unit mod m."""
    db = len(b) - 1
    if len(a) <= db:
        return [], _red(a, m)
    r = list(a)
    inv = _inv(b[-1], m)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv
        if m:
            c %= m
        if c:
            q[k] = c
            for j in range(db):
                r[k + j] -= c * b[j]
                if m:
                    r[k + j] %= m
    return _red(q, m), _red(r[:db], m)


def _monic(a: list, m: int) -> list:
    inv = _inv(a[-1], m)
    return _red([c * inv for c in a], m)


def _gcd(a: list, b: list, m: int) -> list:
    """Monic gcd (the zero list when both are zero); m is 0 or a prime."""
    while b:
        a, b = b, _divmod(a, b, m)[1]
    return _monic(a, m) if a else []


def _deriv(a: list, m: int) -> list:
    return _red([k * c for k, c in enumerate(a)][1:], m)


def _powmod(a: list, n: int, f: list, m: int) -> list:
    """a^n modulo f."""
    out = [1]
    a = _divmod(a, f, m)[1]
    while n:
        if n & 1:
            out = _divmod(_mul(out, a, m), f, m)[1]
        n >>= 1
        if n:
            a = _divmod(_mul(a, a, m), f, m)[1]
    return out


def _symmetric(a: list, m: int) -> list:
    return [c - m if c > m // 2 else c for c in a]


def _printed(a: list) -> str:
    """Integer coefficients a (constant first) written as a polynomial in x,
    highest degree first: `3*x**2 - 2*x + 1`."""
    out = ""
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        mono = "" if k == 0 else "x" if k == 1 else f"x**{k}"
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = ("-" if c < 0 else "") + body
    return out


# -- squarefree decomposition (any field) --------------------------------------


def _squarefree(f: list, m: int) -> list:
    """[(g, multiplicity)] with g monic, squarefree and pairwise coprime, for a
    monic f over QQ (m = 0) or F_p (m = p)."""
    out = []
    c = _gcd(f, _deriv(f, m), m)
    w = _divmod(f, c, m)[0]
    i = 1
    while len(w) > 1:
        y = _gcd(w, c, m)
        z = _divmod(w, y, m)[0]
        if len(z) > 1:
            out.append((z, i))
        w, c = y, _divmod(c, y, m)[0]
        i += 1
    if len(c) > 1:
        # characteristic p: what is left has multiplicities divisible by p,
        # so it is a p-th power, and a^p = a on F_p
        out.extend((g, k * m) for g, k in _squarefree(c[::m], m))
    return out


# -- F_p: distinct-degree and equal-degree factorization -----------------------


def _distinct_degree(f: list, p: int) -> list:
    """[(h, d)]: h is the product of the degree-d irreducible factors of a
    squarefree monic f."""
    out = []
    h = [0, 1]
    d = 1
    while len(f) - 1 >= 2 * d:
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
        d += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: list, d: int, p: int, rng: random.Random) -> list:
    """Irreducible factors of a squarefree monic f whose factors all have degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _red([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        if p == 2:
            # trace map F_{2^d} -> F_2: a + a^2 + ... + a^(2^(d-1))
            b = t = a
            for _ in range(d - 1):
                t = _divmod(_mul(t, t, p), f, p)[1]
                b = _add(b, t, p)
        else:
            b = _sub(_powmod(a, (p**d - 1) // 2, f, p), [1], p)
        g = _gcd(f, b, p)
        if 1 < len(g) <= n:
            break
    return _equal_degree(g, d, p, rng) + _equal_degree(_divmod(f, g, p)[0], d, p, rng)


def _factor_mod_p(f: list, p: int) -> list:
    """[(g, multiplicity)], g monic irreducible, for a monic f over F_p."""
    rng = random.Random(_SEED)
    out = []
    for g, mult in _squarefree(f, p):
        for h, d in _distinct_degree(g, p):
            out.extend((q, mult) for q in _equal_degree(h, d, p, rng))
    return out


# -- QQ: Zassenhaus ---------------------------------------------------------------


def _primitive(a: list) -> list:
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _bezout(g: list, h: list, p: int):
    """s, t with s*g + t*h = 1 mod p, deg s < deg h, deg t < deg g (g, h coprime)."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = _inv(r0[0], p)
    return _red([c * inv for c in s0], p), _red([c * inv for c in t0], p)


def _hensel_step(f: list, g: list, h: list, s: list, t: list, m: int):
    """From f = g*h, s*g + t*h = 1 mod m (h monic) to the same mod m^2
    (von zur Gathen and Gerhard, Modern Computer Algebra, Algorithm 15.10)."""
    M = m * m
    e = _sub(_red(f, M), _mul(g, h, M), M)
    q, r = _divmod(_mul(s, e, M), h, M)
    g = _add(g, _add(_mul(t, e, M), _mul(q, g, M), M), M)
    h = _add(h, r, M)
    b = _sub(_add(_mul(s, g, M), _mul(t, h, M), M), [1], M)
    c, d = _divmod(_mul(s, b, M), h, M)
    s = _sub(s, d, M)
    t = _sub(t, _add(_mul(t, b, M), _mul(c, g, M), M), M)
    return g, h, s, t


def _hensel_lift(f: list, factors: list, p: int, k: int) -> list:
    """Monic lifts mod p^k of the monic factors of f mod p, where
    f = lc(f) * prod(factors) mod p and p does not divide lc(f)."""
    if len(factors) == 1:
        return [_monic(_red(f, p**k), p**k)]
    half = len(factors) // 2
    g = _product(f[-1], factors[:half], p)
    h = _product(1, factors[half:], p)
    s, t = _bezout(g, h, p)
    m = p
    while m < p**k:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, factors[:half], p, k) + _hensel_lift(h, factors[half:], p, k)


def _zassenhaus(f: list) -> list:
    """Irreducible factors, primitive with positive leading coefficient, of a
    squarefree primitive integer f with positive leading coefficient."""
    n = len(f) - 1
    if n == 1:
        return [f]
    p = 2
    while f[-1] % p == 0 or len(_gcd(_red(f, p), _deriv(f, p), p)) > 1:
        p += 1
        while not _is_prime(p):
            p += 1
    modular = [g for g, _ in _factor_mod_p(_monic(_red(f, p), p), p)]
    if len(modular) == 1:
        return [f]
    # Landau-Mignotte: lc(f) * (any factor made monic) has coefficients below
    # this bound, so its symmetric residue mod p^k > 2 * bound is exact
    bound = (isqrt(n + 1) + 1) * 2**n * max(abs(c) for c in f) * f[-1]
    k = 1
    while p**k <= 2 * bound:
        k += 1
    M = p**k
    lifted = _hensel_lift(f, modular, p, k)

    found = []
    left = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(left):
        for subset in combinations(left, size):
            g = _primitive(_symmetric(_product(f[-1], [lifted[i] for i in subset], M), M))
            q, r = _divmod(f, g, 0)
            if not r and all(c.denominator == 1 for c in q):
                found.append(g)
                f = [int(c) for c in q]
                left = [i for i in left if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def _factor_rational(a: list) -> list:
    """[(z, multiplicity)], z a primitive irreducible integer polynomial with
    positive leading coefficient, for a over QQ."""
    out = []
    for g, mult in _squarefree(_monic(a, 0), 0):
        den = lcm(*(c.denominator for c in g))
        z = _primitive([int(c * den) for c in g])
        out.extend((h, mult) for h in _zassenhaus(z))
    return out


# -- public API --------------------------------------------------------------------


def factor_univariate(p: Poly, var_index: int):
    """Monic irreducible factorization: (leading coefficient, [(factor, mult)])."""
    if p.is_zero():
        raise EngineError("factoring the zero polynomial")
    ring = p.ring
    m = ring.characteristic
    a = _dense(p, var_index)
    if len(a) == 1:
        return a[0], []
    if m:
        found = [(g, mult, _symmetric(g, m)) for g, mult in _factor_mod_p(_monic(a, m), m)]
    else:
        found = [(_monic(z, 0), mult, z) for z, mult in _factor_rational(a)]
    found.sort(key=lambda t: (len(t[0]), _printed(t[2])))
    return a[-1], [(_sparse(g, ring, var_index), mult) for g, mult, _ in found]


def gcd_univariate(p: Poly, q: Poly, var_index: int) -> Poly:
    """Monic gcd of two univariate polynomials (zero when both are zero)."""
    m = p.ring.characteristic
    return _sparse(_gcd(_dense(p, var_index), _dense(q, var_index), m), p.ring, var_index)


def order_at_zero(p: Poly, var_index: int) -> int:
    """Vanishing order at the origin of a univariate polynomial."""
    if p.is_zero():
        raise EngineError("order of the zero polynomial")
    return min(e[var_index] for e in p.terms)
