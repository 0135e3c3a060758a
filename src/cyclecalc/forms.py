"""Algebraic differential forms over a polynomial ring.

A Form of degree q stores a map from strictly increasing q-tuples of variable
indices to polynomial coefficients; antisymmetry is canonicalized away (signs
are absorbed into coefficients).  Degree-0 forms wrap plain polynomials.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import EngineError, RingMismatch
from .poly import Poly, Ring


def _merge_tuples(a: tuple, b: tuple):
    """Concatenate index tuples, sorting into increasing order.

    Returns (sign, tuple) or (0, None) when an index repeats.
    """
    if set(a) & set(b):
        return 0, None
    merged = a + b
    # count inversions of the concatenation (insertion sort parity)
    arr = list(merged)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(arr)


class Form:
    """Homogeneous-degree differential form."""

    __slots__ = ("ring", "degree", "components")

    def __init__(self, ring: Ring, degree: int, components: Mapping[tuple, Poly]):
        self.ring = ring
        self.degree = degree
        comps = {}
        for idx, p in components.items():
            if len(idx) != degree or list(idx) != sorted(idx) or len(set(idx)) != degree:
                raise EngineError(f"bad index tuple {idx} for degree {degree}")
            if p.ring is not ring and p.ring != ring:
                raise RingMismatch("component in wrong ring")
            if not p.is_zero():
                comps[tuple(idx)] = p
        self.components = comps

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: Ring, degree: int = 0) -> "Form":
        return Form(ring, degree, {})

    @staticmethod
    def from_poly(p: Poly) -> "Form":
        return Form(p.ring, 0, {(): p})

    @staticmethod
    def d(p: Poly) -> "Form":
        """Exterior derivative of a function."""
        comps = {}
        for i in range(p.ring.nvars):
            dp = p.derivative(i)
            if not dp.is_zero():
                comps[(i,)] = dp
        return Form(p.ring, 1, comps)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def as_poly(self) -> Poly:
        if self.degree != 0:
            raise EngineError("not a degree-0 form")
        return self.components.get((), self.ring.zero())

    # -- algebra -----------------------------------------------------------

    def _check(self, other: "Form"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch("forms over different rings")

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        if self.degree != other.degree:
            raise EngineError("adding forms of different degrees")
        out = dict(self.components)
        for idx, p in other.components.items():
            s = out.get(idx, self.ring.zero()) + p
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return Form(self.ring, self.degree, out)

    def __neg__(self) -> "Form":
        return Form(self.ring, self.degree, {i: -p for i, p in self.components.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, p) -> "Form":
        """Multiply by a polynomial (or scalar)."""
        if not isinstance(p, Poly):
            p = self.ring.const(p)
        return Form(self.ring, self.degree, {i: q * p for i, q in self.components.items()})

    def wedge(self, other: "Form") -> "Form":
        self._check(other)
        out: dict = {}
        for ia, pa in self.components.items():
            for ib, pb in other.components.items():
                sign, idx = _merge_tuples(ia, ib)
                if sign == 0:
                    continue
                term = pa * pb
                if sign < 0:
                    term = -term
                s = out.get(idx, self.ring.zero()) + term
                if s.is_zero():
                    out.pop(idx, None)
                else:
                    out[idx] = s
        return Form(self.ring, self.degree + other.degree, out)

    def exterior_d(self) -> "Form":
        out = Form.zero(self.ring, self.degree + 1)
        for idx, p in self.components.items():
            dp = Form.d(p)
            base = Form(self.ring, self.degree, {idx: self.ring.one()})
            out = out + dp.wedge(base)
        return out

    # -- maps --------------------------------------------------------------

    def map_coefficients(self, fn) -> "Form":
        return Form(
            self.ring,
            self.degree,
            {i: fn(p) for i, p in self.components.items()},
        )

    def pullback(self, images: Mapping[int, Poly], target: Ring) -> "Form":
        """Substitute variables: coefficients via `images`, dx_i -> d(images[i]).

        `images` must cover every variable appearing in this form (as an index
        or inside a coefficient); missing variables default to the same-named
        variable of the target ring.
        """

        def image(i: int) -> Poly:
            if i in images:
                return images[i]
            return target.var(self.ring.vars[i])

        out = Form.zero(target, self.degree)
        for idx, p in self.components.items():
            term = Form.from_poly(p.substitute(images, target))
            for i in idx:
                term = term.wedge(Form.d(image(i)))
            if term.degree != self.degree:
                raise EngineError("pullback degree mismatch")
            out = out + term
        return out

    def inject(self, target: Ring, index_map: Mapping[int, int]) -> "Form":
        out: dict = {}
        for idx, p in self.components.items():
            new_idx = tuple(index_map[i] for i in idx)
            sign, sorted_idx = _merge_tuples(tuple(), tuple(new_idx))
            if sign == 0:
                raise EngineError("injection collapsed distinct indices")
            q = p.inject(target, index_map)
            if sign < 0:
                q = -q
            out[sorted_idx] = out.get(sorted_idx, target.zero()) + q
        return Form(target, self.degree, {i: p for i, p in out.items() if not p.is_zero()})

    def bigrade_part(self, second_factor: set, q: int) -> "Form":
        """Keep components with exactly q differentials indexed in `second_factor`."""
        out = {
            idx: p
            for idx, p in self.components.items()
            if sum(1 for i in idx if i in second_factor) == q
        }
        return Form(self.ring, self.degree, out)

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self.ring == other.ring
            and self.degree == other.degree
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.ring, self.degree, frozenset(self.components.items())))

    def __str__(self):
        if not self.components:
            return "0"
        bits = []
        for idx in sorted(self.components):
            p = self.components[idx]
            dpart = "^".join(f"d({self.ring.vars[i]})" for i in idx)
            coeff = str(p)
            if " " in coeff or "+" in coeff or "-" in coeff[1:]:
                coeff = f"({coeff})"
            bits.append(f"{coeff}*{dpart}" if dpart and coeff != "1" else (dpart or coeff))
        return " + ".join(bits)

    def __repr__(self):
        return f"Form({self})"


def wedge_all(forms) -> Form:
    forms = list(forms)
    if not forms:
        raise EngineError("empty wedge")
    out = forms[0]
    for f in forms[1:]:
        out = out.wedge(f)
    return out
