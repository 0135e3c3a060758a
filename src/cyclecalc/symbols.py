"""Generalized-fraction calculus for top local cohomology along a complete
intersection, and the symbol-level cycle class.

A KoszulFraction [m / t1,...,tc] is the class of the form m in the colimit of
M/(t)M over regular sequences cutting the same locus.  The calculus here
implements the three rewriting rules: determinant transformation along a
containment of denominator ideals, additivity with (t)-multiples collapsing
to zero, and the Cousin boundary extending a denominator sequence.  Zero
testing reduces to ideal membership (after localizing at the declared chart),
which is justified by the injectivity of the transition maps for regular
sequences; the test suite validates that injectivity on random refinements.

Signs are the literal ones: (-1)^c on the cycle class, (-1)^{c(c+1)/2} on the
regular-embedding trace symbol, and plain concatenation for cups.  No internal
renormalization is performed anywhere.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import EngineError, RegularityError, RingMismatch
from .forms import Form, wedge_all
from .geometry import PrimeComponent, smooth_at
from .groebner import (
    Ideal,
    cofactor_lift,
    groebner,
    is_unit_ideal,
    krull_dim,
    member,
    radical_member,
    saturate_poly,
)
from .poly import Frozen, Poly, Ring


class Chart(Frozen):
    """Localization data: polynomials declared invertible."""

    _fields = ("denominators",)

    def __init__(self, denominators: tuple = ()):
        super().__init__(denominators)

    def product(self, ring: Ring) -> Poly | None:
        if not self.denominators:
            return None
        out = ring.one()
        for d in self.denominators:
            out = out * d
        return out


NO_CHART = Chart()

# The largest power of a denominator (and of the chart unit) that
# `KoszulFraction.equal` tries when building a common refinement.
POWER_CAP = 24


def _localized(I: Ideal, chart: Chart) -> Ideal:
    d = chart.product(I.ring)
    if d is None:
        return I
    return saturate_poly(I, d)


def _as_form(m) -> Form:
    if isinstance(m, Form):
        return m
    if isinstance(m, Poly):
        return Form.from_poly(m)
    raise EngineError(f"numerator must be a Form or Poly, got {type(m)}")


class KoszulFraction:
    """[numerator / t1,...,tc] with a regularity certificate.

    Construction canonicalizes the numerator modulo the (chart-localized)
    denominator ideal, by the reduced basis its certificate carries.  If the
    chart misses the cut locus entirely the fraction is zero; if the sequence
    fails the stepwise dimension drop it is rejected.
    """

    __slots__ = ("ring", "numerator", "denominators", "chart", "certificate")

    def __init__(
        self,
        numerator,
        denominators: Sequence[Poly],
        chart: Chart = NO_CHART,
        _certificate=None,
    ):
        num = _as_form(numerator)
        self.ring = num.ring
        denominators = tuple(denominators)
        for t in denominators:
            if t.ring != self.ring:
                raise RingMismatch("denominator in the wrong ring")
        self.denominators = denominators
        self.chart = chart
        if _certificate is None:
            _certificate = verify_regular_sequence(self.ring, denominators, chart)
        self.certificate = _certificate
        basis = _certificate.basis
        if basis is None:
            self.numerator = Form.zero(self.ring, num.degree)
        else:
            self.numerator = num.map_coefficients(basis.normal_form)

    # -- predicates ------------------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.denominators)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def denominator_ideal(self) -> Ideal:
        return Ideal(self.ring, list(self.denominators))

    # -- linear structure -------------------------------------------------------

    def __add__(self, other: "KoszulFraction") -> "KoszulFraction":
        if (
            other.ring != self.ring
            or other.denominators != self.denominators
            or other.chart != self.chart
        ):
            raise EngineError("fractions must share denominators and chart to add directly")
        return self._over_same(self.numerator + other.numerator)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, p) -> "KoszulFraction":
        return self._over_same(self.numerator.scale(p))

    def _over_same(self, numerator) -> "KoszulFraction":
        """[numerator / t] over this fraction's denominators and chart, reusing
        its regularity certificate."""
        return KoszulFraction(numerator, self.denominators, self.chart, _certificate=self.certificate)

    # -- rewriting rules ----------------------------------------------------------

    def transform(self, new_denominators: Sequence[Poly]) -> "KoszulFraction":
        """Rewrite with denominators t' where (t') is contained in (t).

        Each t'_i is lifted as t'_i = sum_j T_ij t_j; the result is
        [det(T) * numerator / t'].
        """
        new = tuple(new_denominators)
        if len(new) != self.length:
            raise EngineError("transformation must preserve the sequence length")
        I = self.denominator_ideal()
        rows = []
        for tp in new:
            rows.append(cofactor_lift(tp, I))
        det = _determinant(rows, self.ring)
        return KoszulFraction(self.numerator.scale(det), new, self.chart)

    def cousin_boundary(self, extra: Poly) -> "KoszulFraction":
        """Boundary of the localization sequence: [m/extra / t] -> [m / t, extra]."""
        return KoszulFraction(self.numerator, self.denominators + (extra,), self.chart)

    def cup(self, other: "KoszulFraction") -> "KoszulFraction":
        """[a/s] cup [b/t] = [a wedge b / (s, t)]."""
        if other.ring != self.ring or other.chart != self.chart:
            raise EngineError("cup requires one ring and one chart")
        return KoszulFraction(
            self.numerator.wedge(other.numerator),
            self.denominators + other.denominators,
            self.chart,
        )

    # -- equality across denominators ------------------------------------------------

    def equal(self, other: "KoszulFraction") -> bool:
        """Equality via a common refinement of the denominators.

        The refinement is built from powers of this fraction's denominators,
        scaled by chart units where the containment only holds after
        localization; powers of a regular sequence cutting the same chart
        locus are again chart-regular in the Cohen-Macaulay ambient.
        """
        if other.ring != self.ring or other.chart != self.chart:
            raise EngineError("comparison requires one ring and one chart")
        if self.length != other.length:
            return self.is_zero() and other.is_zero()
        if self.is_zero() and other.is_zero():
            return True
        if self.denominators == other.denominators:
            return (self - other).is_zero()
        A, B = self.certificate.basis, other.certificate.basis
        # a fraction over an empty locus is zero, and different loci can only
        # agree at zero
        if A is None or B is None or not (
            all(radical_member(g, A.ideal) for g in B.ideal.gens)
            and all(radical_member(g, B.ideal) for g in A.ideal.gens)
        ):
            return False
        unit = self.chart.product(self.ring) or self.ring.one()
        B_raw = other.denominator_ideal()
        refinement = []
        self_scalers = []
        for t in self.denominators:
            n, k = _power_with_unit(t, B_raw, unit)
            refinement.append(unit**k * t**n)
            self_scalers.append(unit**k * t ** (n - 1))
        refinement = tuple(refinement)
        factor = self.ring.one()
        for s in self_scalers:
            factor = factor * s
        left = KoszulFraction(self.numerator.scale(factor), refinement, self.chart)
        right = other.transform(refinement)
        return (left - right).is_zero()

    # -- display -----------------------------------------------------------------

    def __repr__(self):
        dens = ", ".join(map(str, self.denominators))
        return f"[{self.numerator} / ({dens})]"


class RegularityCertificate(Frozen):
    """The reduced basis of the chart-localized ideal (t), which fractions
    over t reduce their numerators by, or None when the chart misses V(t)."""

    _fields = ("basis",)


def verify_regular_sequence(
    ring: Ring, ts: Sequence[Poly], chart: Chart = NO_CHART
) -> RegularityCertificate:
    """Stepwise dimension-drop check (valid in the Cohen-Macaulay ambient).

    Returns a certificate; raises RegularityError when a step fails to drop.
    An empty locus inside the chart is legal and marks the fraction zero.
    """
    n = ring.nvars
    I = Ideal(ring, [])
    for i in range(1, len(ts) + 1):
        I = _localized(Ideal(ring, list(ts[:i])), chart)
        if is_unit_ideal(I):
            return RegularityCertificate(None)
        d = krull_dim(I)
        if d != n - i:
            raise RegularityError(
                f"sequence fails to drop dimension at step {i}: dim {d} != {n - i}"
            )
    return RegularityCertificate(groebner(I))


def _determinant(rows: list, ring: Ring) -> Poly:
    n = len(rows)
    if n == 0:
        return ring.one()
    if n == 1:
        return rows[0][0]
    det = ring.zero()
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _determinant(minor, ring)
        det = det + (term if j % 2 == 0 else -term)
    return det


def _power_with_unit(t: Poly, target: Ideal, unit: Poly):
    """Smallest (n, k) with unit^k * t^n in the (raw) target ideal, both at
    most POWER_CAP."""
    trivial_unit = unit.is_constant()
    p = t
    for n in range(1, POWER_CAP + 1):
        q = p
        for k in range(0, (0 if trivial_unit else POWER_CAP) + 1):
            if member(q, target):
                return n, k
            q = q * unit
        p = p * t
    raise EngineError("no common refinement within the power cap")


# ---------------------------------------------------------------------------
# symbol-level geometry

def cycle_class_at_chart(
    W: PrimeComponent,
    params: Sequence[Poly],
    chart: Chart = NO_CHART,
    witness: dict | None = None,
) -> KoszulFraction:
    """cl(W) at a chart where W is cut by the regular parameters.

    Verifies (a) each parameter vanishes on W, (b) the parameters generate the
    ideal of W after localization, (c) smoothness at the declared witness.
    The class is (-1)^c [dt_1 ... dt_c / t_1, ..., t_c].
    """
    cs = W.closed_set
    ring = cs.space.ring
    c = cs.codim
    if len(params) != c:
        raise EngineError(f"expected {c} parameters for a codim-{c} component")
    IW_loc = _localized(cs.ideal, chart)
    for t in params:
        if not member(t, IW_loc):
            raise EngineError(f"parameter {t} does not vanish on {W.label} at the chart")
    It_loc = _localized(Ideal(ring, list(params)), chart)
    for g in cs.ideal.gens:
        if not member(g, It_loc):
            raise EngineError(
                f"parameters fail to cut {W.label} at the chart: {g} escapes"
            )
    if witness is not None and not smooth_at(cs, witness):
        raise EngineError(f"{W.label} is not smooth at the declared witness")
    numerator = wedge_all([Form.d(t) for t in params]) if params else Form.from_poly(ring.one())
    frac = KoszulFraction(numerator, tuple(params), chart)
    return frac if c % 2 == 0 else -frac


def lci_trace_symbol(a: Poly, params: Sequence[Poly], chart: Chart = NO_CHART) -> KoszulFraction:
    """Image of a * t_1^v ^ ... ^ t_c^v under the regular-embedding trace.

    The sign is (-1)^{c(c+1)/2}; the lift of a is the polynomial handed in.
    """
    c = len(params)
    frac = KoszulFraction(Form.from_poly(a), tuple(params), chart)
    sign = (-1) ** (c * (c + 1) // 2)
    return frac if sign == 1 else -frac


def split_and_project(
    frac: KoszulFraction, factor_indices: set, q: int
) -> KoszulFraction:
    """Bigraded component with exactly q differentials from the given factor."""
    return frac._over_same(frac.numerator.bigrade_part(factor_indices, q))


def vanishing_check(
    V: PrimeComponent,
    factor_indices: set,
    r: int,
    params_factor: Sequence[Poly],
    params_rest: Sequence[Poly],
    chart: Chart = NO_CHART,
    witness: dict | None = None,
) -> list:
    """Projection-vanishing of the cycle class of V inside a product, as the
    list of (q, vanished) for q in 0..r-1.

    params_factor must involve only variables of the projected factor (this is
    verified) and witness the codimension-r image there; the full parameter
    list must cut V at the chart.  For each q < r the bigraded component of
    cl(V) with exactly q differentials from that factor must vanish; with the
    parameters in this split form it does so by inspection, and the checker
    recomputes it symbolically.
    """
    if len(params_factor) != r:
        raise EngineError("need exactly r parameters from the projected factor")
    for t in params_factor:
        if not t.variables_used() <= factor_indices:
            raise EngineError(
                f"parameter {t} uses variables outside the projected factor"
            )
    cl = cycle_class_at_chart(V, list(params_factor) + list(params_rest), chart, witness)
    return [(q, split_and_project(cl, factor_indices, q).is_zero()) for q in range(r)]
