"""Saturation in one elimination against the per-generator route."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecalc.groebner import Ideal, groebner, saturate, saturate_poly
from cyclecalc.poly import ring_over

from .oracles import reference_saturate

NAMES = ["sa_x", "sa_y", "sa_z"]
RINGS = {char: ring_over(char, NAMES) for char in (0, 7, 32003)}
# the exponents of total degree at most 2 in three variables
EXPONENTS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2]


def _poly(draw, ring, max_terms, exponents=EXPONENTS):
    terms = draw(
        st.lists(
            st.tuples(
                st.sampled_from(exponents),
                st.fractions(min_value=-3, max_value=3, max_denominator=2)
                if ring.characteristic == 0
                else st.integers(-3, 3),
            ),
            min_size=1,
            max_size=max_terms,
        )
    )
    out = ring.zero()
    for e, c in terms:
        out = out + ring.monomial(e, c)
    return out


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_saturate_matches_reference(data):
    ring = RINGS[data.draw(st.sampled_from(sorted(RINGS)))]
    # no constant terms in J, so V(J) holds the origin and is never empty
    J = [_poly(data.draw, ring, 2, EXPONENTS[1:]) for _ in range(data.draw(st.integers(1, 4)))]
    # each generator of I carries a power of some generator of J, so the
    # saturation usually strips a component rather than returning I or (1)
    I = []
    for _ in range(data.draw(st.integers(1, 3))):
        g = data.draw(st.sampled_from(J))
        I.append(_poly(data.draw, ring, 3) * g ** data.draw(st.integers(0, 2)))
    I, J = Ideal(ring, I), Ideal(ring, J)
    assert groebner(saturate(I, J)).basis == groebner(reference_saturate(I, J)).basis


def test_saturate_poly_early_returns():
    ring = RINGS[0]
    x, y, _ = ring.gens()
    I = Ideal(ring, [x * y, x**2])
    assert saturate_poly(I, ring.const(3)) is I
    assert saturate(I, Ideal(ring, [ring.zero(), ring.const(2)])) is I
    assert groebner(saturate_poly(I, ring.zero())).is_unit()
    assert groebner(saturate(I, Ideal(ring, []))).is_unit()


def test_tags_avoid_the_ring_variables():
    ring = ring_over(0, ["_z0", "y", "_z2"])
    a, y, b = ring.gens()
    I = Ideal(ring, [a * y * b, a**2 * y])
    J = Ideal(ring, [a, b])
    assert groebner(saturate(I, J)).basis == groebner(reference_saturate(I, J)).basis == [a * y]
