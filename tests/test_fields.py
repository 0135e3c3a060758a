"""RationalField keeps one canonical form for QQ scalars: a plain int when
the value is integral, else a Fraction with denominator > 1, never a float.

Every operation is held to plain Fraction arithmetic on inputs in either
form (ints, integral Fractions such as Fraction(6, 3), and proper
Fractions), with heights up to 10^12.  Each property test reports one
failure, a plain AssertionError, so tests/test_mutants.py can name it as the
check that kills a mutant.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecalc.errors import EngineError
from cyclecalc.fields import QQ

HEIGHT = 10**12

ints = st.integers(-HEIGHT, HEIGHT)
scalars = st.one_of(
    ints,
    st.builds(Fraction, ints, st.integers(1, HEIGHT)),
    # integral values held as Fractions, the form coerce must unwrap
    st.builds(lambda n: Fraction(n, 1), ints),
)
nonzero = scalars.filter(lambda x: x != 0)


def assert_canonical(value, expected: Fraction):
    """value is expected in RationalField's form: an int exactly when
    integral, else a Fraction with denominator > 1."""
    assert type(value) in (int, Fraction), f"{value!r} is a {type(value).__name__}"
    assert value == expected, f"{value!r} != {expected!r}"
    if expected.denominator == 1:
        assert type(value) is int, f"{value!r} is integral but not an int"
    else:
        assert value.denominator > 1


def test_zero_and_one_are_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1


@settings(max_examples=300, deadline=None, report_multiple_bugs=False)
@given(scalars)
def test_coerce_is_canonical(a):
    assert_canonical(QQ.coerce(a), Fraction(a))
    assert_canonical(QQ.neg(a), -Fraction(a))


def test_coerce_rejects_floats_and_unwraps_bools():
    with pytest.raises(EngineError):
        QQ.coerce(0.5)
    assert type(QQ.coerce(True)) is int


@settings(max_examples=300, deadline=None, report_multiple_bugs=False)
@given(scalars, scalars)
def test_ring_operations_match_fraction_arithmetic(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert_canonical(QQ.add(a, b), fa + fb)
    assert_canonical(QQ.sub(a, b), fa - fb)
    assert_canonical(QQ.mul(a, b), fa * fb)


@settings(max_examples=300, deadline=None, report_multiple_bugs=False)
@given(scalars, nonzero)
def test_division_matches_fraction_arithmetic(a, b):
    assert_canonical(QQ.div(a, b), Fraction(a) / Fraction(b))
    assert_canonical(QQ.inv(b), 1 / Fraction(b))


def test_integral_quotients_are_ints():
    assert_canonical(QQ.div(6, 3), Fraction(2))
    assert_canonical(QQ.div(Fraction(3, 2), Fraction(3, 4)), Fraction(2))
    assert_canonical(QQ.inv(-1), Fraction(-1))
    assert_canonical(QQ.inv(Fraction(1, 7)), Fraction(7))
    assert_canonical(QQ.mul(Fraction(2, 3), Fraction(3, 2)), Fraction(1))
    assert_canonical(QQ.add(Fraction(1, 2), Fraction(1, 2)), Fraction(1))


@pytest.mark.parametrize("a", [0, Fraction(0), Fraction(0, 5)])
def test_division_by_zero_raises(a):
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, a)
    with pytest.raises(ZeroDivisionError):
        QQ.div(Fraction(1, 2), a)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(a)
