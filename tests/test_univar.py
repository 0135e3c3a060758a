"""Native univariate factorization and gcd, against sympy as the oracle."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecalc.errors import EngineError
from cyclecalc.poly import ring_over
from cyclecalc.univar import factor_univariate, gcd_univariate

from .oracles import sympy_factor_univariate, sympy_gcd_univariate

ROOT = Path(__file__).resolve().parents[1]
CHARS = [0, 2, 3, 5, 7, 32003]


def _x(char: int, var_index: int = 0):
    """The variable at var_index of a two-variable ring over char."""
    names = ["x", "u"] if var_index == 0 else ["u", "x"]
    return ring_over(char, names).var(var_index)


def _rebuild(lead, factors, ring):
    out = ring.const(lead)
    for f, m in factors:
        out = out * f**m
    return out


@st.composite
def _univariate(draw, char: int, var_index: int, max_factors: int = 3):
    """A product of random low-degree pieces, some repeated, with a scalar."""
    x = _x(char, var_index)
    ring = x.ring

    def scalar(nonzero=False):
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 4)) if char == 0 else 1
        c = ring.field.coerce(Fraction(num, den))
        return c if c or not nonzero else ring.field.one

    out = ring.const(scalar(nonzero=True))
    for _ in range(draw(st.integers(0, max_factors))):
        deg = draw(st.integers(1, 3))
        piece = x**deg * scalar(nonzero=True)
        for k in range(deg):
            piece = piece + x**k * scalar()
        if piece.is_zero():
            continue
        out = out * piece ** draw(st.integers(1, 3))
    return out


@pytest.mark.parametrize("char", CHARS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_factor_matches_oracle(char, data):
    var_index = data.draw(st.sampled_from([0, 1]))
    p = data.draw(_univariate(char, var_index))
    lead, factors = factor_univariate(p, var_index)
    assert (lead, factors) == sympy_factor_univariate(p, var_index)
    assert _rebuild(lead, factors, p.ring) == p


@pytest.mark.parametrize("char", CHARS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gcd_matches_oracle(char, data):
    common = data.draw(_univariate(char, 0, max_factors=2))
    a = common * data.draw(_univariate(char, 0, max_factors=2))
    b = common * data.draw(_univariate(char, 0, max_factors=2))
    g = gcd_univariate(a, b, 0)
    assert g == sympy_gcd_univariate(a, b, 0)
    lc = g.terms[max(g.terms)]
    assert lc == a.ring.field.one


def test_x4_plus_4_splits_into_two_quadratics_over_qq():
    x = _x(0)
    lead, factors = factor_univariate(x**4 + 4, 0)
    assert lead == 1
    assert factors == [(x**2 + 2 * x + 2, 1), (x**2 - 2 * x + 2, 1)]


@pytest.mark.parametrize("char,splits", [(0, False), (3, False), (5, True)])
def test_x2_plus_1(char, splits):
    x = _x(char)
    _, factors = factor_univariate(x**2 + 1, 0)
    if splits:
        assert factors == [(x + 2, 1), (x + 3, 1)]
    else:
        assert factors == [(x**2 + 1, 1)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_x_to_the_p_minus_x_is_all_linear_factors(p):
    x = _x(p)
    lead, factors = factor_univariate(x**p - x, 0)
    assert lead == 1
    assert sorted(str(f) for f, _ in factors) == sorted(str(x + c) for c in range(p))
    assert all(m == 1 for _, m in factors)
    assert (lead, factors) == sympy_factor_univariate(x**p - x, 0)


def test_characteristic_two():
    x = _x(2)
    assert factor_univariate(x**2 + 1, 0) == (1, [(x + 1, 2)])
    assert factor_univariate(x**4 + x, 0) == (1, [(x, 1), (x + 1, 1), (x**2 + x + 1, 1)])
    # an irreducible cubic to a power divisible by p needs the p-th root step
    p = (x**3 + x + 1) ** 4 * (x**2 + x + 1)
    assert factor_univariate(p, 0) == (1, [(x**2 + x + 1, 1), (x**3 + x + 1, 4)])


@pytest.mark.parametrize("char", [0, 3, 5])
def test_repeated_factors(char):
    x = _x(char)
    p = (x + 1) ** 3 * (x**2 + 1) ** 2
    lead, factors = factor_univariate(p, 0)
    assert (lead, factors) == sympy_factor_univariate(p, 0)
    assert _rebuild(lead, factors, p.ring) == p
    assert (x + 1, 3) in factors


def test_non_monic_rational_coefficients():
    x = _x(0)
    p = (x * Fraction(2, 3) - Fraction(1, 5)) * (x**2 * Fraction(-7, 2) + 3)
    lead, factors = factor_univariate(p, 0)
    assert lead == Fraction(-7, 3)
    assert factors == [
        (x - Fraction(3, 10), 1),
        (x**2 - Fraction(6, 7), 1),
    ]
    assert (lead, factors) == sympy_factor_univariate(p, 0)


def test_constants_and_zero():
    x = _x(0)
    assert factor_univariate(x.ring.const(Fraction(-5, 2)), 0) == (Fraction(-5, 2), [])
    with pytest.raises(EngineError):
        factor_univariate(x.ring.zero(), 0)


@pytest.mark.parametrize("char", [0, 5])
def test_gcd_with_a_zero_argument_is_monic(char):
    x = _x(char)
    ring = x.ring
    assert gcd_univariate(ring.zero(), x * 2 + 2, 0) == x + 1
    assert gcd_univariate(x * 3 - 3, ring.zero(), 0) == x - 1
    assert gcd_univariate(ring.zero(), ring.zero(), 0).is_zero()
    assert gcd_univariate(ring.const(7), ring.zero(), 0) == ring.one()


def test_gcd_checks_univariate_in_every_case():
    x = _x(0)
    u = x.ring.var(1)
    for a, b in [(x * u, x.ring.zero()), (x.ring.zero(), x + u), (x, u)]:
        with pytest.raises(EngineError):
            gcd_univariate(a, b, 0)
    with pytest.raises(EngineError):
        factor_univariate(x + u, 0)


def test_engine_never_loads_sympy():
    """The engine path of a real run, in a fresh interpreter, without sympy."""
    code = textwrap.dedent(
        """
        import sys
        from pathlib import Path
        import cyclecalc
        from cyclecalc.axioms import run_axiom_harness
        from cyclecalc.scenario import parse_scenario, run_scenario

        text = Path(sys.argv[1]).read_text()
        reports = [run_scenario(parse_scenario(text))]
        reports += [run_axiom_harness(char) for char in (0, 5)]
        assert all(r.tasks for r in reports)
        loaded = sorted(m for m in sys.modules if m == "sympy" or m.startswith("sympy."))
        print(len(loaded))
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "scenarios" / "cycle_basics.scn")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
