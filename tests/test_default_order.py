"""Reports must not depend on the default term order.

Every answer the engine prints is ideal-theoretic (membership, elimination,
saturation, dimension, staircase size), and such answers do not depend on
the monomial order that computed the basis (Cox, Little & O'Shea, *Ideals,
Varieties, and Algorithms*, Ch. 2-3).  So rebinding the default order, the
one `groebner()` uses when it is given none, to lex or to degrevlex with the
variable priority reversed must leave every shipped scenario's report and
both axiom-harness reports byte-identical, timing removed.  A change that
reads a default-order basis as if it came from degrevlex (its first element,
say) moves a report here.  The block orders are not rebound.
"""

import importlib
from collections import OrderedDict

import pytest

from cyclecalc.axioms import run_axiom_harness
from cyclecalc.orders import block_order, lex
from cyclecalc.scenario import run_scenario_text

from .test_cross_field import SCENARIOS
from .test_mutants import _replace_everywhere

groebner_mod = importlib.import_module("cyclecalc.groebner")
orders_mod = importlib.import_module("cyclecalc.orders")


def _reports() -> dict:
    """name -> machine report without timing, for every shipped scenario and
    the axiom harness at char 0 and 5, each from an empty basis cache."""
    out = {}
    for path in sorted(SCENARIOS.glob("*.scn")):
        groebner_mod._gb_cache.clear()
        out[path.stem] = run_scenario_text(path.read_text()).to_json(with_timing=False)
    for char in (0, 5):
        groebner_mod._gb_cache.clear()
        out[f"axioms_char{char}"] = run_axiom_harness(char).to_json(with_timing=False)
    return out


@pytest.mark.parametrize("default", [
    pytest.param(lex, id="lex"),
    # one degrevlex block over the variables listed last to first
    pytest.param(lambda nvars: block_order(range(nvars - 1, -1, -1), ()), id="degrevlex-reversed"),
])
def test_reports_do_not_depend_on_the_default_order(monkeypatch, default):
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    expected = _reports()
    asked = []

    def rebound(nvars: int):
        asked.append(nvars)
        return default(nvars)

    _replace_everywhere(monkeypatch, orders_mod, "degrevlex", rebound)
    got = _reports()
    assert asked and len(got) == 11
    assert [name for name in got if got[name] != expected[name]] == []
