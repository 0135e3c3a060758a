"""Reports must not depend on the term order.

Every answer the engine prints is ideal-theoretic (membership, elimination,
saturation, dimension, staircase size), and such answers do not depend on
the monomial order that computed the basis (Cox, Little & O'Shea, *Ideals,
Varieties, and Algorithms*, Ch. 2-3).  So rebinding the default order, the
one `groebner()` uses when it is given none, to lex or to degrevlex with the
variable priority reversed must leave every shipped scenario's report and
both axiom-harness reports byte-identical, timing removed.  A change that
reads a default-order basis as if it came from degrevlex (its first element,
say) moves a report here.

Rebinding the elimination orders, `block_order`, to list the variables
inside each block last to first must likewise leave every verdict and
detail.  The audit strings that print a computed ideal's generators (a
composite's `supp` and `error_support`) may change, and must name the same
ideal.
"""

import importlib
import json
from collections import OrderedDict

import pytest

from cyclecalc.axioms import run_axiom_harness
from cyclecalc.groebner import Ideal, ideal_equal
from cyclecalc.orders import block_order, lex
from cyclecalc.poly import ring_over
from cyclecalc.scenario import TokenStream, parse_poly, run_scenario_text, tokenize

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


# audit keys whose value is an ideal's repr, `Ideal(g1, g2, ...)`
AS_IDEALS = ("supp", "error_support")


def _same_ideal(a: str, b: str, characteristic: int) -> bool:
    """Whether two `Ideal(...)` strings present one ideal, compared by their
    reduced bases in the ring of every variable either one names."""
    names = {t.text for stmt in tokenize(a + b) for t in stmt if t.kind == "ident"} - {"Ideal"}
    ring = ring_over(characteristic, sorted(names))

    def ideal(text: str) -> Ideal:
        gens = text.removeprefix("Ideal(").removesuffix(")").split(", ")
        return Ideal(ring, [parse_poly(TokenStream(tokenize(g)[0]), ring) for g in gens if g])

    return ideal_equal(ideal(a), ideal(b))


def test_reports_do_not_depend_on_the_block_orders(monkeypatch):
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    expected = {name: json.loads(text) for name, text in _reports().items()}
    asked = []
    shipped = block_order  # this module's own name is rebound below

    def reversed_blocks(first, second):
        asked.append((first, second))
        return shipped(tuple(first)[::-1], tuple(second)[::-1])

    _replace_everywhere(monkeypatch, orders_mod, "block_order", reversed_blocks)
    got = {name: json.loads(text) for name, text in _reports().items()}
    assert asked and len(got) == 11
    moved = []
    for name, report in got.items():
        want = expected[name]
        for have_task, want_task in zip(report["tasks"], want["tasks"]):
            have, wanted = have_task["audit"], want_task["audit"]
            for key in AS_IDEALS:
                if key in wanted and have.get(key) != wanted[key]:
                    assert _same_ideal(have[key], wanted[key], want["characteristic"]), (name, key, have[key])
                    moved.append((name, want_task["name"], key))
                    have[key] = wanted[key]
        assert report == want, name
    # the reversed blocks reach the ideal comparison, not only equal strings
    assert moved
