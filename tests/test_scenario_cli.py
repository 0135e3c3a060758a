"""Scenario parsing, report schema, determinism, and the CLI surface."""

import importlib
import json
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

from cyclecalc.axioms import run_axiom_harness
from cyclecalc.errors import ScenarioError
from cyclecalc.groebner import Budget, budget_scope, current_budget
from cyclecalc.report import Report, TaskResult
from cyclecalc.scenario import parse_scenario, run_scenario, run_scenario_text

# the module, not the function that `cyclecalc.groebner` names
groebner_mod = importlib.import_module("cyclecalc.groebner")

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).parent / "golden"

MINIMAL = """
char 0
space X = space(affine(x))
prime D = { } on X noscreen
"""


def test_minimal_scenario_parses():
    env = parse_scenario(MINIMAL)
    assert env.characteristic == 0
    assert "X" in env.spaces and "D" in env.primes


def test_misspelled_keyword_positions():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("char 0\nspsce X = space(affine(x))\n")
    assert "spsce" in str(err.value) and "line 2" in str(err.value)


# one declaration of each name kind, so each snippet below misses exactly one name
NAMES = """char 0
space X = space(affine(x))
space P = space(affine(x, y))
pair XX = X ** X
prime W = { } on X noscreen
prime D = { x@1 - x@2 } on XX noscreen
support Phi = full on X
chart C = full on X
morphism f : X -> X = (x^2)
cycle a = 1*[W]
corr Z : [W, Phi] => [W, Phi] = 1*[D]
trace t = trace(f via P, t = (y - x^2))
"""

UNKNOWN_NAMES = {
    "space": "closed B = { x } on Nowhere",
    "variable": "closed B = { zz } on X",
    "closed set": "open U = X minus Nowhere",
    "prime component": "cycle b = 1*[Nowhere]",
    "support family": "cycle b = 1*[W] with support Nowhere",
    "correspondence": "graph Nowhere . D = graph f",
    "morphism": "graph Z . D = graph Nowhere",
    "cycle": "push b = push Nowhere along f into Phi expect 1*[W]",
    "trace": "property p = Nowhere degree expect pass",
    "chart": "class c = cl(W) at chart Nowhere with params (x)",
    "open": "compose c = Z . Z over open Nowhere",
}


@pytest.mark.parametrize("kind", UNKNOWN_NAMES, ids=lambda kind: kind.replace(" ", "-"))
def test_unknown_names_rejected(kind):
    line = NAMES.count("\n") + 1
    with pytest.raises(ScenarioError) as err:
        parse_scenario(NAMES + UNKNOWN_NAMES[kind] + "\n")
    name = "zz" if kind == "variable" else "Nowhere"
    assert f"unknown {kind} {name!r}" in str(err.value)
    assert f"(line {line}, " in str(err.value)


def test_char_must_come_first():
    with pytest.raises(ScenarioError):
        parse_scenario("space X = space(affine(x))\nchar 5\n")


def test_all_shipped_scenarios_pass():
    for path in sorted(SCENARIOS.glob("*.scn")):
        rep = run_scenario_text(path.read_text())
        assert rep.ok, f"{path.name}: {rep.render_text()}"
        assert all(t.verdict in ("pass", "inapplicable") for t in rep.tasks), path.name


def test_report_determinism():
    text = (SCENARIOS / "tangency.scn").read_text()
    r1 = run_scenario_text(text)
    r2 = run_scenario_text(text)
    assert r1.to_json(with_timing=False) == r2.to_json(with_timing=False)


def test_report_verdict_consistency():
    text = (SCENARIOS / "covers_f5.scn").read_text()
    rep = run_scenario_text(text)
    machine = json.loads(rep.to_json())
    text_render = rep.render_text()
    for task in machine["tasks"]:
        assert task["verdict"].upper() in text_render
        assert task["name"] in text_render


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.stem)
def test_report_schema_golden_file(path):
    rep = run_scenario_text(path.read_text())
    got = json.loads(rep.to_json(with_timing=False))
    golden = json.loads((GOLDEN / f"{path.stem}_report.json").read_text())
    assert got == golden


def test_every_groebner_run_sees_the_run_budget(monkeypatch):
    """Every Buchberger run of a scenario (declarations and tasks) and of the
    axiom harness is bounded by the scope's budget, not the default.  The
    cache is emptied first, since a hit runs no S-pair and checks nothing;
    the scenarios are parsed inside the scope and run outside it, so the
    tasks see the budget the declarations saw."""
    run_budget = Budget(max_pairs=49_999)
    checked = []
    check_pairs = Budget.check_pairs

    def record(self, n):
        checked.append(self)
        return check_pairs(self, n)

    monkeypatch.setattr(Budget, "check_pairs", record)
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    reports = []
    for path in sorted(SCENARIOS.glob("*.scn")):
        with budget_scope(run_budget):
            env = parse_scenario(path.read_text())
        reports.append(run_scenario(env))
    with budget_scope(run_budget):
        reports += [run_axiom_harness(char) for char in (0, 5)]
    assert current_budget() == Budget()
    assert checked and all(b is run_budget for b in checked)
    for rep in reports:
        assert rep.ok
        assert rep.budgets == {"max_pairs": 49_999, "max_degree": 120}


def test_report_counts_and_rejects():
    rep = Report(characteristic=0)
    rep.add(TaskResult("a", "compose", "pass"))
    rep.add(TaskResult("b", "compose", "policy-reject", "cannot certify"))
    assert rep.counts()["policy-reject"] == 1
    assert rep.ok  # policy-reject is not a failure
    with pytest.raises(ValueError):
        TaskResult("c", "compose", "maybe")


def _engine(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "cyclecalc.cli", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def test_cli_run_scenario(tmp_path):
    out = tmp_path / "report.json"
    proc = _engine("run", str(SCENARIOS / "tangency.scn"), "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["characteristic"] == 0
    assert {t["verdict"] for t in payload["tasks"]} == {"pass"}


def test_cli_axioms():
    proc = _engine("axioms", "--char", "5")
    assert proc.returncode == 0, proc.stderr
    assert "summary:" in proc.stdout
    bad = _engine("axioms", "--mutate-sign")
    assert bad.returncode == 1


def test_cli_groebner(tmp_path):
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("vars x, y, z\ny - x^2\nz - x^3\n")
    proc = _engine("groebner", str(ideal_file), "--order", "lex")
    assert proc.returncode == 0, proc.stderr
    assert "x^2 - y" in proc.stdout
    assert "y^3 - z^2" in proc.stdout


def test_cli_budget_flags(tmp_path):
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("vars x, y, z\nx^3 - y*z + x\ny^3 - x*z\nz^3 + x*y*z\n")
    proc = _engine("groebner", str(ideal_file), "--budget-pairs", "1", "--budget-degree", "2")
    assert proc.returncode == 2
    assert "budget" in proc.stderr


def test_cli_scenario_error_position(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("char 0\nwibble X = 1\n")
    proc = _engine("run", str(bad))
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


MALFORMED_PREAMBLE = """char 0
space X = space(affine(x))
space Y = space(affine(y))
prime W = { x } on X noscreen
prime V = { y } on Y noscreen
"""


@pytest.mark.parametrize("stmt, message", [
    # an unclosed bracket group, one per statement that scans ahead over one
    pytest.param("closed B = { x on X", "unclosed '{' (line 6, col 12)", id="closed"),
    pytest.param("prime P = { x on X", "unclosed '{' (line 6, col 11)", id="prime"),
    pytest.param("chart C = invert(1 + x on X", "unclosed '(' (line 6, col 17)", id="chart"),
    pytest.param("symbol s = [ d(x) / (x) on X", "unclosed '[' (line 6, col 12)", id="symbol"),
    pytest.param("divisor d = div(x on X", "unclosed '(' (line 6, col 16)", id="divisor"),
    pytest.param(
        "vanish v = cl(W) factor (x) codim 1 params ((x) ; ()) chart Nope",
        "unknown chart 'Nope' (line 6, col 61)", id="vanish-chart",
    ),
    # the position is the unknown name's, not the token after it
    pytest.param(
        "compose c = Z . Z split (a, b) into [W, Nope]",
        "unknown prime component 'Nope' (line 6, col 41)", id="split-component",
    ),
    pytest.param(
        "vanish v = cl(W) factor (zz) codim 1 params ((x) ; ())",
        "unknown variable 'zz' in QQ[x] (line 6, col 26)", id="vanish-factor",
    ),
    # the position is the first term off the first term's space
    pytest.param(
        "cycle b = 1*[W] + 2*[V]",
        "cycle components live on different spaces (line 6, col 19)", id="cycle-spaces",
    ),
    # an engine error raised below the parser takes the statement's position
    pytest.param(
        "space Xt = space(affine(x, y), proj(u, v))\nmorphism sg : Y -> Xt = (y, y)",
        "one coordinate tuple per target block required (line 7, col 1)", id="morphism-blocks",
    ),
])
def test_cli_malformed_statement_is_a_positioned_error(tmp_path, stmt, message):
    """Exit 2 with the error's position: never a hang, never a traceback."""
    bad = tmp_path / "bad.scn"
    bad.write_text(MALFORMED_PREAMBLE + stmt)
    proc = _engine("run", str(bad), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.strip() == f"scenario error: {message}"


def test_polynomial_literal_syntax():
    """The documented literal forms parse as written."""
    from cyclecalc.scenario import TokenStream, parse_form, parse_poly, tokenize
    from cyclecalc.poly import ring_over
    from cyclecalc.forms import Form
    from fractions import Fraction

    R = ring_over(0, ["x", "y"])
    (stmt,) = tokenize("y - x^2")
    assert parse_poly(TokenStream(stmt), R) == R.var("y") - R.var("x") ** 2
    (stmt,) = tokenize("2/3*x*y^2")
    assert parse_poly(TokenStream(stmt), R) == (R.var("x") * R.var("y") ** 2).scale(Fraction(2, 3))
    (stmt,) = tokenize("[x d(x)]^[d(y)]")
    got = parse_form(TokenStream(stmt), R)
    want = Form.d(R.var("x")).scale(R.var("x")).wedge(Form.d(R.var("y")))
    assert got == want


def test_cli_char_override():
    """--char reruns a scenario over a different field."""
    from cyclecalc.scenario import parse_scenario

    text = (SCENARIOS / "covers.scn").read_text()
    env = parse_scenario(text, characteristic=5)
    assert env.characteristic == 5
    rep = run_scenario(env)
    assert rep.ok and rep.characteristic == 5


def test_pullback_form_op():
    from cyclecalc.geometry import Morphism, Space, affine, pullback_form
    from cyclecalc.forms import Form

    A1 = Space([affine("x")])
    A1y = Space([affine("y")])
    f = Morphism(A1, A1y, [(A1.ring.var("x") ** 2,)])
    got = pullback_form(f, Form.d(A1y.ring.var("y")))
    x = A1.ring.var("x")
    assert got == Form.d(x).scale(x.scale(2))
    # identity pulls back to the identity
    from cyclecalc.geometry import identity_morphism

    w = Form.d(A1.ring.var("x")).scale(x)
    assert pullback_form(identity_morphism(A1), w) == w


FAILING_TANGENCY = """
char 0
space A2 = space(affine(x, y))
symbol lhs = [ d(y) ^ d(y - x^2) / (y, y - x^2) ] on A2
symbol rhs = [ d(x) ^ d(y - x^2) / (x, y - x^2) ] on A2
assert lhs == 3 * rhs
"""


def test_wrong_multiplicity_reports_fail():
    rep = run_scenario_text(FAILING_TANGENCY)
    assert not rep.ok
    (task,) = rep.tasks
    assert task.verdict == "fail" and task.detail


def test_wrong_expected_main_reports_fail():
    text = """
char 0
space X = space(affine(x))
space Y = space(affine(y))
prime XV = { } on X noscreen
prime YV = { } on Y noscreen
support FX = full on X
support FY = full on Y
pair XY = X ** Y
pair YX = Y ** X
pair YY = Y ** Y
morphism f : X -> Y = (x^2)
prime G = { y@2 - x@1^2 } on XY noscreen
prime Gt = { y@1 - x@2^2 } on YX noscreen
corr Gf : [XV, FX] => [YV, FY] = 1*[G]
graph Gf . G = graph f
corr Gft : [YV, FY] => [XV, FX] = 1*[Gt]
graph Gft . Gt = transpose f
prime D = { y@1 - y@2 } on YY noscreen
compose p = Gf . Gft expect main = 3*[D]
"""
    rep = run_scenario_text(text)
    by_name = {t.name: t for t in rep.tasks}
    assert by_name["p"].verdict == "fail"
    assert "3" in by_name["p"].detail


@pytest.mark.parametrize(
    "corr, verdict, detail, verdicts",
    [
        # the graph of x -> x^2: pr2 is finite on it
        pytest.param("[XV, FX] => [YV, FY] = 1*[G]", "pass", "", {"G": "yes"}, id="pass"),
        # over x = 0 the graph sits at y = 0, outside psi = <y = 1>
        pytest.param(
            "[XV, Phi0] => [YV, Psi1] = 1*[G]", "fail", "not in P(phi,psi): ['G']", {"G": "no"},
            id="fail",
        ),
        # H = {y = 0} is not finite over Y: x has no monic eliminant
        pytest.param(
            "[XV, FX] => [YV, FY] = 1*[H]", "policy-reject", "properness not certifiable: ['H']",
            {"H": "policy-reject"}, id="policy-reject",
        ),
        pytest.param(
            "[XV, FX] => [YV, FY] = 1*[H] waive P(H)", "pass", "waived: ['H']",
            {"H": "policy-reject"}, id="waived",
        ),
    ],
)
def test_policy_reject_surfaces_in_report(corr, verdict, detail, verdicts):
    text = f"""
char 0
space X = space(affine(x))
space Y = space(affine(y))
prime XV = {{ }} on X noscreen
prime YV = {{ }} on Y noscreen
support FX = full on X
support FY = full on Y
closed X0 = {{ x }} on X
closed Y1 = {{ y - 1 }} on Y
support Phi0 = family(X0)
support Psi1 = family(Y1)
pair XY = X ** Y
prime H = {{ y@2 }} on XY noscreen
prime G = {{ y@2 - x@1^2 }} on XY noscreen
corr bad : {corr}
"""
    rep = run_scenario_text(text)
    (task,) = rep.tasks
    assert (task.name, task.kind, task.verdict) == ("bad_P", "corr-P", verdict)
    assert task.detail == detail
    assert task.audit == {"verdicts": verdicts}
