"""Scenario parsing, report schema, determinism, and the CLI surface."""

import importlib
import json
import os
import subprocess
import sys
import time
from collections import Counter, OrderedDict
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import pytest

import cyclecalc
from cyclecalc.axioms import run_axiom_harness
from cyclecalc.errors import ScenarioError
from cyclecalc.groebner import Budget, budget_scope, current_budget
from cyclecalc.report import Report, TaskResult, compared, run_checks
from cyclecalc.scenario import parse_scenario, run_scenario, run_scenario_text, tokenize

# the module, not the function that `cyclecalc.groebner` names
groebner_mod = importlib.import_module("cyclecalc.groebner")
report_mod = importlib.import_module("cyclecalc.report")
scenario_mod = importlib.import_module("cyclecalc.scenario")

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


@pytest.mark.parametrize("char", [0, 5])
def test_axiom_harness_golden_file(char):
    got = json.loads(run_axiom_harness(char).to_json(with_timing=False))
    golden = json.loads((GOLDEN / f"axioms_char{char}_report.json").read_text())
    assert got == golden


def test_every_groebner_run_sees_the_run_budget(monkeypatch):
    """Every Buchberger run of a scenario (declarations and tasks) and of the
    axiom harness is bounded by the scope's budget, not the default.  The
    cache is emptied first, since a hit runs no S-pair and checks nothing.
    `parse_scenario` runs every statement, tasks included, inside the scope,
    and `run_scenario` outside it only returns that run's report."""
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


def _statement(task) -> str:
    """The statement a report entry came from: a P check is its correspondence's."""
    return task.name[: -len("_P")] if task.kind == "corr-P" else task.name


@pytest.mark.parametrize("pairs", [0, 1, 3, 20, 60])
def test_a_budget_trip_leaves_a_complete_report(monkeypatch, pairs):
    """Under any pair budget every shipped scenario runs to its end: each
    statement with an entry at the default budget has one, in file order,
    and each entry keeps its default verdict or is an `error`.  The extra
    entries are the declarations that tripped or read a name with no value,
    all `error`s."""
    for path in sorted(SCENARIOS.glob("*.scn")):
        text = path.read_text()
        default = {_statement(t): t.verdict for t in run_scenario_text(text).tasks}
        monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
        with budget_scope(Budget(max_pairs=pairs)):
            report = run_scenario_text(text)
        got = [(_statement(t), t.verdict) for t in report.tasks]
        assert [s for s, _ in got if s in default] == list(default), path.name
        moved = [(s, v) for s, v in got if v not in ("error", default.get(s))]
        assert not moved, f"{path.name}: {moved}"


def test_a_declaration_trip_is_its_own_entry(monkeypatch):
    """On blowup.scn at three pairs the prime DiagXt trips while it is
    screened: it is an `error` entry, and so is `up`, which reads it."""
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    with budget_scope(Budget(max_pairs=3)):
        report = run_scenario_text((SCENARIOS / "blowup.scn").read_text())
    by_name = {t.name: t for t in report.tasks}
    diag, up = by_name["DiagXt"], by_name["up"]
    assert (diag.kind, diag.verdict, diag.detail) == ("prime", "error", "budget exceeded: S-pair count > 3")
    assert (up.kind, up.verdict) == ("compose", "error")
    assert up.detail == "prime component 'DiagXt' has no value: its statement failed"


def _with_stray_tokens(text: str):
    """(head, text) for each statement of `text`, the text with ` wibble`
    after that statement's last token."""
    lines = text.split("\n")
    for tokens in tokenize(text):
        last = tokens[-1]
        cut = last.col - 1 + len(last.text)
        line = lines[last.line - 1]
        yield tokens[0].text, "\n".join(
            [*lines[: last.line - 1], line[:cut] + " wibble" + line[cut:], *lines[last.line :]]
        )


def _scenario_error(monkeypatch, text: str, budget: Budget) -> str:
    """The message that ends a run of `text` under `budget`, with an empty
    basis cache, as in a fresh process."""
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    with budget_scope(budget), pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    return str(err.value)


def test_a_stray_token_is_the_same_error_at_every_budget(monkeypatch):
    """Malformed text is a positioned error whatever the budget: with a stray
    token after any statement of any shipped scenario, the runs at the
    default budget and at 0, 1 and 3 S-pairs end with the same message,
    though at the low budgets a statement above it, or one whose name it
    reads, has tripped."""
    heads, moved = set(), []
    for path in sorted(SCENARIOS.glob("*.scn")):
        for head, text in _with_stray_tokens(path.read_text()):
            heads.add(head)
            want = _scenario_error(monkeypatch, text, Budget())
            for pairs in (0, 1, 3):
                got = _scenario_error(monkeypatch, text, Budget(max_pairs=pairs))
                if got != want:
                    moved.append((path.name, head, pairs, got, want))
    assert heads == set(scenario_mod._STATEMENTS)
    assert not moved


def test_no_groebner_run_starts_while_a_statement_is_read(monkeypatch):
    """A statement's handler only reads it: every Buchberger run of every
    shipped scenario starts in a build or a task's run, after the read."""
    reading, started = [], []
    buchberger = groebner_mod._buchberger

    def spy(*args):
        started.append(reading[-1] if reading else None)  # the head being read, if any
        return buchberger(*args)

    def reader(head, handler):
        def read(*args):
            reading.append(head)
            try:
                return handler(*args)
            finally:
                reading.pop()

        return read

    monkeypatch.setattr(groebner_mod, "_buchberger", spy)
    for head, (handler, separator) in list(scenario_mod._STATEMENTS.items()):
        monkeypatch.setitem(scenario_mod._STATEMENTS, head, (reader(head, handler), separator))
    for path in sorted(SCENARIOS.glob("*.scn")):
        monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
        assert run_scenario_text(path.read_text()).ok, path.name
    during = Counter(head for head in started if head is not None)
    assert started and not during, during


@pytest.mark.parametrize("budget", [[], ["--budget-pairs", "3"]], ids=["default", "pairs3"])
def test_cli_stray_token_after_a_failed_name_is_a_positioned_error(tmp_path, budget):
    """At three pairs `up` reads `DiagXt`, whose statement tripped; a stray
    token at the end of `up` is still the run's positioned error."""
    line = "expect main = 1*[DiagXt], error within ExE"
    text = (SCENARIOS / "blowup.scn").read_text()
    assert text.count(line) == 1
    bad = tmp_path / "blowup_wibble.scn"
    bad.write_text(text.replace(line, line + " wibble"))
    proc = _engine("run", str(bad), *budget)
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.strip() == "scenario error: unexpected trailing input 'wibble' (line 55, col 48)"


# X has a projective block, so B's closed set is saturated by its irrelevant
# ideal: a Buchberger run that trips at zero S-pairs, leaving B no value
WRONG_SPACE_HEAD = """char 0
space X = space(affine(x, y), proj(u, v))
space Y = space(affine(x, y))
prime B = { x*v - y*u } on X noscreen
"""
WRONG_SPACE = {
    "family member": (
        "prime V = { y } on Y noscreen\nsupport S = family(B, V) on X\n",
        "family generator in the wrong space (line 6, col 23)",
    ),
    "cycle support": (
        "prime V = { y } on Y noscreen\nsupport F = family(V)\ncycle c = 1*[B] with support F\n",
        "support family on the wrong space (line 7, col 30)",
    ),
    "corr cycle": (
        "prime WX = { } on X noscreen\nprime WY = { } on Y noscreen\nsupport FX = full on X\n"
        "support FY = full on Y\ncorr Z : [WX, FX] => [WY, FY] = 1*[B]\n",
        "correspondence cycle not on the pair space (line 9, col 33)",
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_SPACE))
def test_a_wrong_space_is_the_same_error_at_every_budget(monkeypatch, case):
    """A family member, a cycle's support family or a correspondence's cycle
    on the wrong space is a positioned error when the statement is read, so
    the run ends with it at every budget, also where B, which the statement
    reads, has tripped and has no value."""
    tail, want = WRONG_SPACE[case]
    text = WRONG_SPACE_HEAD + tail
    for pairs in (None, 0, 1, 3):
        budget = Budget() if pairs is None else Budget(max_pairs=pairs)
        assert _scenario_error(monkeypatch, text, budget) == want, pairs


@pytest.mark.parametrize(
    "budget", [[], ["--budget-pairs", "0"], ["--budget-pairs", "3"]], ids=["default", "pairs0", "pairs3"]
)
def test_cli_family_member_in_the_wrong_space_is_a_positioned_error(tmp_path, budget):
    """At zero pairs B's statement trips; the member V on Y is still the
    run's positioned error, exit 2, as at the default budget."""
    path = tmp_path / "wrong_space.scn"
    path.write_text(WRONG_SPACE_HEAD + WRONG_SPACE["family member"][0])
    proc = _engine("run", str(path), *budget)
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.strip() == "scenario error: " + WRONG_SPACE["family member"][1]


def test_cli_declaration_trip_writes_the_report(tmp_path):
    out = tmp_path / "report.json"
    proc = _engine("run", str(SCENARIOS / "blowup.scn"), "--budget-pairs", "3", "--json", str(out))
    assert proc.returncode == 1, proc.stderr
    tasks = {t["name"]: t for t in json.loads(out.read_text())["tasks"]}
    assert tasks["DiagXt"]["verdict"] == "error"
    assert tasks["DiagXt"]["detail"] == "budget exceeded: S-pair count > 3"
    assert "DiagXt" in proc.stdout and "summary:" in proc.stdout


def test_identity_reads_a_push_result_above_it():
    """A push task's cycle is a name for the statements below it."""
    text = (SCENARIOS / "cycle_basics.scn").read_text() + """
cycle twice = 2*[lineY]
closed origin = { y } on A1y
identity i = 1*cycle p1 ~ 1*cycle twice within origin
"""
    task = run_scenario_text(text).tasks[-1]
    assert (task.name, task.kind, task.verdict) == ("i", "identity", "pass")


def test_assert_on_a_failed_class_is_an_error():
    """The class task errs (its parameter does not cut the diagonal), so its
    symbol has no value and the assert reading it is an `error` naming it."""
    text = (SCENARIOS / "cycle_basics.scn").read_text() + """
class bad = cl(diagp) at chart full2 with params (a^2 - b^2) witness (a=1, b=1)
assert bad == clExpected
"""
    bad, check = run_scenario_text(text).tasks[-2:]
    assert (bad.name, bad.verdict) == ("bad", "error")
    assert (check.name, check.verdict) == ("assert_2", "error")
    assert check.detail == "symbol 'bad' has no value: its statement failed"


def test_report_counts_and_rejects():
    rep = Report(characteristic=0)
    rep.add(TaskResult("a", "compose", "pass"))
    rep.add(TaskResult("b", "compose", "policy-reject", "cannot certify"))
    assert rep.counts()["policy-reject"] == 1
    assert rep.ok  # policy-reject is not a failure
    with pytest.raises(ValueError):
        TaskResult("c", "compose", "maybe")


def test_run_timing_survives_a_wall_clock_set_back(monkeypatch):
    """A run is timed on a monotonic clock: the wall clock here is set back an
    hour on every read, and the timing must still not be negative."""
    set_back = count(1e9, -3600.0)
    clock = SimpleNamespace(time=lambda: next(set_back), perf_counter=time.perf_counter)
    monkeypatch.setattr(report_mod, "time", clock)
    report = run_checks(0, [("a", "check", lambda: compared(1, 1))])
    assert report.tasks[0].verdict == "pass"
    assert 0 <= report.timing_seconds < 60


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


def test_blowup_walkthrough_golden_output():
    """The narrated API walkthrough prints the same bytes on every run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "blowup_walkthrough.py")],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "blowup_walkthrough.txt").read_text()


def test_one_version_everywhere():
    """The package, every report and the project metadata name one version."""
    assert cyclecalc.__version__ == report_mod.ENGINE_VERSION
    assert Report(0).version == report_mod.ENGINE_VERSION
    metadata = (ROOT / "pyproject.toml").read_text()
    assert f'\nversion = "{report_mod.ENGINE_VERSION}"\n' in metadata


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


def test_cli_groebner_reads_every_statement_of_a_line(tmp_path):
    """`;` separates polynomials on one line; none after the first is dropped."""
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("vars x, y\nx^2 - y; x*y - 1\n")
    proc = _engine("groebner", str(ideal_file))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == ["y^2 - x", "x*y - 1", "x^2 - y"]


@pytest.mark.parametrize("command", [
    ("run", str(SCENARIOS / "covers.scn")),
    ("axioms", "--char", "5"),
    ("groebner", "IDEAL"),
], ids=lambda c: c[0])
def test_cli_seed_is_recorded_by_every_subcommand(tmp_path, command):
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text("vars x, y\nx^2 - y\n")
    out = tmp_path / "report.json"
    args = [str(ideal_file) if a == "IDEAL" else a for a in command]
    proc = _engine(*args, "--seed", "7", "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["budgets"]["seed"] == 7


@pytest.mark.parametrize("text, error", [
    ("vars x, y\nx^2 - q\n", "error: unknown variable 'q' (line 2, col 7)"),
    ("char x\nvars x\nx\n", "error: expected a number, found 'x' (line 1, col 6)"),
], ids=["variable", "char"])
def test_cli_groebner_errors_are_positioned(tmp_path, text, error):
    """The ideal file is read as one text, so a position is the file's own."""
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text(text)
    proc = _engine("groebner", str(ideal_file))
    assert (proc.returncode, proc.stderr.strip()) == (2, error)


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
MALFORMED_CORR = """support F = full on X
support G = full on Y
pair XY = X ** Y
prime D = { x@1, y@2 } on XY noscreen
corr Z : [W, F] => [V, G] = 1*[D]
"""
MALFORMED_COVER = "space P = space(affine(x, y))\nmorphism f : X -> Y = (x^2)\n"
MALFORMED_TRACE = MALFORMED_COVER + "trace T = trace(f via P, t = (y - x^2))\n"


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
        MALFORMED_CORR + "compose c = Z . Z split (a, b) into [W, Nope]",
        "unknown prime component 'Nope' (line 11, col 41)", id="split-component",
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
    # a keyword outside its statement's choices, positioned at the keyword
    pytest.param(
        "space Z = space(affine(z), cone(u, v))",
        "expected affine(...) or proj(...) (line 6, col 28)", id="space-block",
    ),
    pytest.param("space Z = cone(z)", "expected affine(...) or proj(...) (line 6, col 11)", id="space-bare-block"),
    pytest.param("chart C = wibble on X", "expected invert(...) or full (line 6, col 11)", id="chart-kind"),
    pytest.param("support S = wibble on X", "expected family(...) or full (line 6, col 13)", id="support-kind"),
    pytest.param(
        MALFORMED_CORR + "graph Z . D = wibble f",
        "expected graph or transpose (line 11, col 15)", id="graph-kind",
    ),
    pytest.param(
        MALFORMED_TRACE + "property p = T wibble expect pass",
        "expected degree0 | projection | degree (line 9, col 16)", id="property-which",
    ),
    pytest.param(
        MALFORMED_TRACE + "property p = T degree expect wibble",
        "expected pass or inapplicable (line 9, col 30)", id="property-expect",
    ),
    pytest.param(
        "chart C = full on X\nclass c = wibble(W) at chart C with params (x)",
        "expected cl(W) (line 7, col 11)", id="class-cl",
    ),
    pytest.param(
        "vanish v = wibble(W) factor (x) codim 1 params ((x) ; ())",
        "expected cl(V) (line 6, col 12)", id="vanish-cl",
    ),
    pytest.param(
        MALFORMED_COVER + "trace T = wibble(f via P, t = (y - x^2))",
        "expected trace(...) (line 8, col 11)", id="trace-kind",
    ),
    pytest.param(
        MALFORMED_COVER + "trace T = trace(f via P, s = (y - x^2))",
        "expected t = (...) (line 8, col 26)", id="trace-t",
    ),
    pytest.param("divisor d = wibble(x) on X", "expected div(...) (line 6, col 13)", id="divisor-div"),
    # a denominator that is zero in the field, positioned at the denominator
    pytest.param(
        "closed B = { x - 1/0 } on X",
        "denominator 0 is zero in characteristic 0 (line 6, col 20)", id="closed-zero-denominator",
    ),
    pytest.param(
        "chart C = invert(1/0) on X",
        "denominator 0 is zero in characteristic 0 (line 6, col 20)", id="chart-zero-denominator",
    ),
    pytest.param(
        "vanish v = cl(W) factor (x) codim 1 params ((x) ; ()) witness (x=-1/0)",
        "denominator 0 is zero in characteristic 0 (line 6, col 69)", id="witness-zero-denominator",
    ),
    # a declared name followed by the other statement kind's separator
    pytest.param("morphism f = (x)", "expected ':', found '=' (line 6, col 12)", id="morphism-separator"),
    pytest.param("space Z : space(affine(z))", "expected '=', found ':' (line 6, col 9)", id="space-separator"),
])
def test_cli_malformed_statement_is_a_positioned_error(tmp_path, stmt, message):
    """Exit 2 with the error's position: never a hang, never a traceback."""
    bad = tmp_path / "bad.scn"
    bad.write_text(MALFORMED_PREAMBLE + stmt)
    proc = _engine("run", str(bad), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.strip() == f"scenario error: {message}"


def test_cli_denominator_divisible_by_the_characteristic(tmp_path):
    """A denominator the characteristic divides is a positioned error, not a
    crash in the middle of the run: in a witness read under `--char 5`
    (the same file passes at char 0), and in a literal under `char 7`."""
    text = (SCENARIOS / "cycle_basics.scn").read_text()
    assert "witness (a=1, b=1)" in text
    fifths = tmp_path / "fifths.scn"
    fifths.write_text(text.replace("witness (a=1, b=1)", "witness (a=1/5, b=1/5)"))
    assert _engine("run", str(fifths)).returncode == 0
    proc = _engine("run", str(fifths), "--char", "5")
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.strip() == "scenario error: denominator 5 is zero in characteristic 5 (line 35, col 71)"
    sevenths = tmp_path / "sevenths.scn"
    sevenths.write_text("char 7\nspace X = space(affine(x))\nclosed B = { x - 1/7 } on X\n")
    proc = _engine("run", str(sevenths))
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.strip() == "scenario error: denominator 7 is zero in characteristic 7 (line 3, col 20)"


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
    """The detail prints the scaled right side once, not its scale again."""
    rep = run_scenario_text(FAILING_TANGENCY)
    assert not rep.ok
    (task,) = rep.tasks
    assert task.verdict == "fail"
    assert task.detail == "[2*x*d(x)^d(y) / (y, -x^2 + y)] != [3*d(x)^d(y) / (x, -x^2 + y)]"


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


# B . A1 is the graph of x -> 0; B . A is that graph minus itself, through
# y = x and through y = x^2
ZERO_MAIN = """
char 0
space X = space(affine(x))
space Y = space(affine(y))
prime XV = { } on X noscreen
prime YV = { } on Y noscreen
support FX = full on X
support FY = full on Y
pair XY = X ** Y
pair YX = Y ** X
morphism id : X -> Y = (x)
morphism sq : X -> Y = (x^2)
morphism zero : Y -> X = (0)
prime G1 = { y@2 - x@1 } on XY noscreen
prime G2 = { y@2 - x@1^2 } on XY noscreen
prime H = { x@2 } on YX noscreen
corr A : [XV, FX] => [YV, FY] = 1*[G1] - 1*[G2]
graph A . G1 = graph id
graph A . G2 = graph sq
corr A1 : [XV, FX] => [YV, FY] = 1*[G1]
graph A1 . G1 = graph id
corr B : [YV, FY] => [XV, FX] = 1*[H] waive P(H)
graph B . H = graph zero
"""


@pytest.mark.parametrize("operands, verdict, detail", [
    ("B . A", "pass", ""),
    ("B . A1", "fail", "[(H)o(G1)] != 0"),
], ids=["pass", "fail"])
def test_compose_expects_a_zero_main_term(operands, verdict, detail):
    rep = run_scenario_text(ZERO_MAIN + f"compose c = {operands} expect main = 0\n")
    task = rep.tasks[-1]
    assert (task.name, task.verdict, task.detail) == ("c", verdict, detail)


def test_compose_operand_declared_below_is_unknown():
    """Names mean what the statements above made, so an operand declared
    further down is an unknown name, positioned at the operand."""
    line = ZERO_MAIN.count("\n", 0, ZERO_MAIN.index("corr B")) + 1
    text = ZERO_MAIN.replace("corr B", "compose c = B . A1\ncorr B")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == f"unknown correspondence 'B' (line {line}, col 13)"


@pytest.mark.parametrize("scenario, task", [
    ("covers.scn", "assert_3"),
    ("covers_f7.scn", "assert_2"),
])
def test_trace_assert_twin_reports_fail(scenario, task):
    """assert t2(x d(x)) == d(y) with its right side doubled: the task it
    rewrites fails, and every other verdict stays as shipped."""
    line = "assert t2(x d(x)) == d(y)\n"
    text = (SCENARIOS / scenario).read_text()
    assert text.count(line) == 1
    shipped = {t.name: t.verdict for t in run_scenario_text(text).tasks}
    twin = run_scenario_text(text.replace(line, "assert t2(x d(x)) == 2 d(y)\n"))
    changed = {t.name: (t.verdict, t.detail) for t in twin.tasks if t.verdict != shipped[t.name]}
    assert changed == {task: ("fail", "Form(d(y)) != Form(2*d(y))")}
    assert len(twin.tasks) == len(shipped)


@pytest.mark.parametrize("numerator, verdict, detail", [
    ("0", "pass", ""),
    ("x*d(x)", "pass", ""),
    ("d(x)", "fail", "[d(x) / (x)] != [0 / (x)]"),
], ids=["zero", "in-the-ideal", "fail"])
def test_assert_symbol_is_zero(numerator, verdict, detail):
    rep = run_scenario_text(f"""
char 0
space X = space(affine(x))
symbol s = [ {numerator} / (x) ] on X
assert s == 0
""")
    (task,) = rep.tasks
    assert (task.name, task.kind, task.verdict, task.detail) == ("assert_1", "assert", verdict, detail)


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


SCALED_SYMBOLS = """
char 0
space X = space(affine(x))
symbol s = [ -2 d(x) / (x) ] on X
symbol s2 = [ d(x) / (x) ] on X
"""


@pytest.mark.parametrize("rhs, verdict, detail", [
    ("-2 * s2", "pass", ""),
    ("2 * -s2", "pass", ""),
    ("2 * s2", "fail", "[-2*d(x) / (x)] != [2*d(x) / (x)]"),
    ("-2 * -s2", "fail", "[-2*d(x) / (x)] != [2*d(x) / (x)]"),
], ids=["signed-scale", "negated-symbol", "signed-scale-fail", "both-signs-fail"])
def test_assert_reads_a_signed_scale(rhs, verdict, detail):
    """An assert's scale is read as an identity side's, `[-] [INT] [*]`, and
    a sign before the symbol negates it once more."""
    (task,) = run_scenario_text(SCALED_SYMBOLS + f"assert s == {rhs}\n").tasks
    assert (task.kind, task.verdict, task.detail) == ("assert", verdict, detail)


# the statement forms that no shipped scenario uses: a one-block space, a
# family with its space named, a chart that inverts something, a rational
# witness coordinate, a cycle that names an earlier cycle and a projector
# with an error bound
RARE_FORMS = """char 0
space X = space(affine(x, y))
space L = affine(t)
prime W = { x } on X
closed Y0 = { y } on X
support F = family(W, Y0) on X
chart C = invert(1 + y) on X
class c = cl(W) at chart C with params (x + x*y) witness (x=0, y=1/2)
cycle a = 1*[W] on X
cycle b = a with support F
prime Lv = { } on L noscreen
support FL = full on L
pair LL = L ** L
prime DiagL = { t@1 - t@2 } on LL noscreen
morphism idL : L -> L = (t)
corr P : [Lv, FL] => [Lv, FL] = 1*[DiagL]
graph P . DiagL = graph idL
closed S = { t@1 } on LL
projector p = P lambda 1 bound S
"""


def test_rare_statement_forms_match_the_library():
    from fractions import Fraction

    from cyclecalc.corr import projector_check
    from cyclecalc.errors import EngineError
    from cyclecalc.geometry import Space, affine, closed_set
    from cyclecalc.symbols import NO_CHART, Chart, cycle_class_at_chart

    env = parse_scenario(RARE_FORMS)
    X, W = env.spaces["X"], env.primes["W"]
    x, y = X.ring.gens()
    assert env.spaces["L"] == Space([affine("t")])
    F = env.families["F"]
    assert F.space == X and F.generators == (W.closed_set, env.closeds["Y0"])
    assert F.member(closed_set(X, x * y)) and not F.member(closed_set(X, x + y))
    assert env.charts["C"] == Chart((1 + y,))
    witness = {"x": 0, "y": Fraction(1, 2)}
    want = cycle_class_at_chart(W, [x + x * y], Chart((1 + y,)), witness)
    assert env.symbols["c"].equal(want)
    with pytest.raises(EngineError):  # off the chart, x + x*y does not cut W
        cycle_class_at_chart(W, [x + x * y], NO_CHART, witness)
    assert env.cycles["b"] == env.cycles["a"] and env.cycles["b"].family is F
    assert projector_check(env.corrs["P"], 1, bound=env.closeds["S"])[0]
    tasks = {t.name: t for t in env.report.tasks}
    assert tasks["c"].verdict == "pass" and tasks["c"].audit == {"symbol": repr(want)}
    assert tasks["p"].verdict == "pass"


def test_an_empty_family_needs_its_space():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("char 0\nspace X = space(affine(x))\nsupport E = family()\n")
    assert str(err.value) == "an empty family needs an 'on SPACE' clause (line 3, col 20)"
    env = parse_scenario("char 0\nspace X = space(affine(x))\nsupport E = family() on X\n")
    assert env.families["E"].generators == () and env.families["E"].space == env.spaces["X"]


def test_a_run_without_budget_flags_records_the_default_budget(monkeypatch, tmp_path):
    """The CLI's budget defaults are `Budget()`'s own: with other defaults
    in `Budget`, a run with no budget flag records those."""
    from cyclecalc import cli

    class Other(Budget):
        def __init__(self, max_pairs=40_000, max_degree=100):
            super().__init__(max_pairs, max_degree)

    monkeypatch.setattr(cli, "Budget", Other)
    out = tmp_path / "report.json"
    assert cli.main(["run", str(SCENARIOS / "covers.scn"), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["budgets"] == {"max_pairs": 40_000, "max_degree": 100}
