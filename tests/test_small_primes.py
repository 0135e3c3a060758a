"""The paper's own boundary: every `char 0` scenario rerun at p = 2, 3, 5, 7.

The paper's hypothesis is a finite group of order prime to the
characteristic.  At the large primes of test_cross_field.py every cover is
tame and no verdict moves; at small primes some must.  MOVED pins each
verdict that moves, with its mathematical reason, so a defect in small-field
arithmetic (F_2 and F_5 scalars, univar's trace-map square roots at p = 2,
squarefree parts when p divides a multiplicity) moves a verdict the table
does not hold, or keeps one it does.

A second, metamorphic check: reduced Gröbner bases are unique, so reversing
the generators inside every multi-generator `{ ... }` set of a scenario must
leave its report byte-identical.  The rewritten scenarios live only in
memory; scenarios/ is unchanged.
"""

import re

import pytest

from cyclecalc.errors import EngineError
from cyclecalc.scenario import run_scenario_text

from .test_cross_field import CHAR0, CHAR0_SCENARIOS, SCENARIOS

SMALL_PRIMES = (2, 3, 5, 7)

# (scenario, task, prime) -> (verdict, fragment of its detail, why it moves)
MOVED = {
    ("covers.scn", "p2_deg", 2): (
        "fail", "expected pass, got inapplicable",
        "p divides the degree 2 of the cover, where the degree property is inapplicable",
    ),
    ("covers.scn", "p3_deg", 3): (
        "fail", "expected pass, got inapplicable",
        "p divides the degree 3 of the cover, where the degree property is inapplicable",
    ),
    ("cycle_basics.scn", "d3", 2): (
        "fail", "2*[t + 1=0] - 1*[t=0] != [quad] - 1*[orig]",
        "t^2 + 1 = (t + 1)^2 ramifies, so the prime [quad] does not exist",
    ),
    ("cycle_basics.scn", "d3", 5): (
        "fail", "[t + 2=0] + [t + 3=0] - 1*[t=0] != [quad] - 1*[orig]",
        "-1 is a square, so t^2 + 1 splits and the prime [quad] does not exist",
    ),
    ("quotient.scn", "p_comp", 2): (
        "error", "transversality witness fails the Jacobian rank check on DiagYq",
        "p = |G| = 2 is the wild case: DiagYq and AntiYq are one prime, and the "
        "fiber product is the doubled diagonal, which no witness certifies transversally",
    ),
}

# { ... } groups outside comments; a comment is matched first and kept
GROUP = re.compile(r"(#[^\n]*)|\{([^{}]*)\}")


def _tasks(text: str) -> dict:
    """task -> (verdict, detail) of one run, or the error that ended it."""
    try:
        report = run_scenario_text(text)
    except EngineError as exc:
        return f"run ended: {type(exc).__name__}: {exc}"
    return {t.name: (t.verdict, t.detail) for t in report.tasks}


def test_moved_verdicts_name_char0_scenarios():
    assert {name for name, _, _ in MOVED} <= set(CHAR0_SCENARIOS)
    assert {p for _, _, p in MOVED} <= set(SMALL_PRIMES)


@pytest.mark.parametrize("name", CHAR0_SCENARIOS)
def test_small_primes_move_only_the_pinned_verdicts(name):
    text = (SCENARIOS / name).read_text()
    base = _tasks(text)
    assert isinstance(base, dict), base
    problems = []
    for p in SMALL_PRIMES:
        rewritten, n = CHAR0.subn(f"char {p}", text)
        assert n == 1, f"{name}: {n} `char 0` lines"
        got = _tasks(rewritten)
        if not isinstance(got, dict):
            problems.append(f"{name} at p = {p}: {got}")
            continue
        assert got.keys() == base.keys(), f"{name} at p = {p}: the task list changed"
        for task, (verdict, detail) in got.items():
            pinned = MOVED.get((name, task, p))
            if pinned is None:
                if verdict != base[task][0]:
                    problems.append(
                        f"{name} task {task} at p = {p}: {base[task][0]} -> {verdict} ({detail})"
                    )
            elif verdict != pinned[0] or pinned[1] not in (detail or ""):
                problems.append(
                    f"{name} task {task} at p = {p}: expected {pinned[0]} with {pinned[1]!r} "
                    f"({pinned[2]}), got {verdict} ({detail})"
                )
    assert not problems, "\n".join(problems)


def _reversed_sets(text: str) -> tuple:
    """(text with every multi-generator set's generators reversed, how many
    sets were reversed)."""
    count = 0

    def reverse(m):
        nonlocal count
        if m.group(1) is not None:
            return m.group(0)
        gens = [g.strip() for g in m.group(2).replace("\\\n", " ").split(",")]
        if len(gens) < 2:
            return m.group(0)
        count += 1
        return "{ " + ", ".join(reversed(gens)) + " }"

    return GROUP.sub(reverse, text), count


ALL_SCENARIOS = sorted(p.name for p in SCENARIOS.glob("*.scn"))


def test_fourteen_multi_generator_sets_are_reversed():
    counts = {name: _reversed_sets((SCENARIOS / name).read_text())[1] for name in ALL_SCENARIOS}
    assert sum(counts.values()) == 14, counts


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_reversed_generators_leave_the_report_unchanged(name):
    text = (SCENARIOS / name).read_text()
    rewritten, _ = _reversed_sets(text)
    expected = run_scenario_text(text).to_json(with_timing=False)
    assert run_scenario_text(rewritten).to_json(with_timing=False) == expected, name
