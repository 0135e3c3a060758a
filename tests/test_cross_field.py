"""Cross-field oracle: every `char 0` scenario, rerun over two large prime
fields, must give the same per-task verdicts.

The scenarios state facts that hold in every characteristic away from a
few small primes, so a verdict that moves with the field points either at
a defect specific to one field's route (lazy reduction mod p in the packed
Buchberger loop, PrimeField.coerce, the QQ canonical form) or at an
unlucky prime, one that divides a leading coefficient or denominator the
char-0 computation meets (Arnold, "Modular algorithms for computing
Gröbner bases", JSC 2003).  Two unrelated primes are unlikely both to be
unlucky, so the failure message says which of the two a mismatch points
at.  The rewritten scenarios live only in memory; scenarios/ is unchanged.
"""

import re
from pathlib import Path

import pytest

from cyclecalc.errors import EngineError
from cyclecalc.scenario import run_scenario_text

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
PRIMES = (32003, 2**31 - 1)
CHAR0 = re.compile(r"^char 0$", re.M)
CHAR0_SCENARIOS = sorted(p.name for p in SCENARIOS.glob("*.scn") if CHAR0.search(p.read_text()))


def _verdicts(text: str):
    """[(task, verdict)] of one run, or the error that ended it."""
    try:
        report = run_scenario_text(text)
    except EngineError as exc:
        return f"run ended: {type(exc).__name__}: {exc}"
    return [(t.name, t.verdict) for t in report.tasks]


def test_seven_char0_scenarios_are_checked():
    assert len(CHAR0_SCENARIOS) == 7, CHAR0_SCENARIOS


@pytest.mark.parametrize("name", CHAR0_SCENARIOS)
def test_verdicts_agree_over_large_primes(name):
    text = (SCENARIOS / name).read_text()
    expected = _verdicts(text)
    assert isinstance(expected, list), expected
    moved = {}
    for p in PRIMES:
        rewritten, n = CHAR0.subn(f"char {p}", text)
        assert n == 1, f"{name}: {n} `char 0` lines"
        got = _verdicts(rewritten)
        if got != expected:
            moved[p] = got if isinstance(got, str) else [
                f"{task}: {v0} -> {v}" for (task, v0), (_, v) in zip(expected, got) if v0 != v
            ] or got
    if len(moved) == len(PRIMES):
        cause = (
            f"every prime tried ({', '.join(map(str, PRIMES))}) moves a verdict: "
            "a field-specific defect in the F_p route, not an unlucky prime"
        )
    else:
        cause = (
            f"only {', '.join(map(str, moved))} moves a verdict: most likely an unlucky "
            "prime dividing a coefficient the char-0 computation meets; confirm with a third prime"
        )
    assert not moved, f"{name}: {cause}; changes: {moved}"
