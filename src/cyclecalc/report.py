"""Machine- and human-readable run reports.

Verdicts are five-valued: pass / fail / policy-reject / inapplicable / error.
The machine rendering is deterministic (timing lives outside the comparable
payload), and both renderings always carry identical verdicts.

Each runner-layer decision has one owner here:

- `compared` is a comparison's verdict: pass when what a check got equals what
  it wants, else fail with `got != want` as the detail.
- `run_check` is the one place where an exception becomes a verdict: inside
  the engine a side condition the properness policy cannot certify is a
  `PolicyReject` and nothing else, and it turns into `policy-reject` only here.
- `run_checks` is a run's report: it runs `(name, kind, check)` triples in
  order, timed, under the budget in scope, which the report records.  The
  scenario runner (which feeds it one triple per task as its statements run),
  the axiom harness and `engine groebner` all report through it.
"""

from __future__ import annotations

import json
import time

from .errors import EngineError, PolicyReject
from .groebner import current_budget

ENGINE_VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
POLICY_REJECT = "policy-reject"
INAPPLICABLE = "inapplicable"
ERROR = "error"

_VERDICTS = (PASS, FAIL, POLICY_REJECT, INAPPLICABLE, ERROR)


class TaskResult:
    def __init__(self, name: str, kind: str, verdict: str, detail: str = "", audit: dict | None = None):
        if verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {verdict}")
        self.name = name
        self.kind = kind
        self.verdict = verdict
        self.detail = detail
        self.audit = {} if audit is None else audit

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "verdict": self.verdict,
            "detail": self.detail,
            "audit": _jsonable(self.audit),
        }


def run_check(name: str, kind: str, check) -> TaskResult:
    """Run one check, which returns `(verdict, detail, audit)`, as a task.

    `PolicyReject` becomes `policy-reject` and any other `EngineError` (a
    tripped budget included) becomes `error`, with the exception's message as
    the detail: neither is ever read as a mathematical `fail`.
    """
    try:
        verdict, detail, audit = check()
    except PolicyReject as exc:
        return TaskResult(name, kind, POLICY_REJECT, str(exc))
    except EngineError as exc:
        return TaskResult(name, kind, ERROR, str(exc))
    return TaskResult(name, kind, verdict, detail, audit)


def compared(got, want, audit: dict | None = None, same=None) -> tuple:
    """The `(verdict, detail, audit)` of a check that `got` equals `want`.

    Equality is `==`, or `same(got, want)` when given (`KoszulFraction.equal`,
    say); a mismatch fails with both sides' reprs as the detail.
    """
    audit = {} if audit is None else audit
    ok = got == want if same is None else same(got, want)
    return (PASS, "", audit) if ok else (FAIL, f"{got!r} != {want!r}", audit)


def run_checks(characteristic: int, checks) -> "Report":
    """Run `(name, kind, check)` triples in order, each through `run_check`,
    as one timed report that records the budget in scope."""
    budget = current_budget()
    report = Report(characteristic, {"max_pairs": budget.max_pairs, "max_degree": budget.max_degree})
    start = time.perf_counter()
    for name, kind, check in checks:
        report.add(run_check(name, kind, check))
    report.timing_seconds = time.perf_counter() - start
    return report


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Report:
    def __init__(self, characteristic: int, budgets: dict | None = None):
        self.characteristic = characteristic
        self.budgets = {} if budgets is None else budgets
        self.tasks = []
        self.timing_seconds = None
        self.version = ENGINE_VERSION

    def add(self, task: TaskResult):
        self.tasks.append(task)

    def counts(self) -> dict:
        out = {v: 0 for v in _VERDICTS}
        for t in self.tasks:
            out[t.verdict] += 1
        return out

    @property
    def ok(self) -> bool:
        c = self.counts()
        return c[FAIL] == 0 and c[ERROR] == 0

    def as_dict(self, with_timing: bool = True) -> dict:
        out = {
            "version": self.version,
            "characteristic": self.characteristic,
            "budgets": _jsonable(self.budgets),
            "tasks": [t.as_dict() for t in self.tasks],
        }
        if with_timing and self.timing_seconds is not None:
            out["timing_seconds"] = round(self.timing_seconds, 3)
        return out

    def to_json(self, with_timing: bool = True) -> str:
        return json.dumps(self.as_dict(with_timing), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [
            f"engine {self.version}  characteristic {self.characteristic}",
        ]
        width = max((len(t.name) for t in self.tasks), default=4)
        for t in self.tasks:
            line = f"  {t.name:<{width}}  [{t.kind}]  {t.verdict.upper()}"
            if t.detail:
                line += f"  -- {t.detail}"
            lines.append(line)
        c = self.counts()
        summary = ", ".join(f"{k}: {v}" for k, v in c.items() if v)
        lines.append(f"summary: {summary or 'no tasks'}")
        return "\n".join(lines)
