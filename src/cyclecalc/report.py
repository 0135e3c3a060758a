"""Machine- and human-readable run reports.

Verdicts are five-valued: pass / fail / policy-reject / inapplicable / error.
The machine rendering is deterministic (timing lives outside the comparable
payload), and both renderings always carry identical verdicts.

`run_check` is the one place where an exception becomes a verdict: inside the
engine a side condition the properness policy cannot certify is a
`PolicyReject` and nothing else, and it turns into `policy-reject` only here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import EngineError, PolicyReject

ENGINE_VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
POLICY_REJECT = "policy-reject"
INAPPLICABLE = "inapplicable"
ERROR = "error"

_VERDICTS = (PASS, FAIL, POLICY_REJECT, INAPPLICABLE, ERROR)


@dataclass
class TaskResult:
    name: str
    kind: str
    verdict: str
    detail: str = ""
    audit: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict}")

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


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class Report:
    characteristic: int
    budgets: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)
    timing_seconds: float | None = None
    version: str = ENGINE_VERSION

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
