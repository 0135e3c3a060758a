"""The S-pair sequence, pinned through its budget trips.

Every shipped scenario runs through `engine run` at five pair budgets.  A
change to pair selection, sugar or a reducer moves the pair at which some
Buchberger run trips, and so the exit status or the report; each run's exit
status and the sha1 of its report, timing removed, must equal the entry in
golden/budget_trips.json.

After a change that is meant to move the trip points, rewrite the table
with `PYTHONPATH=src python tests/test_budget_trips.py`.
"""

import hashlib
import importlib
import json
from collections import OrderedDict
from pathlib import Path

import pytest

from cyclecalc import cli

groebner_mod = importlib.import_module("cyclecalc.groebner")

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "scenarios").glob("*.scn"))
TABLE = Path(__file__).parent / "golden" / "budget_trips.json"
BUDGETS = (0, 1, 3, 20, 60)


def _trips(path: Path) -> dict:
    """{budget: "<exit status> <sha1 of the report without timing>"} for
    one scenario, each run with an empty basis cache, as in a fresh process."""
    out = {}
    for pairs in BUDGETS:
        reports = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_write_json", lambda report, args: reports.append(report))
            mp.setattr(groebner_mod, "_gb_cache", OrderedDict())
            status = cli.main(["run", str(path), "--budget-pairs", str(pairs)])
        digest = hashlib.sha1(reports[0].to_json(with_timing=False).encode()).hexdigest()
        out[str(pairs)] = f"{status} {digest}"
    return out


def test_the_table_covers_every_shipped_scenario():
    assert sorted(json.loads(TABLE.read_text())) == [p.stem for p in SCENARIOS]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_budget_trips_match_the_table(path):
    assert _trips(path) == json.loads(TABLE.read_text())[path.stem]


if __name__ == "__main__":
    table = {p.stem: _trips(p) for p in SCENARIOS}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
