"""Command-line entry points.

    engine run <file> [--char p] [--budget-pairs N] [--budget-degree D]
                      [--json out.json] [--seed n]
    engine axioms [--char p] [--mutate-sign] [--json out.json]
    engine groebner <file> [--order lex|degrevlex] [--json out.json]

The groebner subcommand reads a plain ideal file: an optional `char p` line,
a `vars x, y, z` line, then one polynomial per line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from .axioms import run_axiom_harness
from .errors import EngineError, ScenarioError
from .groebner import Budget, Ideal, budget_scope, buchberger_audit, current_budget, groebner
from .orders import degrevlex, lex
from .poly import ring_over
from .report import Report, TaskResult
from .scenario import TokenStream, parse_poly, parse_scenario, run_scenario, tokenize


def _budget(args) -> Budget:
    return Budget(max_pairs=args.budget_pairs, max_degree=args.budget_degree)


def _emit(report: Report, args) -> int:
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    print(report.render_text())
    return 0 if report.ok else 1


def cmd_run(args) -> int:
    with open(args.file) as fh:
        text = fh.read()
    try:
        env = parse_scenario(text, args.char)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    report = run_scenario(env)
    if args.seed is not None:
        report.budgets["seed"] = args.seed
    return _emit(report, args)


def cmd_axioms(args) -> int:
    report = run_axiom_harness(args.char or 0, args.mutate_sign)
    return _emit(report, args)


def cmd_groebner(args) -> int:
    with open(args.file) as fh:
        lines = [l.strip() for l in fh if l.strip() and not l.strip().startswith("#")]
    char = 0
    vars_line = None
    polys = []
    for line in lines:
        if line.startswith("char "):
            char = int(line.split()[1])
        elif line.startswith("vars "):
            vars_line = [v.strip() for v in line[5:].split(",")]
        else:
            polys.append(line)
    if not vars_line:
        print("groebner file needs a 'vars x, y, ...' line", file=sys.stderr)
        return 2
    ring = ring_over(char, vars_line)
    gens = []
    for src in polys:
        stmts = tokenize(src)
        if not stmts:
            continue
        ts = TokenStream(stmts[0])
        gens.append(parse_poly(ts, ring))
        ts.require_done()
    order = lex(ring.nvars) if args.order == "lex" else degrevlex(ring.nvars)
    gb = groebner(Ideal(ring, gens), order)
    report = Report(characteristic=char, budgets=asdict(current_budget()))
    audit_ok = buchberger_audit(gb)
    report.add(
        TaskResult(
            "groebner", "groebner", "pass" if audit_ok else "fail",
            f"{len(gb.basis)} basis elements",
            {"basis": [str(g) for g in gb.basis], "order": args.order},
        )
    )
    for g in gb.basis:
        print(g)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    return 0 if audit_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="engine", description="exact cycle-calculus engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget-pairs", type=int, default=50_000)
        p.add_argument("--budget-degree", type=int, default=120)
        p.add_argument("--json", help="write the machine report to this path")
        p.add_argument("--seed", type=int, default=None, help="recorded in the report; runs are deterministic")

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--char", type=int, default=None, help="override the characteristic")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_ax = sub.add_parser("axioms", help="run the axiom harness")
    p_ax.add_argument("--char", type=int, default=0)
    p_ax.add_argument("--mutate-sign", action="store_true", help="inject a sign error (suite sensitivity test)")
    common(p_ax)
    p_ax.set_defaults(fn=cmd_axioms)

    p_gb = sub.add_parser("groebner", help="reduced Groebner basis of an ideal file")
    p_gb.add_argument("file")
    p_gb.add_argument("--order", choices=["degrevlex", "lex"], default="degrevlex")
    common(p_gb)
    p_gb.set_defaults(fn=cmd_groebner)

    args = parser.parse_args(argv)
    try:
        with budget_scope(_budget(args)):
            return args.fn(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
