"""Command-line entry points.

    engine run <file> [--char p] [--budget-pairs N] [--budget-degree D]
                      [--json out.json] [--seed n]
    engine axioms [--char p] [--mutate-sign] [--json out.json] [--seed n]
    engine groebner <file> [--order lex|degrevlex] [--json out.json] [--seed n]

The groebner subcommand reads a plain ideal file: an optional `char p` line,
a `vars x, y, z` line, then the polynomials, one per line or `;`-separated.
It is read with the scenario tokenizer, so every error in it is positioned.
"""

from __future__ import annotations

import argparse
import sys

from .axioms import run_axiom_harness
from .errors import EngineError, ScenarioError
from .groebner import Budget, Ideal, budget_scope, buchberger_audit, groebner
from .orders import degrevlex, lex
from .poly import ring_over
from .report import FAIL, PASS, Report, run_checks
from .scenario import TokenStream, _comma_list, parse_poly, parse_scenario, run_scenario, tokenize


def _budget(args) -> Budget:
    return Budget(max_pairs=args.budget_pairs, max_degree=args.budget_degree)


def _write_json(report: Report, args):
    """Write the machine report to `--json`, with `--seed` recorded in it."""
    if args.seed is not None:
        report.budgets["seed"] = args.seed
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())


def _emit(report: Report, args) -> int:
    _write_json(report, args)
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
    return _emit(run_scenario(env), args)


def cmd_axioms(args) -> int:
    report = run_axiom_harness(args.char or 0, args.mutate_sign)
    return _emit(report, args)


def _read_ideal(text: str) -> Ideal:
    """The ideal of a groebner file; its `char` and `vars` statements may
    stand anywhere in it, and every polynomial is read after them."""
    char, names, polys = 0, None, []
    for tokens in tokenize(text):
        ts = TokenStream(tokens)
        if ts.accept("char"):
            char = ts.expect_number()
            ts.require_done()
        elif ts.accept("vars"):
            names = _comma_list(ts, lambda ts: ts.expect_ident().text)
        else:
            polys.append(ts)
    if names is None:
        raise ScenarioError("groebner file needs a 'vars x, y, ...' line")
    ring = ring_over(char, names)
    gens = []
    for ts in polys:
        gens.append(parse_poly(ts, ring))
        ts.require_done()
    return Ideal(ring, gens)


def cmd_groebner(args) -> int:
    with open(args.file) as fh:
        ideal = _read_ideal(fh.read())
    ring = ideal.ring
    order = lex(ring.nvars) if args.order == "lex" else degrevlex(ring.nvars)
    # outside the check, so a tripped budget ends the command with exit code 2
    gb = groebner(ideal, order)

    def check():
        audit = {"basis": [str(g) for g in gb.basis], "order": args.order}
        return PASS if buchberger_audit(gb) else FAIL, f"{len(gb.basis)} basis elements", audit

    report = run_checks(ring.field.characteristic, [("groebner", "groebner", check)])
    for g in gb.basis:
        print(g)
    _write_json(report, args)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="engine", description="exact cycle-calculus engine")
    sub = parser.add_subparsers(dest="command", required=True)
    default = Budget()

    def common(p):
        p.add_argument("--budget-pairs", type=int, default=default.max_pairs)
        p.add_argument("--budget-degree", type=int, default=default.max_degree)
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
