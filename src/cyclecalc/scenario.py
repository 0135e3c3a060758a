"""Scenario files: a small declarative language for batch runs.

Declarations (spaces, closed sets, declared-prime components, morphisms,
support families, charts, correspondences with graph data) build the
environment; task statements (compose, projector, identity, class, symbol,
trace, assert, vanish, push, divisor) queue checks whose verdicts end up in
the report.

Grammar sketch (statements end at newline or ';' outside brackets; '#' starts
a comment):

    char 0
    space X = space(affine(x, y), proj(u, v))
    pair XY = X ** Y                      # product with variables tagged @1/@2
    closed B = { x*v - y*u } on X
    prime W = { y - x^2 } on X            # option: noscreen
    open U = X minus B
    chart C = invert(1 + y) on X
    morphism f : X -> Y = (x^2 ; u, v)    # one tuple per target block
    support Phi = family(W1, W2) on X     # or: full on X
    cycle a = 2*[Z1] - [Z2] on XY with support Phi
    corr Z : [W, Phi] => [V, Psi] = 1*[D]
    graph Z . D = graph f                 # or: transpose g
    compose c = b . a over open U witness (x@1=1, ...) \
        split (D1, D2) into [P, Q] expect main = 1*[D], error within S
    projector p = P lambda 2 bound S
    identity name = 2*(Z . A) ~ 2*(B . Z) within S over open U
    symbol s = [ x*d(x) ^ d(y) / (x, y) ] on X chart C
    class c = cl(W) at chart C with params (t1, t2) witness (x=0, y=0)
    trace tf = trace(f via P, t = (y - x^2))
    assert tf(x*d(x)) == d(y)
    assert s == 2 * s2
    vanish v = cl(V) factor (y1) codim 1 params ((y1) ; ()) witness (x1=0, y1=0)
    push b = push a along f into Psi expect 2*[W]
    divisor d = div((t^2 + 1) / t) on X expect [q] - [o]

Polynomial literals use integer or rational coefficients, '^' for powers, and
'*' optionally (juxtaposition multiplies); forms are built from d(...) atoms
and bracketed subforms wedged with '^'.
"""

from __future__ import annotations

import re
import time
from collections import ChainMap
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .corr import (
    Correspondence,
    GraphData,
    compose_localized,
    pair_product,
    projector_check,
)
from .cycles import Cycle, principal_divisor_line, push_forward
from .errors import BudgetExceeded, EngineError, PolicyReject, ScenarioError
from .forms import Form
from .geometry import (
    Block,
    ClosedSet,
    Morphism,
    PrimeComponent,
    Space,
)
from .groebner import Budget, Ideal, budget_scope, current_budget
from .poly import Poly, Ring
from .report import (
    FAIL,
    INAPPLICABLE,
    PASS,
    POLICY_REJECT,
    Report,
    run_check,
)
from .residues import FinitePresentation, trace_form
from .supports import SupportFamily, in_P_family
from .symbols import (
    Chart,
    KoszulFraction,
    NO_CHART,
    cycle_class_at_chart,
    vanishing_check,
)

# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9@]*)
  | (?P<op>\*\*|=>|->|==|[=+\-*/^(){}\[\],;:.~\\])
  | (?P<newline>\n)
  | (?P<space>[ \t\r]+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # 'number' | 'ident' | 'op' | 'end'
    text: str
    line: int
    col: int


def tokenize(text: str):
    """Token list per statement (newline/';' at depth 0 split statements)."""
    statements = []
    current: list = []
    depth = 0
    line = 1
    col = 1
    joined = False
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m.group()
        if kind == "bad":
            raise ScenarioError(f"unexpected character {tok!r}", line, col)
        if kind == "comment" or kind == "space":
            col += len(tok)
            continue
        if kind == "newline":
            if not joined and depth == 0 and current:
                statements.append(current)
                current = []
            joined = False
            line += 1
            col = 1
            continue
        if kind == "op":
            if tok == "\\":
                joined = True
                col += 1
                continue
            if tok in "([{":
                depth += 1
            elif tok in ")]}":
                depth = max(0, depth - 1)
            elif tok == ";" and depth == 0:
                if current:
                    statements.append(current)
                    current = []
                col += 1
                continue
        current.append(Token(kind, tok, line, col))
        col += len(tok)
    if current:
        statements.append(current)
    return statements


class TokenStream:
    def __init__(self, tokens: list, end: Token | None = None):
        self.tokens = tokens
        self.pos = 0
        # what peek() sees past the last token: a group's closing bracket (see
        # `_bracketed`), else an end marker at the last token's position
        if end is None:
            last = tokens[-1] if tokens else Token("end", "", 0, 0)
            end = Token("end", "", last.line, last.col)
        self.end = end

    def peek(self) -> Token:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return self.end

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def at_kind(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise ScenarioError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ScenarioError(f"expected a name, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def expect_number(self) -> int:
        tok = self.peek()
        if tok.kind != "number":
            raise ScenarioError(f"expected a number, found {tok.text!r}", tok.line, tok.col)
        self.next()
        return int(tok.text)

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def require_done(self):
        if not self.done():
            tok = self.peek()
            if self.end.kind == "end":
                raise ScenarioError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
            raise ScenarioError(f"expected {self.end.text!r}, found {tok.text!r}", tok.line, tok.col)


# ---------------------------------------------------------------------------
# expression parsing

def parse_poly(ts: TokenStream, ring: Ring) -> Poly:
    """Read one polynomial in `ring` from `ts` (the literal syntax in the module docstring)."""
    sign = 1
    if ts.accept("-"):
        sign = -1
    elif ts.accept("+"):
        pass
    out = _poly_term(ts, ring)
    if sign < 0:
        out = -out
    while ts.at("+") or ts.at("-"):
        neg = ts.next().text == "-"
        term = _poly_term(ts, ring)
        out = out - term if neg else out + term
    return out


def _starts_poly_atom(ts: TokenStream) -> bool:
    tok = ts.peek()
    return tok.kind in ("number", "ident") or tok.text == "("


def _poly_term(ts: TokenStream, ring: Ring) -> Poly:
    out = _poly_factor(ts, ring)
    while True:
        if ts.accept("*"):
            out = out * _poly_factor(ts, ring)
        elif _starts_poly_atom(ts):
            out = out * _poly_factor(ts, ring)
        else:
            return out


def _poly_factor(ts: TokenStream, ring: Ring) -> Poly:
    base = _poly_atom(ts, ring)
    while ts.accept("^"):
        n = ts.expect_number()
        base = base ** n
    return base


def _poly_atom(ts: TokenStream, ring: Ring) -> Poly:
    tok = ts.peek()
    if tok.kind == "number":
        ts.next()
        num = int(tok.text)
        if ts.at("/") and ts.tokens[ts.pos + 1 : ts.pos + 2] and ts.tokens[ts.pos + 1].kind == "number":
            ts.next()
            den = ts.expect_number()
            return ring.const(Fraction(num, den))
        return ring.const(num)
    if tok.kind == "ident":
        ts.next()
        try:
            return ring.var(tok.text)
        except EngineError:
            raise ScenarioError(f"unknown variable {tok.text!r}", tok.line, tok.col) from None
    if tok.text == "(":
        ts.next()
        inner = parse_poly(ts, ring)
        ts.expect(")")
        return inner
    raise ScenarioError(f"expected a polynomial, found {tok.text!r}", tok.line, tok.col)


def parse_form(ts: TokenStream, ring: Ring) -> Form:
    """Read one differential form with coefficients in `ring` from `ts`."""
    sign = 1
    if ts.accept("-"):
        sign = -1
    elif ts.accept("+"):
        pass
    out = _form_term(ts, ring)
    if sign < 0:
        out = -out
    while ts.at("+") or ts.at("-"):
        neg = ts.next().text == "-"
        term = _form_term(ts, ring)
        out = out - term if neg else out + term
    return out


def _form_term(ts: TokenStream, ring: Ring) -> Form:
    out = _form_primary(ts, ring)
    while ts.at("^"):
        ts.next()
        out = out.wedge(_form_primary(ts, ring))
    return out


def _form_primary(ts: TokenStream, ring: Ring) -> Form:
    """A product of juxtaposed scalar factors and d(...) atoms or [subforms]."""
    coeff = ring.one()
    forms: list = []
    saw_any = False
    while True:
        tok = ts.peek()
        if tok.text == "[":
            ts.next()
            sub = parse_form(ts, ring)
            ts.expect("]")
            forms.append(sub)
            saw_any = True
        elif tok.kind == "ident" and tok.text == "d" and ts.tokens[ts.pos + 1 : ts.pos + 2] and ts.tokens[ts.pos + 1].text == "(":
            ts.next()
            ts.expect("(")
            inner = parse_poly(ts, ring)
            ts.expect(")")
            forms.append(Form.d(inner))
            saw_any = True
        elif tok.kind in ("number", "ident") or tok.text == "(":
            coeff = coeff * _poly_factor(ts, ring)
            saw_any = True
            ts.accept("*")
        else:
            break
    if not saw_any:
        raise ScenarioError(
            f"expected a form, found {ts.peek().text!r}", ts.peek().line, ts.peek().col
        )
    out = Form.from_poly(coeff)
    for f in forms:
        out = out.wedge(f)
    return out


# ---------------------------------------------------------------------------
# environment

@dataclass
class Task:
    name: str
    kind: str
    # callable -> (verdict, detail, audit); `report.run_check` runs it and turns
    # an EngineError it raises into a policy-reject or error verdict
    run: object


@dataclass
class Scenario:
    characteristic: int = 0
    char_locked: bool = False
    # the budget in scope while the declarations were parsed; the tasks run under it too
    budget: Budget = field(default_factory=current_budget)
    spaces: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)  # name -> ProductStructure
    closeds: dict = field(default_factory=dict)
    primes: dict = field(default_factory=dict)
    opens: dict = field(default_factory=dict)  # name -> bad-locus ClosedSet
    charts: dict = field(default_factory=dict)
    morphisms: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    cycles: dict = field(default_factory=dict)
    corrs: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)  # name -> FinitePresentation
    symbols: dict = field(default_factory=dict)
    compositions: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)

    @property
    def space_table(self) -> ChainMap:
        """Space names: declared spaces first, then pairs (as their product spaces)."""
        return ChainMap(self.spaces, {n: p.space for n, p in self.pairs.items()})

    @property
    def closed_table(self) -> ChainMap:
        """Closed-set names: declared closed sets first, then prime components."""
        return ChainMap(self.closeds, {n: p.closed_set for n, p in self.primes.items()})


def parse_scenario(text: str, characteristic: int | None = None) -> Scenario:
    """Parse a scenario; a caller-supplied characteristic overrides the file's
    own `char` statement (so one file can be rerun over several fields)."""
    env = Scenario()
    if characteristic is not None:
        env.characteristic = characteristic
        env.char_locked = True
    statements = tokenize(text)
    for tokens in statements:
        ts = TokenStream(tokens)
        head = ts.expect_ident()
        handler = _STATEMENTS.get(head.text)
        if handler is None:
            raise ScenarioError(f"unknown statement {head.text!r}", head.line, head.col)
        try:
            handler(env, ts)
        except (ScenarioError, BudgetExceeded):
            raise
        except EngineError as exc:
            # raised below the parser, so it carries no position: give it the statement's
            raise ScenarioError(str(exc), head.line, head.col) from exc
        ts.require_done()
    return env


# ---------------------------------------------------------------------------
# grammar helpers: each bracket group, name reference and comma-separated list
# in a statement is read by one of these

def _bracketed(ts: TokenStream, open_: str, close: str) -> TokenStream:
    """Consume a balanced `open_ ... close` group and return its inside.

    The inside is a stream of its own that ends at the closing bracket, so a
    statement can read what follows the group (the space after `{ ... } on`,
    say) before it parses the group in that space's ring.
    """
    start = ts.expect(open_)
    depth = 1
    for i in range(ts.pos, len(ts.tokens)):
        text = ts.tokens[i].text
        if text == open_:
            depth += 1
        elif text == close:
            depth -= 1
            if not depth:
                inside = TokenStream(ts.tokens[ts.pos : i], end=ts.tokens[i])
                ts.pos = i + 1
                return inside
    raise ScenarioError(f"unclosed {open_!r}", start.line, start.col)


def _ref(ts: TokenStream, table, what: str):
    """Read a name and look it up in `table`; an unknown name is a positioned error."""
    tok = ts.expect_ident()
    if tok.text not in table:
        raise ScenarioError(f"unknown {what} {tok.text!r}", tok.line, tok.col)
    return table[tok.text]


def _comma_list(group: TokenStream, read, allow_empty: bool = False) -> list:
    """The comma-separated items filling `group` (from `_bracketed`), each read by `read(group)`."""
    items = []
    if not (allow_empty and group.done()):
        items.append(read(group))
        while group.accept(","):
            items.append(read(group))
    group.require_done()
    return items


def _var_index(ts: TokenStream, ring: Ring) -> int:
    """Read a variable name and return its index in `ring`, positioned at the name."""
    tok = ts.expect_ident()
    try:
        return ring.index(tok.text)
    except EngineError as exc:
        raise ScenarioError(str(exc), tok.line, tok.col) from None


def _poly_list(group: TokenStream, ring: Ring, allow_empty: bool = False) -> list:
    return _comma_list(group, lambda g: parse_poly(g, ring), allow_empty)


def _closed_literal(env: Scenario, ts: TokenStream) -> ClosedSet:
    """`{ p, ... } on SPACE`: the ring is named after the braces."""
    gens = _bracketed(ts, "{", "}")
    ts.expect("on")
    space = _ref(ts, env.space_table, "space")
    return ClosedSet(space, Ideal(space.ring, _poly_list(gens, space.ring, allow_empty=True)))


# ---------------------------------------------------------------------------
# statement handlers

def _stmt_char(env: Scenario, ts: TokenStream):
    if env.spaces or env.pairs:
        tok = ts.peek()
        raise ScenarioError("char must precede all declarations", tok.line, tok.col)
    value = ts.expect_number()
    if not env.char_locked:
        env.characteristic = value


def _parse_blocks(ts: TokenStream) -> list:
    def one_block(ts: TokenStream) -> Block:
        kind_tok = ts.expect_ident()
        if kind_tok.text not in ("affine", "proj"):
            raise ScenarioError("expected affine(...) or proj(...)", kind_tok.line, kind_tok.col)
        names = _comma_list(_bracketed(ts, "(", ")"), lambda g: g.expect_ident().text)
        return Block(kind_tok.text, tuple(names))

    if ts.accept("space"):
        return _comma_list(_bracketed(ts, "(", ")"), one_block)
    return [one_block(ts)]


def _stmt_space(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    env.spaces[name] = Space(_parse_blocks(ts), env.characteristic)


def _stmt_pair(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    a = _ref(ts, env.space_table, "space")
    ts.expect("**")
    env.pairs[name] = pair_product(a, _ref(ts, env.space_table, "space"))


def _stmt_closed(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    env.closeds[name] = _closed_literal(env, ts)


def _stmt_prime(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    if ts.at("{"):
        cs = _closed_literal(env, ts)
    else:
        ts.accept("closed")
        cs = _ref(ts, env.closed_table, "closed set")
    screen = not ts.accept("noscreen")
    env.primes[name] = PrimeComponent(cs, label=name, screen=screen)


def _stmt_open(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    space = _ref(ts, env.space_table, "space")
    ts.expect("minus")
    bad_tok = ts.peek()
    bad = _ref(ts, env.closed_table, "closed set")
    if bad.space != space:
        raise ScenarioError("bad locus lives in the wrong space", bad_tok.line, bad_tok.col)
    env.opens[name] = bad


def _stmt_chart(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    kw = ts.expect_ident()
    if kw.text == "full":
        ts.expect("on")
        _ref(ts, env.space_table, "space")
        env.charts[name] = NO_CHART
        return
    if kw.text != "invert":
        raise ScenarioError("expected invert(...) or full", kw.line, kw.col)
    denoms = _bracketed(ts, "(", ")")
    ts.expect("on")
    space = _ref(ts, env.space_table, "space")
    env.charts[name] = Chart(tuple(_poly_list(denoms, space.ring, allow_empty=True)))


def _stmt_morphism(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect(":")
    src = _ref(ts, env.space_table, "space")
    ts.expect("->")
    tgt = _ref(ts, env.space_table, "space")
    ts.expect("=")
    ts.expect("(")
    # one tuple per target block, the tuples separated by ';'
    coords = [[parse_poly(ts, src.ring)]]
    while ts.at(",") or ts.at(";"):
        if ts.next().text == ";":
            coords.append([])
        coords[-1].append(parse_poly(ts, src.ring))
    ts.expect(")")
    domain = _ref(ts, env.closed_table, "closed set") if ts.accept("on") else None
    env.morphisms[name] = Morphism(src, tgt, coords, domain)


def _stmt_support(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    kw = ts.expect_ident()
    if kw.text == "full":
        ts.expect("on")
        env.families[name] = SupportFamily.full(_ref(ts, env.space_table, "space"))
        return
    if kw.text != "family":
        raise ScenarioError("expected family(...) or full", kw.line, kw.col)
    members = _comma_list(
        _bracketed(ts, "(", ")"), lambda g: _ref(g, env.closed_table, "closed set"), allow_empty=True
    )
    if ts.accept("on"):
        space = _ref(ts, env.space_table, "space")
    elif members:
        space = members[0].space
    else:
        tok = ts.peek()
        raise ScenarioError("an empty family needs an 'on SPACE' clause", tok.line, tok.col)
    env.families[name] = SupportFamily(space, members)


def _parse_cycle_body(env: Scenario, ts: TokenStream, space: Space | None = None) -> Cycle:
    """INT*[P] +- ... with P declared primes; space inferred from the first.

    A bare identifier naming a declared cycle is also accepted.
    """
    if ts.at_kind("ident") and ts.peek().text in env.cycles:
        return env.cycles[ts.next().text]
    terms: dict = {}
    sign = -1 if ts.accept("-") else 1
    while True:
        term_tok = ts.peek()
        mult = sign
        if ts.at_kind("number"):
            mult = sign * ts.expect_number()
            ts.accept("*")
        ts.expect("[")
        comp = _ref(ts, env.primes, "prime component")
        ts.expect("]")
        if space is None:
            space = comp.space
        if comp.space != space:
            raise ScenarioError("cycle components live on different spaces", term_tok.line, term_tok.col)
        terms[comp] = terms.get(comp, 0) + mult
        if not (ts.at("+") or ts.at("-")):
            return Cycle(space, terms)
        sign = -1 if ts.next().text == "-" else 1


def _stmt_cycle(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    if ts.accept("0"):
        ts.expect("on")
        env.cycles[name] = Cycle(_ref(ts, env.space_table, "space"), {})
        return
    cyc = _parse_cycle_body(env, ts)
    if ts.accept("on"):
        sp_tok = ts.peek()
        if cyc.space != _ref(ts, env.space_table, "space"):
            raise ScenarioError("cycle is not on the declared space", sp_tok.line, sp_tok.col)
    if ts.accept("with"):
        ts.expect("support")
        cyc = cyc.with_family(_ref(ts, env.families, "support family"))
    env.cycles[name] = cyc


def _stmt_corr(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect(":")
    ts.expect("[")
    src_var = _ref(ts, env.primes, "prime component")
    ts.expect(",")
    src_fam = _ref(ts, env.families, "support family")
    ts.expect("]")
    ts.expect("=>")
    ts.expect("[")
    tgt_var = _ref(ts, env.primes, "prime component")
    ts.expect(",")
    tgt_fam = _ref(ts, env.families, "support family")
    ts.expect("]")
    ts.expect("=")
    if ts.accept("cycle"):
        cyc = _ref(ts, env.cycles, "cycle")
    else:
        cyc = _parse_cycle_body(env, ts)
    waive = set()
    if ts.accept("waive"):
        ts.expect("P")
        waive = set(_comma_list(_bracketed(ts, "(", ")"), lambda g: g.expect_ident().text))
    corr = Correspondence(src_var, src_fam, tgt_var, tgt_fam, cyc)
    env.corrs[name] = corr

    def run_P():
        # caught per component: a waived component's reject must not reject the task
        verdicts = {}
        for comp in corr.cycle.terms:
            try:
                member = in_P_family(comp.closed_set, src_fam, tgt_fam, corr.prod)
            except PolicyReject:
                verdicts[comp.label] = POLICY_REJECT
                continue
            verdicts[comp.label] = "yes" if member else "no"
        bad = [l for l, v in verdicts.items() if v == "no" and l not in waive]
        rejected = [l for l, v in verdicts.items() if v == POLICY_REJECT and l not in waive]
        if bad:
            return FAIL, f"not in P(phi,psi): {bad}", {"verdicts": verdicts}
        if rejected:
            return POLICY_REJECT, f"properness not certifiable: {rejected}", {"verdicts": verdicts}
        return PASS, f"waived: {sorted(waive)}" if waive else "", {"verdicts": verdicts}

    env.tasks.append(Task(f"{name}_P", "corr-P", run_P))


def _stmt_graph(env: Scenario, ts: TokenStream):
    corr = _ref(ts, env.corrs, "correspondence")
    ts.expect(".")
    comp = _ref(ts, env.primes, "prime component")
    ts.expect("=")
    kind_tok = ts.expect_ident()
    if kind_tok.text not in ("graph", "transpose"):
        raise ScenarioError("expected graph or transpose", kind_tok.line, kind_tok.col)
    f = _ref(ts, env.morphisms, "morphism")
    corr.attach_graph(comp, GraphData(kind_tok.text, f), verify=True)


def _parse_point(ts: TokenStream) -> dict:
    def coordinate(ts: TokenStream):
        name = ts.expect_ident().text
        ts.expect("=")
        sign = -1 if ts.accept("-") else 1
        num = ts.expect_number()
        if ts.accept("/"):
            return name, Fraction(sign * num, ts.expect_number())
        return name, sign * num

    return dict(_comma_list(_bracketed(ts, "(", ")"), coordinate))


def _corr_compose_clauses(env: Scenario, ts: TokenStream):
    hint = None
    witnesses = []
    split = {}
    while True:
        if ts.accept("over"):
            ts.expect("open")
            hint = _ref(ts, env.opens, "open")
        elif ts.accept("witness"):
            witnesses.append(_parse_point(ts))
        elif ts.accept("split"):
            ts.expect("(")
            a_tok = ts.expect_ident()
            ts.expect(",")
            b_tok = ts.expect_ident()
            ts.expect(")")
            ts.expect("into")
            split[(a_tok.text, b_tok.text)] = _comma_list(
                _bracketed(ts, "[", "]"), lambda g: _ref(g, env.primes, "prime component")
            )
        else:
            return hint, witnesses, split


def _corr_operand(env: Scenario, name: str) -> Correspondence:
    """Resolve a correspondence by name, at run time.

    Earlier composition results are usable as operands; their main terms
    become correspondences carrying whatever graph data composed through.
    """
    if name in env.corrs:
        return env.corrs[name]
    if name in env.compositions:
        return env.compositions[name].to_correspondence()
    raise EngineError(f"unknown correspondence {name!r}")


def _stmt_compose(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    b_tok = ts.expect_ident()
    ts.expect(".")
    a_tok = ts.expect_ident()
    hint, witnesses, split = _corr_compose_clauses(env, ts)
    expect_main = None
    expect_bound = None
    expect_main_zero = False
    if ts.accept("expect"):
        ts.expect("main")
        ts.expect("=")
        if ts.at("0"):
            ts.next()
            expect_main_zero = True
        else:
            expect_main = _parse_cycle_body(env, ts)
        if ts.accept(","):
            ts.expect("error")
            ts.expect("within")
            expect_bound = _ref(ts, env.closed_table, "closed set")

    def run():
        a = _corr_operand(env, a_tok.text)
        b = _corr_operand(env, b_tok.text)
        r = compose_localized(a, b, hint=hint, witnesses=witnesses, split=split or None)
        env.compositions[name] = r
        audit = dict(r.audit)
        audit["error_support"] = repr(r.error_support.ideal)
        audit["codim_certificates"] = r.error_codim_certificates()
        verdict = PASS
        detail = ""
        if expect_main_zero and not r.main.is_zero():
            verdict = FAIL
            detail = f"main {r.main!r} is not zero"
        if expect_main is not None and r.main != expect_main:
            verdict = FAIL
            detail = f"main {r.main!r} != expected {expect_main!r}"
        if verdict == PASS and expect_bound is not None:
            if not expect_bound.contains(r.error_support):
                verdict = FAIL
                detail = "error support escapes the declared bound"
        return verdict, detail, audit

    env.tasks.append(Task(name, "compose", run))


def _stmt_projector(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    p_tok = ts.expect_ident()
    ts.expect("lambda")
    sign = -1 if ts.accept("-") else 1
    lam = sign * ts.expect_number()
    hint, witnesses, split = _corr_compose_clauses(env, ts)
    bound = None
    if ts.accept("bound"):
        bound = _ref(ts, env.closed_table, "closed set")

    def run():
        p = _corr_operand(env, p_tok.text)
        ok, r = projector_check(
            p, lam, hint=hint, witnesses=witnesses, split=split or None, bound=bound
        )
        audit = dict(r.audit)
        audit["error_support"] = repr(r.error_support.ideal)
        return PASS if ok else FAIL, "" if ok else f"main {r.main!r} vs {lam} * {p.cycle!r}", audit

    env.tasks.append(Task(name, "projector", run))


def _stmt_identity(env: Scenario, ts: TokenStream):
    """identity name = k*(B . A) ~ m*(D . C) within S [over open U ...]

    Either side may also be k*cycle NAME (a plain scaled cycle).
    """
    name = ts.expect_ident().text
    ts.expect("=")

    def side():
        sign = -1 if ts.accept("-") else 1
        k = sign * (ts.expect_number() if ts.at_kind("number") else 1)
        ts.accept("*")
        if ts.accept("cycle"):
            # checked now, read at run time: a task may have replaced it by then
            ref = ts.peek()
            _ref(ts, env.cycles, "cycle")
            return k, ("cycle", ref.text)
        ts.expect("(")
        b_tok = ts.expect_ident()
        ts.expect(".")
        a_tok = ts.expect_ident()
        ts.expect(")")
        return k, ("compose", a_tok.text, b_tok.text)

    k1, side1 = side()
    ts.expect("~")
    k2, side2 = side()
    ts.expect("within")
    bound = _ref(ts, env.closed_table, "closed set")
    hint, witnesses, split = _corr_compose_clauses(env, ts)

    def run():
        results = []

        def evaluate(side_spec, k):
            if side_spec[0] == "cycle":
                return env.cycles[side_spec[1]].scale(k)
            a = _corr_operand(env, side_spec[1])
            b = _corr_operand(env, side_spec[2])
            r = compose_localized(a, b, hint=hint, witnesses=witnesses, split=split or None)
            results.append(r)
            return r.main.scale(k)

        lhs = evaluate(side1, k1)
        rhs = evaluate(side2, k2)
        ok = lhs == rhs
        detail = "" if ok else f"{lhs!r} != {rhs!r}"
        for r in results:
            if ok and not bound.contains(r.error_support):
                ok = False
                detail = "error support escapes the declared bound"
        return PASS if ok else FAIL, detail, {"lhs": repr(lhs), "rhs": repr(rhs)}

    env.tasks.append(Task(name, "identity", run))


def _stmt_property(env: Scenario, ts: TokenStream):
    """property NAME = TRACE {degree0|projection|degree} expect {pass|inapplicable}"""
    name = ts.expect_ident().text
    ts.expect("=")
    pres = _ref(ts, env.traces, "trace")
    which_tok = ts.expect_ident()
    if which_tok.text not in ("degree0", "projection", "degree"):
        raise ScenarioError("expected degree0 | projection | degree", which_tok.line, which_tok.col)
    ts.expect("expect")
    want_tok = ts.expect_ident()
    if want_tok.text not in ("pass", "inapplicable"):
        raise ScenarioError("expected pass or inapplicable", want_tok.line, want_tok.col)

    def run():
        from .residues import trace_property_check

        got = trace_property_check(pres, which_tok.text)
        if got == "fail":
            return FAIL, f"{which_tok.text} check failed", {}
        if got == want_tok.text:
            return PASS if got == "pass" else INAPPLICABLE, "", {}
        return FAIL, f"expected {want_tok.text}, got {got}", {}

    env.tasks.append(Task(name, "property", run))


def _stmt_symbol(env: Scenario, ts: TokenStream):
    """symbol NAME = [ FORM / (t1, ...) ] on SPACE [chart C]"""
    name = ts.expect_ident().text
    ts.expect("=")
    body = _bracketed(ts, "[", "]")
    ts.expect("on")
    space = _ref(ts, env.space_table, "space")
    chart = _ref(ts, env.charts, "chart") if ts.accept("chart") else NO_CHART
    numerator = parse_form(body, space.ring)
    body.expect("/")
    denoms = _poly_list(_bracketed(body, "(", ")"), space.ring)
    body.require_done()
    env.symbols[name] = KoszulFraction(numerator, tuple(denoms), chart)


def _stmt_class(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    kw = ts.expect_ident()
    if kw.text != "cl":
        raise ScenarioError("expected cl(W)", kw.line, kw.col)
    ts.expect("(")
    W = _ref(ts, env.primes, "prime component")
    ts.expect(")")
    ts.expect("at")
    ts.expect("chart")
    chart = _ref(ts, env.charts, "chart")
    ts.expect("with")
    ts.expect("params")
    params = _poly_list(_bracketed(ts, "(", ")"), W.space.ring)
    witness = _parse_point(ts) if ts.accept("witness") else None

    def run():
        frac = cycle_class_at_chart(W, params, chart, witness)
        env.symbols[name] = frac
        return PASS, "", {"symbol": repr(frac)}

    env.tasks.append(Task(name, "class", run))


def _stmt_trace(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    kw = ts.expect_ident()
    if kw.text != "trace":
        raise ScenarioError("expected trace(...)", kw.line, kw.col)
    ts.expect("(")
    f = _ref(ts, env.morphisms, "morphism")
    ts.expect("via")
    p_tok = ts.peek()
    total = _ref(ts, env.space_table, "space")
    ts.expect(",")
    t_kw = ts.expect_ident()
    if t_kw.text != "t":
        raise ScenarioError("expected t = (...)", t_kw.line, t_kw.col)
    ts.expect("=")
    tseq = _poly_list(_bracketed(ts, "(", ")"), total.ring)
    ts.expect(")")
    if not set(f.target.ring.vars) <= set(total.ring.vars):
        raise ScenarioError(
            "target variables of the morphism must appear in the presentation space",
            p_tok.line, p_tok.col,
        )
    base_names = tuple(n for n in total.ring.vars if n in set(f.target.ring.vars))
    fiber_names = tuple(n for n in total.ring.vars if n not in set(base_names))
    if any(b.kind != "affine" for b in total.blocks):
        raise ScenarioError("trace presentations must be affine", p_tok.line, p_tok.col)
    env.traces[name] = FinitePresentation(total.ring, base_names, fiber_names, tuple(tseq))


def _stmt_assert(env: Scenario, ts: TokenStream):
    """assert tf(FORM) == FORM  |  assert s == k * s2  |  assert s == 0"""
    head = ts.expect_ident()
    n = len([t for t in env.tasks if t.kind == "assert"])
    task_name = f"assert_{n + 1}"
    if head.text in env.traces and ts.at("("):
        pres = env.traces[head.text]
        ts.expect("(")
        arg = parse_form(ts, pres.ring)
        ts.expect(")")
        ts.expect("==")
        if ts.at("0") and ts.tokens[ts.pos + 1 : ts.pos + 2] == []:
            ts.next()
            rhs = None
        else:
            rhs = parse_form(ts, pres.base_ring())

        def run():
            out = trace_form(pres, arg)
            ok = out.output.is_zero() if rhs is None else out.output == rhs
            return PASS if ok else FAIL, "" if ok else f"{out.output} != {rhs}", {"audit": out.audit}

        env.tasks.append(Task(task_name, "assert", run))
        return
    # otherwise a symbol comparison; symbols may be produced later by class
    # tasks, so names resolve at run time
    lhs_name = head.text
    ts.expect("==")
    scale = 1
    if ts.at_kind("number"):
        scale = ts.expect_number()
        if scale == 0 and ts.done():
            def run_zero():
                s = _resolve_symbol(env, lhs_name, task_name)
                ok = s.is_zero()
                return PASS if ok else FAIL, "" if ok else f"{s!r} is not zero", {}
            env.tasks.append(Task(task_name, "assert", run_zero))
            return
        ts.accept("*")
    sign = -1 if ts.accept("-") else 1
    rhs_tok = ts.expect_ident()
    rhs_name = rhs_tok.text

    def run_cmp():
        s1 = _resolve_symbol(env, lhs_name, task_name)
        s2 = _resolve_symbol(env, rhs_name, task_name).scale(scale * sign)
        ok = s1.equal(s2)
        return PASS if ok else FAIL, "" if ok else f"{s1!r} != {scale}*{s2!r}", {}

    env.tasks.append(Task(task_name, "assert", run_cmp))


def _resolve_symbol(env: Scenario, name: str, task: str) -> KoszulFraction:
    if name not in env.symbols:
        raise EngineError(f"unknown symbol {name!r} (needed by {task})")
    return env.symbols[name]


def _stmt_vanish(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    kw = ts.expect_ident()
    if kw.text != "cl":
        raise ScenarioError("expected cl(V)", kw.line, kw.col)
    ts.expect("(")
    V = _ref(ts, env.primes, "prime component")
    ts.expect(")")
    ts.expect("factor")
    ring = V.space.ring
    factor_indices = set(_comma_list(_bracketed(ts, "(", ")"), lambda g: _var_index(g, ring)))
    ts.expect("codim")
    r = ts.expect_number()
    ts.expect("params")
    ts.expect("(")
    pf = _poly_list(_bracketed(ts, "(", ")"), ring, allow_empty=True)
    ts.expect(";")
    pr = _poly_list(_bracketed(ts, "(", ")"), ring, allow_empty=True)
    ts.expect(")")
    chart = _ref(ts, env.charts, "chart") if ts.accept("chart") else NO_CHART
    witness = _parse_point(ts) if ts.accept("witness") else None

    def run():
        rep = vanishing_check(V, factor_indices, r, pf, pr, chart, witness)
        ok = rep.all_vanish
        return (
            PASS if ok else FAIL,
            "" if ok else f"non-vanishing components: {[q for q, v in rep.verdicts if not v]}",
            {"verdicts": rep.verdicts},
        )

    env.tasks.append(Task(name, "vanish", run))


def _stmt_push(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    ts.expect("push")
    a = _ref(ts, env.cycles, "cycle")
    ts.expect("along")
    f = _ref(ts, env.morphisms, "morphism")
    ts.expect("into")
    psi = _ref(ts, env.families, "support family")
    ts.expect("expect")
    expected = _parse_cycle_body(env, ts)

    def run():
        out = push_forward(a, f, psi)
        env.cycles[name] = out
        ok = out == expected
        return PASS if ok else FAIL, "" if ok else f"{out!r} != {expected!r}", {}

    env.tasks.append(Task(name, "push", run))


def _stmt_divisor(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    kw = ts.expect_ident()
    if kw.text != "div":
        raise ScenarioError("expected div(...)", kw.line, kw.col)
    body = _bracketed(ts, "(", ")")
    ts.expect("on")
    space = _ref(ts, env.space_table, "space")
    if space.blocks[0].kind == "affine":
        ring = Ring((space.blocks[0].names[0],), space.ring.field)
    else:
        ring = Ring(("t",), space.ring.field)
    num = parse_poly(body, ring)
    if body.accept("/"):
        den = parse_poly(body, ring)
    else:
        den = ring.one()
    body.require_done()
    expected = None
    if ts.accept("expect"):
        expected = _parse_cycle_body(env, ts, space=space)

    def run():
        out = principal_divisor_line(num, den, space)
        env.cycles[name] = out
        ok = True
        detail = ""
        if expected is not None:
            ok = out == expected
            if not ok:
                detail = f"{out!r} != {expected!r}"
        return PASS if ok else FAIL, detail, {"divisor": repr(out)}

    env.tasks.append(Task(name, "divisor", run))


_STATEMENTS = {
    "char": _stmt_char,
    "space": _stmt_space,
    "pair": _stmt_pair,
    "closed": _stmt_closed,
    "prime": _stmt_prime,
    "open": _stmt_open,
    "chart": _stmt_chart,
    "morphism": _stmt_morphism,
    "support": _stmt_support,
    "cycle": _stmt_cycle,
    "corr": _stmt_corr,
    "graph": _stmt_graph,
    "compose": _stmt_compose,
    "projector": _stmt_projector,
    "identity": _stmt_identity,
    "property": _stmt_property,
    "symbol": _stmt_symbol,
    "class": _stmt_class,
    "trace": _stmt_trace,
    "assert": _stmt_assert,
    "vanish": _stmt_vanish,
    "push": _stmt_push,
    "divisor": _stmt_divisor,
}


# ---------------------------------------------------------------------------
# runner

def run_scenario(env: Scenario) -> Report:
    report = Report(characteristic=env.characteristic, budgets=asdict(env.budget))
    start = time.time()
    with budget_scope(env.budget):
        for task in env.tasks:
            report.add(run_check(task.name, task.kind, task.run))
    report.timing_seconds = time.time() - start
    return report


def run_scenario_text(text: str, characteristic: int | None = None) -> Report:
    return run_scenario(parse_scenario(text, characteristic))
