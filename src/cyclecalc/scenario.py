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
from .errors import EngineError, PolicyReject, ScenarioError
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
    ERROR,
    FAIL,
    INAPPLICABLE,
    PASS,
    POLICY_REJECT,
    Report,
    TaskResult,
)
from .residues import FinitePresentation, trace_form
from .supports import SupportFamily
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
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        last = self.tokens[-1] if self.tokens else Token("end", "", 0, 0)
        return Token("end", "", last.line, last.col)

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
            raise ScenarioError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)


# ---------------------------------------------------------------------------
# expression parsing

def parse_poly(ts: TokenStream, ring: Ring) -> Poly:
    return _poly_expr(ts, ring)


def _poly_expr(ts: TokenStream, ring: Ring) -> Poly:
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
        inner = _poly_expr(ts, ring)
        ts.expect(")")
        return inner
    raise ScenarioError(f"expected a polynomial, found {tok.text!r}", tok.line, tok.col)


def parse_form(ts: TokenStream, ring: Ring) -> Form:
    return _form_expr(ts, ring)


def _form_expr(ts: TokenStream, ring: Ring) -> Form:
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
            sub = _form_expr(ts, ring)
            ts.expect("]")
            forms.append(sub)
            saw_any = True
        elif tok.kind == "ident" and tok.text == "d" and ts.tokens[ts.pos + 1 : ts.pos + 2] and ts.tokens[ts.pos + 1].text == "(":
            ts.next()
            ts.expect("(")
            inner = _poly_expr(ts, ring)
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
    run: object  # callable -> TaskResult


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

    def space_of(self, name: str, tok: Token) -> Space:
        if name in self.spaces:
            return self.spaces[name]
        if name in self.pairs:
            return self.pairs[name].space
        raise ScenarioError(f"unknown space {name!r}", tok.line, tok.col)

    def closed_of(self, name: str, tok: Token) -> ClosedSet:
        if name in self.closeds:
            return self.closeds[name]
        if name in self.primes:
            return self.primes[name].closed_set
        raise ScenarioError(f"unknown closed set {name!r}", tok.line, tok.col)

    def prime_of(self, name: str, tok: Token) -> PrimeComponent:
        if name not in self.primes:
            raise ScenarioError(f"unknown prime component {name!r}", tok.line, tok.col)
        return self.primes[name]

    def family_of(self, name: str, tok: Token) -> SupportFamily:
        if name not in self.families:
            raise ScenarioError(f"unknown support family {name!r}", tok.line, tok.col)
        return self.families[name]


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
        handler(env, ts)
        ts.require_done()
    return env


# ---------------------------------------------------------------------------
# statement handlers

def _stmt_char(env: Scenario, ts: TokenStream):
    if env.spaces or env.pairs:
        tok = ts.peek()
        raise ScenarioError("char must precede all declarations", tok.line, tok.col)
    value = ts.expect_number()
    if not env.char_locked:
        env.characteristic = value


def _parse_blocks(env: Scenario, ts: TokenStream) -> list:
    blocks = []

    def one_block() -> Block:
        kind_tok = ts.expect_ident()
        if kind_tok.text not in ("affine", "proj"):
            raise ScenarioError("expected affine(...) or proj(...)", kind_tok.line, kind_tok.col)
        ts.expect("(")
        names = [ts.expect_ident().text]
        while ts.accept(","):
            names.append(ts.expect_ident().text)
        ts.expect(")")
        return Block(kind_tok.text, tuple(names))

    if ts.at("space"):
        ts.next()
        ts.expect("(")
        blocks.append(one_block())
        while ts.accept(","):
            blocks.append(one_block())
        ts.expect(")")
    else:
        blocks.append(one_block())
    return blocks


def _stmt_space(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    blocks = _parse_blocks(env, ts)
    env.spaces[name] = Space(blocks, env.characteristic)


def _stmt_pair(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    a = ts.expect_ident()
    ts.expect("**")
    b = ts.expect_ident()
    env.pairs[name] = pair_product(env.space_of(a.text, a), env.space_of(b.text, b))


def _parse_gens(ts: TokenStream, ring: Ring) -> list:
    ts.expect("{")
    gens = []
    if not ts.at("}"):
        gens.append(_poly_expr(ts, ring))
        while ts.accept(","):
            gens.append(_poly_expr(ts, ring))
    ts.expect("}")
    return gens


def _stmt_closed(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    # need the space first: peek ahead after gens via 'on'
    save = ts.pos
    ts.expect("{")
    depth = 1
    while depth:
        t = ts.next()
        if t.text == "{":
            depth += 1
        elif t.text == "}":
            depth -= 1
    ts.expect("on")
    sp_tok = ts.expect_ident()
    space = env.space_of(sp_tok.text, sp_tok)
    end = ts.pos
    ts.pos = save
    gens = _parse_gens(ts, space.ring)
    ts.pos = end
    env.closeds[name] = ClosedSet(space, Ideal(space.ring, gens))


def _stmt_prime(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    if ts.at("closed"):
        ts.next()
        ref = ts.expect_ident()
        cs = env.closed_of(ref.text, ref)
    elif ts.at("{"):
        save = ts.pos
        depth = 0
        while True:
            t = ts.next()
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                if depth == 0:
                    break
        ts.expect("on")
        sp_tok = ts.expect_ident()
        space = env.space_of(sp_tok.text, sp_tok)
        end = ts.pos
        ts.pos = save
        gens = _parse_gens(ts, space.ring)
        ts.pos = end
        cs = ClosedSet(space, Ideal(space.ring, gens))
    else:
        ref = ts.expect_ident()
        cs = env.closed_of(ref.text, ref)
    screen = not ts.accept("noscreen")
    env.primes[name] = PrimeComponent(cs, label=name, screen=screen)


def _stmt_open(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    sp_tok = ts.expect_ident()
    space = env.space_of(sp_tok.text, sp_tok)
    ts.expect("minus")
    bad_tok = ts.expect_ident()
    bad = env.closed_of(bad_tok.text, bad_tok)
    if bad.space != space:
        raise ScenarioError("bad locus lives in the wrong space", bad_tok.line, bad_tok.col)
    env.opens[name] = bad


def _stmt_chart(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    kw = ts.expect_ident()
    if kw.text == "full":
        ts.expect("on")
        sp = ts.expect_ident()
        env.space_of(sp.text, sp)
        env.charts[name] = NO_CHART
        return
    if kw.text != "invert":
        raise ScenarioError("expected invert(...) or full", kw.line, kw.col)
    save = ts.pos
    ts.expect("(")
    depth = 1
    while depth:
        t = ts.next()
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
    ts.expect("on")
    sp_tok = ts.expect_ident()
    space = env.space_of(sp_tok.text, sp_tok)
    end = ts.pos
    ts.pos = save
    ts.expect("(")
    denoms = []
    if not ts.at(")"):
        denoms.append(_poly_expr(ts, space.ring))
        while ts.accept(","):
            denoms.append(_poly_expr(ts, space.ring))
    ts.expect(")")
    ts.pos = end
    env.charts[name] = Chart(tuple(denoms))


def _stmt_morphism(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect(":")
    src_tok = ts.expect_ident()
    src = env.space_of(src_tok.text, src_tok)
    ts.expect("->")
    tgt_tok = ts.expect_ident()
    tgt = env.space_of(tgt_tok.text, tgt_tok)
    ts.expect("=")
    ts.expect("(")
    coords = []
    tup = [parse_poly_block(ts, src.ring)]
    while True:
        if ts.accept(","):
            tup.append(parse_poly_block(ts, src.ring))
        elif ts.accept(";"):
            coords.append(tuple(tup))
            tup = [parse_poly_block(ts, src.ring)]
        else:
            break
    coords.append(tuple(tup))
    ts.expect(")")
    domain = None
    if ts.accept("on"):
        ref = ts.expect_ident()
        domain = env.closed_of(ref.text, ref)
    env.morphisms[name] = Morphism(src, tgt, coords, domain)


def parse_poly_block(ts: TokenStream, ring: Ring) -> Poly:
    return _poly_expr(ts, ring)


def _stmt_support(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    kw = ts.expect_ident()
    if kw.text == "full":
        ts.expect("on")
        sp_tok = ts.expect_ident()
        space = env.space_of(sp_tok.text, sp_tok)
        env.families[name] = SupportFamily.full(space)
        return
    if kw.text != "family":
        raise ScenarioError("expected family(...) or full", kw.line, kw.col)
    ts.expect("(")
    members = []
    if not ts.at(")"):
        ref = ts.expect_ident()
        members.append(env.closed_of(ref.text, ref))
        while ts.accept(","):
            ref = ts.expect_ident()
            members.append(env.closed_of(ref.text, ref))
    ts.expect(")")
    if ts.accept("on"):
        sp_tok = ts.expect_ident()
        space = env.space_of(sp_tok.text, sp_tok)
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
        tok = ts.next()
        return env.cycles[tok.text]
    terms: dict = {}

    def one_term(sign: int):
        mult = sign
        if ts.at_kind("number"):
            mult = sign * ts.expect_number()
            ts.accept("*")
        ts.expect("[")
        ref = ts.expect_ident()
        comp = env.prime_of(ref.text, ref)
        ts.expect("]")
        terms[comp] = terms.get(comp, 0) + mult
        return comp

    sign = -1 if ts.accept("-") else 1
    first = one_term(sign)
    sp = space or first.space
    while ts.at("+") or ts.at("-"):
        s = -1 if ts.next().text == "-" else 1
        one_term(s)
    for comp in terms:
        if comp.space != sp:
            raise ScenarioError("cycle components live on different spaces", 0, 0)
    return Cycle(sp, terms)


def _stmt_cycle(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    if ts.accept("0"):
        ts.expect("on")
        sp_tok = ts.expect_ident()
        env.cycles[name] = Cycle(env.space_of(sp_tok.text, sp_tok), {})
        return
    cyc = _parse_cycle_body(env, ts)
    if ts.accept("on"):
        sp_tok = ts.expect_ident()
        space = env.space_of(sp_tok.text, sp_tok)
        if cyc.space != space:
            raise ScenarioError("cycle is not on the declared space", sp_tok.line, sp_tok.col)
    if ts.accept("with"):
        ts.expect("support")
        fam_tok = ts.expect_ident()
        cyc = cyc.with_family(env.family_of(fam_tok.text, fam_tok))
    env.cycles[name] = cyc


def _stmt_corr(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect(":")
    ts.expect("[")
    src_tok = ts.expect_ident()
    src_var = env.prime_of(src_tok.text, src_tok)
    ts.expect(",")
    fam_tok = ts.expect_ident()
    src_fam = env.family_of(fam_tok.text, fam_tok)
    ts.expect("]")
    ts.expect("=>")
    ts.expect("[")
    tgt_tok = ts.expect_ident()
    tgt_var = env.prime_of(tgt_tok.text, tgt_tok)
    ts.expect(",")
    fam2_tok = ts.expect_ident()
    tgt_fam = env.family_of(fam2_tok.text, fam2_tok)
    ts.expect("]")
    ts.expect("=")
    if ts.at("cycle"):
        ts.next()
        ref = ts.expect_ident()
        if ref.text not in env.cycles:
            raise ScenarioError(f"unknown cycle {ref.text!r}", ref.line, ref.col)
        cyc = env.cycles[ref.text]
    else:
        cyc = _parse_cycle_body(env, ts)
    waive = set()
    if ts.accept("waive"):
        ts.expect("P")
        ts.expect("(")
        waive.add(ts.expect_ident().text)
        while ts.accept(","):
            waive.add(ts.expect_ident().text)
        ts.expect(")")
    corr = Correspondence(src_var, src_fam, tgt_var, tgt_fam, cyc)
    env.corrs[name] = corr

    def run_P() -> TaskResult:
        verdicts = {c.label: v.value for c, v in corr.p_verdicts().items()}
        bad = [l for l, v in verdicts.items() if v == "no" and l not in waive]
        rejected = [l for l, v in verdicts.items() if v == "policy-reject" and l not in waive]
        if bad:
            return TaskResult(f"{name}_P", "corr-P", FAIL, f"not in P(phi,psi): {bad}", {"verdicts": verdicts})
        if rejected:
            return TaskResult(
                f"{name}_P", "corr-P", POLICY_REJECT,
                f"properness not certifiable: {rejected}", {"verdicts": verdicts},
            )
        detail = f"waived: {sorted(waive)}" if waive else ""
        return TaskResult(f"{name}_P", "corr-P", PASS, detail, {"verdicts": verdicts})

    env.tasks.append(Task(f"{name}_P", "corr-P", run_P))


def _stmt_graph(env: Scenario, ts: TokenStream):
    corr_tok = ts.expect_ident()
    if corr_tok.text not in env.corrs:
        raise ScenarioError(f"unknown correspondence {corr_tok.text!r}", corr_tok.line, corr_tok.col)
    corr = env.corrs[corr_tok.text]
    ts.expect(".")
    comp_tok = ts.expect_ident()
    comp = env.prime_of(comp_tok.text, comp_tok)
    ts.expect("=")
    kind_tok = ts.expect_ident()
    if kind_tok.text not in ("graph", "transpose"):
        raise ScenarioError("expected graph or transpose", kind_tok.line, kind_tok.col)
    m_tok = ts.expect_ident()
    if m_tok.text not in env.morphisms:
        raise ScenarioError(f"unknown morphism {m_tok.text!r}", m_tok.line, m_tok.col)
    corr.attach_graph(comp, GraphData(kind_tok.text, env.morphisms[m_tok.text]), verify=True)


def _parse_point(env: Scenario, ts: TokenStream) -> dict:
    ts.expect("(")
    point = {}
    while True:
        name = ts.expect_ident().text
        ts.expect("=")
        sign = -1 if ts.accept("-") else 1
        num = ts.expect_number()
        if ts.accept("/"):
            den = ts.expect_number()
            point[name] = Fraction(sign * num, den)
        else:
            point[name] = sign * num
        if not ts.accept(","):
            break
    ts.expect(")")
    return point


def _corr_compose_clauses(env: Scenario, ts: TokenStream):
    hint = None
    witnesses = []
    split = {}
    while True:
        if ts.accept("over"):
            ts.expect("open")
            ref = ts.expect_ident()
            if ref.text not in env.opens:
                raise ScenarioError(f"unknown open {ref.text!r}", ref.line, ref.col)
            hint = env.opens[ref.text]
        elif ts.accept("witness"):
            witnesses.append(_parse_point(env, ts))
        elif ts.accept("split"):
            ts.expect("(")
            a_tok = ts.expect_ident()
            ts.expect(",")
            b_tok = ts.expect_ident()
            ts.expect(")")
            ts.expect("into")
            ts.expect("[")
            comps = [env.prime_of(ts.expect_ident().text, ts.peek())]
            while ts.accept(","):
                comps.append(env.prime_of(ts.expect_ident().text, ts.peek()))
            ts.expect("]")
            split[(a_tok.text, b_tok.text)] = comps
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
            ref = ts.expect_ident()
            expect_bound = env.closed_of(ref.text, ref)

    def run() -> TaskResult:
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
        return TaskResult(name, "compose", verdict, detail, audit)

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
        ref = ts.expect_ident()
        bound = env.closed_of(ref.text, ref)

    def run() -> TaskResult:
        p = _corr_operand(env, p_tok.text)
        ok, r = projector_check(
            p, lam, hint=hint, witnesses=witnesses, split=split or None, bound=bound
        )
        audit = dict(r.audit)
        audit["error_support"] = repr(r.error_support.ideal)
        return TaskResult(
            name, "projector", PASS if ok else FAIL,
            "" if ok else f"main {r.main!r} vs {lam} * {p.cycle!r}", audit,
        )

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
            ref = ts.expect_ident()
            if ref.text not in env.cycles:
                raise ScenarioError(f"unknown cycle {ref.text!r}", ref.line, ref.col)
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
    bound_tok = ts.expect_ident()
    bound = env.closed_of(bound_tok.text, bound_tok)
    hint, witnesses, split = _corr_compose_clauses(env, ts)

    def run() -> TaskResult:
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
        return TaskResult(name, "identity", PASS if ok else FAIL, detail, {
            "lhs": repr(lhs), "rhs": repr(rhs),
        })

    env.tasks.append(Task(name, "identity", run))


def _stmt_property(env: Scenario, ts: TokenStream):
    """property NAME = TRACE {degree0|projection|degree} expect {pass|inapplicable}"""
    name = ts.expect_ident().text
    ts.expect("=")
    tr_tok = ts.expect_ident()
    if tr_tok.text not in env.traces:
        raise ScenarioError(f"unknown trace {tr_tok.text!r}", tr_tok.line, tr_tok.col)
    pres = env.traces[tr_tok.text]
    which_tok = ts.expect_ident()
    if which_tok.text not in ("degree0", "projection", "degree"):
        raise ScenarioError("expected degree0 | projection | degree", which_tok.line, which_tok.col)
    ts.expect("expect")
    want_tok = ts.expect_ident()
    if want_tok.text not in ("pass", "inapplicable"):
        raise ScenarioError("expected pass or inapplicable", want_tok.line, want_tok.col)

    def run() -> TaskResult:
        from .residues import trace_property_check

        got = trace_property_check(pres, which_tok.text)
        if got == "fail":
            return TaskResult(name, "property", FAIL, f"{which_tok.text} check failed")
        if got == want_tok.text:
            verdict = PASS if got == "pass" else INAPPLICABLE
            return TaskResult(name, "property", verdict, "")
        return TaskResult(name, "property", FAIL, f"expected {want_tok.text}, got {got}")

    env.tasks.append(Task(name, "property", run))


def _stmt_symbol(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    # [ FORM / (t1, ...) ] on SPACE [chart C]
    save = ts.pos
    ts.expect("[")
    depth = 1
    while depth:
        t = ts.next()
        if t.text == "[":
            depth += 1
        elif t.text == "]":
            depth -= 1
    ts.expect("on")
    sp_tok = ts.expect_ident()
    space = env.space_of(sp_tok.text, sp_tok)
    chart = NO_CHART
    if ts.accept("chart"):
        ref = ts.expect_ident()
        if ref.text not in env.charts:
            raise ScenarioError(f"unknown chart {ref.text!r}", ref.line, ref.col)
        chart = env.charts[ref.text]
    end = ts.pos
    ts.pos = save
    ts.expect("[")
    numerator = _form_expr(ts, space.ring)
    ts.expect("/")
    ts.expect("(")
    denoms = [_poly_expr(ts, space.ring)]
    while ts.accept(","):
        denoms.append(_poly_expr(ts, space.ring))
    ts.expect(")")
    ts.expect("]")
    ts.pos = end
    env.symbols[name] = KoszulFraction(numerator, tuple(denoms), chart)


def _stmt_class(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    kw = ts.expect_ident()
    if kw.text != "cl":
        raise ScenarioError("expected cl(W)", kw.line, kw.col)
    ts.expect("(")
    w_tok = ts.expect_ident()
    W = env.prime_of(w_tok.text, w_tok)
    ts.expect(")")
    ts.expect("at")
    ts.expect("chart")
    chart_tok = ts.expect_ident()
    if chart_tok.text not in env.charts:
        raise ScenarioError(f"unknown chart {chart_tok.text!r}", chart_tok.line, chart_tok.col)
    chart = env.charts[chart_tok.text]
    ts.expect("with")
    ts.expect("params")
    ts.expect("(")
    ring = W.space.ring
    params = [_poly_expr(ts, ring)]
    while ts.accept(","):
        params.append(_poly_expr(ts, ring))
    ts.expect(")")
    witness = None
    if ts.accept("witness"):
        witness = _parse_point(env, ts)

    def run() -> TaskResult:
        frac = cycle_class_at_chart(W, params, chart, witness)
        env.symbols[name] = frac
        return TaskResult(name, "class", PASS, "", {"symbol": repr(frac)})

    env.tasks.append(Task(name, "class", run))


def _stmt_trace(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    kw = ts.expect_ident()
    if kw.text != "trace":
        raise ScenarioError("expected trace(...)", kw.line, kw.col)
    ts.expect("(")
    f_tok = ts.expect_ident()
    if f_tok.text not in env.morphisms:
        raise ScenarioError(f"unknown morphism {f_tok.text!r}", f_tok.line, f_tok.col)
    f = env.morphisms[f_tok.text]
    ts.expect("via")
    p_tok = ts.expect_ident()
    total = env.space_of(p_tok.text, p_tok)
    ts.expect(",")
    t_kw = ts.expect_ident()
    if t_kw.text != "t":
        raise ScenarioError("expected t = (...)", t_kw.line, t_kw.col)
    ts.expect("=")
    ts.expect("(")
    tseq = [_poly_expr(ts, total.ring)]
    while ts.accept(","):
        tseq.append(_poly_expr(ts, total.ring))
    ts.expect(")")
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
        arg = _form_expr(ts, pres.ring)
        ts.expect(")")
        ts.expect("==")
        if ts.at("0") and ts.tokens[ts.pos + 1 : ts.pos + 2] == []:
            ts.next()
            rhs = None
        else:
            rhs = _form_expr(ts, pres.base_ring())

        def run() -> TaskResult:
            out = trace_form(pres, arg)
            ok = out.output.is_zero() if rhs is None else out.output == rhs
            return TaskResult(
                task_name, "assert", PASS if ok else FAIL,
                "" if ok else f"{out.output} != {rhs}", {"audit": out.audit},
            )

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
            def run_zero() -> TaskResult:
                s = _resolve_symbol(env, lhs_name, task_name)
                ok = s.is_zero()
                return TaskResult(task_name, "assert", PASS if ok else FAIL,
                                  "" if ok else f"{s!r} is not zero", {})
            env.tasks.append(Task(task_name, "assert", run_zero))
            return
        ts.accept("*")
    sign = -1 if ts.accept("-") else 1
    rhs_tok = ts.expect_ident()
    rhs_name = rhs_tok.text

    def run_cmp() -> TaskResult:
        s1 = _resolve_symbol(env, lhs_name, task_name)
        s2 = _resolve_symbol(env, rhs_name, task_name).scale(scale * sign)
        ok = s1.equal(s2)
        return TaskResult(task_name, "assert", PASS if ok else FAIL,
                          "" if ok else f"{s1!r} != {scale}*{s2!r}", {})

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
    v_tok = ts.expect_ident()
    V = env.prime_of(v_tok.text, v_tok)
    ts.expect(")")
    ts.expect("factor")
    ts.expect("(")
    ring = V.space.ring
    factor_vars = [ts.expect_ident().text]
    while ts.accept(","):
        factor_vars.append(ts.expect_ident().text)
    ts.expect(")")
    factor_indices = {ring.index(v) for v in factor_vars}
    ts.expect("codim")
    r = ts.expect_number()
    ts.expect("params")
    ts.expect("(")
    ts.expect("(")
    pf = []
    if not ts.at(")"):
        pf.append(_poly_expr(ts, ring))
        while ts.accept(","):
            pf.append(_poly_expr(ts, ring))
    ts.expect(")")
    ts.expect(";")
    ts.expect("(")
    pr = []
    if not ts.at(")"):
        pr.append(_poly_expr(ts, ring))
        while ts.accept(","):
            pr.append(_poly_expr(ts, ring))
    ts.expect(")")
    ts.expect(")")
    chart = NO_CHART
    if ts.accept("chart"):
        ref = ts.expect_ident()
        chart = env.charts[ref.text]
    witness = None
    if ts.accept("witness"):
        witness = _parse_point(env, ts)

    def run() -> TaskResult:
        rep = vanishing_check(V, factor_indices, r, pf, pr, chart, witness)
        ok = rep.all_vanish
        return TaskResult(
            name, "vanish", PASS if ok else FAIL,
            "" if ok else f"non-vanishing components: {[q for q, v in rep.verdicts if not v]}",
            {"verdicts": rep.verdicts},
        )

    env.tasks.append(Task(name, "vanish", run))


def _stmt_push(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    ts.expect("push")
    cyc_tok = ts.expect_ident()
    if cyc_tok.text not in env.cycles:
        raise ScenarioError(f"unknown cycle {cyc_tok.text!r}", cyc_tok.line, cyc_tok.col)
    a = env.cycles[cyc_tok.text]
    ts.expect("along")
    f_tok = ts.expect_ident()
    if f_tok.text not in env.morphisms:
        raise ScenarioError(f"unknown morphism {f_tok.text!r}", f_tok.line, f_tok.col)
    f = env.morphisms[f_tok.text]
    ts.expect("into")
    fam_tok = ts.expect_ident()
    psi = env.family_of(fam_tok.text, fam_tok)
    ts.expect("expect")
    expected = _parse_cycle_body(env, ts)

    def run() -> TaskResult:
        out = push_forward(a, f, psi)
        env.cycles[name] = out
        ok = out == expected
        return TaskResult(
            name, "push", PASS if ok else FAIL,
            "" if ok else f"{out!r} != {expected!r}", {},
        )

    env.tasks.append(Task(name, "push", run))


def _stmt_divisor(env: Scenario, ts: TokenStream):
    name = ts.expect_ident().text
    ts.expect("=")
    kw = ts.expect_ident()
    if kw.text != "div":
        raise ScenarioError("expected div(...)", kw.line, kw.col)
    save = ts.pos
    ts.expect("(")
    depth = 1
    while depth:
        t = ts.next()
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
    ts.expect("on")
    sp_tok = ts.expect_ident()
    space = env.space_of(sp_tok.text, sp_tok)
    end = ts.pos
    ts.pos = save
    if space.blocks[0].kind == "affine":
        ring = Ring((space.blocks[0].names[0],), space.ring.field)
    else:
        ring = Ring(("t",), space.ring.field)
    ts.expect("(")
    num = _poly_expr(ts, ring)
    if ts.accept("/"):
        den = _poly_expr(ts, ring)
    else:
        den = ring.one()
    ts.expect(")")
    ts.pos = end
    expected = None
    if ts.accept("expect"):
        expected = _parse_cycle_body(env, ts, space=space)

    def run() -> TaskResult:
        out = principal_divisor_line(num, den, space)
        env.cycles[name] = out
        ok = True
        detail = ""
        if expected is not None:
            ok = _cycles_match(out, expected)
            if not ok:
                detail = f"{out!r} != {expected!r}"
        return TaskResult(name, "divisor", PASS if ok else FAIL, detail, {"divisor": repr(out)})

    env.tasks.append(Task(name, "divisor", run))


def _cycles_match(a: Cycle, b: Cycle) -> bool:
    """Cycle equality by component locus (labels may differ)."""
    if a.space != b.space or len(a.terms) != len(b.terms):
        return False
    for comp, mult in a.terms.items():
        hit = None
        for c2, m2 in b.terms.items():
            if c2.closed_set == comp.closed_set:
                hit = m2
                break
        if hit != mult:
            return False
    return True


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
            try:
                result = task.run()
            except PolicyReject as exc:
                result = TaskResult(task.name, task.kind, POLICY_REJECT, str(exc))
            except EngineError as exc:
                result = TaskResult(task.name, task.kind, ERROR, str(exc))
            report.add(result)
    report.timing_seconds = time.time() - start
    return report


def run_scenario_text(text: str, characteristic: int | None = None) -> Report:
    return run_scenario(parse_scenario(text, characteristic))
