"""Scenario files: a small declarative language for batch runs.

Statements run in file order, so a name means what the statements above it
made.  Declarations (spaces, closed sets, declared-prime components,
morphisms, support families, charts, correspondences with graph data) build
the environment; each task (compose, projector, identity, class, property,
assert, vanish, push, divisor, a correspondence's P check) is one report
entry, and a compose, class, push or divisor task's value is a name too.

Each statement is read to its end before any of its algebra runs.  Malformed
text, or a name no statement above declared, ends the run with a positioned
`ScenarioError` at any budget.  Else a name read whose statement made no value,
and then a budget trip in the build, is the statement's `error` entry, and its
own name then has no value.

Grammar sketch (statements end at newline or ';' outside brackets; '#' starts
a comment).  Each statement head and the separator after its declared name
('=', ':' or none) live in `_STATEMENTS`; `parse_scenario` reads the
`NAME separator` prelude and hands the name to the statement's handler:

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
from collections import ChainMap, Counter
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

from .corr import (
    CompositionResult,
    Correspondence,
    GraphData,
    compose_localized,
    pair_product,
    projector_check,
)
from .cycles import Cycle, principal_divisor_line, push_forward
from .errors import BudgetExceeded, EngineError, PolicyReject, ScenarioError
from .forms import Form, wedge_all
from .geometry import (
    Block,
    ClosedSet,
    Morphism,
    PrimeComponent,
    Space,
)
from .groebner import Ideal
from .poly import Poly, Ring
from .report import (
    FAIL,
    PASS,
    POLICY_REJECT,
    Report,
    compared,
    run_checks,
)
from .residues import FinitePresentation, trace_form, trace_property_check
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


class Token:
    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # 'number' | 'ident' | 'op' | 'end'
        self.text = text
        self.line = line
        self.col = col


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

    def peek(self, ahead: int = 0) -> Token:
        i = self.pos + ahead
        if i < len(self.tokens):
            return self.tokens[i]
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

def _signed_sum(ts: TokenStream, term):
    """`[+|-] TERM {+|- TERM}`, each TERM read by `term(ts)`, summed left to right."""
    neg = not ts.accept("+") and ts.accept("-")
    out = -term(ts) if neg else term(ts)
    while ts.at("+") or ts.at("-"):
        neg = ts.next().text == "-"
        t = term(ts)
        out = out - t if neg else out + t
    return out


def parse_poly(ts: TokenStream, ring: Ring) -> Poly:
    """Read one polynomial in `ring` from `ts` (the literal syntax in the module docstring)."""
    return _signed_sum(ts, lambda ts: _poly_term(ts, ring))


def _starts_poly_atom(ts: TokenStream) -> bool:
    tok = ts.peek()
    return tok.kind in ("number", "ident") or tok.text == "("


def _poly_term(ts: TokenStream, ring: Ring) -> Poly:
    out = _poly_factor(ts, ring)
    while ts.accept("*") or _starts_poly_atom(ts):
        out = out * _poly_factor(ts, ring)
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
        if ts.peek(1).text == "/" and ts.peek(2).kind == "number":
            return ring.const(_fraction(ts, ring.field.characteristic))
        return ring.const(ts.expect_number())
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


def _fraction(ts: TokenStream, characteristic: int) -> Fraction:
    """`INT / INT`; a denominator that is zero in `characteristic` is an error at it."""
    num = ts.expect_number()
    ts.expect("/")
    tok = ts.peek()
    den = ts.expect_number()
    if den == 0 or characteristic and den % characteristic == 0:
        raise ScenarioError(f"denominator {den} is zero in characteristic {characteristic}", tok.line, tok.col)
    return Fraction(num, den)


def parse_form(ts: TokenStream, ring: Ring) -> Form:
    """Read one differential form with coefficients in `ring` from `ts`."""
    return _signed_sum(ts, lambda ts: _form_term(ts, ring))


def _form_term(ts: TokenStream, ring: Ring) -> Form:
    out = _form_primary(ts, ring)
    while ts.accept("^"):
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
        elif tok.kind == "ident" and tok.text == "d" and ts.peek(1).text == "(":
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
        raise ScenarioError(f"expected a form, found {tok.text!r}", tok.line, tok.col)
    return wedge_all([Form.from_poly(coeff)] + forms)


# ---------------------------------------------------------------------------
# environment

class Scenario:
    def __init__(self):
        self.characteristic = 0
        self.char_locked = False
        self.spaces = {}  # a pair's name -> its product space
        self.closeds = {}  # a prime's name -> its closed set
        self.primes = {}
        self.opens = {}  # name -> bad-locus ClosedSet
        self.charts = {}
        self.morphisms = {}
        self.families = {}
        self.cycles = {}
        self.corrs = {}
        self.traces = {}  # name -> FinitePresentation
        self.symbols = {}
        self.compositions = {}
        self.failure: EngineError | None = None  # why the statement being done is an `error` entry
        self.report: Report | None = None


class _Unbuilt(SimpleNamespace):
    """A name's stand-in until its statement stores the value: what reading knows of it (its space, say)."""


def parse_scenario(text: str, characteristic: int | None = None) -> Scenario:
    """Run a scenario's statements in file order; `env.report` is the run's
    report.  A caller-supplied characteristic overrides the file's own `char`
    statement (so one file can be rerun over several fields)."""
    env = Scenario()
    if characteristic is not None:
        env.characteristic = characteristic
        env.char_locked = True
    env.report = run_checks(env.characteristic, _statements(env, text))
    env.report.characteristic = env.characteristic  # as a `char` statement left it
    return env


def _statements(env: Scenario, text: str):
    """Do each statement, yielding the `(name, kind, check)` of its report
    entry, if it has one, for `run_checks` to run before the next statement
    is read.  A statement with no declared name is named by its head and
    count (`assert_2`).

    A handler reads its whole statement, starting no Gröbner run, and returns a
    declaration's build or a task's `(name, kind, run)`.  A positioned error comes
    first, then the first name read that has no value, then a trip in the build."""
    counts: Counter = Counter()
    for tokens in tokenize(text):
        ts = TokenStream(tokens)
        head = ts.expect_ident()
        if head.text not in _STATEMENTS:
            raise ScenarioError(f"unknown statement {head.text!r}", head.line, head.col)
        handler, separator = _STATEMENTS[head.text]
        counts[head.text] += 1
        name = f"{head.text}_{counts[head.text]}"
        if separator is not None:
            name = ts.expect_ident().text
            ts.expect(separator)
        env.failure = None
        try:
            entry = handler(env, name, ts)
            ts.require_done()
            if env.failure is None and callable(entry):
                entry = entry()  # a declaration's build: None, or a correspondence's P task
        except ScenarioError:
            raise
        except BudgetExceeded as exc:
            env.failure = exc
        except EngineError as exc:
            # raised below the parser, so it carries no position: give it the statement's
            raise ScenarioError(str(exc), head.line, head.col) from exc
        if env.failure is not None:
            yield name, head.text, partial(_reraise, env.failure)
        elif entry is not None:
            yield entry


def _reraise(exc: EngineError):
    raise exc


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


def _ref(env: Scenario, ts: TokenStream, table, what: str):
    """Read a name and look it up in `table`.  A name that no statement above
    declared is a positioned error; one whose statement made no value gives its
    stand-in, so the statement reads on, and the first such is `env.failure`."""
    tok = ts.expect_ident()
    if tok.text not in table:
        raise ScenarioError(f"unknown {what} {tok.text!r}", tok.line, tok.col)
    value = table[tok.text]
    if isinstance(value, _Unbuilt) and env.failure is None:
        env.failure = EngineError(f"{what} {tok.text!r} has no value: its statement failed")
    return value


def _declare(table: dict, name: str, make, **known):
    """Put `name`'s stand-in, carrying `known`, in `table`; the build replaces it by `make()`."""
    table[name] = _Unbuilt(**known)
    return lambda: table.__setitem__(name, make())


def _one_of(ts: TokenStream, choices: tuple, message: str) -> str:
    """Read a keyword that must be one of `choices`; any other name is `message`, at the name."""
    tok = ts.expect_ident()
    if tok.text not in choices:
        raise ScenarioError(message, tok.line, tok.col)
    return tok.text


def _comma_list(group: TokenStream, read, allow_empty: bool = False) -> list:
    """The comma-separated items filling `group` (from `_bracketed`), each read by `read(group)`."""
    items = []
    if not (allow_empty and group.done()):
        items.append(read(group))
        while group.accept(","):
            items.append(read(group))
    group.require_done()
    return items


def _scale(ts: TokenStream) -> int:
    """`[-] [INT] [*]`: a signed integer factor, 1 when the number is omitted."""
    sign = -1 if ts.accept("-") else 1
    k = sign * (ts.expect_number() if ts.at_kind("number") else 1)
    ts.accept("*")
    return k


def _var_index(ts: TokenStream, ring: Ring) -> int:
    """Read a variable name and return its index in `ring`, positioned at the name."""
    tok = ts.expect_ident()
    try:
        return ring.index(tok.text)
    except EngineError as exc:
        raise ScenarioError(str(exc), tok.line, tok.col) from None


def _poly_list(group: TokenStream, ring: Ring, allow_empty: bool = False) -> list:
    return _comma_list(group, lambda g: parse_poly(g, ring), allow_empty)


def _closed_literal(env: Scenario, ts: TokenStream) -> tuple:
    """`{ p, ... } on SPACE` (the ring is named after the braces): the space and the set's build."""
    gens = _bracketed(ts, "{", "}")
    ts.expect("on")
    space = _ref(env, ts, env.spaces, "space")
    return space, partial(ClosedSet, space, Ideal(space.ring, _poly_list(gens, space.ring, allow_empty=True)))


# ---------------------------------------------------------------------------
# statement handlers

def _stmt_char(env: Scenario, _name: None, ts: TokenStream):
    if env.spaces:
        tok = ts.peek()
        raise ScenarioError("char must precede all declarations", tok.line, tok.col)
    value = ts.expect_number()
    return lambda: setattr(env, "characteristic", env.characteristic if env.char_locked else value)


def _parse_blocks(ts: TokenStream) -> list:
    def one_block(ts: TokenStream) -> Block:
        kind = _one_of(ts, ("affine", "proj"), "expected affine(...) or proj(...)")
        names = _comma_list(_bracketed(ts, "(", ")"), lambda g: g.expect_ident().text)
        return Block(kind, tuple(names))

    if ts.accept("space"):
        return _comma_list(_bracketed(ts, "(", ")"), one_block)
    return [one_block(ts)]


def _stmt_space(env: Scenario, name: str, ts: TokenStream):
    return _declare(env.spaces, name, partial(Space, _parse_blocks(ts), env.characteristic))


def _stmt_pair(env: Scenario, name: str, ts: TokenStream):
    a = _ref(env, ts, env.spaces, "space")
    ts.expect("**")
    prod = pair_product(a, _ref(env, ts, env.spaces, "space"))
    return _declare(env.spaces, name, lambda: prod.space)


def _stmt_closed(env: Scenario, name: str, ts: TokenStream):
    space, make = _closed_literal(env, ts)
    return _declare(env.closeds, name, make, space=space)


def _stmt_prime(env: Scenario, name: str, ts: TokenStream):
    if ts.at("{"):
        space, make = _closed_literal(env, ts)
    else:
        ts.accept("closed")
        cs = _ref(env, ts, env.closeds, "closed set")
        space, make = cs.space, lambda: cs
    screen = not ts.accept("noscreen")
    env.primes[name] = env.closeds[name] = _Unbuilt(space=space)

    def build():
        env.primes[name] = PrimeComponent(make(), label=name, screen=screen)
        env.closeds[name] = env.primes[name].closed_set

    return build


def _stmt_open(env: Scenario, name: str, ts: TokenStream):
    space = _ref(env, ts, env.spaces, "space")
    ts.expect("minus")
    bad_tok = ts.peek()
    bad = _ref(env, ts, env.closeds, "closed set")
    if bad.space != space:
        raise ScenarioError("bad locus lives in the wrong space", bad_tok.line, bad_tok.col)
    return _declare(env.opens, name, lambda: bad)


def _stmt_chart(env: Scenario, name: str, ts: TokenStream):
    if _one_of(ts, ("invert", "full"), "expected invert(...) or full") == "full":
        ts.expect("on")
        _ref(env, ts, env.spaces, "space")
        return _declare(env.charts, name, lambda: NO_CHART)
    denoms = _bracketed(ts, "(", ")")
    ts.expect("on")
    space = _ref(env, ts, env.spaces, "space")
    return _declare(env.charts, name, partial(Chart, tuple(_poly_list(denoms, space.ring, allow_empty=True))))


def _stmt_morphism(env: Scenario, name: str, ts: TokenStream):
    src = _ref(env, ts, env.spaces, "space")
    ts.expect("->")
    tgt = _ref(env, ts, env.spaces, "space")
    ts.expect("=")
    ts.expect("(")
    # one tuple per target block, the tuples separated by ';'
    coords = [[parse_poly(ts, src.ring)]]
    while ts.at(",") or ts.at(";"):
        if ts.next().text == ";":
            coords.append([])
        coords[-1].append(parse_poly(ts, src.ring))
    ts.expect(")")
    domain = _ref(env, ts, env.closeds, "closed set") if ts.accept("on") else None
    f = Morphism(src, tgt, coords, domain)
    return _declare(env.morphisms, name, lambda: f, target=tgt)


def _stmt_support(env: Scenario, name: str, ts: TokenStream):
    if _one_of(ts, ("family", "full"), "expected family(...) or full") == "full":
        ts.expect("on")
        space = _ref(env, ts, env.spaces, "space")
        return _declare(env.families, name, partial(SupportFamily.full, space), space=space)
    members = _comma_list(
        _bracketed(ts, "(", ")"), lambda g: (g.peek(), _ref(env, g, env.closeds, "closed set")), allow_empty=True
    )
    if ts.accept("on"):
        space = _ref(env, ts, env.spaces, "space")
    elif members:
        space = members[0][1].space
    else:
        tok = ts.peek()
        raise ScenarioError("an empty family needs an 'on SPACE' clause", tok.line, tok.col)
    for tok, member in members:
        if member.space != space:
            raise ScenarioError("family generator in the wrong space", tok.line, tok.col)
    return _declare(env.families, name, partial(SupportFamily, space, [m for _, m in members]), space=space)


def _parse_cycle_body(env: Scenario, ts: TokenStream, space: Space | None = None) -> tuple:
    """INT*[P] +- ... with P declared primes; space inferred from the first.

    A bare name, a cycle's, is also accepted.  Returns the space and the cycle's build.
    """
    if ts.at_kind("ident"):
        cyc = _ref(env, ts, env.cycles, "cycle")
        return cyc.space, lambda: cyc
    terms = []
    sign = -1 if ts.accept("-") else 1
    while True:
        term_tok = ts.peek()
        mult = sign
        if ts.at_kind("number"):
            mult = sign * ts.expect_number()
            ts.accept("*")
        ts.expect("[")
        comp = _ref(env, ts, env.primes, "prime component")
        ts.expect("]")
        if space is None:
            space = comp.space
        if comp.space != space:
            raise ScenarioError("cycle components live on different spaces", term_tok.line, term_tok.col)
        terms.append((comp, mult))
        if not (ts.at("+") or ts.at("-")):
            return space, partial(Cycle, space, terms)
        sign = -1 if ts.next().text == "-" else 1


def _stmt_cycle(env: Scenario, name: str, ts: TokenStream):
    if ts.accept("0"):
        ts.expect("on")
        space = _ref(env, ts, env.spaces, "space")
        return _declare(env.cycles, name, partial(Cycle, space, {}), space=space)
    space, make = _parse_cycle_body(env, ts)
    if ts.accept("on"):
        sp_tok = ts.peek()
        if space != _ref(env, ts, env.spaces, "space"):
            raise ScenarioError("cycle is not on the declared space", sp_tok.line, sp_tok.col)
    family = None
    if ts.accept("with"):
        ts.expect("support")
        fam_tok = ts.peek()
        family = _ref(env, ts, env.families, "support family")
        if family.space != space:
            raise ScenarioError("support family on the wrong space", fam_tok.line, fam_tok.col)
    return _declare(env.cycles, name, lambda: make() if family is None else make().with_family(family), space=space)


def _stmt_corr(env: Scenario, name: str, ts: TokenStream):
    def side():
        ts.expect("[")
        var = _ref(env, ts, env.primes, "prime component")
        ts.expect(",")
        fam = _ref(env, ts, env.families, "support family")
        ts.expect("]")
        return var, fam

    src_var, src_fam = side()
    ts.expect("=>")
    tgt_var, tgt_fam = side()
    ts.expect("=")
    cycle_tok = ts.peek()
    if ts.accept("cycle"):
        cyc = _ref(env, ts, env.cycles, "cycle")
        space, make = cyc.space, lambda: cyc
    else:
        space, make = _parse_cycle_body(env, ts)
    if space != pair_product(src_var.space, tgt_var.space).space:
        raise ScenarioError("correspondence cycle not on the pair space", cycle_tok.line, cycle_tok.col)
    waive = set()
    if ts.accept("waive"):
        ts.expect("P")
        waive = set(_comma_list(_bracketed(ts, "(", ")"), lambda g: g.expect_ident().text))
    env.corrs[name] = _Unbuilt()

    def build():
        corr = env.corrs[name] = Correspondence(src_var, src_fam, tgt_var, tgt_fam, make())
        return f"{name}_P", "corr-P", partial(run_P, corr)

    def run_P(corr):
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

    return build


def _stmt_graph(env: Scenario, _name: None, ts: TokenStream):
    corr = _ref(env, ts, env.corrs, "correspondence")
    ts.expect(".")
    comp = _ref(env, ts, env.primes, "prime component")
    ts.expect("=")
    kind = _one_of(ts, ("graph", "transpose"), "expected graph or transpose")
    data = GraphData(kind, _ref(env, ts, env.morphisms, "morphism"))
    return lambda: corr.attach_graph(comp, data)


def _parse_point(ts: TokenStream, characteristic: int) -> dict:
    def coordinate(ts: TokenStream):
        name = ts.expect_ident().text
        ts.expect("=")
        sign = -1 if ts.accept("-") else 1
        if ts.peek(1).text == "/":
            # kept as written, for the audit's witness record; every use
            # evaluates it through field.coerce (point_by_name_to_index)
            return name, sign * _fraction(ts, characteristic)
        return name, sign * ts.expect_number()

    return dict(_comma_list(_bracketed(ts, "(", ")"), coordinate))


def _corr_compose_clauses(env: Scenario, ts: TokenStream) -> dict:
    """The `over open`, `witness` and `split` clauses, as the keywords of
    `compose_localized`."""
    clauses: dict = {"hint": None, "witnesses": [], "split": {}}
    while True:
        if ts.accept("over"):
            ts.expect("open")
            clauses["hint"] = _ref(env, ts, env.opens, "open")
        elif ts.accept("witness"):
            clauses["witnesses"].append(_parse_point(ts, env.characteristic))
        elif ts.accept("split"):
            ts.expect("(")
            a_tok = ts.expect_ident()
            ts.expect(",")
            b_tok = ts.expect_ident()
            ts.expect(")")
            ts.expect("into")
            clauses["split"][(a_tok.text, b_tok.text)] = _comma_list(
                _bracketed(ts, "[", "]"), lambda g: _ref(env, g, env.primes, "prime component")
            )
        else:
            return clauses


def _corr_ref(env: Scenario, ts: TokenStream):
    """A correspondence's name, or an earlier composite's (its main term, carrying
    whatever graph data composed through), as the build of the correspondence."""
    corr = _ref(env, ts, ChainMap(env.corrs, env.compositions), "correspondence")
    return corr.to_correspondence if isinstance(corr, CompositionResult) else lambda: corr


def _operands(env: Scenario, ts: TokenStream):
    """`B . A`, the composite of A then B, as the build of the pair (A, B)."""
    b = _corr_ref(env, ts)
    ts.expect(".")
    a = _corr_ref(env, ts)
    return lambda: (a(), b())


def _within_bound(verdict: tuple, results: list, bound: ClosedSet | None) -> tuple:
    """`verdict`, made a fail when a composite's error support escapes `bound`.

    The failure's audit records each composite's error support under
    `error_support`, unless the audit has that key already (a compose or
    projector audit is its composite's own, which records it).
    """
    if verdict[0] != PASS or all(r.error_within(bound) for r in results):
        return verdict
    supports = [r.audit["error_support"] for r in results]
    return FAIL, "error support escapes the declared bound", {"error_support": supports, **verdict[2]}


def _stmt_compose(env: Scenario, name: str, ts: TokenStream):
    operands = _operands(env, ts)
    clauses = _corr_compose_clauses(env, ts)
    expect = lambda main: main  # the main term the task wants, given the one it got
    bound = None
    if ts.accept("expect"):
        ts.expect("main")
        ts.expect("=")
        if ts.accept("0"):
            expect = lambda main: Cycle(main.space, {})
        else:
            _, make = _parse_cycle_body(env, ts)
            expect = lambda main: make()
        if ts.accept(","):
            ts.expect("error")
            ts.expect("within")
            bound = _ref(env, ts, env.closeds, "closed set")
    env.compositions[name] = _Unbuilt()

    def run():
        r = compose_localized(*operands(), **clauses)
        audit = {**r.audit, "codim_certificates": r.error_codim_certificates()}
        verdict = compared(r.main, expect(r.main), audit)
        verdict = verdict if bound is None else _within_bound(verdict, [r], bound)
        env.compositions[name] = r
        return verdict

    return name, "compose", run


def _stmt_projector(env: Scenario, name: str, ts: TokenStream):
    p = _corr_ref(env, ts)
    ts.expect("lambda")
    sign = -1 if ts.accept("-") else 1
    lam = sign * ts.expect_number()
    clauses = _corr_compose_clauses(env, ts)
    bound = None
    if ts.accept("bound"):
        bound = _ref(env, ts, env.closeds, "closed set")

    def run():
        corr = p()
        _, r = projector_check(corr, lam, bound=bound, **clauses)
        return _within_bound(compared(r.main, corr.cycle.scale(lam), r.audit), [r], bound)

    return name, "projector", run


def _stmt_identity(env: Scenario, name: str, ts: TokenStream):
    """identity name = k*(B . A) ~ m*(D . C) within S [over open U ...]

    Either side may also be k*cycle NAME (a plain scaled cycle).
    """

    def side():
        """(k, the side's cycle or the build of its composite's operand pair)."""
        k = _scale(ts)
        if ts.accept("cycle"):
            return k, _ref(env, ts, env.cycles, "cycle")
        ts.expect("(")
        operands = _operands(env, ts)
        ts.expect(")")
        return k, operands

    sides = [side()]
    ts.expect("~")
    sides.append(side())
    ts.expect("within")
    bound = _ref(env, ts, env.closeds, "closed set")
    clauses = _corr_compose_clauses(env, ts)

    def run():
        cycles, results = [], []
        for k, value in sides:
            if not isinstance(value, Cycle):
                results.append(compose_localized(*value(), **clauses))
                value = results[-1].main
            cycles.append(value.scale(k))
        lhs, rhs = cycles
        return _within_bound(compared(lhs, rhs, {"lhs": repr(lhs), "rhs": repr(rhs)}), results, bound)

    return name, "identity", run


def _stmt_property(env: Scenario, name: str, ts: TokenStream):
    """property NAME = TRACE {degree0|projection|degree} expect {pass|inapplicable}"""
    pres = _ref(env, ts, env.traces, "trace")
    which = _one_of(
        ts, ("degree0", "projection", "degree"), "expected degree0 | projection | degree"
    )
    ts.expect("expect")
    want = _one_of(ts, ("pass", "inapplicable"), "expected pass or inapplicable")

    def run():
        got = trace_property_check(pres, which)
        if got == "fail":
            return FAIL, f"{which} check failed", {}
        if got == want:
            # the check's results are the verdict strings PASS and INAPPLICABLE
            return got, "", {}
        return FAIL, f"expected {want}, got {got}", {}

    return name, "property", run


def _stmt_symbol(env: Scenario, name: str, ts: TokenStream):
    """symbol NAME = [ FORM / (t1, ...) ] on SPACE [chart C]"""
    body = _bracketed(ts, "[", "]")
    ts.expect("on")
    space = _ref(env, ts, env.spaces, "space")
    chart = _ref(env, ts, env.charts, "chart") if ts.accept("chart") else NO_CHART
    numerator = parse_form(body, space.ring)
    body.expect("/")
    denoms = _poly_list(_bracketed(body, "(", ")"), space.ring)
    body.require_done()
    return _declare(env.symbols, name, partial(KoszulFraction, numerator, tuple(denoms), chart))


def _stmt_class(env: Scenario, name: str, ts: TokenStream):
    _one_of(ts, ("cl",), "expected cl(W)")
    ts.expect("(")
    W = _ref(env, ts, env.primes, "prime component")
    ts.expect(")")
    ts.expect("at")
    ts.expect("chart")
    chart = _ref(env, ts, env.charts, "chart")
    ts.expect("with")
    ts.expect("params")
    params = _poly_list(_bracketed(ts, "(", ")"), W.space.ring)
    witness = _parse_point(ts, env.characteristic) if ts.accept("witness") else None
    env.symbols[name] = _Unbuilt()

    def run():
        frac = cycle_class_at_chart(W, params, chart, witness)
        env.symbols[name] = frac
        return PASS, "", {"symbol": repr(frac)}

    return name, "class", run


def _stmt_trace(env: Scenario, name: str, ts: TokenStream):
    _one_of(ts, ("trace",), "expected trace(...)")
    ts.expect("(")
    f = _ref(env, ts, env.morphisms, "morphism")
    ts.expect("via")
    p_tok = ts.peek()
    total = _ref(env, ts, env.spaces, "space")
    ts.expect(",")
    _one_of(ts, ("t",), "expected t = (...)")
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
    pres = FinitePresentation(total.ring, base_names, fiber_names, tuple(tseq))
    return _declare(env.traces, name, lambda: pres, ring=pres.ring, base_ring=pres.base_ring)


def _stmt_assert(env: Scenario, name: str, ts: TokenStream):
    """assert tf(FORM) == FORM  |  assert s == [-] [k] [*] [-] s2  |  assert s == 0"""
    if ts.peek(1).text == "(":
        pres = _ref(env, ts, env.traces, "trace")
        ts.expect("(")
        arg = parse_form(ts, pres.ring)
        ts.expect(")")
        ts.expect("==")
        if ts.at("0") and ts.peek(1) is ts.end:
            ts.next()
            rhs = None
        else:
            rhs = parse_form(ts, pres.base_ring())

        def run():
            out = trace_form(pres, arg)
            want = Form.zero(out.output.ring, out.output.degree) if rhs is None else rhs
            return compared(out.output, want, {"audit": out.audit})

        return name, "assert", run
    # otherwise a symbol comparison
    s1 = _ref(env, ts, env.symbols, "symbol")
    ts.expect("==")
    scale = _scale(ts)
    if scale == 0 and ts.done():
        s2 = s1  # s == 0 is s == 0 * s
    else:
        scale = -scale if ts.accept("-") else scale
        s2 = _ref(env, ts, env.symbols, "symbol")
    return name, "assert", lambda: compared(s1, s2.scale(scale), same=KoszulFraction.equal)


def _stmt_vanish(env: Scenario, name: str, ts: TokenStream):
    _one_of(ts, ("cl",), "expected cl(V)")
    ts.expect("(")
    V = _ref(env, ts, env.primes, "prime component")
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
    chart = _ref(env, ts, env.charts, "chart") if ts.accept("chart") else NO_CHART
    witness = _parse_point(ts, env.characteristic) if ts.accept("witness") else None

    def run():
        verdicts = vanishing_check(V, factor_indices, r, pf, pr, chart, witness)
        # the components that do not vanish, of which there must be none
        return compared([q for q, v in verdicts if not v], [], {"verdicts": verdicts})

    return name, "vanish", run


def _stmt_push(env: Scenario, name: str, ts: TokenStream):
    ts.expect("push")
    a = _ref(env, ts, env.cycles, "cycle")
    ts.expect("along")
    f = _ref(env, ts, env.morphisms, "morphism")
    ts.expect("into")
    psi = _ref(env, ts, env.families, "support family")
    ts.expect("expect")
    _, expected = _parse_cycle_body(env, ts)
    env.cycles[name] = _Unbuilt(space=f.target)

    def run():
        out = push_forward(a, f, psi)
        verdict = compared(out, expected())
        env.cycles[name] = out
        return verdict

    return name, "push", run


def _stmt_divisor(env: Scenario, name: str, ts: TokenStream):
    _one_of(ts, ("div",), "expected div(...)")
    body = _bracketed(ts, "(", ")")
    ts.expect("on")
    space = _ref(env, ts, env.spaces, "space")
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
        _, expected = _parse_cycle_body(env, ts, space=space)
    env.cycles[name] = _Unbuilt(space=space)

    def run():
        out = principal_divisor_line(num, den, space)
        verdict = compared(out, out if expected is None else expected(), {"divisor": repr(out)})
        env.cycles[name] = out
        return verdict

    return name, "divisor", run


_STATEMENTS = {  # head -> (handler, what follows the declared name; None: no name)
    "char": (_stmt_char, None),
    "space": (_stmt_space, "="),
    "pair": (_stmt_pair, "="),
    "closed": (_stmt_closed, "="),
    "prime": (_stmt_prime, "="),
    "open": (_stmt_open, "="),
    "chart": (_stmt_chart, "="),
    "morphism": (_stmt_morphism, ":"),
    "support": (_stmt_support, "="),
    "cycle": (_stmt_cycle, "="),
    "corr": (_stmt_corr, ":"),
    "graph": (_stmt_graph, None),
    "compose": (_stmt_compose, "="),
    "projector": (_stmt_projector, "="),
    "identity": (_stmt_identity, "="),
    "property": (_stmt_property, "="),
    "symbol": (_stmt_symbol, "="),
    "class": (_stmt_class, "="),
    "trace": (_stmt_trace, "="),
    "assert": (_stmt_assert, None),
    "vanish": (_stmt_vanish, "="),
    "push": (_stmt_push, "="),
    "divisor": (_stmt_divisor, "="),
}


# ---------------------------------------------------------------------------
# runner

def run_scenario(env: Scenario) -> Report:
    """The report of a scenario that `parse_scenario` has run."""
    return env.report


def run_scenario_text(text: str, characteristic: int | None = None) -> Report:
    return parse_scenario(text, characteristic).report
