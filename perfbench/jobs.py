"""Seeded inputs, the timed calls into cyclecalc, and their correctness checks.

Imported only by worker processes, after they have timed `import cyclecalc`.
Every input is a pure function of (seed, pass index), so a seed names a fixed
sequence of inputs.  A check returns None when the output is right and a
one-line reason when it is not; a job that raises is a failure too.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import time

from common import ROOT, pass_rng

from cyclecalc import Form, Ideal, block_order, buchberger_audit, degrevlex, ring_over
from cyclecalc.groebner import ideal_product
from cyclecalc.residues import FinitePresentation
from cyclecalc.symbols import KoszulFraction

# Timed calls go through module attributes, looked up at call time, so that
# the tracer's replacements of those attributes see them.  The modules come
# from importlib because `cyclecalc.groebner` is also the name of a function.
_axioms = importlib.import_module("cyclecalc.axioms")
_groebner = importlib.import_module("cyclecalc.groebner")
_residues = importlib.import_module("cyclecalc.residues")
_scenario = importlib.import_module("cyclecalc.scenario")

P = 32003
KERNEL_FIELDS = (P, 0)
TRACE_FIELDS = (0, P, 3)
TRACE_PROPERTIES = ("degree0", "projection", "degree")
TANGENCY_FIELDS = (0, P)


def field_name(char: int) -> str:
    return "QQ" if char == 0 else f"F{char}"


# ---------------------------------------------------------------------------
# scenario-corpus

def report_digest(report) -> dict:
    payload = report.to_json(with_timing=False).encode()
    return {"sha1": hashlib.sha1(payload).hexdigest(), "verdicts": report.counts()}


def check_corpus(job: str, digest: dict, refs: dict):
    want = refs.get(job)
    if want is None:
        return f"no reference for {job}"
    if digest["verdicts"] != want["verdicts"]:
        return f"verdicts {digest['verdicts']} != {want['verdicts']}"
    if digest["sha1"] != want["sha1"]:
        return f"report sha1 {digest['sha1']} != {want['sha1']}"
    return None


def run_corpus_job(job: str):
    """Runs one corpus job the way `engine run` / `engine axioms` would.

    Returns (parse seconds, task seconds, report).  The axiom harness has no
    parse step.
    """
    if job.startswith("axioms-char"):
        t0 = time.perf_counter()
        report = _axioms.run_axiom_harness(int(job[len("axioms-char"):]), False)
        return 0.0, time.perf_counter() - t0, report
    text = (ROOT / "scenarios" / f"{job}.scn").read_text()
    t0 = time.perf_counter()
    env = _scenario.parse_scenario(text)
    t1 = time.perf_counter()
    report = _scenario.run_scenario(env)
    return t1 - t0, time.perf_counter() - t1, report


# ---------------------------------------------------------------------------
# groebner-kernel: templates

def _cyclic(R):
    X = R.gens()
    n = len(X)
    out = []
    for k in range(1, n):
        s = R.zero()
        for i in range(n):
            m = R.one()
            for j in range(k):
                m = m * X[(i + j) % n]
            s = s + m
        out.append(s)
    prod = R.one()
    for x in X:
        prod = prod * x
    return out + [prod - 1]


def _katsura(R):
    U = R.gens()
    N = len(U) - 1

    def u(i):
        return U[abs(i)] if abs(i) <= N else R.zero()

    out = []
    for m in range(N):
        s = R.zero()
        for l in range(-N, N + 1):
            s = s + u(l) * u(m - l)
        out.append(s - u(m))
    s = R.zero()
    for l in range(-N, N + 1):
        s = s + u(l)
    return out + [s - 1]


def _surface(R):
    s, t, x, y, z = R.gens()
    return [x - (s * s * t + t), y - (s * t * t - s), z - (s * s + t * t)]


def _quartic(R):
    """The rational quartic curve (s^4 : s^3 t : s t^3 : t^4) in P^3."""
    x, y, z, w = R.gens()
    return [x * w - y * z, y**3 - x * x * z, z**3 - y * w * w, x * z * z - y * y * w]


KERNEL_TEMPLATES = {
    "cyclic5": ["x0", "x1", "x2", "x3", "x4"],
    "katsura4": ["u0", "u1", "u2", "u3", "u4"],
    "eliminate": ["s", "t", "x", "y", "z"],
    "saturate": ["x", "y", "z", "w"],
}


def kernel_scalings(rng: random.Random, char: int, n: int) -> list:
    """Units a_i for x_i -> a_i x_i.

    Over F_p they are uniform in [1, p).  Over QQ they are random signs, so
    the coefficient height, which sets the cost of rational arithmetic, is
    the same for every seed.
    """
    if char:
        return [rng.randrange(1, char) for _ in range(n)]
    return [rng.choice((1, -1)) for _ in range(n)]


def _rescale(polys, R, a):
    images = {i: R.var(i).scale(a[i]) for i in range(R.nvars)}
    return [p.substitute(images, R) for p in polys]


class KernelJob:
    """One Buchberger-layer job: a template over one field, diagonally rescaled."""

    def __init__(self, template: str, char: int, scalings: list):
        self.template = template
        self.char = char
        self.scalings = scalings
        self.name = f"{template}/{field_name(char)}"
        R = ring_over(char, KERNEL_TEMPLATES[template])
        self.ring = R
        if template == "cyclic5":
            self.ideal = Ideal(R, _rescale(_cyclic(R), R, scalings))
        elif template == "katsura4":
            self.ideal = Ideal(R, _rescale(_katsura(R), R, scalings))
        elif template == "eliminate":
            self.ideal = Ideal(R, _rescale(_surface(R), R, scalings))
        else:
            curve = _rescale(_quartic(R), R, scalings)
            self.curve = Ideal(R, curve)
            self.irrelevant = Ideal(R, _rescale(R.gens(), R, scalings))
            self.ideal = ideal_product(self.curve, self.irrelevant)

    def describe(self) -> str:
        return f"{self.name} a={self.scalings} gens={[str(g) for g in self.ideal.gens]}"

    def run(self):
        """The timed call."""
        if self.template == "eliminate":
            return _groebner.eliminate(self.ideal, ["s", "t"])
        if self.template == "saturate":
            return _groebner.saturate(self.ideal, self.irrelevant)
        return _groebner.groebner(self.ideal, degrevlex(self.ring.nvars))

    def basis(self, out):
        """The reduced basis whose leading exponents the references pin."""
        if self.template == "eliminate":
            # cache hit: the basis eliminate() just computed
            return _groebner.groebner(self.ideal, block_order([0, 1], [2, 3, 4]))
        if self.template == "saturate":
            return _groebner.groebner(out)
        return out

    def check(self, out, refs: dict):
        """Leading-exponent list, Buchberger audit, and the template's own identity."""
        gb = self.basis(out)
        want = refs["kernel_leads"].get(self.name)
        got = [list(e) for e in gb.lead_exps]
        if want is None:
            return f"no leading-exponent reference for {self.name}"
        if got != want:
            return f"leading exponents {got} != {want}"
        if not buchberger_audit(gb):
            return "Buchberger audit failed"
        if self.template == "eliminate" and not out.gens:
            return "elimination ideal is zero"
        if self.template == "saturate" and gb.basis != _groebner.groebner(self.curve).basis:
            return "saturation differs from the quartic's ideal"
        return None


def kernel_pass(seed: int, k: int) -> list:
    rng = pass_rng(seed, k)
    jobs = []
    for template, names in KERNEL_TEMPLATES.items():
        for char in KERNEL_FIELDS:
            jobs.append(KernelJob(template, char, kernel_scalings(rng, char, len(names))))
    return jobs


def kernel_leads() -> dict:
    """Leading-exponent lists of the unscaled templates (the references)."""
    out = {}
    for template, names in KERNEL_TEMPLATES.items():
        for char in KERNEL_FIELDS:
            job = KernelJob(template, char, [1] * len(names))
            out[job.name] = [list(e) for e in job.basis(job.run()).lead_exps]
    return out


# ---------------------------------------------------------------------------
# trace-lift

def _unit(rng: random.Random, char: int):
    if char == 0:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return rng.randrange(1, char)


def random_cover(rng: random.Random, char: int, d: int, deg: int) -> FinitePresentation:
    """A finite cover of fiber degree `deg` with d fiber variables, monic in each."""
    if d == 1:
        R = ring_over(char, ["x", "y"])
        x, y = R.gens()
        t = x**deg - y + R.const(_unit(rng, char))
        for k in range(1, deg):
            t = t + x**k * (R.const(_unit(rng, char)) + y.scale(_unit(rng, char)))
        return FinitePresentation(R, ("y",), ("x",), (t,))
    a, b = {2: (2, 1), 3: (3, 1), 4: (2, 2)}[deg]
    R = ring_over(char, ["x1", "x2", "y1", "y2"])
    x1, x2, y1, y2 = R.gens()
    t1 = x1**a + x1.scale(_unit(rng, char)) - y1
    t2 = x2**b + (x1 * x2 ** (b - 1)).scale(_unit(rng, char)) + y1.scale(_unit(rng, char)) - y2
    return FinitePresentation(R, ("y1", "y2"), ("x1", "x2"), (t1, t2))


class TraceJob:
    def __init__(self, rng, char: int, d: int, deg: int, prop: str):
        self.name = f"trace/{field_name(char)}/d{d}/deg{deg}/{prop}"
        self.pres = random_cover(rng, char, d, deg)
        self.prop = prop
        self.expected = "inapplicable" if prop == "degree" and char and deg % char == 0 else "pass"

    def describe(self) -> str:
        return f"{self.name} t={[str(t) for t in self.pres.t]}"

    def run(self):
        return _residues.trace_property_check(self.pres, self.prop)

    def check(self, out, refs: dict):
        return None if out == self.expected else f"verdict {out!r} != {self.expected!r}"


class TangencyJob:
    """[dy ^ dt / (y, t)] == k * [dx ^ dt / (x, t)] for t = y - c x^n: true iff k == n."""

    def __init__(self, rng, char: int, n: int, k: int):
        self.name = f"tangency/{field_name(char)}/n{n}/k{k}"
        R = ring_over(char, ["x", "y"])
        self.x, self.y = R.gens()
        self.t = self.y - (self.x**n).scale(_unit(rng, char))
        self.k = k
        self.expected = k == n

    def describe(self) -> str:
        return f"{self.name} t={self.t}"

    def run(self):
        dt = Form.d(self.t)
        lhs = KoszulFraction(Form.d(self.y).wedge(dt), (self.y, self.t))
        rhs = KoszulFraction(Form.d(self.x).wedge(dt), (self.x, self.t))
        return lhs.equal(rhs.scale(self.k))

    def check(self, out, refs: dict):
        return None if out == self.expected else f"identity held={out}, expected {self.expected}"


def trace_lift_pass(seed: int, k: int) -> list:
    rng = pass_rng(seed, k)
    jobs = []
    for char in TRACE_FIELDS:
        for d in (1, 2):
            for deg in (2, 3, 4):
                for prop in TRACE_PROPERTIES:
                    jobs.append(TraceJob(rng, char, d, deg, prop))
    for char in TANGENCY_FIELDS:
        for n in range(2, 7):
            for k_ in (n, n + 1):
                jobs.append(TangencyJob(rng, char, n, k_))
    return jobs


PASS_JOBS = {"groebner-kernel": kernel_pass, "trace-lift": trace_lift_pass}
