"""Spans around calls into cyclecalc, recorded from outside the package.

`Tracer.install()` replaces each target callable, by identity, wherever a
`cyclecalc.*` module in `sys.modules` binds it: modules import names with
`from .groebner import ...`, so patching one module would miss the others.
Modules are looked up in `sys.modules`, never as package attributes, because
`cyclecalc.groebner` is the function, not the module.  A target the program
no longer has is skipped and listed in `missing`; the metrics built on it are
then absent.

Each wrapped call records a span (name, parent, start, end) in flat arrays
kept in memory.  A span's self time is its duration minus the time covered by
the spans nested directly inside it; inclusive time counts only spans with no
enclosing span of the same name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute, span name)
FUNCTIONS = (
    ("cyclecalc.groebner", "leading", "groebner.leading"),
    ("cyclecalc.groebner", "divide", "groebner.divide"),
    ("cyclecalc.groebner", "groebner", "groebner.groebner"),
    ("cyclecalc.groebner", "cofactor_lift", "groebner.cofactor_lift"),
    ("cyclecalc.groebner", "eliminate", "groebner.eliminate"),
    ("cyclecalc.groebner", "saturate", "groebner.saturate"),
    ("cyclecalc.residues", "residue", "residues.residue"),
    ("cyclecalc.residues", "trace_form", "residues.trace_form"),
    ("cyclecalc.geometry", "image_closure", "geometry.image_closure"),
    ("cyclecalc.geometry", "graph_closure", "geometry.graph_closure"),
    ("cyclecalc.geometry", "preimage", "geometry.preimage"),
    ("cyclecalc.corr", "compose_localized", "corr.compose_localized"),
    ("cyclecalc.corr", "projector_check", "corr.projector_check"),
    ("cyclecalc.cycles", "push_forward", "cycles.push_forward"),
    ("cyclecalc.cycles", "principal_divisor_line", "cycles.principal_divisor_line"),
    ("cyclecalc.univar", "factor_univariate", "univar.factor_univariate"),
    ("cyclecalc.univar", "gcd_univariate", "univar.gcd_univariate"),
    ("cyclecalc.axioms", "run_axiom_harness", "axioms.harness"),
    ("cyclecalc.scenario", "parse_scenario", "scenario.parse"),
    ("cyclecalc.scenario", "run_scenario", "scenario.tasks"),
)

# (module, class, attribute, span name); the attribute is also replaced on
# every subclass that defines its own.
METHODS = (
    ("cyclecalc.poly", "Poly", "__mul__", "poly.mul"),
    ("cyclecalc.poly", "Poly", "__add__", "poly.add"),
    ("cyclecalc.symbols", "KoszulFraction", "transform", "symbols.transform"),
    ("cyclecalc.orders", "MonomialOrder", "key", "orders.key"),
)

CACHE = ("cyclecalc.groebner", "_gb_cache")

# per-layer metric -> (span name, statistic)
SPAN_METRICS = {
    "orders.key_calls": ("orders.key", "calls"),
    "groebner.leading_calls": ("groebner.leading", "calls"),
    "groebner.divide_calls": ("groebner.divide", "calls"),
    "groebner.divide_self_s": ("groebner.divide", "self_s"),
    "groebner.groebner_calls": ("groebner.groebner", "calls"),
    "groebner.groebner_self_s": ("groebner.groebner", "self_s"),
    "groebner.cofactor_lift_calls": ("groebner.cofactor_lift", "calls"),
    "groebner.cofactor_lift_s": ("groebner.cofactor_lift", "incl_s"),
    "symbols.transform_s": ("symbols.transform", "incl_s"),
    "residues.residue_calls": ("residues.residue", "calls"),
    "residues.residue_s": ("residues.residue", "incl_s"),
    "residues.trace_form_s": ("residues.trace_form", "incl_s"),
    "poly.mul_calls": ("poly.mul", "calls"),
    "poly.mul_s": ("poly.mul", "incl_s"),
    "poly.add_calls": ("poly.add", "calls"),
    "groebner.eliminate_s": ("groebner.eliminate", "incl_s"),
    "groebner.saturate_s": ("groebner.saturate", "incl_s"),
    "geometry.image_closure_s": ("geometry.image_closure", "incl_s"),
    "geometry.graph_closure_s": ("geometry.graph_closure", "incl_s"),
    "geometry.preimage_s": ("geometry.preimage", "incl_s"),
    "corr.compose_localized_s": ("corr.compose_localized", "incl_s"),
    "corr.projector_check_s": ("corr.projector_check", "incl_s"),
    "cycles.push_forward_s": ("cycles.push_forward", "incl_s"),
    "cycles.principal_divisor_line_s": ("cycles.principal_divisor_line", "incl_s"),
    "univar.factor_univariate_s": ("univar.factor_univariate", "incl_s"),
    "univar.gcd_univariate_s": ("univar.gcd_univariate", "incl_s"),
    "axioms.harness_s": ("axioms.harness", "incl_s"),
}


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def cache_size():
    """Entries in the Gröbner cache, or None when the program has no such cache."""
    cache = getattr(sys.modules.get(CACHE[0]), CACHE[1], None)
    return None if cache is None else len(cache)


class Tracer:
    def __init__(self, functions=FUNCTIONS, methods=METHODS):
        self.functions = functions
        self.methods = methods
        self.names: list = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.outer = bytearray()
        self._stack = [-1]
        self._active: list = []
        self._patches: list = []  # (owner, attribute, original)
        self.missing: list = []

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, span: str):
        if span not in self.names:
            self.names.append(span)
            self._active.append(0)
        nid = self.names.index(span)
        name_id, parent, start, end, outer = self.name_id, self.parent, self.start, self.end, self.outer
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            active[nid] += 1
            stack.append(idx)
            end.append(0.0)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] -= 1

        return wrapper

    def _replace(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "cyclecalc" or name.startswith("cyclecalc."))
        ]
        for mod_name, attr, span in self.functions:
            orig = getattr(sys.modules.get(mod_name), attr, None)
            if not callable(orig):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(orig, span)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, name, wrapper)
        for mod_name, cls_name, attr, span in self.methods:
            base = getattr(sys.modules.get(mod_name), cls_name, None)
            if not isinstance(base, type):
                self.missing.append(f"{mod_name}.{cls_name}")
                continue
            found = False
            for cls in _subclasses(base):
                orig = vars(cls).get(attr)
                if orig is None:
                    continue
                found = True
                wrapper = self._wrap(orig, span)
                for name, value in list(vars(cls).items()):
                    if value is orig:
                        self._replace(cls, name, wrapper)
            if not found:
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def mark(self) -> int:
        return len(self.start)

    def discard_since(self, mark: int):
        """Forget spans recorded after `mark` (calls made by the benchmark's own checks)."""
        for arr in (self.name_id, self.parent, self.start, self.end, self.outer):
            del arr[mark:]

    def summary(self) -> dict:
        """Per span name: calls, self_s and incl_s."""
        n = len(self.start)
        start, end, parent, name_id, outer = self.start, self.end, self.parent, self.name_id, self.outer
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        stats = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for name in self.names}
        for i in range(n):
            s = stats[self.names[name_id[i]]]
            dur = end[i] - start[i]
            s["calls"] += 1
            s["self_s"] += dur - covered[i]
            if outer[i]:
                s["incl_s"] += dur
        return stats

    def write(self, path):
        """Spans as a JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": ["name_id:H", "parent:q", "start:d", "end:d", "outer:B"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
            fh.write(bytes(self.outer))


def span_metrics(stats: dict) -> dict:
    """The per-layer metrics a span summary supports; absent spans give absent metrics."""
    out = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        if span in stats:
            out[metric] = stats[span][stat]
    return out
