"""Plausible defects in the engine, each applied by monkeypatching, and the
check that catches it.

A mutant is a function taking pytest's monkeypatch and breaking one step of
the engine for the rest of the test.  Each test applies one mutant and then
runs the check that must fail under it: a named test from another module,
called directly, must raise AssertionError.  Every presentation those checks
build is fresh, so its residue frame is built under the mutant.
"""

import importlib
import sys

import pytest

from . import test_residues

residues_mod = importlib.import_module("cyclecalc.residues")


def _replace_everywhere(monkeypatch, name: str, new):
    """Rebind `name` to `new` in every module that binds the engine's own
    `cyclecalc.residues.<name>`, tests included."""
    orig = getattr(residues_mod, name)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith(("cyclecalc", "tests")) and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, new)


def sign_always_plus(monkeypatch):
    """Every permutation sign in trace_form reads +1."""
    monkeypatch.setattr(residues_mod, "_permutation_sign", lambda perm: 1)


def prefactor_dropped(monkeypatch):
    """trace_form without the (-1)^{d(d-1)/2} prefactor."""
    trace_form = residues_mod.trace_form

    def mutant(pres, alpha):
        out = trace_form(pres, alpha)
        if pres.d * (pres.d - 1) // 2 % 2:
            out.output = -out.output
        return out

    _replace_everywhere(monkeypatch, "trace_form", mutant)


def determinant_of_diagonal(monkeypatch):
    """The residue frame's determinant is the product of the diagonal."""

    def mutant(rows, ring):
        out = ring.one()
        for i, row in enumerate(rows):
            out = out * row[i]
        return out

    monkeypatch.setattr(residues_mod, "_determinant", mutant)


@pytest.mark.parametrize("mutant, check", [
    (sign_always_plus, test_residues.test_trace_signs_with_base_variables_first),
    (prefactor_dropped, test_residues.test_trace_sign_conformance),
    (determinant_of_diagonal, test_residues.test_residue_transformation_law),
], ids=lambda v: v.__name__)
def test_mutant_is_caught(monkeypatch, mutant, check):
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        check()
