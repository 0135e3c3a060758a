"""Plausible defects in the engine, each applied by monkeypatching, and the
check that catches it.

A mutant is a function taking pytest's monkeypatch and breaking one step of
the engine for the rest of the test.  Each test applies one mutant and then
runs the check that must fail under it: a named test from another module
or a scenario check here, called directly, must raise AssertionError.  Every
presentation those checks build is fresh, so its residue frame is built
under the mutant.
"""

import dataclasses
import importlib
import sys

import pytest

from cyclecalc.scenario import run_scenario_text

from . import test_corr, test_geometry, test_residues

corr_mod = importlib.import_module("cyclecalc.corr")
geometry_mod = importlib.import_module("cyclecalc.geometry")
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


def push_degree_capped(monkeypatch):
    """The push route ignores the generic-fiber degree above 1."""
    degree_over_image = corr_mod.degree_over_image

    def mutant(Z, f):
        cert = degree_over_image(Z, f)
        return dataclasses.replace(cert, degree=min(cert.degree, 1))

    monkeypatch.setattr(corr_mod, "degree_over_image", mutant)


def properness_certifies_everything(monkeypatch):
    """The properness policy finds a monic eliminant for every variable."""
    monkeypatch.setattr(geometry_mod, "_projection_finiteness_gap", lambda I, drop: [])


# A d = 2 cover of the (y1, y2)-plane by the roots of T^2 - y1*T + y2, on a
# ring that lists a base variable first and the fiber variables out of
# order, so the reordering sign, the (-1)^{d(d-1)/2} prefactor and the 2 x 2
# determinant of the trace route all matter.
D2_TRACE_SCENARIO = """
char 0
space P = space(affine(y1, x2, y2, x1))
space Y = space(affine(y1, y2))
morphism f : P -> Y = (y1, y2)
trace tf = trace(f via P, t = (x1 + x2 - y1, x1*x2 - y2))
property tf_deg0 = tf degree0 expect pass
property tf_deg = tf degree expect pass
property tf_proj = tf projection expect pass
"""


def d2_trace_scenario_passes():
    report = run_scenario_text(D2_TRACE_SCENARIO)
    assert [t.verdict for t in report.tasks] == ["pass"] * 3, report.tasks


@pytest.mark.parametrize("mutant, check", [
    (sign_always_plus, test_residues.test_trace_signs_with_base_variables_first),
    (prefactor_dropped, test_residues.test_trace_sign_conformance),
    (determinant_of_diagonal, test_residues.test_residue_transformation_law),
    (sign_always_plus, d2_trace_scenario_passes),
    (prefactor_dropped, d2_trace_scenario_passes),
    (determinant_of_diagonal, d2_trace_scenario_passes),
    (push_degree_capped, test_corr.test_composition_with_transpose_push),
    (properness_certifies_everything, test_geometry.test_is_finite_over_examples),
], ids=lambda v: v.__name__)
def test_mutant_is_caught(monkeypatch, mutant, check):
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        check()


def test_d2_trace_scenario_passes_unmutated():
    d2_trace_scenario_passes()
