"""Plausible defects in the engine, each applied by monkeypatching, and the
check that catches it.

A mutant is a function taking pytest's monkeypatch and breaking one step of
the engine for the rest of the test.  Each test applies one mutant and then
runs the check that must fail under it: a named test from another module
or a scenario check here, called directly, must raise AssertionError.  Every
presentation those checks build is fresh, so its residue frame is built
under the mutant.
"""

import importlib
import inspect
import sys
import textwrap
from collections import OrderedDict

import pytest

from cyclecalc.cycles import DegreeCertificate
from cyclecalc.groebner import Ideal, buchberger_audit, groebner
from cyclecalc.orders import degrevlex
from cyclecalc.poly import ring_over
from cyclecalc.scenario import run_scenario_text

from . import (
    test_audit,
    test_corr,
    test_divide,
    test_fields,
    test_geometry,
    test_groebner,
    test_residue_frame,
    test_residues,
    test_scenario_cli,
    test_small_primes,
    test_supports,
    test_symbols,
    test_zz_suite_audit,
)

corr_mod = importlib.import_module("cyclecalc.corr")
cycles_mod = importlib.import_module("cyclecalc.cycles")
fields_mod = importlib.import_module("cyclecalc.fields")
forms_mod = importlib.import_module("cyclecalc.forms")
geometry_mod = importlib.import_module("cyclecalc.geometry")
groebner_mod = importlib.import_module("cyclecalc.groebner")
report_mod = importlib.import_module("cyclecalc.report")
residues_mod = importlib.import_module("cyclecalc.residues")
supports_mod = importlib.import_module("cyclecalc.supports")
symbols_mod = importlib.import_module("cyclecalc.symbols")


def _replace_everywhere(monkeypatch, module, name: str, new):
    """Rebind `name` to `new` in every module that binds the engine's own
    `module.<name>`, tests included."""
    orig = getattr(module, name)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith(("cyclecalc", "tests")) and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, new)


def _rewritten(module, name: str, old: str, new: str, owner=None):
    """`module.<name>` compiled from its own source with the one line `old`
    replaced by `new`; with `owner`, the method `owner.<name>` of a class
    defined in `module`."""
    source = textwrap.dedent(inspect.getsource(getattr(owner or module, name)))
    assert source.count(old) == 1, f"{old!r} is not one line of {name}"
    scope: dict = {}
    exec(compile(source.replace(old, new), f"<mutant of {name}>", "exec"), vars(module), scope)
    return scope[name]


def _rewrite_groebner(monkeypatch, name: str, old: str, new: str):
    """Rebind `cyclecalc.groebner.<name>` to its rewritten source.  The
    basis cache and the audit log are fresh for the rest of the test, so no
    basis computed under the mutant outlives it."""
    monkeypatch.setattr(groebner_mod, name, _rewritten(groebner_mod, name, old, new))
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    monkeypatch.setattr(groebner_mod, "_audit_log", [])


def monic_by_stored_lc(monkeypatch):
    """_finalize makes a packed element over QQ monic by its stored leading
    coefficient, not by its interreduced remainder's."""
    _rewrite_groebner(monkeypatch, "_finalize", "lc = r[t.lm]", "lc = t.lc")


def remainder_not_scaled(monkeypatch):
    """A fraction-free step of the packed reduction scales the working terms
    but not the remainder built so far."""
    _rewrite_groebner(monkeypatch, "_reduce_packed", "rem = {re: v * m for re, v in rem.items()}", "pass")


def guard_dropped(monkeypatch):
    """The packed reduction tests divisibility by the sign of the difference,
    not by its guard bits, so a failed field under a larger one goes unseen."""
    _rewrite_groebner(monkeypatch, "_reduce_packed", "if not (e - t.lm) & guard:", "if e - t.lm >= 0:")


def ruled_out_count_overshoots(monkeypatch):
    """The first-divisor table records one element more than a scan ruled
    out, so a later call with a longer basis skips the element at that
    count."""
    _rewrite_groebner(monkeypatch, "_reduce_packed", "first[e] = len(G)", "first[e] = len(G) + 1")


def reps_not_rewritten(monkeypatch):
    """The cofactor route's reduction divides an element but leaves its
    cofactors as they were."""
    _rewrite_groebner(monkeypatch, "_reduce_field", "rep[j] = rep[j] - q * t.rep[j]", "pass")


def generator_tail_dropped(monkeypatch):
    """The packed form of a generator with three or more terms loses its
    last term, so the packed route returns a Gröbner basis of another
    ideal."""
    _rewrite_groebner(
        monkeypatch, "_packed_form", "if p:", "terms = terms[:-1] if len(terms) >= 3 else terms\n    if p:"
    )


def extra_generator_seeded(monkeypatch):
    """Both Buchberger routes seed the ring's first variable after the input
    generators, the cofactor route with a zero rep, so they agree on a
    Gröbner basis of a larger ideal, one that still holds every input
    generator."""
    _rewrite_groebner(
        monkeypatch,
        "groebner",
        "gb = _finalize(I, order, _buchberger(seeds, pk, _s_poly, reduce))",
        "seeds.append((_packed_form(I.ring.var(0), pk, p), 1))\n"
        "    gb = _finalize(I, order, _buchberger(seeds, pk, _s_poly, reduce))",
    )
    _rewrite_groebner(
        monkeypatch,
        "_cofactor_basis",
        "G = _buchberger(seeds, pk, s_poly, reduce)",
        "seeds.append(((ring.var(0), [ring.zero() for _ in I.gens]), 1))\n"
        "    G = _buchberger(seeds, pk, s_poly, reduce)",
    )


def radical_by_membership_only(monkeypatch):
    """radical_member answers from the basis of I alone and never runs the
    Rabinowitsch test, so a power f^N in I with f outside I reads False."""
    _rewrite_groebner(
        monkeypatch,
        "radical_member",
        "return is_unit_ideal(Ideal(ext, [up(p) for p in I.gens] + [ext.one() - t * up(f)]))",
        "return False",
    )


def _rewrite_normal_form(monkeypatch, old: str, new: str):
    """Rebind the method `GBasis.normal_form` to its rewritten source."""
    gbasis = groebner_mod.GBasis
    mutant = _rewritten(groebner_mod, "normal_form", old, new, owner=gbasis)
    monkeypatch.setattr(gbasis, "normal_form", mutant)


def irreducible_check_reads_first_term_only(monkeypatch):
    """normal_form returns f unreduced whenever its first term is
    irreducible, whatever its later terms are."""
    _rewrite_normal_form(
        monkeypatch,
        "if not any(exp_divides(le, e) for e in f.terms for le in self.lead_exps):",
        "if not any(exp_divides(le, e) for e in list(f.terms)[:1] for le in self.lead_exps):",
    )


def normal_form_ignores_ring(monkeypatch):
    """normal_form divides a polynomial of another ring as if it were of
    the basis's own."""
    _rewrite_normal_form(monkeypatch, "if f.ring is not self.ring and f.ring != self.ring:", "if False:")


def remainder_keeps_zeros(monkeypatch):
    """The in-place remainder stores a cancelled coefficient as zero."""
    mutant = _rewritten(residues_mod, "_reduce_in_var", "del r[te]", "r[te] = v")
    monkeypatch.setattr(residues_mod, "_reduce_in_var", mutant)


def remainder_stops_at_n(monkeypatch):
    """The in-place remainder leaves the terms of x-degree n unreduced."""
    mutant = _rewritten(residues_mod, "_reduce_in_var", "if m < n:", "if m <= n:")
    monkeypatch.setattr(residues_mod, "_reduce_in_var", mutant)


def box_residue_without_det(monkeypatch):
    """A box table entry is the residue of x^a, not of x^a * det."""
    mutant = _rewritten(
        residues_mod,
        "_box_residue",
        "cur = {exp_add(e, shift): c for e, c in frame.det.terms.items()}",
        "cur = {tuple(shift): ring.field.one}",
    )
    monkeypatch.setattr(residues_mod, "_box_residue", mutant)


def off_box_terms_dropped(monkeypatch):
    """The terms of a numerator outside the box are reduced into it and then
    dropped, not read from the table."""
    mutant = _rewritten(residues_mod, "residue", "terms.extend(outside.items())", "pass")
    _replace_everywhere(monkeypatch, residues_mod, "residue", mutant)


def table_value_not_shifted(monkeypatch):
    """A table value is added at its own base exponent, not shifted by the
    numerator term's y^b."""
    mutant = _rewritten(residues_mod, "residue", "k = exp_add(b, be)", "k = be")
    _replace_everywhere(monkeypatch, residues_mod, "residue", mutant)


def triangular_test_ignores_later_variables(monkeypatch):
    """The residue frame reads an eliminant off an entry of t that still has
    a later fiber variable."""
    mutant = _rewritten(
        residues_mod, "_triangular_from_t", "if any(e[k] for e in t.terms for k in later):", "if False:"
    )
    monkeypatch.setattr(residues_mod, "_triangular_from_t", mutant)


def unit_row_unscaled(monkeypatch):
    """A cofactor row read off t is e_j, not e_j / c."""
    mutant = _rewritten(
        residues_mod,
        "_triangular_from_t",
        "rows.append([ring.const(inv) if k == j else zero for k in range(pres.d)])",
        "rows.append([ring.one() if k == j else zero for k in range(pres.d)])",
    )
    monkeypatch.setattr(residues_mod, "_triangular_from_t", mutant)


def _rewrite_rational_field(monkeypatch, name: str, old: str, new: str):
    """Rebind the method `RationalField.<name>`, and so QQ's, to its
    rewritten source."""
    field = fields_mod.RationalField
    monkeypatch.setattr(field, name, _rewritten(fields_mod, name, old, new, owner=field))


def div_as_float(monkeypatch):
    """QQ division is a bare a / b, so int / int is a float."""
    _rewrite_rational_field(monkeypatch, "div", "r = Fraction(a) / b", "return a / b")


def coerce_keeps_integral_fractions(monkeypatch):
    """QQ coerce returns an integral Fraction such as Fraction(2, 1) as it
    is, not as the int 2."""
    _rewrite_rational_field(
        monkeypatch, "coerce", "return x.numerator if x.denominator == 1 else x", "return x"
    )


def sign_always_plus(monkeypatch):
    """Every permutation sign in trace_form reads +1; a repeated index still
    gives (0, None)."""
    merge = residues_mod._merge_tuples

    def mutant(a, b):
        sign, idx = merge(a, b)
        return (1, idx) if sign else (0, None)

    monkeypatch.setattr(residues_mod, "_merge_tuples", mutant)


def prefactor_dropped(monkeypatch):
    """trace_form without the (-1)^{d(d-1)/2} prefactor."""
    trace_form = residues_mod.trace_form

    def mutant(pres, alpha):
        out = trace_form(pres, alpha)
        if pres.d * (pres.d - 1) // 2 % 2:
            out.output = -out.output
        return out

    _replace_everywhere(monkeypatch, residues_mod, "trace_form", mutant)


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
        return DegreeCertificate(
            cert.component,
            cert.image,
            min(cert.degree, 1),
            cert.method,
            cert.fiber_dim_over_params,
            cert.image_dim_over_params,
        )

    monkeypatch.setattr(corr_mod, "degree_over_image", mutant)


def error_bound_always_holds(monkeypatch):
    """Every composite's error support reads as inside any bound."""
    monkeypatch.setattr(corr_mod.CompositionResult, "error_within", lambda self, bound: True)


def graph_closure_unchecked(monkeypatch):
    """attach_graph installs a declared graph without comparing its closure
    with the component."""
    corr = corr_mod.Correspondence
    mutant = _rewritten(
        corr_mod,
        "attach_graph",
        "if _graph_closed_set(self.prod, varieties, data) != target.closed_set:",
        "if False:",
        owner=corr,
    )
    monkeypatch.setattr(corr, "attach_graph", mutant)


def comparison_always_passes(monkeypatch):
    """A comparison's verdict is pass whatever it compares."""

    def mutant(got, want, audit=None, same=None):
        return report_mod.PASS, "", {} if audit is None else audit

    _replace_everywhere(monkeypatch, report_mod, "compared", mutant)


def form_eq_compares_degrees_only(monkeypatch):
    """Two forms are equal when their degrees are."""
    monkeypatch.setattr(
        forms_mod.Form, "__eq__", lambda self, other: isinstance(other, forms_mod.Form) and self.degree == other.degree
    )


def fraction_equal_always_true(monkeypatch):
    """Every two generalized fractions are equal."""
    monkeypatch.setattr(symbols_mod.KoszulFraction, "equal", lambda self, other: True)


def cycle_eq_compares_spaces_only(monkeypatch):
    """Two cycles on one space are equal, whatever their terms."""
    cycle = cycles_mod.Cycle
    mutant = _rewritten(cycles_mod, "__eq__", "return self.terms == other.terms", "return True", owner=cycle)
    monkeypatch.setattr(cycle, "__eq__", mutant)


def contains_always_true(monkeypatch):
    """Every closed set contains every other."""
    monkeypatch.setattr(geometry_mod.ClosedSet, "contains", lambda self, other: True)


def closed_set_unsaturated(monkeypatch):
    """A closed set keeps its ideal as given, unsaturated by the irrelevant
    ideals of the projective blocks."""
    closed = geometry_mod.ClosedSet
    mutant = _rewritten(
        geometry_mod, "__init__", "for irr in space.irrelevant_ideals():", "for irr in ():", owner=closed
    )
    monkeypatch.setattr(closed, "__init__", mutant)


def union_set_of_first_generator(monkeypatch):
    """A family's union set is its first generator alone."""
    family = supports_mod.SupportFamily
    mutant = _rewritten(
        supports_mod,
        "union_set",
        "return union_of(self.space, self.generators)",
        "return union_of(self.space, self.generators[:1])",
        owner=family,
    )
    monkeypatch.setattr(family, "union_set", mutant)


def properness_certifies_everything(monkeypatch):
    """The properness policy finds a monic eliminant for every variable."""
    monkeypatch.setattr(geometry_mod, "_projection_finiteness_gap", lambda I, drop: [])


def empty_set_not_certified_proper(monkeypatch):
    """projection_proper_certificate asks the empty set for monic
    eliminants instead of certifying it proper."""
    mutant = _rewritten(geometry_mod, "projection_proper_certificate", "if Z.is_empty():", "if False:")
    _replace_everywhere(monkeypatch, geometry_mod, "projection_proper_certificate", mutant)


def _rewrite_divide(monkeypatch, old: str, new: str):
    """Rebind `divide` to its rewritten source wherever the engine's own is
    bound, tests included.  The basis cache and the audit log are fresh for
    the rest of the test, as in _rewrite_groebner."""
    _replace_everywhere(monkeypatch, groebner_mod, "divide", _rewritten(groebner_mod, "divide", old, new))
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    monkeypatch.setattr(groebner_mod, "_audit_log", [])


def divide_by_last_divisor(monkeypatch):
    """divide reduces each term by the last basis element whose leading term
    divides it, not the first."""
    _rewrite_divide(
        monkeypatch,
        "for i, lead in enumerate(lead_exps):",
        "for i, lead in reversed(list(enumerate(lead_exps))):",
    )


def qq_remainder_unscaled(monkeypatch):
    """divide stores a QQ remainder term as its working coefficient, not
    divided by the running scale S."""
    _rewrite_divide(monkeypatch, "rem[e] = c if p else _ratio(c, S)", "rem[e] = c")


def fp_coefficient_unreduced(monkeypatch):
    """divide takes an F_p working coefficient as it was accumulated, without
    reducing it mod p."""
    _rewrite_divide(monkeypatch, "c %= p", "pass")


def audit_tables_kept(monkeypatch):
    """buchberger_audit keeps its divide() tables at module level, across
    audits, not one triple per audit."""
    monkeypatch.setattr(groebner_mod, "_kept_tables", ({}, {}, {}), raising=False)
    _rewrite_groebner(monkeypatch, "buchberger_audit", "tables = ({}, {}, {})", "tables = _kept_tables")


def chain_witness_not_live(monkeypatch):
    """buchberger_audit's chain criterion takes a witness l whose pairs with
    i and j exist at all, not ones still in the live set, so three pairs
    that witness each other are all dropped."""
    _rewrite_groebner(monkeypatch, "buchberger_audit", "live[i][l] and live[j][l]", "l != i and l != j")


def product_criterion_any(monkeypatch):
    """buchberger_audit skips a pair as coprime when its leading monomials
    miss each other in some variable, not in all."""
    _rewrite_groebner(
        monkeypatch,
        "buchberger_audit",
        "if all(a == 0 or b == 0 for a, b in zip(ei, ej)):",
        "if any(a == 0 or b == 0 for a, b in zip(ei, ej)):",
    )


def staircase_is_the_whole_box(monkeypatch):
    """fiber_staircase returns every monomial under the pure-power bounds,
    ignoring the leading exponents that are not pure powers."""
    mutant = _rewritten(
        groebner_mod,
        "fiber_staircase",
        "if all(any(m < f for m, f in zip(mono, fp)) for fp in fparts):",
        "if True:",
    )
    _replace_everywhere(monkeypatch, groebner_mod, "fiber_staircase", mutant)


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


def qq_plain_and_cofactor_bases_agree():
    """test_groebner.test_plain_and_cofactor_bases_agree over QQ in degrevlex:
    packed-route bases against Fraction cofactor-route ones."""
    with pytest.MonkeyPatch.context() as m:
        test_groebner.test_plain_and_cofactor_bases_agree(0, degrevlex(3), m)


def _three_quadrics():
    """x^2 + yz + 1, y^2 - xz + z, z^2 + x + y over QQ."""
    R = ring_over(0, ["tq_x", "tq_y", "tq_z"])
    x, y, z = R.gens()
    return Ideal(R, [x**2 + y * z + R.one(), y**2 - x * z + z, z**2 + x + y])


def basis_terms_stored_in_reverse(monkeypatch):
    """Over QQ, `_finalize` stores each basis element's terms last to first."""
    _rewrite_groebner(
        monkeypatch, "_finalize",
        "_ratio(c, lc) for e, c in r.items()", "_ratio(c, lc) for e, c in reversed(r.items())",
    )


def three_quadrics_hold_their_generators():
    """test_zz_suite_audit.test_every_logged_basis_holds_its_generators over
    a log that holds the basis of _three_quadrics()."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(groebner_mod, "_audit_enabled", True)
        groebner(_three_quadrics())
    test_zz_suite_audit.test_every_logged_basis_holds_its_generators()


def three_quadrics_store_leading_terms_first():
    """test_zz_suite_audit's leading-term-first check over a log that holds
    the basis of _three_quadrics()."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(groebner_mod, "_audit_enabled", True)
        groebner(_three_quadrics())
    test_zz_suite_audit.test_every_logged_basis_is_monic_and_stores_its_leading_term_first()


def _twisted_cubic():
    """y - x^2, z - x^3 over QQ."""
    R = ring_over(0, ["tc_x", "tc_y", "tc_z"])
    x, y, z = R.gens()
    return Ideal(R, [y - x**2, z - x**3])


def twisted_cubic_lies_in_its_ideal():
    """test_zz_suite_audit.test_every_logged_basis_lies_in_its_ideal over a
    log that holds the basis of _twisted_cubic(), computed by the module's
    own `groebner`, which a mutant may rebind."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(groebner_mod, "_audit_enabled", True)
        groebner_mod.groebner(_twisted_cubic())
    test_zz_suite_audit.test_every_logged_basis_lies_in_its_ideal()


def audit_after_a_true_basis_says_no():
    """test_audit.test_an_audit_after_a_true_basis_still_says_no over QQ."""
    test_audit.test_an_audit_after_a_true_basis_still_says_no(0)


def chain_witnesses_must_be_live():
    """test_audit.test_chain_witnesses_must_be_live over QQ in degrevlex."""
    test_audit.test_chain_witnesses_must_be_live(0, "degrevlex")


def cyclic4_inputs_fail():
    """test_audit.test_true_bases_pass_and_their_inputs_fail over QQ in
    degrevlex."""
    test_audit.test_true_bases_pass_and_their_inputs_fail(0, "degrevlex")


def failed_middle_field_seen():
    """test_divide.test_reduction_sees_a_failed_middle_field over F_7 and QQ."""
    for char in (7, 0):
        test_divide.test_reduction_sees_a_failed_middle_field(char)


def finalize_reduces_by_the_prefix():
    """test_divide.test_finalize_reduces_by_the_prefix over F_7 and QQ, in
    degrevlex."""
    for char in (7, 0):
        with pytest.MonkeyPatch.context() as m:
            test_divide.test_finalize_reduces_by_the_prefix(m, char, "degrevlex")


def normal_form_matches_divide():
    """test_divide.test_normal_form_matches_divide."""
    with pytest.MonkeyPatch.context() as m:
        test_divide.test_normal_form_matches_divide(m)


def cycle_basics_small_primes_move_only_the_pinned_verdicts():
    """test_small_primes.test_small_primes_move_only_the_pinned_verdicts on
    cycle_basics.scn, whose divisor check d3 fails at p = 2 and p = 5."""
    test_small_primes.test_small_primes_move_only_the_pinned_verdicts("cycle_basics.scn")


def covers_trace_twin_fails():
    test_scenario_cli.test_trace_assert_twin_reports_fail("covers.scn", "assert_3")


def covers_f7_trace_twin_fails():
    test_scenario_cli.test_trace_assert_twin_reports_fail("covers_f7.scn", "assert_2")


def symbol_is_zero_twin_fails():
    test_scenario_cli.test_assert_symbol_is_zero("d(x)", "fail", "[d(x) / (x)] != [0 / (x)]")


def zero_main_twin_fails():
    test_scenario_cli.test_compose_expects_a_zero_main_term("B . A1", "fail", "[(H)o(G1)] != 0")


def policy_fail_twin_fails():
    test_scenario_cli.test_policy_reject_surfaces_in_report(
        "[XV, Phi0] => [YV, Psi1] = 1*[G]", "fail", "not in P(phi,psi): ['G']", {"G": "no"}
    )


def d2_trace_scenario_passes():
    report = run_scenario_text(D2_TRACE_SCENARIO)
    assert [t.verdict for t in report.tasks] == ["pass"] * 3, [t.as_dict() for t in report.tasks]


# The census: each row is a mutant and a check that kills it.  One mutant is
# not a row because it is equivalent: `eliminate` testing only each basis
# element's first stored term for the dropped variables.  Under an
# elimination order an element whose leading term lies in k[kept variables]
# lies there wholly, and test_zz_suite_audit checks that every logged basis
# element stores its leading term first, so that term is the one the
# mutant reads; basis_terms_stored_in_reverse is caught by that check.
@pytest.mark.parametrize("mutant, check", [
    (sign_always_plus, test_residues.test_trace_signs_with_base_variables_first),
    (prefactor_dropped, test_residues.test_trace_sign_conformance),
    (determinant_of_diagonal, test_residues.test_residue_transformation_law),
    (sign_always_plus, d2_trace_scenario_passes),
    (prefactor_dropped, d2_trace_scenario_passes),
    (determinant_of_diagonal, d2_trace_scenario_passes),
    (push_degree_capped, test_corr.test_composition_with_transpose_push),
    (error_bound_always_holds, test_corr.test_blowup_error_bound_escapes_are_reported),
    (graph_closure_unchecked, test_corr.test_blowup_wrong_graph_is_refused),
    (comparison_always_passes, test_scenario_cli.test_wrong_multiplicity_reports_fail),
    (comparison_always_passes, cycle_basics_small_primes_move_only_the_pinned_verdicts),
    (form_eq_compares_degrees_only, covers_trace_twin_fails),
    (form_eq_compares_degrees_only, covers_f7_trace_twin_fails),
    (fraction_equal_always_true, test_symbols.test_multiplicity_identity),
    (fraction_equal_always_true, test_scenario_cli.test_wrong_multiplicity_reports_fail),
    (fraction_equal_always_true, symbol_is_zero_twin_fails),
    (cycle_eq_compares_spaces_only, test_scenario_cli.test_wrong_expected_main_reports_fail),
    (cycle_eq_compares_spaces_only, zero_main_twin_fails),
    (cycle_eq_compares_spaces_only, test_corr.test_composing_through_zero_is_a_verdict),
    (contains_always_true, test_geometry.test_contains_examples),
    (contains_always_true, policy_fail_twin_fails),
    (properness_certifies_everything, test_geometry.test_is_finite_over_examples),
    (closed_set_unsaturated, test_geometry.test_saturation_idempotent),
    (union_set_of_first_generator, test_supports.test_member_examples),
    (empty_set_not_certified_proper, test_corr.test_composing_through_zero_is_a_verdict),
    (divide_by_last_divisor, test_divide.test_each_term_goes_to_its_first_divisor),
    (qq_remainder_unscaled, test_divide.test_scaled_division_writes_field_values),
    (fp_coefficient_unreduced, test_divide.test_scaled_division_writes_field_values),
    (audit_tables_kept, audit_after_a_true_basis_says_no),
    (chain_witness_not_live, chain_witnesses_must_be_live),
    (product_criterion_any, cyclic4_inputs_fail),
    (staircase_is_the_whole_box, test_residues.test_trace_signs_with_base_variables_first),
    (monic_by_stored_lc, qq_plain_and_cofactor_bases_agree),
    (remainder_not_scaled, qq_plain_and_cofactor_bases_agree),
    (reps_not_rewritten, qq_plain_and_cofactor_bases_agree),
    (generator_tail_dropped, three_quadrics_hold_their_generators),
    (basis_terms_stored_in_reverse, three_quadrics_store_leading_terms_first),
    (extra_generator_seeded, twisted_cubic_lies_in_its_ideal),
    (guard_dropped, failed_middle_field_seen),
    (ruled_out_count_overshoots, finalize_reduces_by_the_prefix),
    (radical_by_membership_only, test_groebner.test_radical_member_agrees_with_certificates),
    (irreducible_check_reads_first_term_only, normal_form_matches_divide),
    (normal_form_ignores_ring, test_groebner.test_membership_across_rings_is_refused),
    (remainder_keeps_zeros, test_residues.test_remainder_matches_the_oracle),
    (remainder_stops_at_n, test_residues.test_remainder_matches_the_oracle),
    (box_residue_without_det, test_residue_frame.test_residues_on_and_off_the_box),
    (off_box_terms_dropped, test_residues.test_residue_sum_over_roots_30_queries),
    (table_value_not_shifted, test_residues.test_residue_normalizes_to_matrix_trace),
    (triangular_test_ignores_later_variables, test_residue_frame.test_triangular_frames_match_the_oracle),
    (unit_row_unscaled, test_residue_frame.test_triangular_frames_match_the_oracle),
    (div_as_float, test_fields.test_division_matches_fraction_arithmetic),
    (coerce_keeps_integral_fractions, test_fields.test_coerce_is_canonical),
], ids=lambda v: v.__name__)
def test_mutant_is_caught(monkeypatch, mutant, check):
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        check()


def test_d2_trace_scenario_passes_unmutated():
    d2_trace_scenario_passes()


def test_three_quadrics_hold_their_generators_unmutated(monkeypatch):
    monkeypatch.setattr(groebner_mod, "_audit_log", [])
    three_quadrics_hold_their_generators()


def test_generator_tail_dropped_escapes_the_buchberger_audit(monkeypatch):
    """Why the suite audit needs its second half: the basis of the wrong
    ideal still meets the Buchberger criterion."""
    generator_tail_dropped(monkeypatch)
    gb = groebner(_three_quadrics())
    assert buchberger_audit(gb)
    assert not all(gb.contains(g) for g in gb.ideal.gens)


def test_three_quadrics_store_leading_terms_first_unmutated(monkeypatch):
    monkeypatch.setattr(groebner_mod, "_audit_log", [])
    monkeypatch.setattr(groebner_mod, "_gb_cache", OrderedDict())
    three_quadrics_store_leading_terms_first()


def test_twisted_cubic_lies_in_its_ideal_unmutated(monkeypatch):
    monkeypatch.setattr(groebner_mod, "_audit_log", [])
    twisted_cubic_lies_in_its_ideal()


def test_extra_generator_escapes_the_other_two_audits(monkeypatch):
    """Why the suite audit needs its third part: the basis of the larger
    ideal meets the Buchberger criterion, holds every input generator, and
    its reps read without refusal, since both routes reach it."""
    true_basis = groebner(_twisted_cubic()).basis
    extra_generator_seeded(monkeypatch)
    gb = groebner_mod.groebner(_twisted_cubic())
    assert gb.basis != true_basis and not gb.is_unit()
    assert buchberger_audit(gb)
    assert all(gb.contains(g) for g in gb.ideal.gens)
    assert len(gb.reps) == len(gb.basis)
    monkeypatch.setattr(groebner_mod, "_audit_log", [gb])
    test_zz_suite_audit.test_every_basis_emitted_by_the_suite_passes_the_audit()
    test_zz_suite_audit.test_every_logged_basis_holds_its_generators()
