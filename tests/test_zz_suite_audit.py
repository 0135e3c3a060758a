"""Runs last (alphabetically): the suite-wide Buchberger zero-reduction audit,
the check that each basis holds its input generators, and the check that
each basis element is monic with its leading term stored first, over every
reduced basis recorded during the whole pytest session."""

from cyclecalc.groebner import audit_log, buchberger_audit, leading


def test_every_basis_emitted_by_the_suite_passes_the_audit():
    bases = audit_log()
    assert bases, "the suite should have recorded bases"
    failures = [gb for gb in bases if not buchberger_audit(gb)]
    assert not failures, f"{len(failures)} bases fail the Buchberger criterion"
    print(f"suite audit: {len(bases)} reduced bases, all S-polynomials reduce to zero")


def test_every_logged_basis_holds_its_generators():
    """The other half of the ideal check: the audit above shows each basis
    is a Gröbner basis of the ideal it generates, and this shows that ideal
    holds the input ideal, every nonzero generator reducing to zero."""
    bases = audit_log()
    assert bases, "the suite should have recorded bases"
    failures = [gb for gb in bases if not all(gb.contains(g) for g in gb.ideal.nonzero_gens())]
    assert not failures, f"{len(failures)} bases miss a generator of their ideal, first {failures[:1]}"


def test_every_logged_basis_lies_in_its_ideal():
    """The converse inclusion: each basis element is a combination of the
    input generators.  Reading `reps` runs the independent cofactor route
    (which must reach the same basis), and each rep is checked here by plain
    Poly arithmetic; bases are taken once per (ring, gens, order)."""
    bases = {(gb.ring, gb.ideal.gens, gb.order): gb for gb in audit_log()}
    assert bases, "the suite should have recorded bases"
    failures = []
    for gb in bases.values():
        ring, gens = gb.ring, gb.ideal.gens
        for g, rep in zip(gb.basis, gb.reps):
            if sum((c * f for c, f in zip(rep, gens)), ring.zero()) != g:
                failures.append(gb)
                break
    assert not failures, f"{len(failures)} bases leave their ideal, first {failures[:1]}"
    print(f"suite audit: {len(bases)} distinct bases, each inside its input ideal")


def test_every_logged_basis_is_monic_and_stores_its_leading_term_first():
    """`_reduce_packed` makes a remainder monic by its first stored
    coefficient, and a reader of a basis may take an element's first stored
    term for its leading term (the `eliminate` note in test_mutants.py): both
    rest on this."""
    bases = audit_log()
    assert bases, "the suite should have recorded bases"
    failures = []
    for gb in bases:
        for g in gb.basis:
            first = next(iter(g.terms.items()))
            if first != leading(g, gb.order) or first[1] != gb.ring.field.one:
                failures.append(gb)
                break
    assert not failures, f"{len(failures)} bases store an element out of order or not monic, first {failures[:1]}"
