"""Self-tests of the benchmark: inputs, correctness checks and the tracer.

    python3 -m pytest -q perfbench
"""

import importlib
import json
import sys

import pytest

from common import ROOT, corpus_jobs, pass_rng

sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from cyclecalc import degrevlex, ring_over  # noqa: E402
from tracer import FUNCTIONS, SPAN_METRICS, Tracer, span_metrics  # noqa: E402

groebner_mod = importlib.import_module("cyclecalc.groebner")
REFS = json.loads((ROOT / "perfbench" / "references.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _describe(batch):
    return [job.describe() for job in batch]


@pytest.mark.parametrize("build", [jobs.kernel_pass, jobs.trace_lift_pass])
def test_same_seed_same_inputs(build):
    batch = build(7, 0)
    assert len({job.name for job in batch}) == len(batch)  # names key the per-job times
    assert _describe(batch) == _describe(build(7, 0))
    assert _describe(build(7, 0)) != _describe(build(7, 1))


def test_same_seed_same_corpus_order():
    a, b = corpus_jobs(), corpus_jobs()
    pass_rng(7, 2).shuffle(a)
    pass_rng(7, 2).shuffle(b)
    assert a == b and sorted(a) == sorted(corpus_jobs())
    assert len(a) == 11


def _traced_counts(job):
    tracer = Tracer().install()
    try:
        job.run()
    finally:
        tracer.uninstall()
    return {name: s["calls"] for name, s in tracer.summary().items()}


def test_seeds_change_coefficients_not_fp_counts():
    a = jobs.kernel_pass(1, 0)
    b = jobs.kernel_pass(2, 0)
    ka = next(j for j in a if j.name == "katsura4/F32003")
    kb = next(j for j in b if j.name == "katsura4/F32003")
    assert ka.describe() != kb.describe()
    ca, cb = _traced_counts(ka), _traced_counts(kb)
    assert ca == cb
    assert ca["groebner.groebner"] == 1 and ca["orders.key"] > 1000


def test_trace_lift_seeds_differ():
    assert _describe(jobs.trace_lift_pass(1, 0)) != _describe(jobs.trace_lift_pass(2, 0))


# -- correctness checks fail on corrupted references -------------------------

def test_corpus_check_catches_corrupted_hash_and_verdicts():
    _, _, report = jobs.run_corpus_job("covers_f7")
    digest = jobs.report_digest(report)
    refs = json.loads(json.dumps(REFS["corpus"]))
    assert jobs.check_corpus("covers_f7", digest, refs) is None
    assert digest["verdicts"]["inapplicable"] == 1
    refs["covers_f7"]["sha1"] = "0" * 40
    assert "sha1" in jobs.check_corpus("covers_f7", digest, refs)
    refs = json.loads(json.dumps(REFS["corpus"]))
    refs["covers_f7"]["verdicts"]["inapplicable"] = 0
    assert "verdicts" in jobs.check_corpus("covers_f7", digest, refs)
    assert jobs.check_corpus("not-a-job", digest, refs) is not None


def test_worker_counts_corrupted_reference_as_failure(monkeypatch, capsys):
    refs = json.loads(json.dumps(REFS))
    refs["corpus"]["covers_f7"]["sha1"] = "0" * 40
    monkeypatch.setattr(worker, "_load_refs", lambda: refs)
    worker.corpus("covers_f7", False, "")
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["error"] and "sha1" in out["error"]


def test_kernel_check_catches_corrupted_lead_list():
    job = next(j for j in jobs.kernel_pass(3, 0) if j.name == "saturate/F32003")
    out = job.run()
    assert job.check(out, REFS) is None
    refs = json.loads(json.dumps(REFS))
    refs["kernel_leads"][job.name][0][0] += 1
    assert "leading exponents" in job.check(out, refs)


def test_trace_and_tangency_checks_catch_corrupted_expectations():
    batch = jobs.trace_lift_pass(4, 0)
    inapplicable = next(j for j in batch if j.name == "trace/F3/d1/deg3/degree")
    assert inapplicable.expected == "inapplicable"
    out = inapplicable.run()
    assert inapplicable.check(out, REFS) is None
    inapplicable.expected = "pass"
    assert inapplicable.check(out, REFS) is not None
    tangency = next(j for j in batch if j.name == "tangency/QQ/n3/k4")
    out = tangency.run()
    assert out is False and tangency.check(out, REFS) is None
    tangency.expected = True
    assert tangency.check(out, REFS) is not None


# -- tracer --------------------------------------------------------------------

def test_tracer_counts_match_hand_count():
    """divide(x^2, [x - 1]) over F_7 in one variable, by hand:
    leading(x - 1) keys its 2 terms; the division loop then takes the max of
    {x^2}, {x} and {1}, one key each: 5 keys, 1 leading, 1 divide, no Poly
    arithmetic."""
    R = ring_over(7, ["x"])
    x = R.var("x")
    f, g = x * x, x - 1
    tracer = Tracer().install()
    try:
        r, (q,) = groebner_mod.divide(f, [g], degrevlex(1))
    finally:
        tracer.uninstall()
    stats = tracer.summary()
    calls = {name: s["calls"] for name, s in stats.items() if s["calls"]}
    assert calls == {"groebner.divide": 1, "groebner.leading": 1, "orders.key": 5}
    assert r == R.one() and q == x + 1
    # the two keys inside leading are its children, the other three divide's
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["groebner.divide", "groebner.leading", "orders.key", "orders.key",
                     "orders.key", "orders.key", "orders.key"]
    assert list(tracer.parent) == [-1, 0, 1, 1, 0, 0, 0]
    divide = stats["groebner.divide"]
    assert 0 <= divide["self_s"] <= divide["incl_s"]


def test_tracer_wraps_every_binding_and_uninstalls():
    import cyclecalc
    from cyclecalc.poly import Poly

    residues = importlib.import_module("cyclecalc.residues")
    orig = groebner_mod.groebner
    orig_mul = Poly.__mul__
    tracer = Tracer().install()
    try:
        wrapped = groebner_mod.groebner
        assert wrapped is not orig
        assert cyclecalc.groebner is wrapped  # the package attribute is the function
        assert residues.groebner is wrapped
        assert Poly.__rmul__ is Poly.__mul__ is not orig_mul
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert groebner_mod.groebner is orig and cyclecalc.groebner is orig
    assert Poly.__mul__ is orig_mul and Poly.__rmul__ is orig_mul


def test_missing_names_leave_metrics_absent():
    functions = FUNCTIONS + (
        ("cyclecalc.groebner", "no_such_function", "groebner.no_such"),
        ("cyclecalc.no_such_module", "f", "nowhere.f"),
    )
    methods = (("cyclecalc.poly", "NoSuchClass", "__mul__", "poly.mul"),)
    tracer = Tracer(functions, methods).install()
    tracer.uninstall()
    assert tracer.missing == [
        "cyclecalc.groebner.no_such_function",
        "cyclecalc.no_such_module.f",
        "cyclecalc.poly.NoSuchClass",
    ]
    metrics = span_metrics(tracer.summary())
    assert "poly.mul_calls" not in metrics and "groebner.divide_calls" in metrics


# -- the declared metrics ----------------------------------------------------------

def _fake_pass(traced, seconds):
    p = run.Pass(traced)
    p.job_seconds = {"job": seconds}
    p.wall = seconds + 0.5
    p.attempted = 1
    if traced:
        spans = {name: 1.0 for name in SPAN_METRICS}
        p.layers = [{"spans": spans, "cache_entries": 1}]
        p.stems = {stem: (0.1, 0.2) for stem in corpus_jobs() if not stem.startswith("axioms")}
    return p


def test_per_layer_output_matches_benchmark_json():
    stems = [j for j in corpus_jobs() if not j.startswith("axioms")]
    values = run.per_layer([_fake_pass(False, 1.0), _fake_pass(True, 1.25)], stems)
    values.update({"setup.sympy_s": 0.3, "setup.engine_s": 0.1})
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(values) == declared
    assert values["trace.overhead_ratio"] == 1.25
    provenance = json.loads((ROOT / "perfbench" / "provenance.json").read_text())
    assert set(provenance["per_layer"]) == declared
    assert set(provenance["workloads"]) == {w["name"] for w in SPEC["workloads"]}


def test_end_to_end_output_matches_benchmark_json():
    passes = [_fake_pass(False, s) for s in (1.0, 2.0, 3.0)]
    for s, p in zip((1.0, 2.0, 3.0), passes):
        p.job_seconds = {f"job{i}": s * i for i in range(1, 12)}
        p.attempted = 11
    values = run.end_to_end(passes)
    assert values["pass_s"] == pytest.approx(132.0)  # the median pass
    assert values["job_s.p50"] == pytest.approx(12.0)  # the median job at its median time
    values["setup_s"] = 0.4
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}


def test_reference_seconds_cancel_host_speed():
    from probe import PROBE_REF_S, probe

    assert probe() > 0
    # a host half as fast doubles both the call and the probe
    assert run.ref_s(2.0, 2 * PROBE_REF_S) == pytest.approx(run.ref_s(1.0, PROBE_REF_S)) == 1.0
