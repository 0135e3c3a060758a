"""The cyclecalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see BENCHMARK.json):

  scenario-corpus  every shipped scenario and the axiom harness (char 0 and 5),
                   each job in a fresh interpreter, one at a time, in an order
                   shuffled by the seed
  groebner-kernel  reduced bases of cyclic-5 and katsura-4, one elimination and
                   one saturation, over F_32003 and QQ, rescaled by the seed
  trace-lift       trace-property checks on seeded finite covers and tangency
                   symbol identities: many small jobs

Load is a closed loop with one client: one job at a time, each started when
the previous one has ended.  A pass is one sweep over the workload's jobs in
fresh processes (one per job on the corpus, one per pass otherwise); passes
repeat until the next one would overrun --seconds.  Set-up is the cold
`import cyclecalc`, timed in fresh interpreters before the passes.

--trace 0 prints the end-to-end metrics:
  setup_s          cold `import cyclecalc`
  pass_s           one pass's timed calls, summed over its jobs (import and
                   correctness checks excluded)
  cold_wall_s      spawn-to-exit wall time of one pass's worker processes,
                   less the time they spend in probes
  job_s.p50, .p90  percentiles over the workload's jobs of each job's time
  peak_rss_mb      peak RSS of the process doing the algebra (the largest
                   worker of a pass), median over passes
Times are medians over the run's passes, in the reference seconds of
perfbench/probe.py: each measured time is scaled by the speed of the host
around it, read by a probe in the same process.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics (perfbench/tracer.py), with spans written under
.bench_build/perfbench/.  The last stdout line is the JSON result; the line
before it records provenance.  Outputs are checked against
perfbench/references.json; a wrong output, an exception or a crashed worker
is a failed job.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from common import ROOT, corpus_jobs, pass_rng
from probe import PROBE_REF_S

WORKLOADS = ("scenario-corpus", "groebner-kernel", "trace-lift")
SETUP_SAMPLES = 6
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
WORKER_TIMEOUT_S = 150
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / ".bench_build" / "perfbench"


def ref_s(seconds: float, probe_s: float) -> float:
    """Measured seconds in reference seconds, given the probe time around them."""
    return seconds * PROBE_REF_S / probe_s


def _fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _worker(args: list, importtime: bool = False) -> tuple:
    """Runs a worker; returns (spawn-to-exit seconds, result dict or None, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [str(WORKER)] + args
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, "timed out"
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return wall, None, proc.stderr
    return wall, json.loads(lines[-1]), proc.stderr


def _importtime_s(stderr: str, package: str):
    """Cumulative import seconds of `package` from -X importtime output, or None."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == package:
            return int(parts[1]) / 1e6
    return None


def measure_setup(trace: bool) -> dict:
    _worker(["import"])  # compiles bytecode in a new checkout; not a sample
    samples, sympy_s, engine_s = [], [], []
    for _ in range(SETUP_SAMPLES):
        _, res, err = _worker(["import"], importtime=trace)
        if res is None:
            _fail(f"import cyclecalc failed:\n{err}")
        samples.append(ref_s(res["import_s"], res["import_probe_s"]))
        if trace:
            total = _importtime_s(err, "cyclecalc")
            sym = _importtime_s(err, "sympy") or 0.0
            sympy_s.append(ref_s(sym, res["import_probe_s"]))
            engine_s.append(ref_s(total - sym, res["import_probe_s"]))
    if trace:
        return {"setup.sympy_s": statistics.median(sympy_s), "setup.engine_s": statistics.median(engine_s)}
    return {"setup_s": statistics.median(samples)}


class Pass:
    """One sweep over a workload's jobs."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.job_seconds: dict = {}  # job -> reference seconds of its timed calls
        self.wall = 0.0  # reference seconds from spawn to exit of its workers, summed
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.layers: list = []  # one dict per traced worker
        self.stems: dict = {}  # scenario stem -> (parse_s, tasks_s), traced only

    @property
    def seconds(self) -> float:
        return sum(self.job_seconds.values())

    @property
    def complete(self) -> bool:
        """Every job of the pass was timed."""
        return 0 < len(self.job_seconds) == self.attempted

    def fail(self, job: str, why: str):
        self.failed += 1
        self.errors.append(f"{job}: {why.strip()[-400:]}")


def _layer_ref_s(layer: dict, probe_s: float) -> dict:
    """A worker's per-layer numbers with its times in reference seconds."""
    out = dict(layer)
    out["spans"] = {k: ref_s(v, probe_s) if k.endswith("_s") else v for k, v in layer["spans"].items()}
    for span in ("scenario.parse", "scenario.tasks"):
        if span in layer:
            out[span] = ref_s(layer[span], probe_s)
    return out


def run_corpus_pass(seed: int, k: int, traced: bool) -> Pass:
    p = Pass(traced)
    order = corpus_jobs()
    pass_rng(seed, k).shuffle(order)
    for job in order:
        wall, res, err = _worker(["corpus", job, "1" if traced else "0", str(OUT / f"spans-corpus-{job}.bin")])
        p.attempted += 1
        if res is None:
            p.fail(job, err)
            continue
        p.wall += ref_s(wall - res["probing_s"], res["probe_s"])
        p.rss_kb = max(p.rss_kb, res["maxrss_kb"])
        if res.get("error"):
            p.fail(job, res["error"])
        if "tasks_s" in res:
            p.job_seconds[job] = ref_s(res["parse_s"] + res["tasks_s"], res["job_probe_s"])
        if traced and "layer" in res:
            layer = _layer_ref_s(res["layer"], res["probe_s"])
            p.layers.append(layer)
            if "scenario.parse" in layer and not job.startswith("axioms"):
                p.stems[job] = (layer["scenario.parse"], layer.get("scenario.tasks", 0.0))
    return p


def run_warm_pass(workload: str, seed: int, k: int, traced: bool) -> Pass:
    p = Pass(traced)
    spans = OUT / f"spans-{workload}.bin"
    wall, res, err = _worker(["pass", workload, str(seed), str(k), "1" if traced else "0", str(spans)])
    if res is None:
        p.attempted += 1
        p.fail(f"{workload} pass {k}", err)
        return p
    p.wall = ref_s(wall - res["probing_s"], res["probe_s"])
    p.rss_kb = res["maxrss_kb"]
    for job in res["jobs"]:
        p.attempted += 1
        p.job_seconds[job["name"]] = ref_s(job["seconds"], job["probe_s"])
        if job["error"]:
            p.fail(job["name"], job["error"])
    if traced:
        p.layers.append(_layer_ref_s(res["layer"], res["probe_s"]))
    return p


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Passes while the next one is expected to end within `seconds`.

    A traced run alternates untraced and traced passes.  At least
    MIN_PASSES passes run (MIN_TRACED_PASSES of each kind when traced).
    """
    kinds = (False, True) if trace else (False,)
    least = MIN_TRACED_PASSES if trace else MIN_PASSES
    passes: list = []
    t0 = time.perf_counter()
    for k in itertools.count():
        traced = kinds[k % len(kinds)]
        if all(sum(p.traced == kind for p in passes) >= least for kind in kinds):
            expected = statistics.median(p.wall for p in passes if p.traced == traced)
            if time.perf_counter() - t0 + expected > seconds:
                return passes
        if workload == "scenario-corpus":
            p = run_corpus_pass(seed, k, traced)
        else:
            p = run_warm_pass(workload, seed, k, traced)
        passes.append(p)
        print(f"perfbench: pass {k} traced={int(traced)} pass_s={p.seconds:.4f} wall_s={p.wall:.4f}", file=sys.stderr)


def end_to_end(passes: list) -> dict:
    # a pass whose worker crashed has no timings; its failure is counted elsewhere
    passes = [p for p in passes if p.complete]
    if not passes:
        return {}
    samples: dict = {}
    for p in passes:
        for name, s in p.job_seconds.items():
            samples.setdefault(name, []).append(s)
    jobs = [statistics.median(v) for v in samples.values()]
    return {
        "pass_s": statistics.median(p.seconds for p in passes),
        "cold_wall_s": statistics.median(p.wall for p in passes),
        "job_s.p50": statistics.median(jobs),
        "job_s.p90": statistics.quantiles(jobs, n=10)[-1] if len(jobs) > 1 else jobs[0],
        "peak_rss_mb": statistics.median(p.rss_kb for p in passes) / 1024,
    }


def per_layer(passes: list, stems: list) -> dict:
    passes = [p for p in passes if p.complete]
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    if not traced or not untraced:
        return {}
    per_pass = []
    for p in traced:
        values: dict = {}
        for layer in p.layers:
            for name, v in layer["spans"].items():
                values[name] = values.get(name, 0) + v
        entries = [layer.get("cache_entries") for layer in p.layers]
        if None not in entries:
            values["groebner.cache_entries"] = sum(entries)
        calls = values.get("groebner.groebner_calls")
        entries = values.get("groebner.cache_entries")
        if calls and entries is not None:
            values["groebner.cache_hit_ratio"] = (calls - entries) / calls
        for stem in stems:
            parse_s, tasks_s = p.stems.get(stem, (0.0, 0.0))
            values[f"scenario.parse_s.{stem}"] = parse_s
            values[f"scenario.tasks_s.{stem}"] = tasks_s
        per_pass.append(values)
    names = set.intersection(*(set(v) for v in per_pass)) if per_pass else set()
    out = {name: statistics.median(v[name] for v in per_pass) for name in names}
    out["trace.overhead_ratio"] = statistics.median(p.seconds for p in traced) / statistics.median(
        p.seconds for p in untraced
    )
    return out


def provenance() -> dict:
    src = ROOT / "src" / "cyclecalc"
    digest = hashlib.sha1()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            git_sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            git_sha = ref
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "python": platform.python_version(),
        "sympy": sympy_version,
        "git_sha": git_sha,
        "src_sha1": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/cyclecalc/__init__.py", "scenarios", "BENCHMARK.json", "perfbench/references.json"):
        if not (ROOT / need).exists():
            _fail(f"{need} is missing: run from the root of a cyclecalc source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(parents=True, exist_ok=True)

    trace = bool(args.trace)
    values = measure_setup(trace)
    passes = run_passes(args.workload, args.seed, args.seconds, trace)
    stems = [j for j in corpus_jobs() if not j.startswith("axioms")]
    values.update(per_layer(passes, stems) if trace else end_to_end(passes))

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for e in p.errors:
            print(f"perfbench: failed {e}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
    absent = [m["name"] for m in declared if m["name"] not in values]
    if absent:
        print(f"perfbench: metrics absent (their names are gone from the program): {absent}", file=sys.stderr)
    info = provenance()
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, passes=len(passes))
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
