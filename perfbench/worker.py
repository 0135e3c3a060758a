"""One fresh interpreter of the benchmark: it times `import cyclecalc`, then runs jobs.

    python3 perfbench/worker.py import
    python3 perfbench/worker.py corpus <job> <trace 0|1> <spans path>
    python3 perfbench/worker.py pass <workload> <seed> <pass index> <trace 0|1> <spans path>

Prints one JSON object on its last stdout line: raw seconds, each with the
probe time around it (perfbench/probe.py).  Nothing is imported before the
timed import beyond `os`, `sys`, `time` and the probe, so the import is
measured cold.
"""

import os
import sys
import time

from probe import REPS, probe

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

PROBES = [probe()]  # every probe this process takes
_t0 = time.perf_counter()
import cyclecalc  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0
PROBES.append(probe())

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import jobs  # noqa: E402
from common import ROOT  # noqa: E402
from tracer import Tracer, cache_size, span_metrics  # noqa: E402


PROBE_EVERY_S = 0.05


def _probe() -> float:
    PROBES.append(probe())
    return PROBES[-1]


def _finish(out: dict):
    out["import_s"] = IMPORT_S
    out["import_probe_s"] = (PROBES[0] + PROBES[1]) / 2
    out["probe_s"] = sum(PROBES) / len(PROBES)
    out["probing_s"] = sum(PROBES) * REPS  # time spent in probes, not in the program
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


def _load_refs() -> dict:
    return json.loads((ROOT / "perfbench" / "references.json").read_text())


def _layer(tracer: Tracer, spans_path: str, cache_added) -> dict:
    """Per-layer numbers of this process; spans go to `spans_path`."""
    stats = tracer.summary()
    tracer.write(spans_path)
    out = {"spans": span_metrics(stats), "missing": tracer.missing}
    for span in ("scenario.parse", "scenario.tasks"):
        if span in stats:
            out[span] = stats[span]["incl_s"]
    if cache_added is not None:
        out["cache_entries"] = cache_added
    return out


def corpus(job: str, trace: bool, spans_path: str):
    tracer = Tracer().install() if trace else None
    before = cache_size()
    try:
        parse_s, tasks_s, report = jobs.run_corpus_job(job)
    except Exception:
        _finish({"job": job, "error": traceback.format_exc(limit=3)})
        return
    job_probe_s = (PROBES[-1] + _probe()) / 2
    added = None if before is None else cache_size() - before
    mark = tracer.mark() if tracer else None
    digest = jobs.report_digest(report)
    out = {"job": job, "parse_s": parse_s, "tasks_s": tasks_s, "job_probe_s": job_probe_s, **digest}
    out["error"] = jobs.check_corpus(job, digest, _load_refs()["corpus"])
    if tracer:
        tracer.discard_since(mark)
        out["layer"] = _layer(tracer, spans_path, added)
    _finish(out)


def run_pass(workload: str, seed: int, k: int, trace: bool, spans_path: str):
    batch = jobs.PASS_JOBS[workload](seed, k)
    refs = _load_refs()
    tracer = Tracer().install() if trace else None
    added = 0
    results = []
    # Jobs between two probes share the mean of those probes; a probe follows
    # every PROBE_EVERY_S of timed calls, and precedes the job's checks.
    unprobed: list = []
    last_probe = _probe()
    for i, job in enumerate(batch):
        before = cache_size()
        t0 = time.perf_counter()
        try:
            value = job.run()
            error = None
        except Exception:
            value, error = None, traceback.format_exc(limit=3)
        result = {"name": job.name, "seconds": time.perf_counter() - t0, "error": error}
        results.append(result)
        unprobed.append(result)
        if sum(r["seconds"] for r in unprobed) >= PROBE_EVERY_S or i == len(batch) - 1:
            next_probe = _probe()
            for r in unprobed:
                r["probe_s"] = (last_probe + next_probe) / 2
            unprobed, last_probe = [], next_probe
        if error:
            continue
        added = None if before is None else added + cache_size() - before
        # the checks call into cyclecalc too; their spans are not the job's
        mark = tracer.mark() if tracer else None
        try:
            result["error"] = job.check(value, refs)
        except Exception:
            result["error"] = traceback.format_exc(limit=3)
        if tracer:
            tracer.discard_since(mark)
    out = {"jobs": results}
    if tracer:
        out["layer"] = _layer(tracer, spans_path, added)
    _finish(out)


def main(argv):
    if argv[0] == "import":
        _finish({})
    elif argv[0] == "corpus":
        corpus(argv[1], argv[2] == "1", argv[3])
    elif argv[0] == "pass":
        run_pass(argv[1], int(argv[2]), int(argv[3]), argv[4] == "1", argv[5])
    else:
        raise SystemExit(f"unknown worker command {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
