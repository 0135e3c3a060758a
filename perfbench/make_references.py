"""Prints the correctness references of the benchmark as JSON.

    python3 perfbench/make_references.py > perfbench/references.json

Run it only when a change is meant to alter behaviour: a performance change
must leave every reference as it is.
"""

import json
import sys

from common import ROOT, corpus_jobs

sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402


def main():
    corpus = {}
    for job in corpus_jobs():
        _, _, report = jobs.run_corpus_job(job)
        corpus[job] = jobs.report_digest(report)
    print(json.dumps({"corpus": corpus, "kernel_leads": jobs.kernel_leads()}, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
