"""Re-record the reference verdicts that run.py checks against.

    python3 perfbench/record.py

Writes two fields of record.json and keeps the rest:

- ``reference``: per workload, the non-Holds verdicts the program is known
  to give, keyed by "criterion<TAB>scheme<TAB>term".  search-exhaustive's
  population (the exhaustive 4-node corpus) is checked whole, and
  translate-random's criteria never answer Inconclusive, so both are
  complete; confluence-fuzz collects what the recorded seeds showed.
- ``digests``: per workload and each seed of SEEDS, the sha256 of the
  sorted (criterion, scheme, term, outcome) lines of one pass.

Run it only on a commit whose verdicts are trusted: it records whatever the
program answers.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import workloads
from run import WORKER_ADDRESS_SPACE_MB, run_worker

RECORD = Path(__file__).resolve().parent / "record.json"
# The seeds whose fingerprints are recorded, and the workers run at a time.
SEEDS = range(100)
WORKERS = 2


def main() -> int:
    base = {"deadline_s": 600, "address_space_mb": WORKER_ADDRESS_SPACE_MB}

    full, note = run_worker(dict(base, mode="reference"), 660)
    if full is None:
        print(f"reference run failed: {note}", file=sys.stderr)
        return 1
    original = RECORD.read_text()
    record = json.loads(original)
    reference = {
        "translate-random": {"complete": True, "non_holds": {}},
        "search-exhaustive": {"complete": True, "non_holds": full["non_holds"]},
        "confluence-fuzz": {"complete": False, "non_holds": {}},
    }
    # Judge nothing while recording: start from an empty record, and put the
    # old one back if recording fails.
    record["reference"] = {
        name: {"complete": False, "non_holds": {}} for name in workloads.WORKLOADS
    }
    record["digests"] = {name: {} for name in workloads.WORKLOADS}
    RECORD.write_text(json.dumps(record, indent=1) + "\n")

    tasks = [(name, seed) for name in workloads.WORKLOADS for seed in SEEDS]

    def one(task):
        name, seed = task
        spec = dict(base, mode="measure", workload=name, seed=seed, trace=False)
        return task, run_worker(spec, 660)

    digests = {name: {} for name in workloads.WORKLOADS}
    problem = None
    pool = ThreadPoolExecutor(max_workers=WORKERS)
    for (name, seed), (result, note) in pool.map(one, tasks):
        if result is None or result["failed"]:
            problem = f"{name} seed {seed}: {note or result['failures']}"
        elif name != "confluence-fuzz" and any(
            reference[name]["non_holds"].get(k) != v for k, v in result["non_holds"].items()
        ):
            problem = f"{name} seed {seed}: outcome outside the reference"
        if problem:
            break
        digests[name][str(seed)] = result["digest"]
        if name == "confluence-fuzz":
            reference[name]["non_holds"].update(result["non_holds"])
        print(f"{name} seed {seed}: {result['digest'][:16]}", file=sys.stderr)
    pool.shutdown(cancel_futures=True)
    if problem:
        print(problem, file=sys.stderr)
        RECORD.write_text(original)
        return 1
    record["reference"] = reference
    record["digests"] = digests
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
