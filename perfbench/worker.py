"""One benchmark worker: a fresh interpreter that runs one pass and exits.

    python3 perfbench/worker.py '<spec as JSON>'

The orchestrator (run.py) starts one worker per pass, so every pass pays
what a ``picheck check`` invocation pays: interpreter start, import, corpus
generation, and cold memo caches.  The worker limits its own address space
and wall time first, so a runaway term fails this worker instead of the
machine.  It prints one JSON object on stdout.

Modes (``spec["mode"]``):
  measure   set up the workload's corpus for the seed, run every job once,
            time each verdict, and check it against the recorded reference;
  selftest  the verdicts of every criterion on the exhaustive 3-node corpus,
            for comparison with ``picheck check --json``;
  mutants   ``first_violation`` for every mutant encoder on the 3-node corpus;
  reference the non-Holds verdicts of search-exhaustive's whole population
            (used by record.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time
import types
from array import array
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "record.json"


class Deadline(Exception):
    """The worker's wall-time allowance ran out."""


def _on_alarm(signum, frame):
    raise Deadline()


def _limit(spec: dict) -> None:
    cap = spec["address_space_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, spec["deadline_s"])


def _import_program():
    """picheck from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import picheck
    import picheck.checker
    import picheck.encodings
    import picheck.syntax
    import picheck.text

    if Path(picheck.__file__).resolve().parent != src / "picheck":
        raise ImportError(f"picheck imported from {picheck.__file__}, not {src}")
    return types.SimpleNamespace(
        checker=picheck.checker,
        encodings=picheck.encodings,
        syntax=picheck.syntax,
        text=picheck.text,
    )


def _maxrss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _measure(spec: dict) -> dict:
    workload = workloads.WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    tracer = None
    pc = _import_program()
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    cfg, generated = workloads.generate(pc, workload, seed)
    # The monotonic clock is system-wide, so the parent's reading at spawn
    # and this one share an origin.
    setup_s = (time.monotonic_ns() - spec["spawn_ns"]) / 1e9
    terms = workloads.select(pc.syntax, workload, seed, generated)
    del generated
    groups = workloads.job_groups(pc, workload.criteria, workload.schemes, cfg)

    clock = time.perf_counter_ns
    lat_ns = array("q")
    outcomes = []
    error = None
    start = clock()
    for (_, _, call), term in workloads.jobs(groups, terms):
        t0 = clock()
        try:
            outcome = call(term).outcome.value
        except Deadline:
            error = "deadline"
            break
        except Exception as exc:  # a raising verdict is a failed verdict
            outcome = f"error:{type(exc).__name__}"
        lat_ns.append(clock() - t0)
        outcomes.append(outcome)
    check_s = (clock() - start) / 1e9
    signal.setitimer(signal.ITIMER_REAL, 0)
    maxrss = _maxrss_mb()
    layers = tracer.report() if tracer is not None else None

    result = {
        "setup_s": setup_s,
        "check_s": check_s,
        "jobs": workload.jobs,
        "done": len(outcomes),
        "lat_ns": lat_ns.tolist(),
        "maxrss_mb": maxrss,
        "layers": layers,
        "error": error,
    }
    result.update(_judge(pc, workload, seed, workloads.jobs(groups, terms), outcomes))
    return result


def _judge(pc, workload, seed: int, jobs, outcomes) -> dict:
    """Compare each verdict with the recorded reference.

    A verdict fails when it raised, when it is Violated (the paper's theorems
    say every criterion holds for both real encoders), or when the reference
    records a definite outcome and this one differs.  Inconclusive turning
    into Holds is counted as newly decided, not failed.  Where the reference
    covers neither the workload's whole population nor this seed, only the
    first two rules apply.
    """
    record = json.loads(RECORD.read_text())
    reference = record["reference"][workload.name]
    recorded_digest = record["digests"][workload.name].get(str(seed))
    known = reference["complete"] or recorded_digest is not None
    non_holds = reference["non_holds"]
    pprint = pc.text.pprint
    lines = []
    failed = decided = newly_decided = 0
    failures = []
    seen_non_holds = {}
    for ((criterion, scheme, _), term), outcome in zip(jobs, outcomes):
        key = f"{criterion}\t{scheme}\t{pprint(term)}"
        lines.append(f"{key}\t{outcome}")
        if outcome != "holds":
            seen_non_holds[key] = outcome
        expected = non_holds.get(key, "holds") if known else None
        if outcome in ("holds", "violated"):
            decided += 1
        if outcome == "violated" or outcome.startswith("error"):
            bad = True
        elif expected is None or outcome == expected:
            bad = False
        elif expected == "inconclusive" and outcome == "holds":
            newly_decided += 1
            bad = False
        else:
            bad = True
        if bad:
            failed += 1
            if len(failures) < 5:
                failures.append(f"{key}\t{outcome} (expected {expected})")
    failed += workload.jobs - len(outcomes)
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    drift = (
        recorded_digest is not None
        and digest != recorded_digest
        and len(outcomes) == workload.jobs
        and not failed
        and not newly_decided
    )
    return {
        "failed": failed,
        "failures": failures,
        "decided": decided,
        "newly_decided": newly_decided,
        "digest": digest,
        "recorded_digest": recorded_digest,
        "non_holds": seen_non_holds,
        # Same outcomes as recorded yet another digest: the corpus changed.
        "digest_drift": drift,
    }


def _selftest(spec: dict) -> dict:
    pc = _import_program()
    pprint = pc.text.pprint
    verdicts = []
    for (criterion, scheme, call), term in workloads.selftest_jobs(pc):
        verdicts.append([criterion, scheme, pprint(term), call(term).outcome.value])
    return {"verdicts": verdicts}


def _reference(spec: dict) -> dict:
    """Every non-Holds verdict of the search criteria on the whole exhaustive
    4-node corpus, the population search-exhaustive samples from."""
    pc = _import_program()
    workload = workloads.WORKLOADS["search-exhaustive"]
    cfg, terms = workloads.generate(pc, workload, 0)
    groups = workloads.job_groups(pc, workload.criteria, workload.schemes, cfg)
    non_holds = {}
    for (criterion, scheme, call), term in workloads.jobs(groups, terms):
        outcome = call(term).outcome.value
        if outcome != "holds":
            non_holds[f"{criterion}\t{scheme}\t{pc.text.pprint(term)}"] = outcome
    return {"non_holds": non_holds}


def _mutants(spec: dict) -> dict:
    pc = _import_program()
    checker, encodings = pc.checker, pc.encodings
    cfg = checker.GeneratorConfig(max_nodes=3)
    caught = []
    for scheme in encodings.EncodingScheme:
        for mutation in encodings.Mutation:
            broken = encodings.mutant_encoder(scheme, mutation)
            found = checker.first_violation(cfg, scheme, translate=broken)
            entry = [scheme.value, mutation.value, None, None]
            if found is not None and found[2].is_violated:
                entry[2:] = [found[1].value, pc.text.pprint(found[0])]
            caught.append(entry)
    return {"caught": caught}


def main() -> None:
    spec = json.loads(sys.argv[1])
    _limit(spec)
    run = {
        "measure": _measure,
        "selftest": _selftest,
        "mutants": _mutants,
        "reference": _reference,
    }[spec["mode"]]
    print(json.dumps(run(spec), separators=(",", ":")), flush=True)
    # Skip interpreter teardown: freeing every cached term takes up to a
    # second and measures nothing.
    os._exit(0)


if __name__ == "__main__":
    main()
