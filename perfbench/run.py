"""Verdict-throughput benchmark for picheck.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its ``src``.
Each invocation:

1. runs the correctness gates, untimed and side by side: every mutant
   encoder must be caught by ``first_violation`` on the exhaustive 3-node
   corpus, and the benchmark's own calls into the criteria must give the
   same (criterion, scheme, term, outcome) stream as ``picheck check
   --max-nodes 3 --json`` (a differential self-test of the harness);
2. measures the workload: one fresh single-threaded interpreter per pass,
   one pass after another, for at least ``--seconds`` seconds and at least
   three passes.  Each pass generates the seed's corpus (timed from process
   spawn to the end of generation: that is ``setup_s``) and then gives
   every verdict of the workload once, each one timed;
3. with ``--trace 1``, repeats the measurement with every public function
   of each layer wrapped (see tracing.py) and reports per-layer calls, self
   time, memo-cache use and the tracing overhead instead.

``--seconds`` defaults to BENCHMARK.json's ``run_seconds``.  It prints one
row per workload with every metric and its unit, and as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 1 when any gate or verdict fails, 2 when it cannot
run at all (for instance without ``src/picheck`` beside it).

The workloads, their reasons, the layer predictions and the recorded verdict
fingerprints are in record.json beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

MIN_PASSES = 3
# Whole invocation, per worker, and per gate, in seconds.  One invocation
# must end within 180 s.
INVOCATION_BUDGET = 170.0
WORKER_DEADLINE = 60.0
GATE_TIMEOUT = 90.0
# Address-space ceiling of a measuring worker; a pass needs a few hundred MB.
WORKER_ADDRESS_SPACE_MB = 2048

END_TO_END = {
    "verdicts_per_s": "1/s",
    "verdict_p50_us": "us",
    "verdict_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decided_share": "ratio",
}


class Budget:
    """Wall-clock allowance of one invocation."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def run_worker(spec: dict, timeout: float, hash_seed: int | None = None) -> tuple[dict | None, str]:
    """Run one worker to completion; (its JSON result or None, a failure note)."""
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    spec = dict(spec, spawn_ns=time.monotonic_ns())
    cmd = [sys.executable, str(WORKER), json.dumps(spec)]
    return _run(cmd, timeout, env, parse=lambda out: json.loads(out.splitlines()[-1]))


def _run(cmd, timeout, env, parse):
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode not in (0, 2) or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    return parse(proc.stdout), ""


# ------------------------------------------------------------------ gates


def _cli_verdicts(timeout: float):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [
        sys.executable,
        "-m",
        "picheck.cli",
        "check",
        "--max-nodes",
        "3",
        "--criteria",
        ",".join(workloads.SELFTEST_CRITERIA),
        "--json",
    ]

    def parse(out: str):
        return [
            [r["criterion"], r["scheme"], r["term"], r["outcome"]]
            for r in map(json.loads, out.splitlines())
        ]

    return _run(cmd, timeout, env, parse)


def run_gates(budget: Budget) -> list[str]:
    """The untimed correctness gates, side by side; the problems found."""
    timeout = min(GATE_TIMEOUT, budget.left())
    base = {"deadline_s": timeout, "address_space_mb": WORKER_ADDRESS_SPACE_MB}
    with ThreadPoolExecutor(max_workers=3) as pool:
        mutants = pool.submit(run_worker, dict(base, mode="mutants"), timeout + 10)
        harness = pool.submit(run_worker, dict(base, mode="selftest"), timeout + 10)
        cli = pool.submit(_cli_verdicts, timeout + 10)
        mutants, harness, cli = mutants.result(), harness.result(), cli.result()
    problems = []
    if mutants[0] is None:
        problems.append(f"mutant gate: {mutants[1]}")
    else:
        for scheme, mutation, criterion, term in mutants[0]["caught"]:
            if criterion is None:
                problems.append(f"mutant gate: {scheme} {mutation} not caught")
    if harness[0] is None or cli[0] is None:
        problems.append(f"self-test: harness {harness[1] or 'ok'}, cli {cli[1] or 'ok'}")
    else:
        ours, theirs = harness[0]["verdicts"], cli[0]
        if ours != theirs:
            diff = next(
                (i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b),
                min(len(ours), len(theirs)),
            )
            problems.append(
                f"self-test: {len(ours)} harness verdicts vs {len(theirs)} from "
                f"picheck check; first difference at {diff}: "
                f"{ours[diff:diff + 1]} vs {theirs[diff:diff + 1]}"
            )
    return problems


# ------------------------------------------------------------ measurement


def _passes(workload, seed: int, seconds: float, trace: bool, budget: Budget):
    """Fresh-process passes until ``seconds`` have gone by (at least
    MIN_PASSES).  Returns the workers' results, the problems met, and the
    number of verdicts lost with a worker that died."""
    results, problems = [], []
    start = time.monotonic()
    longest = 0.0
    i = 0
    while len(results) < MIN_PASSES or time.monotonic() - start < seconds:
        if budget.left() < longest + 5:
            print(f"{workload.name}: stopped after {len(results)} passes, "
                  "out of invocation time", file=sys.stderr)
            break
        deadline = min(WORKER_DEADLINE, budget.left() - 5)
        spec = {
            "mode": "measure",
            "workload": workload.name,
            "seed": seed,
            "trace": trace,
            "deadline_s": deadline,
            "address_space_mb": WORKER_ADDRESS_SPACE_MB,
        }
        # Each pass gets its own hash seed, derived from the workload seed.
        hash_seed = (seed * 1_000_003 + 2 * i + int(trace)) % 2**32
        t0 = time.monotonic()
        result, note = run_worker(spec, deadline + 10, hash_seed)
        longest = max(longest, time.monotonic() - t0)
        i += 1
        if result is None:
            problems.append(f"pass {i} died: {note}")
            return results, problems, workload.jobs
        results.append(result)
        if result["error"]:
            # The unfinished verdicts are already counted as failed.
            problems.append(f"pass {i} stopped: {result['error']}")
            break
    return results, problems, 0


def _quantile(sorted_values: list[int], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _vps(results) -> float:
    return statistics.median(r["done"] / r["check_s"] for r in results)


def end_to_end(results) -> dict[str, float]:
    lat = sorted(x for r in results for x in r["lat_ns"])
    jobs = sum(r["jobs"] for r in results)
    return {
        "verdicts_per_s": _vps(results),
        "verdict_p50_us": _quantile(lat, 0.50) / 1e3,
        "verdict_p99_us": _quantile(lat, 0.99) / 1e3,
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in results),
        "decided_share": sum(r["decided"] for r in results) / jobs,
    }


def per_layer(untraced, traced) -> dict[str, float]:
    """Median over the traced passes of each layer counter, plus overhead."""
    out = {}
    for name, _, _ in tracing.metric_names():
        if name in tracing.OVERHEAD:
            continue
        out[name] = statistics.median(r["layers"][name] for r in traced)
    plain, wrapped = _vps(untraced), _vps(traced)
    out["trace.untraced_verdicts_per_s"] = plain
    out["trace.traced_verdicts_per_s"] = wrapped
    out["trace.overhead"] = plain / wrapped - 1
    return out


def judge(results, lost: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the passes of one workload."""
    attempted = sum(r["jobs"] for r in results) + lost
    failed = sum(r["failed"] for r in results) + lost
    problems = []
    for r in results:
        problems += r["failures"]
        if r["digest_drift"]:
            problems.append(
                f"fingerprint {r['digest'][:16]} differs from the recorded "
                f"{r['recorded_digest'][:16]} with no verdict changed: the corpus changed"
            )
    if len({r["digest"] for r in results}) > 1:
        problems.append("passes over the same corpus gave different verdicts")
    # Every pass checks the same corpus, so a failure repeats in each.
    return attempted, failed, list(dict.fromkeys(problems))


def bench_workload(workload, seed: int, seconds: float, trace: bool, budget: Budget):
    # A traced run splits its time between untraced and traced passes; the
    # untraced ones give the base for the tracing overhead.
    share = seconds / 2 if trace else seconds
    results, problems, lost = _passes(workload, seed, share, False, budget)
    traced = []
    if trace and results and not problems:
        traced, more, lost = _passes(workload, seed, share, True, budget)
        problems += more
    attempted, failed, found = judge(results + traced, lost)
    metrics = {}
    if trace and traced:
        metrics = per_layer(results, traced)
    elif not trace and results:
        metrics = end_to_end(results)
    return results, metrics, attempted, failed, problems + found


# ---------------------------------------------------------------- report


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_row(workload, seed, results, metrics, attempted, failed, trace) -> None:
    if not metrics:
        print(f"{workload.name:18s} seed={seed} no complete measurement")
        return
    digest = results[0]["digest"]
    recorded = results[0]["recorded_digest"]
    match = "not recorded" if recorded is None else (
        "matches record" if recorded == digest else "differs from record"
    )
    newly = results[0]["newly_decided"]
    if trace:
        for name, unit, _ in tracing.metric_names():
            print(f"{workload.name:18s} {name:48s} {_fmt(metrics[name]):>12s} {unit}")
        return
    cells = [f"{name}={_fmt(metrics[name])} {END_TO_END[name]}" for name in END_TO_END]
    cells.append(f"failed_share={_fmt(failed / attempted)} ratio")
    print(
        f"{workload.name:18s} seed={seed} passes={len(results)} "
        f"verdicts={attempted} (p99 has {attempted // 100} beyond) | "
        + " | ".join(cells)
        + f" | fingerprint {digest[:16]} {match}"
        + (f", {newly} Inconclusive now decided" if newly else "")
    )


def declared_metrics_match(declared: dict) -> bool:
    """BENCHMARK.json lists exactly the metrics this file reports."""
    e2e = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
    return e2e == list(END_TO_END.items()) and layers == tracing.metric_names()


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "picheck" / "__init__.py").is_file():
        print(f"run.py: no picheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not declared_metrics_match(declared):
        print("run.py: BENCHMARK.json and the reported metrics disagree", file=sys.stderr)
        return 2
    budget = Budget(INVOCATION_BUDGET)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    problems = [f"gate: {p}" for p in run_gates(budget)]
    attempted = failed = 0
    all_metrics = {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        results, metrics, n, bad, found = bench_workload(
            workload, args.seed, args.seconds, bool(args.trace), budget
        )
        print_row(workload, args.seed, results, metrics, n, bad, bool(args.trace))
        attempted += n
        failed += bad
        problems += [f"{name}: {p}" for p in found]
        all_metrics[name] = metrics

    for p in problems:
        print(f"FAIL {p}")
    units = {n: u for n, u, _ in tracing.metric_names()} if args.trace else END_TO_END

    def tagged(metrics):
        return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    correct = not problems and failed == 0 and all(all_metrics.values())
    if len(names) == 1:
        metrics = tagged(all_metrics[names[0]])
    else:
        metrics = {name: tagged(m) for name, m in all_metrics.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
