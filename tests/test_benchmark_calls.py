"""The benchmark harness calls the criteria its own way (``perfbench/
workloads.py`` builds one call per criterion and scheme); those calls must
give the verdicts ``run_suite`` gives.  A program change that breaks a
name or parameter the harness uses fails here, not in a benchmark run.

The harness module is loaded from its file without writing bytecode next
to it, and with the program modules passed in as its worker passes them.
"""

import importlib.util
import sys
import types
from pathlib import Path

from picheck import checker, encodings, syntax, text
from picheck.checker import Criterion, GeneratorConfig, generate_terms, run_suite
from picheck.encodings import EncodingScheme

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_harness_calls_give_run_suite_verdicts(monkeypatch):
    workloads = load_workloads(monkeypatch)
    pc = types.SimpleNamespace(checker=checker, encodings=encodings, syntax=syntax, text=text)
    cfg = GeneratorConfig(max_nodes=3)
    terms = list(generate_terms(cfg))
    groups = workloads.job_groups(pc, workloads.SELFTEST_CRITERIA, workloads.BOTH, cfg)
    harness = [
        (criterion, scheme, term, call(term).outcome)
        for (criterion, scheme, call), term in workloads.jobs(groups, terms)
    ]
    suite = []
    run_suite(
        cfg,
        schemes=[EncodingScheme(label) for label in workloads.BOTH],
        criteria=[Criterion(label) for label in workloads.SELFTEST_CRITERIA],
        on_verdict=lambda c, s, t, v: suite.append((c.value, s.value, t, v.outcome)),
    )
    assert len(harness) == 27_846
    assert harness == suite
