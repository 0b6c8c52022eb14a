"""Acceptance gate: one test per criterion, at its stated tolerance.

These are the corpus-scale checks; `pytest tests/test_acceptance.py -v`
reads as a per-criterion scoreboard.  Every random draw is seeded, so a
rerun checks the same terms.
"""

import hashlib
import io
import json
import sys
import time
from collections import Counter

import pytest

from picheck import (
    EncodingScheme,
    GeneratorConfig,
    Mutation,
    anchor_steps,
    asyncify,
    check_barb_confluence,
    check_inert_confluence,
    check_lemma_suite,
    check_name_invariance,
    check_op_completeness,
    check_op_soundness,
    diverges_bounded,
    encode,
    first_violation,
    free_names,
    generate_terms,
    has_replication,
    inert_reducts,
    mutant_encoder,
    parse,
    pprint,
    reduct_candidates,
    struct_eq_bounded,
    user,
)
from picheck.cli import main as cli_main

x, y = user("x"), user("y")
B = EncodingScheme.BOUDOL
HT = EncodingScheme.HONDA_TOKORO
SCHEMES = (B, HT)

RANDOM_COUNT = 10_000
# `picheck check --max-nodes 4 --criteria all --json`: 20,991 terms x 7
# criteria x 2 schemes, one line each.
HEADLINE_LINES = 293_874
HEADLINE_SHA256 = "4484eaceb2d43b7ba2a67622456ef290298e49499519c36b6e538a1e78db1f4a"


@pytest.fixture(scope="module")
def corpus4():
    # Every choice-free term with at most 4 constructor nodes over two user
    # names, replication and success included, one term per alpha class.
    return list(generate_terms(GeneratorConfig(max_nodes=4)))


class _RecordSink(io.TextIOBase):
    """Stands in for stdout: hashes the bytes as they are written and counts
    the outcomes of the complete JSON lines, so the stream is never held."""

    def __init__(self):
        self.sha, self.outcomes, self.tail = hashlib.sha256(), Counter(), ""

    def write(self, text):
        self.sha.update(text.encode())
        *lines, self.tail = (self.tail + text).split("\n")
        self.outcomes.update(json.loads(line)["outcome"] for line in lines)
        return len(text)


def test_criterion_1_exhaustive_corpus_zero_violated(monkeypatch):
    # The headline run, pinned to its bytes: any change to a verdict, a
    # witness or a printed term shows here.
    sink = _RecordSink()
    monkeypatch.setattr(sys, "stdout", sink)
    start = time.perf_counter()
    code = cli_main(["check", "--max-nodes", "4", "--criteria", "all", "--json"])
    elapsed = time.perf_counter() - start
    monkeypatch.undo()
    assert code == 0
    assert sink.tail == ""
    assert sink.outcomes == {"holds": HEADLINE_LINES}, sink.outcomes
    assert sink.sha.hexdigest() == HEADLINE_SHA256
    assert elapsed <= 300.0, f"suite took {elapsed:.1f}s"
    print(f"criterion 1: {HEADLINE_LINES} verdicts, all holds, {elapsed:.1f}s")


def test_criterion_2_step_count_anchor(corpus4):
    witnesses = 0
    for scheme in SCHEMES:
        k = anchor_steps(scheme)
        for s in corpus4:
            v = check_op_completeness(s, scheme)
            assert v.is_holds, (pprint(s), scheme, v.outcome)
            for s1, trace, pattern in v.witness:
                assert pattern is True, pprint(s)
                assert len(trace.steps) == k, pprint(s)
                first = trace.steps[0]
                restricted = first.redex.subject not in free_names(first.source)
                assert not first.redex.inert or restricted, pprint(s)
                assert all(st.redex.inert for st in trace.steps[1:]), pprint(s)
                witnesses += 1
    assert witnesses > 0
    print(f"criterion 2: {witnesses} simulation witnesses, all at the anchor counts")


def test_criterion_3_worked_example_traces(capsys):
    src = parse("x!y.0 | x(z).0")
    goal = parse("0 | 0")
    for label, scheme in (("boudol", B), ("ht", HT)):
        k = anchor_steps(scheme)
        code = cli_main(["trace", "--encode", label, "x!y.0 | x(z).0"])
        out, _ = capsys.readouterr()
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 1 + k, out
        assert "[comm x]" in lines[1]
        assert all("[inert" in line for line in lines[2:])
        state = encode(src, scheme)
        printed = [lines[0].removeprefix("start  ")]
        printed += [line.split("]  ", 1)[1] for line in lines[1:]]
        states = [state]
        for _ in range(k):
            states.append(reduct_candidates(states[-1])[0][0])
        assert printed == [pprint(s) for s in states]
        assert struct_eq_bounded(states[-1], encode(goal, scheme)).is_holds
    print("criterion 3: both proof chains reproduced, ends match the encoded goal")


def test_criterion_4_lemma_suite_randomized():
    cfg = GeneratorConfig(max_nodes=6, random_count=RANDOM_COUNT, seed=4)
    sigmas = ({}, {x: y, y: x}, {x: y, y: y})  # swap plus a non-injective collapse
    failures = 0
    for scheme in SCHEMES:
        for t in generate_terms(cfg):
            if not check_lemma_suite(t, scheme).is_holds:
                failures += 1
            for sigma in sigmas:
                if not check_name_invariance(t, sigma, scheme).is_holds:
                    failures += 1
    assert failures == 0
    print(f"criterion 4: {RANDOM_COUNT} random terms x 2 schemes, zero failures")


def test_criterion_5_barb_confluence_fuzz():
    cfg = GeneratorConfig(max_nodes=6, random_count=RANDOM_COUNT, seed=5)
    failures = sum(
        not check_barb_confluence(asyncify(t)).is_holds for t in generate_terms(cfg)
    )
    assert failures == 0
    print(f"criterion 5: {RANDOM_COUNT} asynchronous terms, zero failures")


def test_criterion_6_inert_confluence_fuzz():
    target, cap = 2_000, 1_000_000
    cfg = GeneratorConfig(max_nodes=8, random_count=cap, seed=6)
    hits = violated = inconclusive = 0
    for t in generate_terms(cfg):
        a = asyncify(t)
        if not inert_reducts(a):
            continue
        v = check_inert_confluence(a)
        hits += 1
        if v.is_violated:
            violated += 1
        elif v.is_inconclusive:
            inconclusive += 1
        if hits == target:
            break
    assert hits == target, f"only {hits} inert-bearing terms in {cap} draws"
    assert violated == 0
    rate = inconclusive / hits
    assert rate <= 0.05, f"inconclusive rate {rate:.2%}"
    print(f"criterion 6: {target} inert-bearing terms, zero violated, "
          f"inconclusive rate {rate:.2%}")


def test_criterion_7_soundness_total_on_replication_free_closed(corpus4):
    closed = [t for t in corpus4 if not has_replication(t) and not free_names(t)]
    assert closed
    for scheme in SCHEMES:
        for t in closed:
            v = check_op_soundness(t, scheme)
            assert v.is_holds, (pprint(t), scheme, v.outcome)
    print(f"criterion 7: {len(closed)} closed replication-free terms, only Holds")


def test_criterion_8_divergence_witnesses_and_termination(corpus4):
    looper = parse("!x!y.0 | !x(z).0")
    assert diverges_bounded(looper, budget=16).is_holds
    for scheme in SCHEMES:
        assert diverges_bounded(encode(looper, scheme), budget=16).is_holds
    replication_free = [t for t in corpus4 if not has_replication(t)]
    assert replication_free
    for t in replication_free:
        assert diverges_bounded(t, budget=16).is_violated, pprint(t)
        for scheme in SCHEMES:
            assert diverges_bounded(encode(t, scheme), budget=16).is_violated, (
                pprint(t), scheme,
            )
    print(f"criterion 8: looper diverges on both sides; "
          f"{len(replication_free)} replication-free terms terminate on both sides")


# Each mutant's first Violated verdict, (criterion, term), on the 3-node
# and the 4-node corpus alike.
CATCH_TABLE = {
    (B, Mutation.DROP_FORWARDER): ("lemma-suite", "x!y.0"),
    (B, Mutation.SWAP_FRESH_ROLES): ("op-completeness", "x!x.0 | x(x).0"),
    (B, Mutation.REUSE_BOUND_NAME): ("lemma-suite", "x!x.0"),
    (B, Mutation.SWAP_SCHEME_OUTPUT): ("op-completeness", "x!x.0 | x(x).0"),
    (HT, Mutation.DROP_FORWARDER): ("lemma-suite", "x!y.0"),
    (HT, Mutation.SWAP_FRESH_ROLES): ("lemma-suite", "x!y.0"),
    (HT, Mutation.REUSE_BOUND_NAME): ("lemma-suite", "x!y.0"),
    (HT, Mutation.SWAP_SCHEME_OUTPUT): ("op-completeness", "x!x.0 | x(x).0"),
}


def test_criterion_9_mutation_sensitivity():
    for max_nodes in (3, 4):
        cfg = GeneratorConfig(max_nodes=max_nodes)
        caught = {}
        for scheme in SCHEMES:
            for mutation in Mutation:
                broken = mutant_encoder(scheme, mutation)
                found = first_violation(cfg, scheme, translate=broken)
                assert found is not None, (max_nodes, scheme, mutation)
                term, criterion, verdict = found
                assert verdict.is_violated
                caught[scheme, mutation] = (criterion.value, pprint(term))
        assert caught == CATCH_TABLE, max_nodes
    for (scheme, mutation), entry in caught.items():
        print("criterion 9: {} x {} caught by {} at {}".format(
            scheme.value, mutation.value, *entry))
