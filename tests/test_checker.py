"""Corpus generation and the validity criteria on curated vectors.

Positive vectors pin the criteria on terms whose behaviour is known by hand;
negative vectors use deliberately broken translators and confirm the checks
actually fire.
"""

import dataclasses
import inspect
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picheck import checker
from picheck import (
    DEFAULT_CRITERIA,
    NIL,
    SUCCESS,
    Criterion,
    EncodingScheme,
    GeneratorConfig,
    Input,
    Mutation,
    Output,
    Par,
    Repl,
    Restrict,
    SuiteBudgets,
    Trace,
    alpha_canonical,
    alpha_eq,
    anchor_steps,
    check_barb_confluence,
    check_compositionality,
    check_divergence_reflection,
    check_inert_confluence,
    check_lemma_suite,
    check_name_invariance,
    check_op_completeness,
    check_op_soundness,
    check_success_sensitiveness,
    diverges_bounded,
    encode,
    first_violation,
    free_names,
    generate_terms,
    is_async,
    mutant_encoder,
    parse,
    pprint,
    run_suite,
    struct_eq_bounded,
    struct_eq_s,
    user,
)

x, y = user("x"), user("y")
B = EncodingScheme.BOUDOL
HT = EncodingScheme.HONDA_TOKORO
SCHEMES = (B, HT)


def corpus(max_nodes, **kw):
    return list(generate_terms(GeneratorConfig(max_nodes=max_nodes, **kw)))


# --- corpus generation ---


def test_zero_node_corpus_is_just_nil():
    assert corpus(0) == [NIL]


def test_one_node_corpus_exact_classes():
    got = corpus(1)
    expected = [
        "0", "ok",
        "x!x.0", "x!y.0", "y!x.0", "y!y.0",
        "x(z).0", "y(z).0",
        "new z. 0", "!0", "0 | 0",
    ]
    assert len(got) == len(expected)
    for s in expected:
        want = parse(s)
        assert sum(alpha_eq(t, want) for t in got) == 1, s


def test_corpus_has_one_representative_per_alpha_class():
    got = corpus(3)
    assert len({alpha_canonical(t) for t in got}) == len(got)


def test_one_letter_corpus_holds_the_self_communication():
    got = corpus(3, name_alphabet=(x,))
    want = parse("x!x.0 | x(z).0")
    assert any(alpha_eq(t, want) for t in got)
    assert all(names <= {x} for names in map(free_names, got))


def test_random_corpus_is_seed_deterministic():
    cfg = GeneratorConfig(max_nodes=5, random_count=50, seed=7)
    first = list(generate_terms(cfg))
    second = list(generate_terms(cfg))
    assert first == second
    assert len(first) == 50
    other = list(generate_terms(GeneratorConfig(max_nodes=5, random_count=50, seed=8)))
    assert first != other


def _reference_random_terms(cfg):
    """The random corpus as first written: weights passed on every draw."""
    rng = random.Random(cfg.seed)
    alphabet = list(cfg.name_alphabet)
    kinds = ["out", "in", "par", "new", "nil", "repl", "ok"]
    weights = [3, 3, 3, 2, 1, 1, 1]

    def go(budget):
        if budget <= 0:
            return NIL
        kind = rng.choices(kinds, weights)[0]
        if kind in ("nil", "ok"):
            return NIL if kind == "nil" else SUCCESS
        if kind in ("out", "in"):
            make = Output if kind == "out" else Input
            return make(rng.choice(alphabet), rng.choice(alphabet), go(budget - 1))
        if kind == "par":
            split = rng.randint(0, budget - 1)
            return Par(go(split), go(budget - 1 - split))
        if kind == "new":
            return Restrict(rng.choice(alphabet), go(budget - 1))
        return Repl(go(budget - 1))

    return [go(rng.randint(1, cfg.max_nodes)) for _ in range(cfg.random_count)]


def test_random_corpus_draws_the_reference_stream():
    cfg = GeneratorConfig(max_nodes=7, random_count=300, seed=11)
    assert list(generate_terms(cfg)) == _reference_random_terms(cfg)


def test_empty_alphabet_is_rejected():
    with pytest.raises(ValueError):
        list(generate_terms(GeneratorConfig(name_alphabet=())))


def test_random_corpus_without_a_node_is_rejected():
    # A random term has 1 to max_nodes nodes; the exhaustive corpus at 0
    # nodes is just 0 (above).
    with pytest.raises(ValueError, match="max_nodes"):
        list(generate_terms(GeneratorConfig(max_nodes=0, random_count=3)))


# --- compositionality ---


def test_compositionality_holds_on_corpus():
    for scheme in SCHEMES:
        for t in corpus(3):
            assert check_compositionality(t, scheme).is_holds, pprint(t)


# --- name invariance ---


def test_name_invariance_holds_for_standard_maps():
    s = parse("x!y.x(z).z!y.0")
    for scheme in SCHEMES:
        for sigma in ({}, {x: y, y: x}, {x: y, y: y}):
            assert check_name_invariance(s, sigma, scheme).is_holds


def test_name_invariance_catches_a_constant_translator():
    v = check_name_invariance(parse("x!y.0"), {x: y}, B, translate=lambda p: Output(x, x, NIL))
    assert v.is_violated


# --- operational completeness ---


def test_op_completeness_witness_shape():
    s = parse("x!y.0 | x(z).0")
    for scheme in SCHEMES:
        k = anchor_steps(scheme)
        v = check_op_completeness(s, scheme)
        assert v.is_holds
        assert v.budget()["steps"] == k
        (s1, trace, pattern), = v.witness
        assert pattern is True
        assert struct_eq_s(s1, NIL)
        assert isinstance(trace, Trace)
        assert trace.start == encode(s, scheme)
        assert len(trace.steps) == k
        assert not trace.steps[0].redex.inert
        assert all(st.redex.inert for st in trace.steps[1:])
        assert struct_eq_bounded(trace.steps[-1].target, encode(s1, scheme)).is_holds


def test_op_completeness_under_restricted_subject():
    s = parse("new x. (x!y.0 | x(z).0)")
    for scheme in SCHEMES:
        v = check_op_completeness(s, scheme)
        assert v.is_holds
        (s1, trace, pattern), = v.witness
        assert len(trace.steps) == anchor_steps(scheme)
        assert all(st.redex.inert for st in trace.steps[1:])


def test_op_completeness_keeps_a_match_past_unknown_paths():
    # Nested replications: some anchored paths end on states whose bounded
    # congruence to the encoded reduct is unknown, but another path matches
    # every source step, so the verdict is Holds.
    for src in ("!(x(x).0 | !x!x.0)", "!!(x(x).0 | x!y.0)"):
        for scheme in SCHEMES:
            v = check_op_completeness(parse(src), scheme)
            assert v.is_holds, (src, scheme)
            assert all(pattern for _, _, pattern in v.witness)


def test_op_completeness_flags_dropped_forwarder():
    s = parse("x!y.0 | x(z).0")
    for scheme in SCHEMES:
        broken = mutant_encoder(scheme, Mutation.DROP_FORWARDER)
        assert check_op_completeness(s, scheme, translate=broken).is_violated


# --- operational soundness ---


def test_op_soundness_holds_on_handshakes():
    for src in ("x!y.0 | x(z).0", "x!y.0 | x(z).0 | x(w).ok", "new x. (x!y.0 | x(z).0)"):
        s = parse(src)
        for scheme in SCHEMES:
            assert check_op_soundness(s, scheme).is_holds, (src, scheme)


def test_op_soundness_flags_dropped_forwarder():
    s = parse("x!y.0 | x(z).0")
    broken = mutant_encoder(B, Mutation.DROP_FORWARDER)
    assert check_op_soundness(s, B, translate=broken).is_violated


def _fixpoint_reaches(edges: dict, seeds: set) -> set:
    """The pass-until-stable closure that the backward search replaced."""
    good = set(seeds)
    changed = True
    while changed:
        changed = False
        for key, succs in edges.items():
            if key not in good and any(sk in good for sk in succs):
                good.add(key)
                changed = True
    return good


def test_reaches_agrees_with_the_fixpoint_on_every_soundness_graph(monkeypatch):
    # Record each graph op-soundness explores and the seeds it closes over.
    graphs, calls = [], []
    explore, reaches = checker.explore, checker._reaches

    def recording_explore(p, **kw):
        graphs.append(explore(p, **kw))
        return graphs[-1]

    def recording_reaches(preds, seeds):
        calls.append((graphs[-1], set(seeds)))
        return reaches(preds, seeds)

    monkeypatch.setattr(checker, "explore", recording_explore)
    monkeypatch.setattr(checker, "_reaches", recording_reaches)
    for scheme in SCHEMES:
        for s in generate_terms(GeneratorConfig(max_nodes=3)):
            check_op_soundness(s, scheme)
    monkeypatch.undo()
    assert any(seeds for _, seeds in calls)
    targets = {id(g): g for g, _ in calls}
    assert len(targets) > 100
    for g, seeds in calls:
        preds = checker._predecessors(g.edges)
        assert reaches(preds, seeds) == _fixpoint_reaches(g.edges, seeds)
    # Every single state as the only seed, too.
    for g in targets.values():
        preds = checker._predecessors(g.edges)
        for key in g.states:
            assert reaches(preds, {key}) == _fixpoint_reaches(g.edges, {key})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.dictionaries(st.integers(0, 11), st.lists(st.integers(0, 11), max_size=4).map(tuple)),
    st.sets(st.integers(0, 11), max_size=3),
)
def test_reaches_agrees_with_the_fixpoint_on_random_graphs(edges, seeds):
    preds = checker._predecessors(edges)
    assert checker._reaches(preds, seeds) == _fixpoint_reaches(edges, seeds)


# --- divergence ---


def test_divergence_probe_vectors():
    looper = parse("!x!y.0 | !x(z).0")
    assert diverges_bounded(looper, budget=16).is_holds
    for scheme in SCHEMES:
        assert diverges_bounded(encode(looper, scheme), budget=16).is_holds
    assert diverges_bounded(parse("x!y.0 | x(z).0"), budget=16).is_violated


def test_divergence_reflection_holds_both_ways():
    for src in ("x!y.0 | x(z).0", "!x!y.0 | !x(z).0"):
        s = parse(src)
        for scheme in SCHEMES:
            assert check_divergence_reflection(s, scheme).is_holds, (src, scheme)


def test_divergence_reflection_catches_a_diverging_translation():
    spinner = parse("!x!x.0 | !x(z).0")
    v = check_divergence_reflection(parse("0"), B, budget=8, translate=lambda p: spinner)
    assert v.is_violated


def test_divergence_reflection_gives_up_on_growing_replications():
    # Self-reacting replications whose Boudol image grows without bound: the
    # probe must stop at the size cap instead of running out of time or memory.
    for src in ("!(x!y.x!x.0 | x(x).0)", "!(0 | (x!y.x!x.0 | x(x).0))"):
        start = time.perf_counter()
        assert check_divergence_reflection(parse(src), B).is_inconclusive, src
        assert time.perf_counter() - start < 30, src


# --- success sensitiveness ---


def test_success_sensitiveness_holds_on_vectors():
    for src in ("ok", "x!y.ok | x(z).0", "x!y.0", "x!y.0 | x(z).ok"):
        s = parse(src)
        for scheme in SCHEMES:
            assert check_success_sensitiveness(s, scheme).is_holds, (src, scheme)


def test_success_sensitiveness_catches_a_lying_translation():
    v = check_success_sensitiveness(parse("0"), B, translate=lambda p: SUCCESS)
    assert v.is_violated


# --- lemma suite ---


def test_lemma_suite_holds_on_corpus():
    for scheme in SCHEMES:
        for t in corpus(2):
            assert check_lemma_suite(t, scheme).is_holds, pprint(t)


def test_lemma_suite_names_the_failing_property():
    broken = mutant_encoder(B, Mutation.DROP_FORWARDER)
    v = check_lemma_suite(parse("x!y.0"), B, translate=broken)
    assert v.is_violated
    _, failed = v.witness
    assert "free-names" in failed


def test_spare_name_continues_past_the_seven_letters():
    letters = [user(c) for c in "wqrstuv"]
    assert checker._spare_name([user("w"), user("x")]) is user("q")
    assert checker._spare_name(letters) is user("w0")
    assert checker._spare_name(letters + [user("w0")]) is user("w1")


def test_lemma_suite_and_default_sigmas_when_every_spare_letter_is_taken():
    s = parse("w!q.r!s.t!u.v!v.0")
    for scheme in SCHEMES:
        assert check_lemma_suite(s, scheme).is_holds
    cfg = GeneratorConfig(max_nodes=1, name_alphabet=tuple(user(c) for c in "wqrstuv"))
    assert checker._default_sigmas(cfg)[-1] == {user("v"): user("w0")}


# --- confluence checks for the asynchronous fragment ---


def test_barb_confluence_vectors():
    assert check_barb_confluence(parse("ok | x!y.0 | x(z).0")).is_holds
    assert check_barb_confluence(parse("x!y.0 | x(z).0")).is_holds


def test_inert_confluence_diamond():
    p = parse("new v. (v!y.0 | v(q).0) | x!x.0 | x(z).0")
    assert is_async(p)
    assert check_inert_confluence(p).is_holds
    assert check_inert_confluence(parse("x!y.0 | x(z).0")).is_holds


# --- suite plumbing ---


def test_run_suite_on_nil_corpus():
    reports = run_suite(GeneratorConfig(max_nodes=0))
    assert len(reports) == 2 * len(DEFAULT_CRITERIA)
    for r in reports:
        assert r.passed and r.checked == 1 and r.violated == 0
    assert {(r.criterion, r.scheme) for r in reports} == {
        (c, s) for s in SCHEMES for c in DEFAULT_CRITERIA
    }


def test_first_violation_is_none_for_the_real_encoders():
    cfg = GeneratorConfig(max_nodes=2)
    for scheme in SCHEMES:
        assert first_violation(cfg, scheme) is None


def test_first_violation_catches_drop_forwarder_early():
    broken = mutant_encoder(B, Mutation.DROP_FORWARDER)
    found = first_violation(GeneratorConfig(max_nodes=1), B, translate=broken)
    assert found is not None
    term, criterion, verdict = found
    assert term == parse("x!y.0")
    assert criterion is Criterion.LEMMA_SUITE
    assert verdict.is_violated


def test_run_configuration_is_pinned():
    # run_suite runs the built-in encoders over a corpus; first_violation
    # scans a corpus, through MUTATION_SCAN_ORDER, for a broken encoder.
    assert [f.name for f in dataclasses.fields(GeneratorConfig)] == [
        "max_nodes", "name_alphabet", "random_count", "seed",
    ]
    assert list(inspect.signature(run_suite).parameters) == [
        "cfg", "schemes", "budgets", "criteria", "on_verdict",
    ]
    assert list(inspect.signature(first_violation).parameters) == [
        "cfg", "scheme", "translate",
    ]
    assert [f.name for f in dataclasses.fields(SuiteBudgets)] == ["step_budget"]


@pytest.mark.parametrize("runner", ["run_suite", "first_violation"])
def test_a_run_builds_the_renamings_once(monkeypatch, runner):
    built = []
    original = checker._default_sigmas

    def counting(cfg):
        built.append(cfg)
        return original(cfg)

    monkeypatch.setattr(checker, "_default_sigmas", counting)
    cfg = GeneratorConfig(max_nodes=2)
    if runner == "run_suite":
        reports = run_suite(cfg)
        assert all(r.passed for r in reports)
    else:
        assert first_violation(cfg, B) is None
    assert built == [cfg]
