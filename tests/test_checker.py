"""Corpus generation and the validity criteria on curated vectors.

Positive vectors pin the criteria on terms whose behaviour is known by hand;
negative vectors use deliberately broken translators and confirm the checks
actually fire.
"""

import dataclasses
import hashlib
import inspect
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picheck import checker, reduction, verdicts
from picheck.congruence import UNFOLDS, flatten
from picheck.reduction import PROBE_BUDGET, STATE_CAP, STEP_BUDGET, can_step
from picheck.syntax import names
from test_reduction import deadline
from test_syntax import TERMS
from picheck import (
    DEFAULT_CRITERIA,
    NIL,
    SUCCESS,
    Criterion,
    EncodingScheme,
    GeneratorConfig,
    Input,
    Mutation,
    Name,
    Output,
    Par,
    Repl,
    Restrict,
    SuiteBudgets,
    Trace,
    TraceStep,
    alpha_canonical,
    alpha_eq,
    anchor_steps,
    apply_renaming,
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
    has_success,
    inert_normal_form,
    is_async,
    mutant_encoder,
    parse,
    pprint,
    reduct_candidates,
    run_suite,
    struct_eq_bounded,
    struct_eq_s,
    substitute,
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


def _reference_exhaustive_terms(cfg):
    """The exhaustive corpus as first written: every candidate keyed by its
    alpha form against every term kept so far."""
    alphabet = list(cfg.name_alphabet)
    seen = {alpha_canonical(NIL)}
    by_size = {0: [NIL]}
    out = [NIL]
    for k in range(1, cfg.max_nodes + 1):
        layer = []

        def add(t):
            key = alpha_canonical(t)
            if key not in seen:
                seen.add(key)
                layer.append(t)

        if k == 1:
            add(SUCCESS)
        for cont in by_size[k - 1]:
            for a in alphabet:
                for b in alphabet:
                    add(Output(a, b, cont))
                for c in alphabet:
                    add(Input(a, c, cont))
        for body in by_size[k - 1]:
            for b in alphabet:
                add(Restrict(b, body))
            add(Repl(body))
        for i in range(k):
            for l in by_size[i]:
                for r in by_size[k - 1 - i]:
                    add(Par(l, r))
        by_size[k] = layer
        out.extend(layer)
    return out


def _assert_same_nodes(got, want):
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


@pytest.mark.parametrize(
    "letters, max_nodes",
    [("xy", 4), ("x", 5), ("xyz", 3), ("yx", 3), ("xx", 3)],
)
def test_exhaustive_corpus_equals_the_reference(letters, max_nodes):
    cfg = GeneratorConfig(max_nodes=max_nodes, name_alphabet=tuple(map(user, letters)))
    _assert_same_nodes(list(generate_terms(cfg)), _reference_exhaustive_terms(cfg))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3), st.integers(0, 3))
def test_exhaustive_corpus_equals_the_reference_on_any_alphabet(letters, max_nodes):
    cfg = GeneratorConfig(max_nodes=max_nodes, name_alphabet=tuple(map(user, letters)))
    _assert_same_nodes(list(generate_terms(cfg)), _reference_exhaustive_terms(cfg))


def test_exhaustive_corpus_keys_only_binder_candidates(monkeypatch):
    # Only Input and Restrict candidates can be alpha-equal to another
    # candidate; keying every candidate made 22,452 calls here.
    calls = []
    real = checker.alpha_canonical
    monkeypatch.setattr(checker, "alpha_canonical", lambda p: calls.append(p) or real(p))
    assert len(corpus(4)) == 20991
    assert len(calls) == 9282
    assert all(isinstance(p, (Input, Restrict)) for p in calls)


def test_corpus_digests_are_pinned():
    # The sha256 of each corpus's printed terms, one a line: any change to
    # which terms a generator yields, or in which order, shows here.
    corpora = (
        (
            GeneratorConfig(max_nodes=4),
            "1e2fd0bba477ea0d80829ae7dcb0664197fc9d9a7b703b54afae46e42e55fa93",
        ),
        (
            GeneratorConfig(max_nodes=6, random_count=2000, seed=0),
            "297648613b3bc8b7bd0939561d44cf27f68940bf236435e780cb7eccce0457d6",
        ),
        (
            GeneratorConfig(max_nodes=8, random_count=50000, seed=0),
            "53ea2a5726cdafd43f364f037a8d6f46d71ef4922a8fcf348067ab44aac0391a",
        ),
    )
    for cfg, digest in corpora:
        text = "\n".join(map(pprint, generate_terms(cfg)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, cfg


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
    # At 8 nodes a split below(8) takes 4 bits and rejects draws of 8 to 15;
    # with a repeated letter every index is still drawn below 2.
    for seed in (0, 6, 11):
        for max_nodes in (1, 6, 8):
            for letters in ("xy", "xyz", "xx"):
                cfg = GeneratorConfig(
                    max_nodes=max_nodes,
                    name_alphabet=tuple(map(user, letters)),
                    random_count=300,
                    seed=seed,
                )
                got = list(generate_terms(cfg))
                _assert_same_nodes(got, _reference_random_terms(cfg))


def test_empty_alphabet_is_rejected():
    with pytest.raises(ValueError):
        list(generate_terms(GeneratorConfig(name_alphabet=())))


def test_random_corpus_without_a_node_is_rejected():
    # A random term is drawn against a budget of 1 to max_nodes nodes (it
    # may stop short, even at 0); the exhaustive corpus at 0 nodes is just 0
    # (above).
    with pytest.raises(ValueError, match="max_nodes"):
        list(generate_terms(GeneratorConfig(max_nodes=0, random_count=3)))


def test_random_corpus_without_a_term_is_rejected():
    # An empty corpus would pass every criterion having checked nothing.
    for count in (0, -5):
        with pytest.raises(ValueError, match="random_count"):
            list(generate_terms(GeneratorConfig(random_count=count)))
        with pytest.raises(ValueError, match="random_count"):
            run_suite(GeneratorConfig(random_count=count))


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


def _reference_op_completeness(s, scheme, *, eq_budget=UNFOLDS, translate=None):
    """Op-completeness as it was before it settled a term that cannot step
    without encoding it."""
    tr = checker._translator(scheme, translate)
    k = anchor_steps(scheme)
    enc_s = tr(s)
    details = []
    any_inconclusive = False
    for s1, _ in reduct_candidates(s):
        goal = tr(s1)
        matched = None
        stack = [(enc_s, 0, ())]
        while stack and matched is None:
            state, depth, steps = stack.pop()
            if depth == k:
                if struct_eq_bounded(state, goal, eq_budget).is_holds:
                    matched = Trace(enc_s, steps)
                continue
            for q, rd in reduct_candidates(state):
                if depth >= 1 and not rd.inert:
                    continue
                stack.append((q, depth + 1, steps + (TraceStep(state, q, rd),)))
        if matched is not None:
            details.append((s1, matched, True))
            continue
        fallback = reduction.reduces_to(
            enc_s, goal, step_budget=k + 4, eq_budget=eq_budget, state_cap=1024
        )
        if fallback.is_holds:
            details.append((s1, fallback.witness, False))
        elif fallback.is_violated:
            return verdicts.violated(witness=(s, s1), steps=k)
        else:
            any_inconclusive = True
    if any_inconclusive:
        return verdicts.inconclusive(witness=s, steps=k)
    return verdicts.holds(witness=tuple(details), steps=k)


@pytest.mark.parametrize("mutation", [None, *Mutation], ids=lambda m: getattr(m, "value", "real"))
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda sc: sc.value)
def test_op_completeness_equals_the_reference(scheme, mutation):
    translate = None if mutation is None else mutant_encoder(scheme, mutation)
    for s in corpus(3):
        got = check_op_completeness(s, scheme, translate=translate)
        assert got == _reference_op_completeness(s, scheme, translate=translate), pprint(s)


def test_op_completeness_does_not_encode_a_term_that_cannot_step():
    stuck = [s for s in corpus(3) if not reduct_candidates(s)]
    assert stuck
    for scheme in SCHEMES:
        encoded = []

        def counting(p):
            encoded.append(p)
            return encode(p, scheme)

        for s in stuck:
            v = check_op_completeness(s, scheme, translate=counting)
            assert v == verdicts.holds(witness=(), steps=anchor_steps(scheme)), pprint(s)
        assert encoded == []
        check_op_completeness(parse("x!y.0 | x(z).0"), scheme, translate=counting)
        assert encoded


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


def _soundness_graphs():
    """The graphs op-soundness's search builds at a suite run's budgets:
    from every 4-node term that can step and from its two encodings.  Terms
    where neither side can step are settled without a search, and the
    3-node corpus has only 8 terms that can step."""
    for s in generate_terms(GeneratorConfig(max_nodes=4)):
        if not reduct_candidates(s):
            continue
        for p in (s, encode(s, B), encode(s, HT)):
            yield reduction.explore(p, step_budget=STEP_BUDGET, stop_at_cut=True)


def test_reaches_agrees_with_the_fixpoint_on_every_soundness_graph():
    graphs = list(_soundness_graphs())
    assert len(graphs) > 100
    assert any(g.truncated for g in graphs) and any(len(g.states) > 3 for g in graphs)
    for g in graphs:
        preds = checker._predecessors(g.edges)
        # The states that cannot step as one seed set, and every single
        # state as the only seed.
        stuck = {key for key, succs in g.edges.items() if not succs}
        assert checker._reaches(preds, stuck) == _fixpoint_reaches(g.edges, stuck)
        for key in g.states:
            assert checker._reaches(preds, {key}) == _fixpoint_reaches(g.edges, {key})


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
    # A guarded success leaf that can never fire, against an unguarded one.
    s = parse("x!y.ok")
    v = check_success_sensitiveness(s, B, translate=lambda p: SUCCESS)
    assert v == verdicts.violated(witness=(s, "VIOLATED", "HOLDS"), depth=16)


def test_success_sensitiveness_gives_up_in_time_on_a_growing_image():
    # Each step of the mutant's image leaves a larger state; without a size
    # bound on every search the probe ran for minutes.
    s = parse("!x!x.x(x).ok")
    translate = mutant_encoder(B, Mutation.REUSE_BOUND_NAME)
    with deadline(5):
        v = check_success_sensitiveness(s, B, translate=translate)
    assert v == verdicts.inconclusive(witness=s, depth=PROBE_BUDGET)


# --- the search criteria against the full searches they replaced ---


def _reference_op_soundness(
    s, scheme, *, step_budget=STEP_BUDGET, eq_budget=UNFOLDS, state_cap=STATE_CAP, translate=None
):
    """Op-soundness as it was before it settled terms without a search:
    both graphs always explored, each to the end of its budgets."""
    tr = checker._translator(scheme, translate)
    src = reduction.explore(s, step_budget=step_budget, state_cap=state_cap)
    if src.truncated:
        return verdicts.inconclusive(witness=s, states=len(src.states))
    enc_s = tr(s)
    tgt = reduction.explore(enc_s, step_budget=step_budget, state_cap=state_cap)
    if tgt.truncated:
        return verdicts.inconclusive(witness=s, states=len(tgt.states))
    images = [tr(term) for term in src.states.values()]
    marked, maybe = set(), set()
    for key, term in tgt.states.items():
        for image in images:
            if free_names(image) != free_names(term):
                continue
            v = struct_eq_bounded(term, image, eq_budget)
            if v.is_holds:
                marked.add(key)
                break
            if v.is_inconclusive:
                maybe.add(key)
    preds = checker._predecessors(tgt.edges)
    covered = checker._reaches(preds, marked)
    bad = [k for k in tgt.states if k not in covered]
    if not bad:
        return verdicts.holds(states=len(tgt.states), sources=len(images))
    excusable = checker._reaches(preds, maybe)
    if any(k in excusable for k in bad):
        return verdicts.inconclusive(witness=s, states=len(tgt.states))
    return verdicts.violated(witness=(s, tgt.states[bad[0]]), states=len(tgt.states))


def _reference_divergence_reflection(
    s, scheme, *, budget=PROBE_BUDGET, state_cap=STATE_CAP, translate=None
):
    """Divergence reflection as it was: the target probed first, always."""
    tr = checker._translator(scheme, translate)
    target = diverges_bounded(tr(s), budget=budget, state_cap=state_cap)
    if target.is_violated:
        return verdicts.holds(depth=budget)
    if target.is_inconclusive:
        return verdicts.inconclusive(witness=s, depth=budget)
    source = diverges_bounded(s, budget=2 * budget, state_cap=state_cap)
    if source.is_holds:
        return verdicts.holds(depth=budget)
    if source.is_violated:
        return verdicts.violated(witness=(s, target.witness), depth=budget)
    return verdicts.inconclusive(witness=s, depth=2 * budget)


def _reference_success_sensitiveness(
    s, scheme, *, budget=PROBE_BUDGET, state_cap=STATE_CAP, translate=None
):
    """Success sensitiveness as it was: both sides always probed."""
    tr = checker._translator(scheme, translate)
    k = anchor_steps(scheme)
    source = reduction.may_succeed(s, step_budget=budget, state_cap=state_cap)
    target = reduction.may_succeed(tr(s), step_budget=k * budget, state_cap=state_cap)
    if source.is_inconclusive or target.is_inconclusive:
        return verdicts.inconclusive(witness=s, depth=budget)
    if source.outcome is target.outcome:
        return verdicts.holds(depth=budget)
    return verdicts.violated(
        witness=(s, source.outcome.name, target.outcome.name), depth=budget
    )


def _assert_op_soundness_equals_the_reference(s, scheme, translate):
    """Op-soundness gives the reference's outcome, with one exception: an
    Inconclusive may become Holds, as the target is searched modulo inert
    steps.  It may count fewer target states, for the same reason and
    because an Inconclusive stops at its first cut, and a Violated may name
    another bad state, which is an inert normal form.  The reference runs
    under 1,500 states, the checker under its default ``STATE_CAP``: no
    search here comes near either, so the outcomes must agree.  Returns the
    reference's verdict and the one given."""
    got = check_op_soundness(s, scheme, translate=translate)
    ref = _reference_op_soundness(s, scheme, state_cap=1500, translate=translate)
    assert got.outcome is ref.outcome or (ref.is_inconclusive and got.is_holds), pprint(s)
    assert got.budget()["states"] <= ref.budget()["states"], pprint(s)
    if got.is_holds and ref.is_holds:
        assert got.budget()["sources"] == ref.budget()["sources"], pprint(s)
    elif got.is_violated:
        term, bad = got.witness
        assert term is s and inert_normal_form(bad) is bad, pprint(s)
    elif got.is_inconclusive:
        assert got.witness == ref.witness, pprint(s)
    return ref, got


def _assert_search_criteria_equal_the_reference(s, scheme, translate):
    """The three criteria give the reference's whole verdicts, with the
    exceptions ``_assert_op_soundness_equals_the_reference`` allows
    op-soundness and one more: a divergence Inconclusive may become Holds
    when the source diverges; such terms are returned."""
    _assert_op_soundness_equals_the_reference(s, scheme, translate)
    got = check_divergence_reflection(s, scheme, translate=translate)
    ref = _reference_divergence_reflection(s, scheme, translate=translate)
    lifted = []
    if got != ref:
        assert ref.is_inconclusive and got == verdicts.holds(depth=PROBE_BUDGET), pprint(s)
        assert diverges_bounded(s, budget=2 * PROBE_BUDGET).is_holds, pprint(s)
        lifted.append(s)
    got = check_success_sensitiveness(s, scheme, translate=translate)
    assert got == _reference_success_sensitiveness(s, scheme, translate=translate), pprint(s)
    return lifted


# Boudol's reuse-bound-name mutant takes over a second on some 3-node terms
# (ROADMAP item 3), so it runs on the 2-node corpus.
@pytest.mark.parametrize("mutation", [None, *Mutation], ids=lambda m: getattr(m, "value", "real"))
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda sc: sc.value)
def test_search_criteria_equal_the_reference(scheme, mutation):
    translate = None if mutation is None else mutant_encoder(scheme, mutation)
    max_nodes = 2 if (scheme, mutation) == (B, Mutation.REUSE_BOUND_NAME) else 3
    lifted = []
    for s in corpus(max_nodes):
        lifted += _assert_search_criteria_equal_the_reference(s, scheme, translate)
    # No divergence verdict on these corpora is lifted from Inconclusive.
    assert lifted == [], [pprint(s) for s in lifted]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(TERMS, st.sampled_from(SCHEMES), st.sampled_from([None, *Mutation]))
def test_search_criteria_equal_the_reference_on_generated_terms(s, scheme, mutation):
    translate = None if mutation is None else mutant_encoder(scheme, mutation)
    _assert_search_criteria_equal_the_reference(s, scheme, translate)


def test_search_criteria_do_not_search_when_neither_side_can_step(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)

        return wrapper

    for module in (checker, reduction):
        monkeypatch.setattr(module, "explore", counting("explore", reduction.explore))
    for name in ("diverges_bounded", "may_succeed"):
        monkeypatch.setattr(checker, name, counting(name, getattr(reduction, name)))
    settled = 0
    for scheme in SCHEMES:
        for s in corpus(3):
            if reduct_candidates(s) or reduct_candidates(encode(s, scheme)):
                continue
            check_op_soundness(s, scheme)
            check_divergence_reflection(s, scheme)
            check_success_sensitiveness(s, scheme)
            assert calls == [], (pprint(s), calls)
            settled += 1
    assert settled == 2 * (1547 - 8)


def test_divergence_reflection_holds_on_a_diverging_source_before_the_target():
    # The target probe gives up on this growing image (Inconclusive); the
    # source's loop is a real infinite reduction, so the verdict is Holds.
    target = encode(parse("!(x!y.x!x.0 | x(x).0)"), B)
    s = parse("!x!y.0 | !x(z).0")
    assert diverges_bounded(target, budget=PROBE_BUDGET).is_inconclusive
    v = check_divergence_reflection(s, B, translate=lambda p: target)
    assert v == verdicts.holds(depth=16)


def test_op_soundness_stops_at_its_first_cut():
    # Each step of this replication leaves a residue that the next copy
    # reacts with, so its source graph grows without end: the search stops
    # at the first state past the size bound, the 12th, under both schemes.
    s = parse("!(x!y.0 | x(x).y!x.0)")
    for scheme in SCHEMES:
        v = check_op_soundness(s, scheme)
        assert v == verdicts.inconclusive(witness=s, states=12), scheme


def test_op_soundness_searches_the_target_modulo_inert_steps():
    # Every step of the image leaves a pending handshake beside the
    # replication, one inert step from 0: the target graph grew past its
    # size bound (8 Boudol and 10 Honda-Tokoro states at the first cut),
    # and has one state modulo inert steps.
    s = parse("!(y(x).0 | y!x.0)")
    for scheme in SCHEMES:
        v = check_op_soundness(s, scheme)
        assert v == verdicts.holds(states=1, sources=1), scheme


def test_op_soundness_matches_the_normal_forms_of_the_images():
    # Each image carries a handshake on a private channel, one inert step
    # from 0.  The target states are inert normal forms, so only the
    # images' normal forms can match them.
    pending = parse("new v. (v!y.0 | v(z).0)")
    for scheme in SCHEMES:
        def translate(p, scheme=scheme):
            return Par(encode(p, scheme), pending)

        for src in ("0", "x!y.0 | x(z).0", "x!y.0 | x(z).0 | x(w).ok"):
            v = check_op_soundness(parse(src), scheme, translate=translate)
            assert v.is_holds, (src, scheme)


def test_op_soundness_gate_on_the_four_node_corpus():
    # Every searched verdict of the 4-node corpus against the reference,
    # which searches the target without the quotient: every outcome is the
    # same but those of the 16 self-reacting replications like
    # !(x!y.0 | x(z).0), which go from Inconclusive to Holds.  A term where
    # neither side can step is settled without a search, as the reference
    # test on the 3-node corpus and its twin check.
    lifted = []
    searched = 0
    for scheme in SCHEMES:
        for s in corpus(4):
            if not (can_step(s) or can_step(encode(s, scheme))):
                assert check_op_soundness(s, scheme) == verdicts.holds(states=1, sources=1)
                continue
            searched += 1
            ref, got = _assert_op_soundness_equals_the_reference(s, scheme, None)
            if got.outcome is not ref.outcome:
                lifted.append((scheme, s))
    assert searched == 604
    assert [sc for sc, _ in lifted] == [B] * 8 + [HT] * 8
    for _, s in lifted:
        # !(a!b.0 | a(c).0), in either order of the two components.
        assert isinstance(s, Repl) and isinstance(s.body, Par), pprint(s)
        out, inp = sorted((s.body.left, s.body.right), key=lambda c: isinstance(c, Input))
        assert isinstance(out, Output) and isinstance(inp, Input), pprint(s)
        assert out.subject is inp.subject and out.cont is inp.cont is NIL, pprint(s)


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


def ref_lemma_suite(s, scheme, *, sigmas=({},), translate=None):
    """``check_lemma_suite`` while it still checked renaming and
    substitution, and the flattened reading of unguarded success, kept as
    the reference."""
    tr = checker._translator(scheme, translate)
    enc = tr(s)
    failed = []
    if free_names(enc) != free_names(s):
        failed.append("free-names")
    if not is_async(enc):
        failed.append("async-image")
    if has_success(enc) != has_success(s):
        failed.append("success-agreement")
    if any(has_success(c) for c in flatten(s)[1]) != has_success(s):
        failed.append("success-decomposition-source")
    if any(has_success(c) for c in flatten(enc)[1]) != has_success(enc):
        failed.append("success-decomposition-target")
    pool = sorted((n for n in names(s) if not n.is_fresh), key=Name.sort_key)
    pool.append(checker._spare_name(pool))
    for old in pool:
        for new in pool:
            if not alpha_eq(tr(substitute(s, old, new)), substitute(enc, old, new)):
                failed.append(f"substitution:{old}->{new}")
    for sigma in sigmas:
        if not alpha_eq(tr(apply_renaming(s, sigma)), apply_renaming(enc, sigma)):
            failed.append("renaming")
            break
    if failed:
        return verdicts.violated(witness=(s, tuple(failed)))
    return verdicts.holds()


def _failed_clauses(v):
    return v.witness[1] if v.is_violated else ()


def test_lemma_suite_and_name_invariance_catch_what_the_reference_caught():
    # The reference's renaming clauses moved to name invariance, which must
    # catch every term they caught; the clauses the suite keeps must read
    # the same; the decomposition clauses moved to the tests and never fire.
    cfg = GeneratorConfig(max_nodes=3)
    sigmas = checker._default_sigmas(cfg)
    kept = ("free-names", "async-image", "success-agreement")
    renamed = {}
    for scheme in SCHEMES:
        for mutation in (None, *Mutation):
            broken = None if mutation is None else mutant_encoder(scheme, mutation)
            for t in corpus(3):
                ref = _failed_clauses(
                    ref_lemma_suite(t, scheme, sigmas=sigmas[:4], translate=broken)
                )
                got = _failed_clauses(check_lemma_suite(t, scheme, translate=broken))
                assert got == tuple(c for c in ref if c in kept), (pprint(t), mutation)
                assert not any(c.startswith("success-decomposition") for c in ref)
                if any(c == "renaming" or c.startswith("substitution:") for c in ref):
                    assert any(
                        check_name_invariance(t, sigma, scheme, broken).is_violated
                        for sigma in sigmas
                    ), (pprint(t), scheme, mutation)
                    renamed[scheme, mutation] = renamed.get((scheme, mutation), 0) + 1
    assert renamed == {
        (B, Mutation.REUSE_BOUND_NAME): 496,
        (HT, Mutation.REUSE_BOUND_NAME): 268,
    }


def test_default_sigmas_are_the_four_mixed_maps_then_the_one_name_maps():
    w = user("w")
    assert checker._default_sigmas(GeneratorConfig()) == (
        {},
        {x: y, y: x},
        {x: x, y: x},
        {y: w},
        {x: y},
        {x: w},
    )


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
    assert {user("v"): user("w0")} in checker._default_sigmas(cfg)


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
    assert SuiteBudgets.soundness_state_cap == SuiteBudgets.state_cap == STATE_CAP


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
