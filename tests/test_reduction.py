"""Reduction search: redex discovery, inert steps, reachability, success,
divergence.

The ground truth for one-step reducts is a brute-force oracle over terms
of shape ``new* (c1 | ... | cn)`` with prefix, replicated, nil, or success
components: it pairs every available output with every available input on
the same subject directly from the definition, leaving replicated
components in place.
"""

import contextlib
import dataclasses
import functools
import itertools
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_syntax import NAMES, TERMS

from picheck import reduction, verdicts
from picheck.checker import GeneratorConfig, asyncify, generate_terms
from picheck.congruence import (
    canonical_state,
    expose,
    flatten,
    struct_eq_bounded,
    struct_eq_s,
)
from picheck.encodings import EncodingScheme, encode
from picheck.reduction import (
    RedexDescriptor,
    ReductionGraph,
    Trace,
    TraceStep,
    _barbs,
    _contract,
    _inert_ok,
    _steps,
    can_step,
    diverges_bounded,
    explore,
    growth_cap,
    has_success,
    inert_normal_form,
    inert_reducts,
    may_succeed,
    reduces_to,
    reduct_candidates,
)
from picheck.syntax import (
    NIL,
    Input,
    Nil,
    Output,
    Par,
    Repl,
    Restrict,
    Success,
    alpha_canonical,
    alpha_eq,
    free_names,
    has_replication,
    is_async,
    par_all,
    substitute,
    term_size,
    user,
)
from picheck.text import parse, pprint
from picheck.verdicts import Outcome

x, y, z, w = user("x"), user("y"), user("z"), user("w")


# ------------------------------------------------------------- the oracle


def _split(p):
    """Decompose ``new* (par of components)``; None when out of scope."""
    binders = []
    while isinstance(p, Restrict):
        binders.append(p.binder)
        p = p.body
    comps = []
    stack = [p]
    while stack:
        t = stack.pop()
        if isinstance(t, Par):
            stack.append(t.left)
            stack.append(t.right)
        elif isinstance(t, (Output, Input, Repl, Nil, Success)):
            comps.append(t)
        else:
            return None
    for c in comps:
        if isinstance(c, Repl) and not isinstance(c.body, (Output, Input)):
            return None
    return binders, comps


def oracle_reducts(p):
    """All one-step reducts by definition: an output and an input on the
    same subject react; a replicated prefix contributes one copy and
    stays."""
    shape = _split(p)
    assert shape is not None, f"oracle does not cover {pprint(p)}"
    binders, comps = shape
    avail = []
    for i, c in enumerate(comps):
        if isinstance(c, (Output, Input)):
            avail.append((i, c, False))
        elif isinstance(c, Repl):
            avail.append((i, c.body, True))
    results = []
    for (i, out, ri), (j, inp, rj) in itertools.permutations(avail, 2):
        if not isinstance(out, Output) or not isinstance(inp, Input):
            continue
        if out.subject != inp.subject:
            continue
        rest = [
            c
            for k, c in enumerate(comps)
            if k not in {i, j} or (k == i and ri) or (k == j and rj)
        ]
        contracted = [out.cont, substitute(inp.cont, inp.binder, out.obj)]
        body = par_all(rest + contracted)
        for b in reversed(binders):
            body = Restrict(b, body)
        results.append(body)
    return results


def _distinct_classes(terms):
    reps = []
    for t in terms:
        if not any(struct_eq_bounded(t, r).is_holds for r in reps):
            reps.append(t)
    return reps


def _assert_same_reducts(p):
    got = [q for q, _ in reduct_candidates(p)]
    want = oracle_reducts(p)
    got_reps = _distinct_classes(got)
    want_reps = _distinct_classes(want)
    assert len(got_reps) == len(want_reps), pprint(p)
    for wr in want_reps:
        assert any(
            struct_eq_bounded(wr, gr).is_holds for gr in got_reps
        ), (pprint(p), pprint(wr))


def test_reducts_match_oracle_on_plain_corpus():
    checked = 0
    for p in generate_terms(GeneratorConfig(max_nodes=4)):
        if _split(p) is None:
            continue
        if checked >= 400 and not has_replication(p):
            continue
        _assert_same_reducts(p)
        checked += 1
    assert checked >= 400


def test_reducts_match_oracle_on_restricted_terms():
    for s in (
        "new x. (x!y.0 | x(z).0)",
        "new x. (x!y.0 | x(z).0 | x(w).0)",
        "new v. (v!y.0 | v(q).q!q.0 | z!w.0)",
        "new u. new v. (u!v.0 | u(q).0)",
        "new v. (!v!y.0 | v(z).0)",
        "new v. (v!y.0 | !v(z).0)",
    ):
        _assert_same_reducts(parse(s))


# ---------------------------------------------------------- pinned basics


def test_single_communication():
    reducts = reduct_candidates(parse("x!y.0 | x(z).0"))
    assert len(reducts) == 1
    q, rd = reducts[0]
    assert struct_eq_s(q, NIL)
    assert rd.subject == x and rd.sent == y and not rd.inert


def test_nil_has_no_reducts():
    assert reduct_candidates(NIL) == ()


def test_one_output_two_inputs_gives_two_pairings():
    # Both pairings exist; with nil continuations their contractions are
    # alpha-equal, so one representative stands for the class.
    reducts = reduct_candidates(parse("x!y.0 | x(z).0 | x(w).0"))
    assert len(reducts) == 1
    assert struct_eq_s(reducts[0][0], parse("x(q).0"))
    # Distinct continuations keep the two pairings apart.
    distinct = reduct_candidates(parse("x!y.0 | x(z).0 | x(w).w!w.0"))
    assert len(distinct) == 2


def test_substitution_happens_in_receiver():
    (q, rd), = reduct_candidates(parse("x!y.0 | x(z).z!z.0"))
    assert struct_eq_s(q, parse("y!y.0"))


def test_replicated_sender_is_kept():
    reducts = reduct_candidates(parse("!x!y.0 | x(z).0"))
    assert len(reducts) == 1
    q, _ = reducts[0]
    assert struct_eq_s(q, parse("!x!y.0"))


@pytest.mark.xfail(strict=True, reason="one level of exposure misses steps between two copies")
def test_reducts_between_two_copies_of_a_replication():
    # Copy A sends its x to copy B's input; the leftovers of the two copies
    # do not regroup into one whole copy, so this reduct is no reduct of a
    # step inside one copy (see the module docstring of reduction).
    p = parse("!new x. (y!x.0 | y(z).x!z.0)")
    cross = Par(parse("new a. new b. (y(z).a!z.0 | y!b.0 | b!a.0)"), p)
    states = {canonical_state(q) for q, _ in reduct_candidates(p)}
    assert canonical_state(cross) in states


def test_redex_descriptor_fields_are_pinned():
    # Whether the subject is restricted is not stored: it is
    # ``subject not in free_names(source)``.
    assert [f.name for f in dataclasses.fields(RedexDescriptor)] == [
        "subject", "sent", "inert",
    ]


# ------------------------------------------------------------ inert steps


def test_inert_reduct_contracts_private_handshake():
    p = parse("new v. (v!y.0 | v(q).q!q.0 | z!w.0)")
    reducts = inert_reducts(p)
    assert len(reducts) == 1
    q, rd = reducts[0]
    assert rd.inert and rd.subject not in free_names(p)
    assert struct_eq_s(q, parse("y!y.0 | z!w.0"))


def test_free_subject_is_not_inert():
    assert inert_reducts(parse("x!y.0 | x(z).0")) == ()


def test_inert_requires_exclusive_use():
    # A third prefix on v keeps the step ordinary.
    p = parse("new v. (v!y.0 | v(q).q!q.0 | v(r).x!x.0)")
    assert inert_reducts(p) == ()
    assert len(reduct_candidates(p)) == 2
    assert not any(rd.inert for _, rd in reduct_candidates(p))


def test_inert_rejects_synchronous_terms():
    with pytest.raises(ValueError):
        inert_reducts(parse("x!y.x!y.0"))


def _inert_closure(p):
    """Every term reached from ``p`` by a chain of ``inert_reducts`` steps,
    ``p`` included."""
    seen = {p}
    stack = [p]
    while stack:
        for q, _ in inert_reducts(stack.pop()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def _last_inert_normal_form(p):
    """``inert_normal_form`` taking the last inert reduct each time."""
    while steps := inert_reducts(p):
        p = steps[-1][0]
    return p


def _assert_inert_normal_form(p):
    nf = inert_normal_form(p)
    assert inert_reducts(nf) == (), pprint(p)
    assert nf in _inert_closure(p), pprint(p)
    assert canonical_state(nf) is canonical_state(_last_inert_normal_form(p)), pprint(p)


def _encodings_and_their_reducts(s):
    for scheme in EncodingScheme:
        enc = encode(s, scheme)
        yield enc
        for q, _ in reduct_candidates(enc):
            yield q


def test_inert_normal_form_vectors():
    p = parse("new v. (v!y.0 | v(q).q!q.0 | z!w.0)")
    assert struct_eq_s(inert_normal_form(p), parse("y!y.0 | z!w.0"))
    for scheme in EncodingScheme:
        assert inert_normal_form(encode(parse("new x. (x!y.0 | x(z).0)"), scheme)) is NIL
    # Not asynchronous, so no step is inert: the term itself.
    sync = parse("new v. (v!y.x!x.0 | v(q).0)")
    assert inert_normal_form(sync) is sync
    # Two inert steps to choose from, one of which enables a third.
    two = parse("new u. (u!y.0 | u(q).0) | new v. (v!x.0 | v(r).new w. (w!r.0 | w(s).0))")
    assert len(inert_reducts(two)) == 2
    assert inert_normal_form(two) is NIL
    _assert_inert_normal_form(two)


def test_inert_normal_form_on_the_3_node_encodings_and_their_reducts():
    corpus = generate_terms(GeneratorConfig(max_nodes=3))
    terms = {t for s in corpus for t in _encodings_and_their_reducts(s)}
    assert sum(len(inert_reducts(t)) == 1 for t in terms) > 0
    for t in terms:
        _assert_inert_normal_form(t)


# Handshakes in parallel, so that their encodings step, and two steps on
# often leave more than one pending inert step to choose from.
HANDSHAKES = st.lists(st.tuples(NAMES, NAMES, TERMS, TERMS), min_size=1, max_size=2).map(
    lambda hs: par_all([Par(Output(a, b, p), Input(a, b, q)) for a, b, p, q in hs])
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(HANDSHAKES)
def test_inert_normal_form_on_generated_encodings_and_their_reducts(s):
    for t in _encodings_and_their_reducts(s):
        _assert_inert_normal_form(t)
        for q, _ in reduct_candidates(t):
            _assert_inert_normal_form(q)


def test_boudol_trace_steps_two_and_three_are_inert():
    p = encode(parse("x!y.0 | x(z).0"), EncodingScheme.BOUDOL)
    flags = []
    cur = p
    for _ in range(3):
        cands = reduct_candidates(cur)
        assert cands
        cur, rd = cands[0]
        flags.append(rd.inert)
    assert flags[0] is False
    assert flags[1] is True and flags[2] is True
    assert reduct_candidates(cur) == ()


def test_ht_trace_step_two_is_inert():
    p = encode(parse("x!y.0 | x(z).0"), EncodingScheme.HONDA_TOKORO)
    cur, rd1 = reduct_candidates(p)[0]
    assert not rd1.inert
    cur, rd2 = reduct_candidates(cur)[0]
    assert rd2.inert


# ------------------------------------------------------------ reachability


def test_boudol_encoding_reaches_encoded_reduct_in_three_steps():
    s = parse("x!y.0 | x(z).0")
    enc = encode(s, EncodingScheme.BOUDOL)
    goal = encode(parse("0 | 0"), EncodingScheme.BOUDOL)
    v = reduces_to(enc, goal)
    assert v.is_holds
    assert isinstance(v.witness, Trace) and len(v.witness.steps) == 3


def test_ht_encoding_reaches_encoded_reduct_in_two_steps():
    s = parse("x!y.0 | x(z).0")
    enc = encode(s, EncodingScheme.HONDA_TOKORO)
    goal = encode(parse("0 | 0"), EncodingScheme.HONDA_TOKORO)
    v = reduces_to(enc, goal)
    assert v.is_holds
    assert isinstance(v.witness, Trace) and len(v.witness.steps) == 2


def test_reaches_itself_with_empty_trace():
    v = reduces_to(NIL, NIL)
    assert v.is_holds and len(v.witness.steps) == 0


def test_unreachable_goal_is_definite_on_finite_graphs():
    v = reduces_to(parse("x!y.0"), parse("y!x.0"))
    assert v.is_violated


# ---------------------------------------------------------------- success


def test_unguarded_success_in_par():
    assert has_success(parse("ok | x!y.0"))


def test_guarded_success_is_invisible():
    assert not has_success(parse("x(z).ok"))


def test_success_under_replication_is_unguarded():
    assert has_success(parse("!ok"))


def _success_by_flattening(p):
    """Whether some component of ``p``'s flattened top level has an
    unguarded success leaf; ``has_success`` must agree."""
    got = any(has_success(c) for c in flatten(p)[1])
    assert got == has_success(p), pprint(p)
    return got


def test_unguarded_success_agrees_with_the_flattened_level():
    seen = set()
    for t in _with_encodings(list(generate_terms(GeneratorConfig(max_nodes=3)))):
        seen.add(_success_by_flattening(t))
        for q, _ in reduct_candidates(t):
            seen.add(_success_by_flattening(q))
    assert seen == {False, True}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TERMS)
def test_unguarded_success_agrees_with_the_flattened_level_on_generated_terms(p):
    _success_by_flattening(p)
    for q, _ in reduct_candidates(p):
        _success_by_flattening(q)


def test_may_succeed_immediately():
    v = may_succeed(parse("ok"))
    assert v.is_holds and len(v.witness.steps) == 0


def test_may_succeed_after_one_step():
    v = may_succeed(parse("x!y.ok | x(z).0"))
    assert v.is_holds and len(v.witness.steps) == 1


def test_guarded_success_never_fires():
    assert may_succeed(parse("x(z).ok")).is_violated


# -------------------------------------------------------------- divergence


def test_replicated_pair_diverges():
    p = parse("!x!y.0 | !x(z).0")
    v = diverges_bounded(p, budget=16)
    assert v.is_holds
    assert isinstance(v.witness, Trace) and len(v.witness.steps) >= 1
    # One step comes back to a state congruent to the start.
    q, _ = reduct_candidates(p)[0]
    assert struct_eq_bounded(q, p).is_holds


def test_single_communication_terminates():
    assert diverges_bounded(parse("x!y.0 | x(z).0"), budget=16).is_violated


def test_nil_terminates():
    assert diverges_bounded(NIL, budget=16).is_violated


def test_replication_free_terms_always_terminate():
    corpus = generate_terms(GeneratorConfig(max_nodes=3))
    for p in (t for t in corpus if not has_replication(t)):
        assert diverges_bounded(p, budget=16).is_violated, pprint(p)


# ----------------------------------------------------------------- explore


def test_explore_finite_graph_is_complete():
    # Either input can take the one output; afterwards nothing fires.
    g = explore(parse("x!y.0 | x(z).0 | x(w).ok"))
    assert not g.truncated
    assert len(g.states) == 3
    assert all(k in g.edges for k in g.states)


def test_explore_folds_replication_self_loop():
    # The only reduct folds back onto the start state: one state, one loop.
    g = explore(parse("!x!y.0 | !x(z).0"))
    assert not g.truncated
    assert len(g.states) == 1
    (root,) = g.states
    assert list(g.edges[root]) == [root]
    assert g.edges[root][root].subject == x


def test_explore_of_a_root_that_cannot_step_is_its_one_state():
    corpus = _with_encodings(list(generate_terms(GeneratorConfig(max_nodes=3))))
    stuck = [t for t in corpus if not reduct_candidates(t)]
    assert stuck
    for t in stuck:
        g = explore(t)
        key = canonical_state(t)
        assert g.root is key and g.states == {key: t} and g.edges == {key: {}}, pprint(t)
        assert not g.truncated and g.depth == 1, pprint(t)


def _assert_stop_at_cut_reads_as_the_whole_search(p, state_cap):
    """A search stopped at its first cut is truncated exactly when the whole
    search is, finds a subset of its states, and is the whole graph when
    it is not truncated."""
    kw = dict(step_budget=64, state_cap=state_cap)
    whole = explore(p, **kw)
    cut = explore(p, stop_at_cut=True, **kw)
    assert cut.truncated == whole.truncated, pprint(p)
    assert cut.states.keys() <= whole.states.keys(), pprint(p)
    if not whole.truncated:
        assert _read_graph(cut) == _read_graph(whole), pprint(p)
    return whole.truncated and len(cut.states) < len(whole.states)


def test_explore_stopped_at_its_first_cut_reads_as_the_whole_search():
    # Both caps of op-soundness's search stop it: the size cap on growing
    # replications, and a small state cap on the bigger graphs.
    terms = _with_encodings(list(generate_terms(GeneratorConfig(max_nodes=3))))
    terms += [q for t in terms for q, _ in reduct_candidates(t)]
    terms += _with_encodings([parse("!(y(x).0 | y!x.0)"), parse("!x!y.0 | !x(z).0")])
    shorter = [
        _assert_stop_at_cut_reads_as_the_whole_search(t, cap)
        for t in terms
        for cap in (1500, 3)
    ]
    assert sum(shorter) >= 4


@contextlib.contextmanager
def deadline(seconds):
    """Fail the block, instead of hanging, when it runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_searches_stop_expanding_a_growing_replication():
    # Each step of either term leaves a larger state.  Without a size bound
    # the first search overflows the stack and the second runs for minutes.
    p = parse("!(x!x.0 | x(y).!(!0 | 0))")
    q = parse("!!(y!x.0 | y(x).(y!x.0 | x(y).0))")
    with deadline(5):
        v = reduces_to(p, NIL)
        g = explore(q, state_cap=300)
    assert v.is_inconclusive, v
    assert g.truncated
    for k, succs in g.edges.items():
        if succs:
            assert term_size(g.states[k]) <= growth_cap(q), pprint(g.states[k])


def test_explore_respects_state_cap():
    # The encoded replicated pair accumulates handshake residues, so its
    # graph keeps producing fresh states until the cap stops it.
    p = encode(parse("!x!y.0 | !x(z).0"), EncodingScheme.BOUDOL)
    g = explore(p, state_cap=5, step_budget=8)
    assert g.truncated
    assert len(g.states) <= 6


# ------------------------------------- goal searches against the old search


def ref_bfs(p, check, step_budget, state_cap):
    """The breadth-first search ``reduces_to`` and ``may_succeed`` ran
    before they became goals of ``explore``, kept as the reference.

    Returns (trace to a passing state or None, whether any check was
    inconclusive, whether exploration was truncated, states seen, depth).
    """
    root = canonical_state(p)
    states = {root: p}
    parent = {root: None}
    any_inconclusive = False
    truncated = False

    def trace_to(key):
        steps = []
        cur = key
        while parent[cur] is not None:
            pk, st = parent[cur]
            steps.append(st)
            cur = pk
        steps.reverse()
        return Trace(p, tuple(steps))

    outcome = check(p)
    if outcome is Outcome.HOLDS:
        return Trace(p), any_inconclusive, truncated, 1, 0
    if outcome is Outcome.INCONCLUSIVE:
        any_inconclusive = True
    frontier = [root]
    depth = 0
    while frontier and depth < step_budget:
        nxt = []
        for k in frontier:
            for q, rd in reduct_candidates(states[k]):
                qk = canonical_state(q)
                if qk in states:
                    continue
                if len(states) >= state_cap:
                    truncated = True
                    continue
                states[qk] = q
                parent[qk] = (k, TraceStep(states[k], q, rd))
                outcome = check(q)
                if outcome is Outcome.HOLDS:
                    return trace_to(qk), any_inconclusive, truncated, len(states), depth + 1
                if outcome is Outcome.INCONCLUSIVE:
                    any_inconclusive = True
                nxt.append(qk)
        frontier = nxt
        depth += 1
    if frontier:
        truncated = True
    return None, any_inconclusive, truncated, len(states), depth


def ref_reduces_to(p, q, step_budget, state_cap):
    fn_q = free_names(q)

    def check(t):
        if free_names(t) != fn_q:
            return Outcome.VIOLATED
        return struct_eq_bounded(t, q).outcome

    trace, any_inc, truncated, n_states, depth = ref_bfs(p, check, step_budget, state_cap)
    if trace is not None:
        return verdicts.holds(witness=trace, steps=len(trace), states=n_states)
    if truncated or any_inc:
        return verdicts.inconclusive(witness=(p, q), states=n_states, depth=depth)
    return verdicts.violated(witness=(p, q), states=n_states, depth=depth)


def ref_may_succeed(p, step_budget, state_cap):
    if not p._ok:
        return verdicts.violated(witness=p, states=0, depth=0)

    def check(t):
        return Outcome.HOLDS if has_success(t) else Outcome.VIOLATED

    trace, _, truncated, n_states, depth = ref_bfs(p, check, step_budget, state_cap)
    if trace is not None:
        return verdicts.holds(witness=trace, steps=len(trace), states=n_states)
    if truncated:
        return verdicts.inconclusive(witness=p, states=n_states, depth=depth)
    return verdicts.violated(witness=p, states=n_states, depth=depth)


BUDGETS = ((64, 10000), (1, 10000), (64, 2))  # (step_budget, state_cap)


def _with_encodings(corpus):
    return corpus + [encode(t, scheme) for scheme in EncodingScheme for t in corpus]


def test_goal_searches_equal_the_reference_search():
    # Verdicts are compared whole: outcome, witness (every trace step) and
    # budget use.  The tight budgets cut the larger graphs short.
    seen = set()
    for t in _with_encodings(list(generate_terms(GeneratorConfig(max_nodes=3)))):
        # Goals: each reachable state, an unreachable one with t's free
        # names (a congruence test that can be Inconclusive), and 0.
        goals = list(explore(t).states.values()) + [Par(t, t), NIL]
        for step_budget, state_cap in BUDGETS:
            got = may_succeed(t, step_budget=step_budget, state_cap=state_cap)
            assert got == ref_may_succeed(t, step_budget, state_cap), pprint(t)
            for q in goals:
                got = reduces_to(t, q, step_budget=step_budget, state_cap=state_cap)
                assert got == ref_reduces_to(t, q, step_budget, state_cap), (pprint(t), pprint(q))
                seen.add((got.outcome, got.budget().get("steps", 0) > 0))
    assert seen >= {(o, False) for o in Outcome} | {(Outcome.HOLDS, True)}


def test_may_succeed_equals_the_reference_search_on_success_terms():
    # No step of a 3-node term reaches a success leaf; the 4-node terms
    # that have one do, in up to 3 steps.
    seen = set()
    corpus = [t for t in generate_terms(GeneratorConfig(max_nodes=4)) if t._ok]
    for t in _with_encodings(corpus):
        for step_budget, state_cap in BUDGETS:
            got = may_succeed(t, step_budget=step_budget, state_cap=state_cap)
            assert got == ref_may_succeed(t, step_budget, state_cap), pprint(t)
            seen.add((got.outcome, got.budget().get("steps", 0) > 0))
    assert seen >= {(o, False) for o in Outcome} | {(Outcome.HOLDS, True)}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TERMS)
def test_explore_reaches_success_iff_may_succeed_holds(p):
    # Both searches visit states in the same order, so a success state in
    # the graph is found by ``may_succeed`` even when the graph was cut.
    g = explore(p, state_cap=200)
    v = may_succeed(p, state_cap=200)
    if any(has_success(t) for t in g.states.values()):
        assert v.is_holds, pprint(p)
    elif not g.truncated:
        assert v.is_violated, pprint(p)


# ------------------------- divergence and steps against the old code


def ref_normal_form(p):
    """The normal form the redex loop once read: the restricted names of the
    alpha form that some component uses, and its components."""
    restricted, comps = flatten(alpha_canonical(p))
    used = frozenset().union(*(free_names(c) for c in comps))
    return used.intersection(restricted), comps


def ref_reduct_candidates(p):
    """``reduct_candidates`` before it shared its redex loop with
    ``inert_reducts``, kept as the reference."""
    results = []
    seen = set()
    exposed = expose(p)
    for variant in (p,) if exposed == p else (p, exposed):
        restricted, comps = ref_normal_form(variant)
        outs = [(i, c) for i, c in enumerate(comps) if isinstance(c, Output)]
        ins = [(j, c) for j, c in enumerate(comps) if isinstance(c, Input)]
        for i, out in outs:
            for j, inp in ins:
                if out.subject != inp.subject:
                    continue
                q = _contract(restricted, comps, i, j)
                key = canonical_state(q)
                if key in seen:
                    continue
                seen.add(key)
                rd = RedexDescriptor(
                    subject=out.subject,
                    sent=out.obj,
                    inert=_inert_ok(restricted, comps, i, j),
                )
                results.append((q, rd))
    return tuple(results)


def ref_inert_reducts(p):
    """``inert_reducts`` with its own redex loop, kept as the reference."""
    if not is_async(p):
        raise ValueError("inert steps are defined on asynchronous terms only")
    restricted, comps = ref_normal_form(p)
    results = []
    seen = set()
    for i, out in enumerate(comps):
        if not isinstance(out, Output):
            continue
        for j, inp in enumerate(comps):
            if not isinstance(inp, Input) or inp.subject != out.subject:
                continue
            if not _inert_ok(restricted, comps, i, j):
                continue
            q = _contract(restricted, comps, i, j)
            key = canonical_state(q)
            if key in seen:
                continue
            seen.add(key)
            rd = RedexDescriptor(
                subject=out.subject,
                sent=out.obj,
                inert=True,
            )
            results.append((q, rd))
    return tuple(results)


def ref_diverges_bounded(p, budget, state_cap=10000):
    """The depth-first divergence search ``diverges_bounded`` ran before it
    read its answer from ``explore``'s graph, kept as the reference."""
    grows = has_replication(p)
    if not grows:
        budget = max(budget, term_size(p) + 1)
    status = {}
    path_keys = set()
    path_steps = []
    visited = 0
    cap_hit = False

    def dfs(t, key, remaining):
        nonlocal visited, cap_hit
        if key in path_keys:
            return "div"
        st = status.get(key)
        if st == "term":
            return "term"
        if isinstance(st, int) and st >= remaining:
            return "unknown"
        succs = reduct_candidates(t)
        if not succs:
            status[key] = "term"
            return "term"
        if grows and term_size(t) > growth_cap(p):
            return "unknown"
        if remaining == 0:
            status[key] = 0
            return "unknown"
        visited += 1
        if visited > state_cap:
            cap_hit = True
            return "unknown"
        path_keys.add(key)
        any_unknown = False
        for q, rd in succs:
            path_steps.append(TraceStep(t, q, rd))
            result = dfs(q, canonical_state(q), remaining - 1)
            if result == "div":
                return "div"
            path_steps.pop()
            if result == "unknown":
                any_unknown = True
        path_keys.discard(key)
        if any_unknown:
            status[key] = remaining
            return "unknown"
        status[key] = "term"
        return "term"

    result = dfs(p, canonical_state(p), budget)
    if result == "div":
        return verdicts.holds(witness=Trace(p, tuple(path_steps)), depth=budget)
    if result == "term" and not cap_hit:
        return verdicts.violated(witness=p, depth=budget, states=visited)
    return verdicts.inconclusive(witness=p, depth=budget, states=visited)


@functools.cache
def _enumerator_terms():
    """The 3-node corpus with its encodings, 2,000 asynchronous random terms
    of up to 8 nodes, and the one-step reducts of all of these."""
    terms = _with_encodings(list(generate_terms(GeneratorConfig(max_nodes=3))))
    cfg = GeneratorConfig(max_nodes=8, random_count=2000, seed=8)
    terms += [asyncify(t) for t in generate_terms(cfg)]
    terms += [q for t in terms for q, _ in reduct_candidates(t)]
    return tuple(terms)


def test_steps_equal_the_reference_enumerators():
    # Whole (reduct, redex) tuples, order included.  Encodings and their
    # reducts expose replications; asynchronous random terms and their
    # reducts carry the inert steps.
    terms = _enumerator_terms()
    inert_seen = 0
    for t in terms:
        assert reduct_candidates(t) == ref_reduct_candidates(t), pprint(t)
        if is_async(t):
            assert inert_reducts(t) == ref_inert_reducts(t), pprint(t)
            inert_seen += bool(inert_reducts(t))
    assert inert_seen >= 20
    assert any(expose(t) != t and reduct_candidates(t) for t in terms)


def ref_explore(p, *, goal=None, step_budget=64, state_cap=10000, size_cap=None):
    """``explore`` as it was when it keyed every root by its canonical
    state and bounded a state's size only when asked, kept as the
    reference."""
    root = canonical_state(p)
    states = {root: p}
    edges = {}
    parents = {root: None}
    graph = ReductionGraph(root, states, edges, parents)

    def accepts(key):
        outcome = goal(states[key])
        if outcome is Outcome.HOLDS:
            graph.found = key
            return True
        if outcome is Outcome.INCONCLUSIVE:
            graph.inconclusive = True
        return False

    if goal is not None and accepts(root):
        return graph
    truncated = False
    frontier = [root]
    depth = 0
    while frontier and depth < step_budget:
        nxt = []
        for k in frontier:
            if size_cap is not None and term_size(states[k]) > size_cap:
                truncated = True
                edges[k] = {}
                continue
            succs = edges[k] = {}
            for q, rd in reduct_candidates(states[k]):
                qk = canonical_state(q)
                succs[qk] = rd
                if qk not in states:
                    if len(states) >= state_cap:
                        truncated = True
                        continue
                    states[qk] = q
                    parents[qk] = (k, rd)
                    if goal is not None and accepts(qk):
                        graph.truncated, graph.depth = truncated, depth + 1
                        return graph
                    nxt.append(qk)
        frontier = nxt
        depth += 1
    graph.truncated, graph.depth = truncated or bool(frontier), depth
    return graph


def _read_graph(g):
    """A graph read through its states: every key replaced by the term
    stored under it, so graphs that key their root differently compare.
    A successor the state cap kept out stays a key."""
    term = g.states
    return (
        list(term.values()),
        g.truncated,
        g.depth,
        g.inconclusive,
        None if g.found is None else term[g.found],
        [
            (term[k], None if link is None else (term[link[0]], link[1]))
            for k, link in g.parents.items()
        ],
        [
            (term[k], term.get(qk, qk), rd)
            for k, succs in g.edges.items()
            for qk, rd in succs.items()
        ],
    )


EXPLORE_BUDGETS = BUDGETS + ((0, 10000),)  # (step_budget, state_cap)

# A reduct of an encoding in the comparison set whose graph at 64 steps and
# 10,000 states takes over a minute even with the growth cap: every step
# adds an alike copy of a restricted replica, and each copy makes its
# canonical form slower.  The smaller budgets still cover it.
SLOW_WHOLE_GRAPH = alpha_canonical(
    parse("new a. new b. (!new c. (a!a.0 | a(d).(d!c.0 | d(e).0)) | (a!b.0 | a(f).0))")
)


def _explore_runs(p):
    """(step_budget, state_cap) of the comparison."""
    for step_budget, state_cap in EXPLORE_BUDGETS:
        whole = (step_budget, state_cap) == EXPLORE_BUDGETS[0]
        if not (whole and alpha_canonical(p) == SLOW_WHOLE_GRAPH):
            yield step_budget, state_cap


def _assert_explore_equals_the_reference(p):
    """Both searches from ``p`` read the same, without a goal and with one:
    the first state other than ``p`` that cannot step, Inconclusive on a
    state with an unguarded success leaf."""

    def goal(t):
        if t is not p and not _barbs(t)[2]:
            return Outcome.HOLDS
        return Outcome.INCONCLUSIVE if has_success(t) else Outcome.VIOLATED

    for step_budget, state_cap in _explore_runs(p):
        for g in (None, goal):
            kw = dict(goal=g, step_budget=step_budget, state_cap=state_cap)
            ref = ref_explore(p, size_cap=growth_cap(p), **kw)
            assert _read_graph(explore(p, **kw)) == _read_graph(ref), pprint(p)


def test_explore_equals_the_reference_search():
    terms = _enumerator_terms()
    for t in terms:
        _assert_explore_equals_the_reference(t)
    assert any(not _barbs(t)[2] for t in terms) and any(_barbs(t)[2] for t in terms)
    assert SLOW_WHOLE_GRAPH in {alpha_canonical(t) for t in terms}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TERMS)
def test_explore_equals_the_reference_search_on_generated_terms(p):
    _assert_explore_equals_the_reference(p)


def _assert_loop_witness(p, v):
    """A chained trace from ``p`` of real steps, ending on a state
    canonically equal to the source of one of its steps."""
    trace = v.witness
    assert isinstance(trace, Trace) and trace.start is p and trace.steps
    source = p
    for st in trace.steps:
        assert st.source is source
        target_key = canonical_state(st.target)
        redexes = [rd for q, rd in reduct_candidates(source) if canonical_state(q) == target_key]
        assert st.redex in redexes
        source = st.target
    assert canonical_state(source) in {canonical_state(st.source) for st in trace.steps}


def _divergence_against_the_reference(terms, budgets):
    """Compare outcomes with the reference probe: each must be the same or
    decide what the reference left Inconclusive.  Returns the outcome pairs
    seen and the decided (term, budget, outcome) triples."""
    pairs = set()
    decided = []
    for t in terms:
        for budget in budgets:
            got = diverges_bounded(t, budget=budget)
            ref = ref_diverges_bounded(t, budget)
            if got.is_holds:
                _assert_loop_witness(t, got)
            if got.outcome is not ref.outcome:
                assert ref.is_inconclusive, (pprint(t), budget, ref.outcome, got.outcome)
                decided.append((pprint(t), budget, got.outcome))
            pairs.add((ref.outcome, got.outcome))
    return pairs, decided


def test_divergence_equals_the_reference_probe_on_the_3_node_corpus():
    terms = _with_encodings(list(generate_terms(GeneratorConfig(max_nodes=3))))
    pairs, _ = _divergence_against_the_reference(terms, (16,))
    assert pairs == {(Outcome.VIOLATED, Outcome.VIOLATED)}


def test_divergence_equals_the_reference_probe_on_replicating_4_node_terms():
    # At budget 2 the reference cannot follow the three-step loops of the
    # Boudol images of the eight self-reacting replications such as
    # !(x!x.0 | x(x).0); the graph search, which lists the successors of
    # the states two steps away, closes them.
    corpus = [t for t in generate_terms(GeneratorConfig(max_nodes=4)) if has_replication(t)]
    pairs, decided = _divergence_against_the_reference(_with_encodings(corpus), (2, 16))
    assert {(o, o) for o in Outcome} <= pairs
    assert len(decided) == 8
    assert {(budget, outcome) for _, budget, outcome in decided} == {(2, Outcome.HOLDS)}


def test_divergence_witness_takes_the_looping_branch():
    # The first step consumes x!y.0 for good; only the second one loops.
    p = parse("x!y.0 | x(w).0 | !x(z).x!z.0")
    (first, _), _ = reduct_candidates(p)
    assert diverges_bounded(first, budget=16).is_violated
    v = diverges_bounded(p, budget=16)
    assert v.is_holds
    _assert_loop_witness(p, v)


# ------------------------------------------- barbs against the redex loop


def _assert_barbs_agree(p):
    """``step`` is true exactly when the redex loop contracts something, and
    a false ``inert`` means that it finds no inert step."""
    exposed = expose(p)
    variants = (p,) if exposed == p else (p, exposed)
    _, _, step, inert = _barbs(p)
    assert step == bool(_steps(variants, False)), pprint(p)
    assert can_step(p) is step
    if not inert:
        assert _steps((p,), True) == (), pprint(p)


def test_barbs_agree_with_the_redex_loop():
    # The 3-node corpus and its encodings, asynchronous random terms (which
    # carry the inert steps), and every one-step reduct of all of them,
    # taken from the redex loop itself so that a wrong ``step`` cannot hide
    # a reduct.
    terms = _with_encodings(list(generate_terms(GeneratorConfig(max_nodes=3))))
    cfg = GeneratorConfig(max_nodes=8, random_count=2000, seed=10)
    terms += [asyncify(t) for t in generate_terms(cfg)]
    for t in list(terms):
        exposed = expose(t)
        terms += [q for q, _ in _steps((t,) if exposed == t else (t, exposed), False)]
    for t in terms:
        _assert_barbs_agree(t)
    barbs = [_barbs(t) for t in terms]
    # Both answers split the terms, and the inert early return also skips
    # terms that do step.
    assert {b[2] for b in barbs} == {b[3] for b in barbs} == {False, True}
    assert any(step and not inert for _, _, step, inert in barbs)
    assert sum(bool(_steps((t,), True)) for t in terms) >= 20


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TERMS)
def test_barbs_agree_with_the_redex_loop_on_generated_terms(p):
    _assert_barbs_agree(p)
    _assert_barbs_agree(asyncify(p))


def test_barbs_vectors():
    a = user("a")
    for text, outs, ins, step, inert in [
        ("0", (), (), False, False),
        ("x!y.x(z).0", (x,), (), False, False),
        ("x!y.0 | x(z).0", (x,), (x,), True, False),
        ("x(z).0 | x!y.0", (x,), (x,), True, False),
        # The two prefixes on a are in different scopes.
        ("(new a. a!y.0) | a(z).0", (), (a,), False, False),
        ("new a. (a!y.0 | a(z).0)", (), (), True, True),
        ("!(x!y.0 | x(z).0)", (x,), (x,), True, False),
        ("!x!y.0 | x(z).0", (x,), (x,), True, False),
        # Under a replication ``inert`` over-approximates: no inert step is
        # taken there.
        ("!(new a. (a!y.0 | a(z).0))", (), (), True, True),
    ]:
        p = parse(text)
        assert _barbs(p) == (frozenset(outs), frozenset(ins), step, inert), text
    assert inert_reducts(parse("!(new a. (a!y.0 | a(z).0))")) == ()


def test_barbs_are_interned():
    p, q = parse("x!y.0 | z(w).0"), parse("z(w).w!w.0 | x!x.0")
    assert _barbs(p) is _barbs(q)
    assert _barbs(parse("new a. x!y.0")) is _barbs(parse("x!y.0"))
