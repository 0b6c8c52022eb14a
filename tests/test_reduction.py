"""Reduction search: redex discovery, inert steps, reachability, success,
divergence.

The ground truth for one-step reducts is a brute-force oracle over terms
of shape ``new* (c1 | ... | cn)`` with prefix, replicated, nil, or success
components: it pairs every available output with every available input on
the same subject directly from the definition, leaving replicated
components in place.
"""

import itertools

import pytest
from hypothesis import given, settings
from test_syntax import TERMS

from picheck import verdicts
from picheck.checker import GeneratorConfig, generate_terms
from picheck.congruence import EqBudget, canonical_state, struct_eq_bounded, struct_eq_s
from picheck.encodings import EncodingScheme, encode
from picheck.reduction import (
    Trace,
    TraceStep,
    _contains_success,
    diverges_bounded,
    explore,
    has_success,
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
    alpha_eq,
    free_names,
    has_replication,
    par_all,
    substitute,
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
        if not any(struct_eq_bounded(t, r, EqBudget()).is_holds for r in reps):
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
            struct_eq_bounded(wr, gr, EqBudget()).is_holds for gr in got_reps
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


# ------------------------------------------------------------ inert steps


def test_inert_reduct_contracts_private_handshake():
    p = parse("new v. (v!y.0 | v(q).q!q.0 | z!w.0)")
    reducts = inert_reducts(p)
    assert len(reducts) == 1
    q, rd = reducts[0]
    assert rd.inert and rd.subject_restricted
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
    assert struct_eq_bounded(q, p, EqBudget()).is_holds


def test_single_communication_terminates():
    assert diverges_bounded(parse("x!y.0 | x(z).0"), budget=16).is_violated


def test_nil_terminates():
    assert diverges_bounded(NIL, budget=16).is_violated


def test_replication_free_terms_always_terminate():
    for p in generate_terms(GeneratorConfig(max_nodes=3, allow_replication=False)):
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
    assert g.edges[root] == (root,)


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
        return struct_eq_bounded(t, q, EqBudget()).outcome

    trace, any_inc, truncated, n_states, depth = ref_bfs(p, check, step_budget, state_cap)
    if trace is not None:
        return verdicts.holds(witness=trace, steps=len(trace), states=n_states)
    if truncated or any_inc:
        return verdicts.inconclusive(witness=(p, q), states=n_states, depth=depth)
    return verdicts.violated(witness=(p, q), states=n_states, depth=depth)


def ref_may_succeed(p, step_budget, state_cap):
    if not _contains_success(p):
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
    corpus = [t for t in generate_terms(GeneratorConfig(max_nodes=4)) if _contains_success(t)]
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
