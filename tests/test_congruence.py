"""Structural congruence, standard forms, canonical keys, bounded unfolding.

The ground truth here is an axiom-closure oracle: the defining rewrite
rules applied at every position, saturated over alpha-classes.  The
decision procedure is tested against it, then the pinned examples follow.
"""

import itertools
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st
from test_syntax import TERMS as SYNTAX_TERMS

from picheck import congruence
from picheck.checker import GeneratorConfig, asyncify, generate_terms
from picheck.congruence import (
    canonical_state,
    deep_canon,
    expose,
    flatten,
    rebuild,
    struct_eq_bounded,
    struct_eq_s,
    unfold_replications,
)
from picheck.encodings import EncodingScheme, encode
from picheck.reduction import reduct_candidates
from picheck.syntax import (
    NIL,
    SUCCESS,
    Input,
    Output,
    Par,
    Repl,
    Restrict,
    Success,
    alpha_canonical,
    alpha_eq,
    free_names,
    fresh,
    has_replication,
    names,
    par_all,
    substitute,
    term_size,
    user,
)
from picheck.text import parse, pprint
from picheck.verdicts import Outcome

x, y, z = user("x"), user("y"), user("z")
POOL = tuple(user(c) for c in "abc")


# ------------------------------------------------------------- the oracle
#
# One-step rewrites justified by the congruence axioms: par commutativity,
# associativity, unit, restriction on inert scope, restriction swap, scope
# extrusion -- plus, when ``unfold`` is set, replication unfolding.  Growth
# moves (adding a unit or an unused restriction) are only used by the
# scrambler; the closure used for deciding keeps to non-growing moves and
# asserts saturation, so a verdict is never read off a truncated search.


def _root_rewrites(t, grow, unfold):
    out = []
    match t:
        case Par(left=l, right=r):
            out.append(Par(r, l))
            if isinstance(l, Par):
                out.append(Par(l.left, Par(l.right, r)))
            if isinstance(r, Par):
                out.append(Par(Par(l, r.left), r.right))
            if r == NIL:
                out.append(l)
            if l == NIL:
                out.append(r)
            if isinstance(r, Restrict) and r.binder not in free_names(l):
                out.append(Restrict(r.binder, Par(l, r.body)))
            if isinstance(l, Restrict) and l.binder not in free_names(r):
                out.append(Restrict(l.binder, Par(l.body, r)))
            if unfold:
                if isinstance(r, Repl) and alpha_eq(l, r.body):
                    out.append(r)
                if isinstance(l, Repl) and alpha_eq(r, l.body):
                    out.append(l)
        case Restrict(binder=v, body=b):
            if v not in free_names(b):
                out.append(b)
            if isinstance(b, Restrict):
                out.append(Restrict(b.binder, Restrict(v, b.body)))
            if isinstance(b, Par):
                if v not in free_names(b.left):
                    out.append(Par(b.left, Restrict(v, b.right)))
                if v not in free_names(b.right):
                    out.append(Par(Restrict(v, b.left), b.right))
        case Repl(body=b):
            if unfold:
                out.append(Par(b, t))
    if grow:
        out.append(Par(t, NIL))
        out.append(Par(NIL, t))
        for a in POOL:
            if a not in free_names(t):
                out.append(Restrict(a, t))
    return out


def _rewrites(t, grow=False, unfold=False):
    found = list(_root_rewrites(t, grow, unfold))
    match t:
        case Output(subject=s, obj=o, cont=c):
            found += [Output(s, o, c2) for c2 in _rewrites(c, grow, unfold)]
        case Input(subject=s, binder=b, cont=c):
            found += [Input(s, b, c2) for c2 in _rewrites(c, grow, unfold)]
        case Par(left=l, right=r):
            found += [Par(l2, r) for l2 in _rewrites(l, grow, unfold)]
            found += [Par(l, r2) for r2 in _rewrites(r, grow, unfold)]
        case Restrict(binder=v, body=b):
            found += [Restrict(v, b2) for b2 in _rewrites(b, grow, unfold)]
        case Repl(body=b):
            found += [Repl(b2) for b2 in _rewrites(b, grow, unfold)]
    return found


def _closure(p, cap=3000):
    """Alpha-classes reachable by non-growing congruence moves; asserts
    saturation so membership answers are definite."""
    seen = {alpha_canonical(p)}
    frontier = [p]
    while frontier:
        assert len(seen) <= cap, f"oracle closure truncated for {pprint(p)}"
        nxt = []
        for t in frontier:
            for r in _rewrites(t):
                k = alpha_canonical(r)
                if k not in seen:
                    seen.add(k)
                    nxt.append(r)
        frontier = nxt
    return seen


def oracle_congruent(p, q):
    return bool(_closure(p) & _closure(q))


def _scramble(p, rng, steps=6):
    """Random walk along congruence moves, growth included; every stop is
    congruent to the start by construction."""
    cur = p
    for _ in range(steps):
        options = _rewrites(cur, grow=term_size(cur) < 12)
        if not options:
            break
        cur = rng.choice(options)
    return cur


# ------------------------------------------- oracle vs decision procedure


def test_struct_eq_matches_oracle_on_two_node_corpus():
    terms = list(generate_terms(GeneratorConfig(max_nodes=2)))
    closures = {id(t): _closure(t) for t in terms}
    for p, q in itertools.combinations(terms, 2):
        expected = bool(closures[id(p)] & closures[id(q)])
        assert struct_eq_s(p, q) == expected, (pprint(p), pprint(q))


def test_struct_eq_matches_oracle_on_restriction_heavy_pairs():
    picked = [
        "new z. (x!y.0 | new w. 0)",
        "x!y.0",
        "new v. (v!y.0 | v(q).0)",
        "new w. (w!y.0 | w(q).0)",
        "new v. v!y.0 | new v. v(q).0",
        "new v. (v!y.0 | v(q).0) | 0",
        "new u. new v. (u!v.0 | v!u.0)",
        "new v. new u. (u!v.0 | v!u.0)",
        "new u. new v. (u!v.0 | u!v.0)",
        "x(z).(z!y.0 | 0)",
        "x(w).(0 | w!y.0)",
        "new z. x!z.z!y.0",
        "new w. x!w.w!y.0",
    ]
    terms = [parse(s) for s in picked]
    for p, q in itertools.combinations(terms, 2):
        assert struct_eq_s(p, q) == oracle_congruent(p, q), (pprint(p), pprint(q))


def test_struct_eq_accepts_scrambled_terms():
    rng = random.Random(5)
    corpus = list(generate_terms(GeneratorConfig(max_nodes=3)))
    for p in rng.sample(corpus, 120):
        q = _scramble(p, rng)
        assert struct_eq_s(p, q), (pprint(p), pprint(q))


def test_struct_eq_random_cross_pairs_match_oracle():
    rng = random.Random(9)
    corpus = list(generate_terms(GeneratorConfig(max_nodes=3)))
    sample = rng.sample(corpus, 40)
    for p, q in itertools.combinations(sample, 2):
        assert struct_eq_s(p, q) == oracle_congruent(p, q), (pprint(p), pprint(q))


# ------------------------------------------------------- pinned examples


def test_par_unit_is_congruent():
    p = parse("x!y.0")
    assert struct_eq_s(Par(p, NIL), p)


def test_restriction_swap_is_congruent():
    p = parse("new z. new u. (z!u.0 | x!x.0)")
    q = parse("new u. new z. (z!u.0 | x!x.0)")
    assert struct_eq_s(p, q)


def test_replication_unfolding_is_not_plain_congruence():
    p = parse("!x!y.0")
    assert not struct_eq_s(p, Par(parse("x!y.0"), p))


def test_scope_extrusion():
    p = parse("new z. (x!y.0 | z(w).0)")
    q = parse("x!y.0 | new z. z(w).0")
    assert struct_eq_s(p, q)
    assert oracle_congruent(p, q)


def test_restricted_name_identity_is_irrelevant():
    assert struct_eq_s(
        parse("new v. (v!y.0 | v(q).0)"), parse("new w. (w!y.0 | w(q).0)")
    )


# ------------------------------------------- standard forms: flatten, rebuild


def _is_plain_component(c):
    return isinstance(c, (Output, Input, Repl, Success))


def _round_trip(p):
    return rebuild(*flatten(alpha_canonical(p)))


def test_normal_form_drops_inert_restrictions():
    restricted, comps = flatten(alpha_canonical(parse("new z. (x!y.0 | new w. 0)")))
    assert len(restricted) == 2
    assert comps == [parse("x!y.0")]
    assert rebuild(restricted, comps) is parse("x!y.0")


def test_normal_form_plain_term_unchanged():
    p = parse("x!y.0 | x(z).0")
    restricted, comps = flatten(p)
    assert restricted == []
    assert comps == [p.left, p.right]
    assert rebuild(restricted, comps) is p


def test_normal_form_keeps_used_restriction():
    restricted, comps = flatten(alpha_canonical(parse("new x. (x!y.0 | x(z).0)")))
    (v,) = restricted
    assert len(comps) == 2
    assert any(isinstance(c, Output) and c.subject == v for c in comps)
    assert any(isinstance(c, Input) and c.subject == v for c in comps)
    back = rebuild(restricted, comps)
    assert isinstance(back, Restrict) and back.binder == v


def test_rebuild_drops_nil_and_puts_the_least_binder_outermost():
    a, b = user("a"), user("b")
    comps = [NIL, parse("a!b.0"), NIL, parse("b(q).x!q.0")]
    want = Restrict(a, Restrict(b, Par(comps[1], comps[3])))
    assert rebuild([b, z, a], comps) is want
    assert rebuild([a, b], [NIL, NIL]) is NIL


def test_normal_form_components_are_plain():
    for p in generate_terms(GeneratorConfig(max_nodes=3)):
        restricted, comps = flatten(alpha_canonical(p))
        assert len(set(restricted)) == len(restricted), pprint(p)
        for c in comps:
            assert _is_plain_component(c), pprint(p)
        used = frozenset().union(*(free_names(c) for c in comps))
        back = _round_trip(p)
        while isinstance(back, Restrict):
            assert back.binder in used, pprint(p)
            back = back.body


def test_normal_form_round_trip_is_congruent():
    for p in generate_terms(GeneratorConfig(max_nodes=2)):
        assert oracle_congruent(p, _round_trip(p)), pprint(p)


def test_normal_form_is_canonical_per_alpha_class():
    rng = random.Random(11)
    for p in generate_terms(GeneratorConfig(max_nodes=3)):
        q = _respell_binders(p, rng)
        assert flatten(alpha_canonical(q)) == flatten(alpha_canonical(p)), pprint(p)


def test_normal_form_round_trip_decided_congruent():
    for p in generate_terms(GeneratorConfig(max_nodes=3)):
        assert struct_eq_s(_round_trip(p), p), pprint(p)


# --------------------------------------------------------- canonical keys


def test_deep_canon_decides_the_oracle_on_two_node_corpus():
    terms = list(generate_terms(GeneratorConfig(max_nodes=2)))
    closures = {id(t): _closure(t) for t in terms}
    for p, q in itertools.combinations(terms, 2):
        expected = bool(closures[id(p)] & closures[id(q)])
        assert (deep_canon(p) == deep_canon(q)) == expected, (pprint(p), pprint(q))


def test_deep_canon_ignores_how_input_binders_are_spelled():
    p = parse("x(x).0 | x(x).ok")
    q = parse("x(x).ok | x(x).0")
    assert deep_canon(p) == deep_canon(q)
    assert canonical_state(p) == canonical_state(q)


def _digraph(n, edges):
    """``new n0..n{n-1}. (na!nb.0 | ...)``, one output per edge (a, b)."""
    body = " | ".join(f"n{a}!n{b}.0" for a, b in edges)
    return parse("".join(f"new n{i}. " for i in range(n)) + f"({body})")


def _cycles(n, step):
    return _digraph(n, [(i, (i + step) % n) for i in range(n)])


def test_symmetric_restricted_names_are_decided_quickly():
    # One 8-cycle against two 4-cycles: every name looks alike to colour
    # refinement, which a permutation search pays for factorially.
    start = time.perf_counter()
    assert not struct_eq_s(_cycles(8, 1), _cycles(8, 2))
    assert struct_eq_s(_cycles(8, 1), _cycles(8, 3))
    assert time.perf_counter() - start < 1.0


def test_deep_canon_tries_every_way_to_break_a_tie():
    # Every name sends to two names and hears from two: colour refinement
    # sees them all alike, yet not every name is symmetric to every other,
    # so the labelling must try each way of breaking the tie.
    edges = [(0, 2), (0, 3), (1, 2), (1, 4), (2, 0), (2, 3), (3, 1), (3, 4), (4, 0), (4, 1)]
    rng = random.Random(3)
    canons = set()
    for _ in range(20):
        label = rng.sample(range(5), 5)
        shuffled = rng.sample(edges, len(edges))
        canons.add(deep_canon(_digraph(5, [(label[a], label[b]) for a, b in shuffled])))
    assert len(canons) == 1


NAME_POOL = st.sampled_from(POOL + (x, y))
TERMS = st.recursive(
    st.sampled_from([NIL, SUCCESS]),
    lambda sub: st.one_of(
        st.builds(Output, NAME_POOL, NAME_POOL, sub),
        st.builds(Input, NAME_POOL, NAME_POOL, sub),
        st.builds(Par, sub, sub),
        st.builds(Restrict, NAME_POOL, sub),
        st.builds(Repl, sub),
    ),
    max_leaves=8,
)


def _respell_binders(p, rng):
    """Alpha-rename every binder to a random unused user name."""
    match p:
        case Output(subject=s, obj=o, cont=c):
            return Output(s, o, _respell_binders(c, rng))
        case Input(subject=s, binder=b, cont=c):
            nb = _unused(c, rng)
            return Input(s, nb, _respell_binders(substitute(c, b, nb), rng))
        case Restrict(binder=b, body=body):
            nb = _unused(body, rng)
            return Restrict(nb, _respell_binders(substitute(body, b, nb), rng))
        case Par(left=l, right=r):
            return Par(_respell_binders(l, rng), _respell_binders(r, rng))
        case Repl(body=body):
            return Repl(_respell_binders(body, rng))
    return p


def _unused(p, rng):
    taken = names(p)
    return rng.choice([n for n in (user(f"v{i}") for i in range(40)) if n not in taken])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TERMS, st.integers(0, 2**32 - 1))
def test_deep_canon_is_invariant_under_core_moves(p, seed):
    rng = random.Random(seed)
    canon = deep_canon(p)
    assert deep_canon(canon) == canon
    assert deep_canon(_scramble(p, rng)) == canon, pprint(p)
    assert deep_canon(_respell_binders(p, rng)) == canon, pprint(p)


def test_deep_canon_identifies_congruent_spellings():
    p = parse("new z. (x!y.0 | z(w).0) | 0")
    q = parse("x!y.0 | new u. u(v).0")
    assert deep_canon(p) == deep_canon(q)


def test_canonical_state_folds_one_unfolded_copy():
    assert canonical_state(parse("x!y.0 | !x!y.0")) == canonical_state(parse("!x!y.0"))


def test_canonical_state_keeps_parallel_replications_apart():
    assert canonical_state(parse("!x!y.0 | !x!y.0")) != canonical_state(parse("!x!y.0"))


# ------------------------------------------------ the reference canonical forms
#
# The decode that wrapped each level's binders by hand and the fold that
# restarted after every dropped copy, kept to compare the forms node for node.


def ref_decode_level(key, env, depth, fresh_ids):
    binders = []
    scoped = []
    for k, comp_keys in key:
        level_names = [fresh(next(fresh_ids)) for _ in range(k)]
        binders += level_names
        labels = {(1, depth + i): w for i, w in enumerate(level_names)}
        scoped.append(({**env, **labels}, depth + k, comp_keys))
    comps = [ref_decode_comp(ck, e, d, fresh_ids) for e, d, comp_keys in scoped for ck in comp_keys]
    term = par_all(comps)
    for b in reversed(binders):
        term = Restrict(b, term)
    return term


def ref_decode_comp(key, env, depth, fresh_ids):
    match key:
        case (1, s, o, k):
            return Output(env[s], env[o], ref_decode_level(k, env, depth, fresh_ids))
        case (2, s, k):
            b = fresh(next(fresh_ids))
            return Input(env[s], b, ref_decode_level(k, {**env, (1, depth): b}, depth + 1, fresh_ids))
        case (3, k):
            return Repl(ref_decode_level(k, env, depth, fresh_ids))
    return SUCCESS


def ref_deep_canon(p):
    q = alpha_canonical(p)
    free = free_names(q)
    base = max((n.key + 1 for n in free if n.is_fresh), default=0)
    env = {(0, n.space, n.key): n for n in free}
    return ref_decode_level(congruence._level_key(q, {}, 0), env, 0, itertools.count(base))


def ref_refold(comps):
    comps = list(comps)
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(comps):
            for j, d in enumerate(comps):
                if i != j and isinstance(d, Repl) and alpha_eq(c, d.body):
                    comps.pop(i)
                    changed = True
                    break
            if changed:
                break
    return comps


def ref_canonical_state(p):
    q = ref_deep_canon(p)
    restricted, comps = flatten(q)
    folded = ref_refold(comps)
    if len(folded) == len(comps):
        return q
    return ref_deep_canon(rebuild(restricted, folded))


def _nested_replications(q):
    """Replication components of ``q``'s top level that are the body of
    another one, the only case where the restart loop's order matters."""
    comps = flatten(q)[1]
    bodies = [d.body for d in comps if isinstance(d, Repl)]
    return [c for c in comps if isinstance(c, Repl) and any(alpha_eq(c, b) for b in bodies)]


def assert_same_canonical_forms(p):
    """Both forms are the reference's nodes, except where the reference
    folds a chain of nested replications only in part: then the one-pass
    fold keeps fewer components and stays congruent."""
    assert deep_canon(p) is ref_deep_canon(p), pprint(p)
    state, ref = canonical_state(p), ref_canonical_state(p)
    if state is ref:
        return True
    assert _nested_replications(deep_canon(p)), pprint(p)
    assert len(flatten(state)[1]) < len(flatten(ref)[1]), pprint(p)
    assert struct_eq_bounded(state, ref).outcome is Outcome.HOLDS, pprint(p)
    return False


def test_canonical_forms_equal_the_reference_on_the_three_node_corpus():
    corpus = list(generate_terms(GeneratorConfig(max_nodes=3)))
    terms = corpus + [encode(t, scheme) for scheme in EncodingScheme for t in corpus]
    terms += [asyncify(t) for t in terms]
    terms += [q for t in terms for q, _ in reduct_candidates(t)]
    for t in dict.fromkeys(terms):
        assert_same_canonical_forms(t)


def test_canonical_forms_equal_the_reference_on_random_terms():
    cfg = GeneratorConfig(max_nodes=8, random_count=2000, seed=3)
    for t in generate_terms(cfg):
        assert_same_canonical_forms(t)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TERMS)
def test_canonical_forms_equal_the_reference_on_generated_terms(p):
    assert_same_canonical_forms(p)


def test_canonical_state_folds_a_chain_of_nested_replications():
    # Every copy beside its replication goes, whichever of them is met
    # first; the restart loop dropped !!Q first and kept !Q.
    chain = parse("!new a. a!a.0 | !!new a. a!a.0 | !!!new a. a!a.0")
    assert canonical_state(chain) is canonical_state(parse("!!!new a. a!a.0"))
    assert not assert_same_canonical_forms(chain)


# ------------------------------------------------------ bounded unfolding


def _oracle_unfold(p, depth):
    """Alpha-classes reachable by at most ``depth`` single unfoldings."""
    seen = {alpha_canonical(p)}
    level = [p]
    for _ in range(depth):
        nxt = []
        for t in level:
            for u in _unfold_positions(t):
                k = alpha_canonical(u)
                if k not in seen:
                    seen.add(k)
                    nxt.append(u)
        level = nxt
    return seen


def _unfold_positions(t):
    out = []
    if isinstance(t, Repl):
        out.append(Par(t.body, t))
    match t:
        case Output(subject=s, obj=o, cont=c):
            out += [Output(s, o, c2) for c2 in _unfold_positions(c)]
        case Input(subject=s, binder=b, cont=c):
            out += [Input(s, b, c2) for c2 in _unfold_positions(c)]
        case Par(left=l, right=r):
            out += [Par(l2, r) for l2 in _unfold_positions(l)]
            out += [Par(l, r2) for r2 in _unfold_positions(r)]
        case Restrict(binder=v, body=b):
            out += [Restrict(v, b2) for b2 in _unfold_positions(b)]
        case Repl(body=b):
            out += [Repl(b2) for b2 in _unfold_positions(b)]
    return out


def test_unfold_nil_is_fixed():
    assert {alpha_canonical(t) for t in unfold_replications(NIL, 3)} == {NIL}


def test_unfold_single_replication_depth_one():
    p = parse("!x!y.0")
    got = {alpha_canonical(t) for t in unfold_replications(p, 1)}
    want = {alpha_canonical(p), alpha_canonical(parse("x!y.0 | !x!y.0"))}
    assert got == want


def test_unfold_single_replication_depth_two():
    p = parse("!x!y.0")
    got = {alpha_canonical(t) for t in unfold_replications(p, 2)}
    assert got == _oracle_unfold(p, 2)
    assert alpha_canonical(parse("x!y.0 | (x!y.0 | !x!y.0)")) in got
    assert len(got) == 3


def test_unfold_matches_oracle_on_replicated_corpus():
    corpus = [
        p
        for p in generate_terms(GeneratorConfig(max_nodes=3))
        if "!" in pprint(p)
    ]
    for p in corpus[:80]:
        got = {alpha_canonical(t) for t in unfold_replications(p, 2)}
        assert got == _oracle_unfold(p, 2), pprint(p)


def test_bounded_eq_unfolds_replication():
    p = parse("!x!y.0")
    v = struct_eq_bounded(p, Par(parse("x!y.0"), p), 1)
    assert v.is_holds


def test_bounded_eq_definite_mismatch_without_replication():
    v = struct_eq_bounded(parse("x!y.0"), parse("x(z).0"))
    assert v.is_violated


def test_bounded_eq_compares_free_names_by_value():
    # Congruent terms may hold different empty-set objects.
    v = struct_eq_bounded(parse("0 | new x. x!x.0"), parse("new x. x!x.0"))
    assert v.is_holds


def test_bounded_eq_agrees_with_the_oracle_on_replicating_pairs():
    # The oracle decides the core, which full congruence contains: a core
    # match must Hold, and a Violated must be no core match.  A pair whose
    # free names differ is never congruent, so it must be Violated.
    terms = list(generate_terms(GeneratorConfig(max_nodes=2)))
    closures = {id(t): _closure(t) for t in terms}
    violated = 0
    for p, q in itertools.combinations(terms, 2):
        if not (has_replication(p) or has_replication(q)):
            continue
        v = struct_eq_bounded(p, q)
        congruent = bool(closures[id(p)] & closures[id(q)])
        if congruent:
            assert v.is_holds, (pprint(p), pprint(q))
        if free_names(p) != free_names(q):
            assert v.is_violated, (pprint(p), pprint(q))
        if v.is_violated:
            assert not congruent, (pprint(p), pprint(q))
            violated += 1
    assert violated > 1000


def test_bounded_eq_unfold_and_match():
    p = parse("!x!y.0")
    q = parse("!x!y.0 | x!y.0")
    assert struct_eq_bounded(p, q).is_holds
    assert _closure(Par(p.body, p)) & _closure(q)


def test_bounded_eq_inconclusive_on_distinct_replications():
    v = struct_eq_bounded(parse("!x!y.0"), parse("!x!y.0 | !x!y.0"))
    assert v.is_inconclusive


# ----------------------------------------------------------------- expose


def test_expose_unfolds_unguarded_replication():
    got = expose(parse("!x!y.0"))
    assert alpha_eq(got, parse("x!y.0 | !x!y.0"))


def test_expose_reaches_through_restriction():
    got = expose(parse("new v. !v!y.0"))
    assert alpha_eq(got, parse("new v. (v!y.0 | !v!y.0)"))


def test_expose_ignores_guarded_replication():
    p = parse("x(z).!0")
    assert expose(p) == p


@settings(derandomize=True, max_examples=300, deadline=None)
@given(SYNTAX_TERMS)
def test_equal_canonical_states_are_congruent_on_generated_terms(p):
    state = canonical_state(p)
    assert canonical_state(state) is state, pprint(p)
    for q in (state, expose(p)):
        if canonical_state(q) is state:
            assert struct_eq_bounded(p, q).outcome is Outcome.HOLDS, (pprint(p), pprint(q))
