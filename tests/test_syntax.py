"""AST-level facts: binding, substitution, renaming, alpha handling, interning."""

import copy
import importlib
import inspect
import itertools
import pickle
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import picheck
from picheck import checker, congruence, encodings, reduction, syntax, text
from picheck.checker import GeneratorConfig, generate_terms
from picheck.encodings import EncodingScheme, context_for, decompose, encode
from picheck.reduction import has_success, reduct_candidates
from picheck.syntax import (
    NIL,
    SUCCESS,
    Hole,
    Input,
    Name,
    Nil,
    Output,
    Par,
    Process,
    Repl,
    Restrict,
    Success,
    alpha_canonical,
    alpha_eq,
    alpha_key,
    apply_renaming,
    bound_names,
    free_names,
    fresh,
    fresh_name,
    has_replication,
    is_async,
    memo,
    par_all,
    rename_binders,
    substitute,
    term_size,
    user,
)
from picheck.text import parse, pprint

x, y, z, w, a = (user(c) for c in "xyzwa")


def test_free_names_output_prefix():
    assert free_names(parse("x!y.0")) == {x, y}


def test_free_names_input_binds():
    assert free_names(parse("x(z).z!y.0")) == {x, y}


def test_free_names_restriction_and_replication():
    p = parse("new x. (x!y.0 | !z(w).0)")
    assert free_names(p) == {y, z}


def test_bound_names_nil():
    assert bound_names(parse("0")) == frozenset()


def test_bound_names_input():
    assert bound_names(parse("x(z).0")) == {z}


def test_bound_names_same_name_twice():
    assert bound_names(parse("new z. x(z).0")) == {z}


def test_substitute_subject_and_object():
    got = substitute(parse("z(w).w!z.0"), z, y)
    assert got == parse("y(w).w!y.0")


def test_substitute_object():
    assert substitute(parse("x!z.0"), z, y) == parse("x!y.0")


def test_substitute_capture_avoidance():
    # The binder y must be renamed before y is brought into its scope.
    got = substitute(parse("x(y).z!y.0"), z, y)
    assert alpha_eq(got, parse("x(q).y!q.0"))
    assert isinstance(got, Input) and got.binder != y
    assert free_names(got) == {x, y}


def ref_substitute(p, old, new):
    """The walker ``substitute`` had of its own before it became a one-name
    ``apply_renaming``, kept as the reference."""
    if old == new or old not in free_names(p):
        return p

    def rename_binder(binder, body, avoid):
        nb = fresh_name(avoid | {binder})
        return nb, ref_substitute(body, binder, nb)

    match p:
        case Output(subject=s, obj=o, cont=c):
            return Output(
                new if s == old else s,
                new if o == old else o,
                ref_substitute(c, old, new),
            )
        case Input(subject=s, binder=b, cont=c):
            s2 = new if s == old else s
            if b == old:
                return Input(s2, b, c)
            if b == new and old in free_names(c):
                b2, c2 = rename_binder(b, c, free_names(c) | {old, new})
                return Input(s2, b2, ref_substitute(c2, old, new))
            return Input(s2, b, ref_substitute(c, old, new))
        case Par(left=l, right=r):
            return Par(ref_substitute(l, old, new), ref_substitute(r, old, new))
        case Restrict(binder=b, body=body):
            if b == old:
                return p
            if b == new and old in free_names(body):
                b2, body2 = rename_binder(b, body, free_names(body) | {old, new})
                return Restrict(b2, ref_substitute(body2, old, new))
            return Restrict(b, ref_substitute(body, old, new))
        case Repl(body=body):
            return Repl(ref_substitute(body, old, new))
    raise TypeError(f"not a process: {p!r}")


def test_substitute_equals_the_reference_walker():
    # The same node, fresh binders included: reducts built by substitution
    # are printed in --json traces.
    pool = [user(c) for c in "xyzw"] + [fresh(i) for i in range(4)]
    corpus = list(generate_terms(GeneratorConfig(max_nodes=3)))
    terms = corpus + [encode(t, scheme) for scheme in EncodingScheme for t in corpus]
    renamed = 0
    for t in terms:
        for old in pool:
            for new in pool:
                got = substitute(t, old, new)
                assert got is ref_substitute(t, old, new), (pprint(t), old, new)
                renamed += got is not t
    assert renamed > 0


def test_apply_renaming_non_injective_collapse():
    got = apply_renaming(parse("x!y.0"), {x: w, y: w})
    assert got == parse("w!w.0")


def test_apply_renaming_through_binder():
    got = apply_renaming(parse("x(z).x!z.0"), {x: a})
    assert alpha_eq(got, parse("a(z).a!z.0"))


def test_apply_renaming_capture_forces_fresh_binder():
    got = apply_renaming(parse("new z. x!z.0"), {x: z})
    assert alpha_eq(got, parse("new q. z!q.0"))


def test_apply_renaming_fresh_binder_avoids_every_image():
    # The renamed binder must not be #0, the image of w below it.
    got = apply_renaming(parse("new z. (x!z.0 | w!w.0)"), {x: z, w: fresh(0)})
    assert free_names(got) == {z, fresh(0)}


def test_alpha_canonical_identifies_binder_spellings():
    assert alpha_canonical(parse("x(z).0")) == alpha_canonical(parse("x(w).0"))


def test_alpha_canonical_identifies_nested_restrictions():
    p = parse("new a. new b. a!b.0")
    q = parse("new c. new d. c!d.0")
    assert alpha_canonical(p) == alpha_canonical(q)


def test_alpha_canonical_fixes_binder_free_term():
    assert alpha_canonical(parse("x!y.0")) == parse("x!y.0")


def test_alpha_eq_basic():
    assert alpha_eq(parse("x(z).0"), parse("x(w).0"))
    assert not alpha_eq(parse("x!y.0"), parse("x(y).0"))


def test_alpha_eq_vectors():
    # Shadowing, a free name against a bound one, and leaves.
    assert alpha_eq(parse("x(y).x(y).y!y.0"), parse("x(y).x(z).z!z.0"))
    assert not alpha_eq(parse("x(y).x(z).y!y.0"), parse("x(y).x(z).z!z.0"))
    assert not alpha_eq(parse("x(y).y!x.0"), parse("x(x).x!x.0"))
    assert alpha_eq(parse("new a. (a!x.0 | new a. a!a.0)"), parse("new b. (b!x.0 | new c. c!c.0)"))
    assert not alpha_eq(parse("new a. (a!x.0 | new b. a!b.0)"), parse("new a. (a!x.0 | new b. b!a.0)"))
    assert alpha_eq(Hole(0), Hole(0)) and not alpha_eq(Hole(0), Hole(1))
    assert not alpha_eq(Par(Hole(0), NIL), Par(Hole(1), NIL))
    assert not alpha_eq(NIL, SUCCESS)


def _assert_alpha_eq_reads_the_canonical_forms(p, q):
    same = alpha_canonical(p) is alpha_canonical(q)
    assert alpha_eq(p, q) == same == alpha_eq(q, p), (pprint(p), pprint(q))
    return same


def _alpha_test_terms():
    """The 3-node corpus, its encodings and all their one-step reducts,
    which hold free fresh names, and the compositionality contexts of the
    corpus's operators, which hold holes."""
    corpus = list(generate_terms(GeneratorConfig(max_nodes=3)))
    terms = corpus + [encode(t, scheme) for scheme in EncodingScheme for t in corpus]
    terms += [q for t in terms for q, _ in reduct_candidates(t)]
    for t in corpus:
        op, args = decompose(t)
        n = frozenset().union(*map(free_names, args))
        terms += [context_for(op, n, scheme).term for scheme in EncodingScheme]
    return list(dict.fromkeys(terms))


def test_alpha_eq_equals_the_canonical_forms_within_each_bucket():
    # Every pair with the same free names and size among the test terms;
    # other pairs differ at once.
    terms = _alpha_test_terms()
    buckets = {}
    for t in terms:
        buckets.setdefault((free_names(t), term_size(t)), []).append(t)
    same = [
        _assert_alpha_eq_reads_the_canonical_forms(p, q)
        for bucket in buckets.values()
        for p, q in itertools.combinations(bucket, 2)
    ]
    assert len(same) > 100000 and sum(same) >= 8


def test_alpha_eq_ignores_fresh_counter_offsets():
    # The same translation shape built with different fresh counters.
    low = Restrict(
        fresh(0),
        Par(Output(x, fresh(0), NIL), Input(fresh(0), fresh(1), Par(Output(fresh(1), y, NIL), NIL))),
    )
    high = Restrict(
        fresh(5),
        Par(Output(x, fresh(5), NIL), Input(fresh(5), fresh(6), Par(Output(fresh(6), y, NIL), NIL))),
    )
    assert alpha_eq(low, high)


def test_fresh_name_skips_avoided():
    assert fresh_name(frozenset()) == fresh(0)
    assert fresh_name(frozenset({fresh(0)})) == fresh(1)
    assert fresh_name(frozenset({x, y})) == fresh(0)


def test_term_size_counts_constructors_not_nil():
    assert term_size(NIL) == 0
    assert term_size(SUCCESS) == 1
    assert term_size(parse("x!y.0")) == 1
    assert term_size(parse("new x. (x!y.0 | x(z).0)")) == 4


def test_is_async_requires_nil_output_continuations():
    assert is_async(parse("x!y.0 | x(z).z!w.0"))
    assert not is_async(parse("x!y.x!y.0"))


def test_has_replication():
    assert has_replication(parse("!0"))
    assert not has_replication(parse("x!y.0"))


def test_par_all():
    assert par_all([]) == NIL
    assert par_all([parse("x!y.0")]) == parse("x!y.0")
    got = par_all([parse("x!y.0"), parse("ok"), NIL])
    assert alpha_eq(got, parse("x!y.0 | ok | 0"))


def test_name_spaces_are_disjoint():
    assert user("0") != fresh(0)
    assert Name("user", "q") == user("q")
    assert str(fresh(3)) == "#3"
    assert str(user("x")) == "x"


# --- interning ---


def test_equal_structure_is_one_object():
    assert user("q") is Name("user", "q")
    assert fresh(3) is Name("fresh", 3)
    assert Nil() is NIL and Success() is SUCCESS
    assert Hole(1) is Hole(1)
    assert Output(user("x"), user("y"), Nil()) is Output(x, y, NIL)
    src = "new z. (x!z.0 | x(w).w!y.ok) | !y(w).0"
    assert parse(src) is parse(src)
    assert parse("x!y.0 | 0") is Par(Output(x, y, NIL), NIL)
    assert parse("x!y.0") is not parse("x!x.0")


def test_nodes_and_names_are_immutable():
    t = parse("x(z).z!y.0")
    with pytest.raises(AttributeError):
        t.cont = NIL
    with pytest.raises(AttributeError):
        t.fresh_attribute = 1
    with pytest.raises(AttributeError):
        del t.subject
    with pytest.raises(AttributeError):
        x.key = "y"
    assert t is parse("x(z).z!y.0")
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t


def test_parse_of_pprint_is_the_same_object():
    for t in generate_terms(GeneratorConfig(max_nodes=3)):
        assert parse(pprint(t)) is t


# Reference definitions of the facts each node stores, by plain recursion.


def ref_free(p):
    match p:
        case Nil() | Success() | Hole():
            return frozenset()
        case Output(subject=s, obj=o, cont=c):
            return ref_free(c) | {s, o}
        case Input(subject=s, binder=b, cont=c):
            return (ref_free(c) - {b}) | {s}
        case Par(left=l, right=r):
            return ref_free(l) | ref_free(r)
        case Restrict(binder=b, body=body):
            return ref_free(body) - {b}
        case Repl(body=body):
            return ref_free(body)


def ref_size(p):
    match p:
        case Nil():
            return 0
        case Success() | Hole():
            return 1
        case Output(cont=c) | Input(cont=c) | Restrict(body=c) | Repl(body=c):
            return 1 + ref_size(c)
        case Par(left=l, right=r):
            return 1 + ref_size(l) + ref_size(r)


def ref_any(p, leaf):
    match p:
        case Output(cont=c) | Input(cont=c) | Restrict(body=c) | Repl(body=c):
            return isinstance(p, leaf) or ref_any(c, leaf)
        case Par(left=l, right=r):
            return ref_any(l, leaf) or ref_any(r, leaf)
    return isinstance(p, leaf)


def ref_async(p):
    match p:
        case Output(cont=c):
            return c == NIL
        case Input(cont=c) | Restrict(body=c) | Repl(body=c):
            return ref_async(c)
        case Par(left=l, right=r):
            return ref_async(l) and ref_async(r)
    return True


def ref_has_success(p):
    """A success leaf at an unguarded position: under no prefix."""
    match p:
        case Success():
            return True
        case Par(left=l, right=r):
            return ref_has_success(l) or ref_has_success(r)
        case Restrict(body=body) | Repl(body=body):
            return ref_has_success(body)
    return False


def assert_facts(p):
    assert free_names(p) == ref_free(p), pprint(p)
    assert term_size(p) == ref_size(p), pprint(p)
    assert has_replication(p) == ref_any(p, Repl), pprint(p)
    assert p._ok == ref_any(p, Success), pprint(p)
    assert has_success(p) == ref_has_success(p), pprint(p)
    assert is_async(p) == ref_async(p), pprint(p)


def test_node_facts_match_their_definitions_on_the_corpus_and_its_encodings():
    corpus = list(generate_terms(GeneratorConfig(max_nodes=3)))
    for t in corpus:
        assert_facts(t)
        for scheme in EncodingScheme:
            assert_facts(encode(t, scheme))
    for hole in (Hole(0), Output(x, y, Hole(0)), Par(Hole(0), Hole(1))):
        assert_facts(hole)


NAMES = st.sampled_from((x, y, z, fresh(0), fresh(1)))


def _terms_over(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(
            st.builds(Output, NAMES, NAMES, sub),
            st.builds(Input, NAMES, NAMES, sub),
            st.builds(Par, sub, sub),
            st.builds(Restrict, NAMES, sub),
            st.builds(Repl, sub),
        ),
        max_leaves=10,
    )


TERMS = _terms_over([NIL, SUCCESS])
# Terms that may hold holes, as contexts do.
HOLES = _terms_over([NIL, SUCCESS, Hole(0), Hole(1)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TERMS)
def test_node_facts_match_their_definitions_on_generated_terms(p):
    assert_facts(p)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TERMS)
def test_alpha_canonical_is_idempotent_on_generated_terms(p):
    canon = alpha_canonical(p)
    assert alpha_canonical(canon) is canon


@settings(derandomize=True, max_examples=500, deadline=None)
@given(TERMS, st.lists(NAMES, min_size=1, max_size=4))
def test_alpha_eq_equals_the_canonical_forms_on_respelled_terms(p, spellings):
    # Binders respelled, in preorder, from a short cycle of names: a repeat
    # shadows an outer binder, and a name free below a binder may be
    # captured, which changes the term.
    q = rename_binders(p, itertools.cycle(spellings))
    _assert_alpha_eq_reads_the_canonical_forms(p, q)
    _assert_alpha_eq_reads_the_canonical_forms(p, alpha_canonical(q))
    # Fresh names from #2 on occur nowhere in the generated terms.
    fresh_spellings = map(fresh, itertools.count(2))
    assert _assert_alpha_eq_reads_the_canonical_forms(q, rename_binders(q, fresh_spellings))


def _partition(terms, key):
    groups = {}
    for t in terms:
        groups.setdefault(key(t), set()).add(t)
    return {frozenset(group) for group in groups.values()}


def _subterms(p):
    stack, found = [p], []
    while stack:
        q = stack.pop()
        found.append(q)
        stack += (getattr(q, f) for f in q.__match_args__ if isinstance(getattr(q, f), Process))
    return found


def _respelled(t):
    # Binders renamed, in preorder, into names free nowhere in the test
    # terms: alpha-equal to ``t``, and another node when ``t`` binds.
    user_spellings = (user(f"v{i}") for i in itertools.count())
    return [rename_binders(t, user_spellings), rename_binders(t, map(fresh, itertools.count(50)))]


def test_alpha_key_partitions_terms_as_the_canonical_forms():
    # Over the test terms and two respellings of each, keys are equal for
    # exactly the pairs with one alpha form, across buckets too, and
    # keying them all builds no node and stores nothing on any subterm.
    terms = _alpha_test_terms()
    respelled = [(t, u) for t in terms for u in _respelled(t)]
    terms += [u for _, u in respelled]
    classes = _partition(terms, alpha_canonical)
    assert sum(len(c) > 1 for c in classes) > 1000
    nodes = list(dict.fromkeys(q for t in terms for q in _subterms(t)))
    stored = [len(q._memo) for q in nodes]
    built = len(syntax._TABLE)
    assert _partition(terms, alpha_key) == classes
    assert len(syntax._TABLE) == built
    assert [len(q._memo) for q in nodes] == stored
    for t, u in respelled:
        assert _assert_alpha_eq_reads_the_canonical_forms(t, u)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(HOLES, st.lists(NAMES, min_size=1, max_size=4))
def test_alpha_key_equals_the_canonical_forms_on_respelled_terms_with_holes(p, spellings):
    # The respelling test's twin for the key, on terms that may hold
    # holes; keying builds no node and stores nothing on any subterm.
    q = rename_binders(p, itertools.cycle(spellings))
    same = alpha_canonical(p) is alpha_canonical(q)
    nodes = _subterms(p) + _subterms(q)
    stored = [len(t._memo) for t in nodes]
    built = len(syntax._TABLE)
    assert (alpha_key(p) == alpha_key(q)) == same == alpha_eq(p, q), (pprint(p), pprint(q))
    assert len(syntax._TABLE) == built
    assert [len(t._memo) for t in nodes] == stored


# --- memoised results live on the node ---

MEMOISED = {
    "alpha_canonical",
    "asyncify",
    "pprint",
    "_boudol",
    "_honda_tokoro",
    "deep_canon",
    "canonical_state",
    "reduct_candidates",
    "inert_reducts",
    "inert_normal_form",
    "_barbs",
}


def memoised_functions():
    """Every function in a picheck module that ``memo`` decorated."""
    wrapper = memo(lambda p: p).__code__
    found = {}
    for module in (syntax, text, encodings, congruence, reduction):
        for name, value in vars(module).items():
            if getattr(value, "__code__", None) is wrapper:
                found[name] = value
    return found


def test_memoised_results_equal_the_undecorated_functions():
    fns = memoised_functions()
    assert set(fns) == MEMOISED
    corpus = list(generate_terms(GeneratorConfig(max_nodes=3)))
    terms = corpus + [encode(t, scheme) for scheme in EncodingScheme for t in corpus]
    for t in terms:
        for fn in fns.values():
            try:
                stored = fn(t)
            except ValueError:
                # inert_reducts refuses synchronous terms, memoised or not.
                with pytest.raises(ValueError):
                    fn.__wrapped__(t)
                continue
            afresh = fn.__wrapped__(t)
            if isinstance(stored, Process):
                assert afresh is stored, (fn.__name__, pprint(t))
            else:
                assert afresh == stored, (fn.__name__, pprint(t))
            rebuilt = type(t)(*(getattr(t, f) for f in t.__match_args__))
            assert fn(rebuilt) is stored, (fn.__name__, pprint(t))


def ref_rename(p, sigma):
    """Capture-avoiding renaming without any memo: the map is cut down to
    the free names at every node, and a binder that would capture an image
    becomes the least fresh name outside the body's free names, the images
    and itself."""
    sigma = {k: v for k, v in sigma.items() if k != v and k in free_names(p)}
    if not sigma:
        return p

    def under(b, body):
        inner = {k: v for k, v in sigma.items() if k != b and k in free_names(body)}
        if b in inner.values():
            nb = fresh_name(free_names(body) | set(inner.values()) | {b})
            b, body = nb, ref_rename(body, {b: nb})
        return b, ref_rename(body, inner)

    match p:
        case Output(subject=s, obj=o, cont=c):
            return Output(sigma.get(s, s), sigma.get(o, o), ref_rename(c, sigma))
        case Input(subject=s, binder=b, cont=c):
            return Input(sigma.get(s, s), *under(b, c))
        case Par(left=l, right=r):
            return Par(ref_rename(l, sigma), ref_rename(r, sigma))
        case Restrict(binder=b, body=body):
            return Restrict(*under(b, body))
        case Repl(body=body):
            return Repl(ref_rename(body, sigma))
    raise TypeError(f"not a process: {p!r}")


def corpus_and_encodings(cfg):
    corpus = list(generate_terms(cfg))
    return corpus + [encode(t, scheme) for scheme in EncodingScheme for t in corpus]


def renaming_cases():
    """(term, sigma) for the 3-node corpus and both its encodings, under
    the empty map and every map name invariance checks in ``picheck
    check``, one-name maps included."""
    cfg = GeneratorConfig(max_nodes=3)
    sigmas = ({}, *checker._default_sigmas(cfg))
    return [(t, sigma) for t in corpus_and_encodings(cfg) for sigma in sigmas]


def assert_renamed(t, sigma):
    want = ref_rename(t, sigma)
    assert apply_renaming(t, sigma) is want, (pprint(t), sigma)
    if len(sigma) == 1:
        [(old, new)] = sigma.items()
        assert substitute(t, old, new) is want, (pprint(t), old, new)


def assert_memo_functions(t):
    for fn in (alpha_canonical, pprint, encodings._boudol, encodings._honda_tokoro):
        stored = fn(t)
        assert fn.__wrapped__(t) == stored, (fn.__name__, pprint(t))


def test_memoised_renaming_equals_the_unmemoised_walker():
    # Renamings and ``memo`` functions share each node's dict, so both are
    # checked after each other in two orders.  An entry keyed without the
    # map's images, or under a ``memo`` function's key, gives some wrong node.
    cases = renaming_cases()
    for t, sigma in cases:
        assert_renamed(t, sigma)
        assert_memo_functions(t)
    for t, sigma in reversed(cases):
        assert_memo_functions(t)
        assert_renamed(t, sigma)


def test_renaming_memo_depends_only_on_the_map_on_free_names():
    spare, unused = user("q"), user("r")
    for t, sigma in renaming_cases():
        assert spare not in free_names(t)
        got = apply_renaming(t, sigma)
        widened = {n: n for n in sorted(free_names(t), key=Name.sort_key)}
        widened.update(reversed(list(sigma.items())))
        widened[spare] = unused
        assert apply_renaming(t, widened) is got, (pprint(t), sigma)


def test_memoised_encoders_equal_the_unmemoised_walk():
    for t in corpus_and_encodings(GeneratorConfig(max_nodes=3)):
        assert_encodings(t)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TERMS)
def test_memoised_encoders_equal_the_unmemoised_walk_on_generated_terms(p):
    assert_encodings(p)


def assert_encodings(t):
    # The hand-written clauses and the unmemoised walk live with the
    # encoding tests, which import this module's strategies.
    from test_encodings import REF_IN, REF_OUT, encode_with

    clauses = {
        encodings._boudol: (REF_OUT[EncodingScheme.BOUDOL], REF_IN[EncodingScheme.BOUDOL]),
        encodings._honda_tokoro: (
            REF_OUT[EncodingScheme.HONDA_TOKORO],
            REF_IN[EncodingScheme.HONDA_TOKORO],
        ),
    }
    for memoised, (out_clause, in_clause) in clauses.items():
        want = encode_with(t, out_clause, in_clause)
        assert memoised(t) is want, (memoised.__name__, pprint(t))


def test_no_module_level_caches_remain():
    for info in pkgutil.iter_modules(picheck.__path__):
        module = importlib.import_module(f"picheck.{info.name}")
        for name, value in vars(module).items():
            assert not hasattr(value, "cache_info"), f"{info.name}.{name}"
    for name, fn in vars(reduction).items():
        if inspect.isfunction(fn) and not name.startswith("_"):
            assert "unfold_depth" not in inspect.signature(fn).parameters, name
