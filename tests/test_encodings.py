"""Clause-level vectors for the two translations and their context apparatus.

The prefix clauses are pinned as exact ASTs (fresh names are deterministic,
least-index-first), the remaining operators as homomorphisms.  Context
building and filling are cross-checked against the recursive encoder, which
gives two independent code paths to the same term.  The clause templates
are pinned as printed terms, and every encoder, mutant and context built
from them is compared node for node with the hand-written clauses below.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_syntax import TERMS, _subterms

from picheck import encodings
from picheck.syntax import names
from picheck import (
    NIL,
    SUCCESS,
    Context,
    EncodingScheme,
    GeneratorConfig,
    Hole,
    Input,
    Mutation,
    Output,
    Par,
    Repl,
    Restrict,
    alpha_canonical,
    alpha_eq,
    anchor_steps,
    fresh_name,
    asyncify,
    bound_names,
    context_for,
    decompose,
    encode,
    fill,
    free_names,
    fresh,
    generate_terms,
    is_async,
    mutant_encoder,
    par_all,
    parse,
    pprint,
    reduct_candidates,
    user,
)

x, y, z, a = user("x"), user("y"), user("z"), user("a")

BOUDOL = EncodingScheme.BOUDOL
HONDA_TOKORO = EncodingScheme.HONDA_TOKORO
SCHEMES = (BOUDOL, HONDA_TOKORO)


def corpus(max_nodes=3, names=(x, y)):
    return list(generate_terms(GeneratorConfig(max_nodes=max_nodes, name_alphabet=names)))


# --- prefix clauses, exact ASTs ---


def test_nil_and_success_are_fixed_points():
    for scheme in SCHEMES:
        assert encode(NIL, scheme) == NIL
        assert encode(SUCCESS, scheme) == SUCCESS


def test_boudol_output_clause():
    got = encode(Output(x, y, NIL), BOUDOL)
    u, v = fresh(0), fresh(1)
    want = Restrict(
        u, Par(Output(x, u, NIL), Input(u, v, Par(Output(v, y, NIL), NIL)))
    )
    assert got == want


def test_boudol_input_clause():
    got = encode(Input(x, z, NIL), BOUDOL)
    u, v = fresh(0), fresh(1)
    want = Input(x, u, Restrict(v, Par(Output(u, v, NIL), Input(v, z, NIL))))
    assert got == want


def test_honda_tokoro_output_clause():
    got = encode(Output(x, y, NIL), HONDA_TOKORO)
    u = fresh(0)
    want = Input(x, u, Par(Output(u, y, NIL), NIL))
    assert got == want


def test_honda_tokoro_input_clause():
    got = encode(Input(x, z, NIL), HONDA_TOKORO)
    u = fresh(0)
    want = Restrict(u, Par(Output(x, u, NIL), Input(u, z, NIL)))
    assert got == want


def test_output_clause_wraps_encoded_continuation():
    p = Output(x, y, Input(x, z, NIL))
    for scheme in SCHEMES:
        got = encode(p, scheme)
        inner = encode(Input(x, z, NIL), scheme)

        def holds_inner(t):
            match t:
                case Par(left=l, right=r):
                    return holds_inner(l) or holds_inner(r)
                case Restrict(body=b) | Input(cont=b) | Repl(body=b):
                    return t == inner or holds_inner(b)
            return t == inner

        assert holds_inner(got)


def test_fresh_names_avoid_continuation_names():
    # The continuation mentions #0 free, so both clause layers move past it.
    cont = Output(fresh(0), fresh(0), NIL)
    inner = encode(cont, HONDA_TOKORO)
    assert inner == Input(fresh(0), fresh(1), Par(Output(fresh(1), fresh(0), NIL), NIL))
    got = encode(Output(x, y, cont), HONDA_TOKORO)
    assert got == Input(x, fresh(1), Par(Output(fresh(1), y, NIL), inner))


# --- homomorphic operators ---


def test_homomorphic_clauses_on_corpus():
    for scheme in SCHEMES:
        for t in corpus():
            assert encode(Par(t, t), scheme) == Par(encode(t, scheme), encode(t, scheme))
            assert encode(Restrict(a, t), scheme) == Restrict(a, encode(t, scheme))
            assert encode(Repl(t), scheme) == Repl(encode(t, scheme))


def test_images_are_asynchronous():
    for scheme in SCHEMES:
        for t in corpus():
            assert is_async(encode(t, scheme)), pprint(t)


def test_images_preserve_free_names():
    for scheme in SCHEMES:
        for t in corpus():
            assert free_names(encode(t, scheme)) == free_names(t), pprint(t)


def test_encoding_respects_alpha_classes():
    p = Input(x, z, Output(z, z, NIL))
    q = Input(x, y, Output(y, y, NIL))
    for scheme in SCHEMES:
        assert alpha_eq(encode(p, scheme), encode(q, scheme))
    for scheme in SCHEMES:
        for t in corpus():
            assert alpha_eq(encode(alpha_canonical(t), scheme), encode(t, scheme))


@pytest.mark.parametrize("names", [(x, y), (x, y, z)], ids=["xy", "xyz"])
def test_encoding_is_injective_up_to_alpha(names):
    # The corpus holds one term per alpha class, so distinct terms must
    # have images in distinct alpha classes.
    terms = corpus(names=names)
    for scheme in SCHEMES:
        images = {alpha_canonical(encode(t, scheme)) for t in terms}
        assert len(images) == len(terms), scheme


# --- operator decomposition and contexts ---


def test_decompose_vectors():
    assert decompose(NIL) == (NIL, ())
    op, args = decompose(Output(x, y, SUCCESS))
    assert op == Output(x, y, Hole(0)) and args == (SUCCESS,)
    op, args = decompose(Par(NIL, SUCCESS))
    assert op == Par(Hole(0), Hole(1)) and args == (NIL, SUCCESS)
    op, args = decompose(Repl(SUCCESS))
    assert op == Repl(Hole(0)) and args == (SUCCESS,)


def test_par_context_is_the_operator_itself():
    ctx = context_for(Par(Hole(0), Hole(1)), frozenset(), BOUDOL)
    assert ctx.term == Par(Hole(0), Hole(1))
    assert ctx.capturing == frozenset()


def test_repl_context_is_the_operator_itself():
    ctx = context_for(Repl(Hole(0)), frozenset({x}), HONDA_TOKORO)
    assert ctx.term == Repl(Hole(0))
    assert ctx.capturing == frozenset()


def test_output_context_binders_avoid_the_index_set():
    n = frozenset({x, y, a})
    for scheme in SCHEMES:
        ctx = context_for(Output(x, y, Hole(0)), n, scheme)
        assert ctx.capturing == frozenset()
        assert bound_names(ctx.term).isdisjoint(n)


def test_binding_contexts_declare_their_binder():
    assert context_for(Input(x, z, Hole(0)), frozenset(), BOUDOL).capturing == {z}
    assert context_for(Restrict(a, Hole(0)), frozenset(), HONDA_TOKORO).capturing == {a}


def test_fill_rejects_capture():
    ctx = Context(Input(x, z, Hole(0)), frozenset())
    with pytest.raises(ValueError):
        fill(ctx, (Output(z, z, NIL),))


def test_fill_lists_the_capturing_binders_in_name_order():
    # User names sort before fresh ones; the set itself iterates in address order.
    names = [fresh(1), user("h"), a, fresh(0), z, user("d"), x, y]
    ctx, plug = Hole(0), NIL
    for n in names:
        ctx, plug = Restrict(n, ctx), Par(Output(n, n, NIL), plug)
    with pytest.raises(ValueError) as caught:
        fill(Context(ctx, frozenset()), (plug,))
    assert str(caught.value) == "context binders a, d, h, x, y, z, #0, #1 would capture the plug"


def test_fill_with_declared_binder_captures_on_purpose():
    ctx = Context(Input(x, z, Hole(0)), frozenset({z}))
    assert fill(ctx, (Output(z, z, NIL),)) == Input(x, z, Output(z, z, NIL))


def test_context_fill_agrees_with_recursive_encoder():
    # Two code paths to the same image: instantiate the operator's context
    # and plug encoded subterms, or encode the composed term directly.
    for scheme in SCHEMES:
        for s in corpus():
            op, args = decompose(s)
            if not args:
                continue
            ctx = context_for(op, free_names(s), scheme)
            plugged = fill(ctx, tuple(encode(t, scheme) for t in args))
            assert plugged == encode(s, scheme), pprint(s)


# --- step expansion factors ---


def test_anchor_steps():
    assert anchor_steps(BOUDOL) == 3
    assert anchor_steps(HONDA_TOKORO) == 2


def test_schemes_hash_by_identity():
    # Every criterion looks its scheme up in dicts keyed by scheme; the
    # identity hash is a C slot, where ``Enum.__hash__`` is a Python call.
    assert EncodingScheme.__hash__ is object.__hash__
    assert {s: s.value for s in SCHEMES}[HONDA_TOKORO] == "honda-tokoro"
    assert all(pickle.loads(pickle.dumps(s)) is s for s in SCHEMES)


# --- deliberate defects ---


def test_every_mutant_differs_from_the_real_encoder():
    probe = parse("x!y.0")
    for scheme in SCHEMES:
        for mutation in Mutation:
            mutated = mutant_encoder(scheme, mutation)(probe)
            assert not alpha_eq(mutated, encode(probe, scheme)), (scheme, mutation)


def test_mutations_live_in_the_output_clause():
    probe = parse("x(z).0")
    for scheme in SCHEMES:
        for mutation in Mutation:
            assert mutant_encoder(scheme, mutation)(probe) == encode(probe, scheme)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TERMS)
def test_images_are_asynchronous_and_keep_free_names_on_generated_terms(p):
    for scheme in SCHEMES:
        image = encode(p, scheme)
        assert is_async(image), pprint(p)
        assert free_names(image) == free_names(p), pprint(p)


def test_mutant_encoder_rejects_a_label_that_is_not_a_mutation():
    # The label's string, where the enum member belongs, used to fall
    # through to the real encoder's output clause.
    with pytest.raises(ValueError, match="not a Mutation"):
        mutant_encoder(BOUDOL, Mutation.DROP_FORWARDER.value)


# --- clause templates against the hand-written clauses ---
#
# The clauses as first written, one Python function each, and the mutants
# and the unmemoised translation walk built on them: the reference for the
# compiled templates.


def fresh_pair(avoid):
    u = fresh_name(avoid)
    v = fresh_name(avoid | {u})
    return u, v


def boudol_out(x, y, body, extra=frozenset()):
    avoid = free_names(body) | {x, y} | extra
    u, v = fresh_pair(avoid)
    return Restrict(u, Par(Output(x, u, NIL), Input(u, v, Par(Output(v, y, NIL), body))))


def boudol_in(x, z, body, extra=frozenset()):
    avoid = free_names(body) | {x, z} | extra
    u, v = fresh_pair(avoid)
    return Input(x, u, Restrict(v, Par(Output(u, v, NIL), Input(v, z, body))))


def ht_out(x, y, body, extra=frozenset()):
    avoid = free_names(body) | {x, y} | extra
    u = fresh_name(avoid)
    return Input(x, u, Par(Output(u, y, NIL), body))


def ht_in(x, z, body, extra=frozenset()):
    avoid = free_names(body) | {x, z} | extra
    u = fresh_name(avoid)
    return Restrict(u, Par(Output(x, u, NIL), Input(u, z, body)))


REF_OUT = {BOUDOL: boudol_out, HONDA_TOKORO: ht_out}
REF_IN = {BOUDOL: boudol_in, HONDA_TOKORO: ht_in}


def mutated_out(scheme, mutation):
    def drop_forwarder(x, y, body, extra=frozenset()):
        avoid = free_names(body) | {x, y} | extra
        if scheme is BOUDOL:
            u, v = fresh_pair(avoid)
            return Restrict(u, Par(Output(x, u, NIL), Input(u, v, body)))
        u = fresh_name(avoid)
        return Input(x, u, body)

    def swap_fresh_roles(x, y, body, extra=frozenset()):
        avoid = free_names(body) | {x, y} | extra
        if scheme is BOUDOL:
            u, v = fresh_pair(avoid)
            return Restrict(
                u, Par(Output(x, u, NIL), Input(u, v, Par(Output(u, y, NIL), body)))
            )
        u = fresh_name(avoid)
        return Input(x, u, Par(Output(u, u, NIL), body))

    def reuse_bound_name(x, y, body, extra=frozenset()):
        if scheme is BOUDOL:
            avoid = free_names(body) | {x, y} | extra
            v = fresh_name(avoid)
            return Restrict(
                x, Par(Output(x, x, NIL), Input(x, v, Par(Output(v, y, NIL), body)))
            )
        return Input(x, y, Par(Output(y, y, NIL), body))

    return {
        Mutation.DROP_FORWARDER: drop_forwarder,
        Mutation.SWAP_FRESH_ROLES: swap_fresh_roles,
        Mutation.REUSE_BOUND_NAME: reuse_bound_name,
        Mutation.SWAP_SCHEME_OUTPUT: REF_OUT[HONDA_TOKORO if scheme is BOUDOL else BOUDOL],
    }[mutation]


def encode_with(p, out_clause, in_clause):
    """The translation by the given clauses, memoised nowhere."""
    match p:
        case Output(subject=x, obj=y, cont=c):
            return out_clause(x, y, encode_with(c, out_clause, in_clause))
        case Input(subject=x, binder=z, cont=c):
            return in_clause(x, z, encode_with(c, out_clause, in_clause))
        case Par(left=l, right=r):
            return Par(encode_with(l, out_clause, in_clause), encode_with(r, out_clause, in_clause))
        case Restrict(binder=b, body=body):
            return Restrict(b, encode_with(body, out_clause, in_clause))
        case Repl(body=body):
            return Repl(encode_with(body, out_clause, in_clause))
    return p


def reference_encoders():
    """(encoder, its hand-written clauses) for both schemes, real and mutated."""
    pairs = []
    for scheme in SCHEMES:
        pairs.append((encodings.translator(scheme), (REF_OUT[scheme], REF_IN[scheme])))
        for mutation in Mutation:
            pairs.append(
                (mutant_encoder(scheme, mutation), (mutated_out(scheme, mutation), REF_IN[scheme]))
            )
    return pairs


def ref_context_term(op, free_set, scheme):
    match op:
        case Output(subject=x, obj=y, cont=Hole() as h):
            return REF_OUT[scheme](x, y, h, free_set)
        case Input(subject=x, binder=z, cont=Hole() as h):
            return REF_IN[scheme](x, z, h, free_set)
    return op


def assert_same_as_hand_written(terms):
    for translate, (out_clause, in_clause) in reference_encoders():
        for t in terms:
            assert translate(t) is encode_with(t, out_clause, in_clause), pprint(t)
    for t in terms:
        op, _ = decompose(t)
        for free_set in (frozenset(), free_names(t) | {a, fresh(0), fresh(2)}):
            for scheme in SCHEMES:
                want = ref_context_term(op, free_set, scheme)
                assert context_for(op, free_set, scheme).term is want, (pprint(t), scheme)


def test_templates_give_the_hand_written_images_and_contexts():
    random_terms = generate_terms(GeneratorConfig(max_nodes=8, random_count=20000, seed=3))
    assert_same_as_hand_written([*corpus(4), *random_terms])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TERMS)
def test_templates_give_the_hand_written_images_on_generated_terms(p):
    assert_same_as_hand_written([p])


def test_every_template_prints_as_the_paper_writes_it():
    printed = {
        scheme: (pprint(encodings._OUT_TEMPLATES[scheme]), pprint(encodings._IN_TEMPLATES[scheme]))
        for scheme in SCHEMES
    }
    assert printed == {
        BOUDOL: ("new u. (x!u.0 | u(v).(v!y.0 | _0))", "x(u).new v. (u!v.0 | v(z)._0)"),
        HONDA_TOKORO: ("x(u).(u!y.0 | _0)", "new u. (x!u.0 | u(z)._0)"),
    }
    mutants = {m: tuple(map(pprint, row)) for m, row in encodings._MUTANT_OUT_TEMPLATES.items()}
    assert mutants == {
        Mutation.DROP_FORWARDER: ("new u. (x!u.0 | u(v)._0)", "x(u)._0"),
        Mutation.SWAP_FRESH_ROLES: ("new u. (x!u.0 | u(v).(u!y.0 | _0))", "x(u).(u!u.0 | _0)"),
        Mutation.REUSE_BOUND_NAME: ("new x. (x!x.0 | x(u).(u!y.0 | _0))", "x(y).(y!y.0 | _0)"),
        Mutation.SWAP_SCHEME_OUTPUT: (printed[HONDA_TOKORO][0], printed[BOUDOL][0]),
    }


def test_mutant_encoder_is_one_memoised_function():
    for scheme in SCHEMES:
        for mutation in Mutation:
            assert mutant_encoder(scheme, mutation) is mutant_encoder(scheme, mutation)


# --- the fresh-name rule, one pass against the growing avoid set ---


def growing_set_clause(template):
    """A template's clause with each bookkeeping name picked by
    ``fresh_name`` over the names taken so far, the one just picked
    included: the reference for the compiled clauses' one-pass pick."""
    fresh_slots = [n for n in (encodings._U, encodings._V) if n in names(template)]
    slots = {encodings._X: 0, encodings._Y: 1, encodings._Z: 1}
    slots |= {n: 2 + i for i, n in enumerate(fresh_slots)}
    build = encodings._compile(template, slots)

    def clause(x, y, body, extra):
        env, taken = [x, y], {x, y, *free_names(body), *extra}
        for _ in fresh_slots:
            env.append(fresh_name(taken))
            taken.add(env[-1])
        return build(env, body)

    return clause


def every_template():
    """The real and mutant clause templates, each once."""
    rows = [
        *encodings._OUT_TEMPLATES.values(),
        *encodings._IN_TEMPLATES.values(),
        *(t for row in encodings._MUTANT_OUT_TEMPLATES.values() for t in row),
    ]
    return list({id(t): t for t in rows}.values())


def test_clauses_pick_the_fresh_names_of_the_growing_set_rule():
    # Bodies holding free fresh names: every subterm of the 3-node corpus,
    # its encodings, their one-step reducts and the alpha forms of all of
    # these, in a fixed order.  The bodies take the prefix pairs and
    # ``extra`` sets below in turn: the four sets ``context_for`` is given
    # on this corpus (the arguments' free names), with user and fresh
    # prefix names, and one set of fresh names.
    source = corpus(3)
    terms = dict.fromkeys(source)
    for scheme in SCHEMES:
        for s in source:
            image = encode(s, scheme)
            terms[image] = None
            terms.update((q, None) for q, _ in reduct_candidates(image))
    terms.update((alpha_canonical(t), None) for t in list(terms))
    bodies = dict.fromkeys(q for t in terms for q in _subterms(t))
    assert sum(any(n.is_fresh for n in free_names(b)) for b in bodies) > 1000
    extras = {frozenset().union(*map(free_names, decompose(s)[1])) for s in source}
    assert extras == {frozenset(), frozenset({x}), frozenset({y}), frozenset({x, y})}
    calls = [
        (x, y, frozenset()),
        (y, x, frozenset({x, y})),
        (fresh(0), y, frozenset({y})),
        (x, fresh(1), frozenset({x})),
        (fresh(2), fresh(0), frozenset({fresh(1)})),
    ]
    clauses = [(encodings._clause(t), growing_set_clause(t)) for t in every_template()]
    for i, body in enumerate(bodies):
        u, v, extra = calls[i % len(calls)]
        for got, want in clauses:
            assert got(u, v, body, extra) is want(u, v, body, extra), (pprint(body), u, v)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.frozensets(st.integers(0, 8)),
    st.frozensets(st.integers(0, 8)),
    st.sampled_from([x, y, fresh(0), fresh(1), fresh(3)]),
    st.sampled_from([x, y, fresh(0), fresh(2)]),
)
def test_clauses_pick_the_fresh_names_of_the_growing_set_rule_on_random_keys(
    body_keys, extra_keys, u, v
):
    body = par_all(Output(fresh(k), y, NIL) for k in sorted(body_keys))
    extra = frozenset(map(fresh, extra_keys)) | {x}
    for template in every_template():
        got = encodings._clause(template)(u, v, body, extra)
        assert got is growing_set_clause(template)(u, v, body, extra), pprint(template)


# --- asyncify, the third clause walk ---


def ref_asyncify(p):
    """The nearest asynchronous term as first written: a recursive walk,
    memoised nowhere."""
    match p:
        case Output(subject=s, obj=o, cont=c):
            rest = ref_asyncify(c)
            send = Output(s, o, NIL)
            return send if rest == NIL else Par(send, rest)
        case Input(subject=s, binder=b, cont=c):
            return Input(s, b, ref_asyncify(c))
        case Par(left=l, right=r):
            return Par(ref_asyncify(l), ref_asyncify(r))
        case Restrict(binder=b, body=body):
            return Restrict(b, ref_asyncify(body))
        case Repl(body=body):
            return Repl(ref_asyncify(body))
    return p


def test_asyncify_equals_the_recursive_walk():
    random_terms = generate_terms(GeneratorConfig(max_nodes=8, random_count=2000, seed=9))
    for t in [*corpus(3), *random_terms]:
        got = asyncify(t)
        assert got is ref_asyncify(t), pprint(t)
        assert is_async(got) and asyncify(got) is got, pprint(t)
